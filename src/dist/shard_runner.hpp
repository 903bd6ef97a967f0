#pragma once

#include <cstdint>
#include <string>

#include "dist/manifest.hpp"

namespace qufi::dist {

/// Worker-side knobs that are not part of the campaign identity: how many
/// threads compute the shard and where its partial goes. None of them
/// changes the computed records.
struct ShardRunOptions {
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;
  /// Borrowed lanes to run the shard's engine work on instead of a pool of
  /// `threads` (CampaignSpec::pool). Not owned; nullptr = own pool.
  util::ThreadPool* pool = nullptr;
  /// The shard's partial: a columnar QUFIPART file (docs/RESULT_FORMAT.md)
  /// the records stream into as points complete, so worker memory stays at
  /// O(in-flight points) whatever the grid size. Written via temp + rename
  /// unless columnar_live; merge_result_files consumes it directly.
  /// Required: run_shard throws qufi::Error when it is empty.
  std::string columnar_output_path;
  /// Write the columnar partial in WriteMode::Live (in place, per-block
  /// flush) instead of temp + rename, so a dispatcher's Tail-mode reader
  /// can merge the shard's completed points while it still runs — the
  /// live-progress path of docs/DISPATCHER.md.
  bool columnar_live = false;
};

/// What one shard execution produced.
struct ShardRunOutput {
  /// Size of the sealed columnar partial.
  std::uint64_t partial_bytes = 0;
  /// Records streamed into the columnar partial.
  std::uint64_t streamed_records = 0;
};

/// Executes one shard manifest end to end: rebuilds the campaign spec,
/// constructs the worker backend (density or trajectory), and runs the
/// subset campaign over the shard's points, streaming its records into
/// options.columnar_output_path. The partial's header comes from the
/// engine (ResultBlockSink::begin) and carries the global expected-record
/// count the merger checks completeness against.
///
/// Deterministic and idempotent: re-running the same manifest reproduces
/// the same partial bit-for-bit, so retries after a crash are safe and the
/// merger can treat duplicate shard outputs as confirmations.
ShardRunOutput run_shard(const ShardManifest& manifest,
                         const ShardRunOptions& options);

}  // namespace qufi::dist
