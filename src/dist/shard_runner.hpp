#pragma once

#include <cstdint>
#include <string>

#include "dist/manifest.hpp"

namespace qufi::dist {

/// Worker-side execution knobs that are not part of the campaign identity
/// (they never change the computed records, only how fast they appear).
struct ShardRunOptions {
  /// Directory of serialized prefix snapshots; empty = always re-simulate
  /// prefixes. Shared across workers/retries, keyed to circuit bytes.
  std::string snapshot_dir;
  /// Store cache snapshots deflate-compressed (container v4). Purely a
  /// storage choice: keys and loaded states are codec-independent, so
  /// compressed and plain workers can share one snapshot_dir. Ignored
  /// without zlib support or snapshot_dir.
  bool compress_snapshots = false;
  /// Worker threads; 0 = hardware concurrency.
  int threads = 0;
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
  /// Snapshot-cache counters (both 0 when no snapshot_dir was given).
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  /// Size of the sealed columnar partial.
  std::uint64_t partial_bytes = 0;
  /// Records streamed into the columnar partial.
  std::uint64_t streamed_records = 0;
};

/// Executes one shard manifest end to end: rebuilds the campaign spec,
/// constructs the worker backend (density or trajectory, optionally behind
/// a snapshot cache), and runs the subset campaign over the shard's points,
/// streaming its records into options.columnar_output_path under a header
/// that carries the global expected-record count the merger checks
/// completeness against.
///
/// Deterministic and idempotent: re-running the same manifest reproduces
/// the same partial bit-for-bit, so retries after a crash are safe and the
/// merger can treat duplicate shard outputs as confirmations.
ShardRunOutput run_shard(const ShardManifest& manifest,
                         const ShardRunOptions& options);

}  // namespace qufi::dist
