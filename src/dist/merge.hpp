#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/results.hpp"

namespace qufi::dist {

/// Knobs for recombining shard outputs.
struct MergeOptions {
  /// Accept an incomplete merge (lost shard recovery): suppresses the
  /// completeness check against the partials' expected_total_records and
  /// the adaptive every-point check.
  bool allow_incomplete = false;
};

/// Which injection points ended a merge with zero records. For single-fault
/// campaigns that is exactly the not-yet-merged set (every point sweeps a
/// non-empty grid); double-fault points with no coupled active neighbor
/// legitimately appear here too, so the report is a diagnostic, not a
/// failure by itself. Dispatchers and humans read the same thing: how many
/// points are outstanding and which global indices to look at first.
struct MissingPointReport {
  std::uint64_t count = 0;
  /// First few missing global point indices (at most 8), ascending.
  std::vector<std::uint32_t> first;

  /// " (3 points have no records; first missing: 4, 7, 11)" — empty string
  /// when nothing is missing. Appended to merge errors and CLI summaries.
  std::string describe() const;
};

/// What a streaming file merge did (for perf reporting and CLI summaries).
struct StreamingMergeStats {
  std::uint64_t merged_records = 0;  ///< records written to the output
  /// Records dropped as bit-exact duplicates of an earlier shard's (retried
  /// shards re-execute points; identical output confirms the retry).
  std::uint64_t duplicate_records = 0;
  std::uint64_t input_bytes = 0;  ///< total size of the input files
  /// Points that contributed zero records to the merged output (see
  /// MissingPointReport) — the requeue-aware diagnostic behind
  /// --allow-partial: a lost shard shows up here by its point indices.
  MissingPointReport missing;
};

/// Recombines shard partials into the full-campaign result: a streaming
/// k-way merge over columnar QUFIPART partials, writing the merged result
/// as one columnar file (shard 0-of-1).
///
/// Deterministic by construction: records are reassembled in ascending
/// global point-index order (the single-process enumeration order), not in
/// shard arrival order — merging the same partials in any permutation
/// yields the identical records, and on the density backend they are
/// bit-identical to the one-process run (trajectory: identical under
/// common random numbers, i.e. when every shard was produced with the same
/// manifest seed).
///
/// Shards are idempotent retry units: when two inputs both carry a point
/// (a retried shard re-ran it), the duplicates must agree bit-exactly and
/// the first input's copy is kept; conflicting duplicates throw, naming
/// the shard pair and the point ("shard 2 and shard 5 disagree on point
/// 17"): they indicate divergent workers, not a retry.
///
/// Unless options.allow_incomplete, the merged record count must equal the
/// partials' expected_total_records (adaptive partials carry 0 and instead
/// need records at every point); the error names the missing points.
///
/// Never materializes the campaign: each input contributes at most one
/// decoded block at a time (peak memory O(shards x block), not
/// O(campaign)), and the output streams through a resio::ResultWriter.
/// The CSV export below adds one merge batch of records and the formatted
/// text of at most 2 x lanes CSV blocks.
/// The merged file's executions/injections are recomputed from the merged
/// record set (duplicates would double-count a sum over shards).
///
/// Throws qufi::Error on empty input, a header (metadata, point table,
/// shard count, expected total) mismatch, a conflict, or a failed
/// completeness check.
StreamingMergeStats merge_result_files(std::span<const std::string> inputs,
                                       const std::string& out_path,
                                       const MergeOptions& options = {});

/// Records merge_result_files_to_csv gathers (in whole point runs) before
/// it formats them on its pool's lanes: 8 CSV blocks.
inline constexpr std::size_t kMergeCsvBatchRecords =
    8 * CampaignCsvWriter::kBlockRows;

/// Same streaming merge, but exporting straight to campaign CSV through
/// CampaignCsvWriter — byte-identical to CampaignResult::write_csv on the
/// merged result (same writer, same canonical point order). A single
/// input makes this the QUFIPART-to-CSV export. Rows are formatted on
/// `pool`'s lanes (borrowed, may be shared with other callers) or, when it
/// is null, on a pool of hardware threads built for the call, one batch of
/// kMergeCsvBatchRecords records (plus the rest of the point run that
/// crossed it) at a time.
StreamingMergeStats merge_result_files_to_csv(
    std::span<const std::string> inputs, const std::string& csv_path,
    const MergeOptions& options = {}, util::ThreadPool* pool = nullptr);

/// One input of an incremental (prefix) merge: a columnar partial that may
/// still be growing, plus the global point indices its shard owns (from the
/// shard's manifest). Ownership is what lets the merge distinguish "this
/// point's records have not arrived yet" from "this point has none".
struct PrefixMergeInput {
  std::string path;
  /// Strictly increasing global point indices assigned to the shard that
  /// writes (or wrote) this file. Multiple inputs may carry the same owned
  /// set: retries of one shard all own the same points.
  std::vector<std::size_t> owned_points;
};

/// What merge_result_prefix saw and produced.
struct PrefixMergeResult {
  /// Points [0, frontier) are final: every one of them is either present in
  /// a complete block of some input or owned by a *sealed* input (which
  /// proves it has zero records). The merged prefix below covers exactly
  /// these points and is bit-identical to the first records of the final
  /// merged output — and it only ever grows as inputs grow.
  std::uint32_t frontier = 0;
  std::uint32_t total_points = 0;
  bool complete = false;  ///< frontier == total_points and some input seen
  std::uint64_t sealed_inputs = 0;
  /// Inputs skipped because not even their header could be read yet (a live
  /// writer that has not flushed it, or a worker killed that early). They
  /// contribute nothing; corruption *inside* a readable file still throws.
  std::uint64_t unreadable_inputs = 0;
  /// The monotone merge prefix: records for points [0, frontier) in
  /// ascending point order, duplicates verified bit-exactly and dropped
  /// (first input wins, as in merge_result_files).
  std::vector<InjectionRecord> records;
  /// Header metadata of the first readable input (every readable header
  /// is final, so all inputs agree on it); executions/injections are
  /// recomputed over the prefix records.
  CampaignMetadata meta;
  /// Global point table (identical across inputs), so callers can render
  /// the prefix as CSV rows without reopening any input.
  std::vector<InjectionPoint> points;
};

/// Bit-exact equivalence of two *sealed* columnar partials: same campaign
/// identity (metadata + point table) and identical record sequences in
/// ascending point order, doubles compared by bit pattern. Block layout may
/// differ (completion order varies run to run) — equivalence is over the
/// records, which is what merging consumes. This is the dispatcher's
/// duplicate-completion check: a requeued shard's original worker reporting
/// late must have produced the same bits as the accepted retry. Throws
/// qufi::Error when either file cannot be read as a sealed partial.
bool result_files_equivalent(const std::string& a, const std::string& b);

/// Incremental k-way merge over possibly still-growing columnar partials —
/// the dispatcher's live QVF view (docs/DISPATCHER.md). Opens every input
/// in ReadMode::Tail, computes the resolved frontier from complete blocks
/// plus sealed-input ownership, and merges exactly the points below it.
/// Successive calls over growing files yield prefixes that extend each
/// other bit-exactly and converge to the final merged record sequence once
/// every shard's output is sealed. Throws qufi::Error on metadata/point
/// table mismatches between readable inputs, on conflicting duplicates, or
/// on corruption inside available bytes.
PrefixMergeResult merge_result_prefix(std::span<const PrefixMergeInput> inputs);

}  // namespace qufi::dist
