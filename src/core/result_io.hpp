#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/results.hpp"

namespace qufi::resio {

/// 8-byte file magic of the binary columnar result/partial container
/// (docs/RESULT_FORMAT.md). The version
/// bumps on any layout change, and readers accept only the version they
/// write: a partial in any other version is recomputed from its manifest.
inline constexpr char kResultMagic[8] = {'Q', 'U', 'F', 'I',
                                         'P', 'A', 'R', 'T'};
/// v2: fixed-size adaptive-estimation fields after faultfree_qvf (flag,
/// max_config_fraction, qvf_ci_target, min_configs_per_point, seed).
inline constexpr std::uint32_t kResultVersion = 2;

/// Default block-cut target: ResultWriter closes a block at the first point
/// boundary at or past this many buffered records, so merge memory is
/// O(shards x block) while per-block framing overhead stays negligible.
inline constexpr std::size_t kDefaultBlockRecords = 4096;

/// How ResultWriter materializes the output file.
enum class WriteMode {
  /// Stream to a process-unique temp file, rename into place at finish():
  /// a crashed writer never leaves a file at `path` at all. The default,
  /// and the right mode for every batch artifact.
  TempRename,
  /// Stream directly to `path` (truncating it) and flush each block as it
  /// is written, so a concurrent ReadMode::Tail reader observes sealed
  /// blocks while the file grows — the dispatcher's live-progress path. A
  /// crashed writer leaves an unsealed (end-marker-less) file behind; tail
  /// readers consume its complete blocks, the strict reader rejects it.
  Live,
};

/// How ResultReader treats the file's seal.
enum class ReadMode {
  /// Require the end marker: a file without one is truncated output from a
  /// crashed worker and is rejected up front. The default.
  Sealed,
  /// Tail a possibly still-growing file: index every complete block, stop
  /// cleanly at a torn tail (an incomplete final frame — bytes a live
  /// writer has not finished appending), and treat the end marker as
  /// optional. Complete-but-invalid sections (a checksum mismatch inside a
  /// fully present block) still throw: a torn append is always a *prefix*
  /// of valid frames, so inconsistency inside available bytes is
  /// corruption, not growth. sealed() reports whether the end marker was
  /// seen; until then totals come from indexed blocks only.
  Tail,
};

/// Everything a result file knows before any record is computed: shard
/// identity, campaign metadata, and the full global point table (identical
/// across shards, so the merger cross-checks without re-transpiling).
/// `meta.executions`/`meta.injections` are NOT stored here — they live in
/// the end marker, which is what lets a worker stream blocks to disk as the
/// engine completes them instead of accumulating the whole result first.
struct ResultFileHeader {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Global record count of the full campaign (all shards) — the merger's
  /// completeness check. For a full (unsharded) result this equals the
  /// file's own record count; 0 for adaptive campaigns, whose merger checks
  /// per-point coverage instead.
  std::uint64_t expected_total_records = 0;

  CampaignMetadata meta;
  std::vector<InjectionPoint> points;
};

/// Append-oriented writer for the QUFIPART container.
///
/// The header (shard identity, metadata, point table) is written once, up
/// front, and never rewritten; records then stream out in checksummed
/// columnar blocks, and finish() seals the file with an end marker carrying
/// the totals that are only known once the campaign ran. Writes go to a
/// process-unique temp file that finish() renames into place, so a crashed
/// worker can never leave a truncated file that parses as a result (the
/// reader requires the end marker).
///
/// Block invariants (what makes the streaming k-way merge possible):
///  - records within a block are sorted by point index;
///  - a point never spans two blocks;
///  - block point ranges within one file are pairwise disjoint (blocks may
///    arrive in any order — completion order from a campaign sink — and
///    the reader sorts its block index by first point).
/// append() enforces the first two and cuts blocks at point boundaries; the
/// third holds as long as every point is appended exactly once.
///
/// Thread-safety: append() may be called concurrently (a campaign pool's
/// lanes flush completed points directly); internal state is mutex-guarded.
class ResultWriter {
 public:
  /// Opens `path` for writing (via temp file in TempRename mode, in place in
  /// Live mode; see WriteMode) and writes the header. Throws qufi::Error
  /// when the file cannot be created.
  ResultWriter(std::string path, const ResultFileHeader& header,
               std::size_t block_records = kDefaultBlockRecords,
               WriteMode mode = WriteMode::TempRename);
  /// Aborting destructor: if finish() was never called, the temp file is
  /// removed and `path` is left untouched (TempRename), or the unsealed
  /// in-place file is left as-is (Live) — exactly the artifact a killed
  /// worker leaves for tail readers and quarantine logic to deal with.
  ~ResultWriter();

  ResultWriter(const ResultWriter&) = delete;
  ResultWriter& operator=(const ResultWriter&) = delete;

  /// Buffers `records` (non-decreasing point index within the span; spans
  /// themselves may arrive in any point order, whole points at a time) and
  /// flushes full blocks at point boundaries. Throws qufi::Error on a
  /// descending point index within the span or on I/O failure.
  void append(std::span<const InjectionRecord> records);

  /// Flushes the remaining buffer, writes the end marker (record total plus
  /// the campaign's execution accounting) and renames the temp file into
  /// place (TempRename mode). Must be called exactly once.
  void finish(std::uint64_t executions, std::uint64_t injections);

  std::uint64_t records_written() const { return records_written_; }
  /// Bytes written so far (final file size once finish() returned).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void flush_pending_locked(bool all);
  void write_block_locked(std::span<const InjectionRecord> records);

  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  std::size_t block_records_;
  WriteMode mode_;
  std::mutex mutex_;
  std::vector<InjectionRecord> pending_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

/// Streaming reader for the QUFIPART container.
///
/// Construction scans the whole file once: it parses and checksums the
/// header, indexes every block (offset, point range, record count — the
/// block bodies are skipped, not read), and validates the end marker, so a
/// truncated or corrupt file is rejected up front with a diagnosis naming
/// the bad section ("header checksum mismatch", "block 3: truncated", ...).
/// Block *bodies* are only read and checksummed by read_block(), one block
/// in memory at a time — the property the k-way merger builds on.
///
/// ReadMode::Tail relaxes exactly one thing: the end marker (and the bytes
/// of an unfinished final frame) may be missing, so a still-growing Live
/// file can be observed mid-write. Indexed blocks are complete either way —
/// a tail read never surfaces a torn block.
class ResultReader {
 public:
  explicit ResultReader(std::string path, ReadMode mode = ReadMode::Sealed);

  const ResultFileHeader& header() const { return header_; }
  /// True when the end marker was present (always true in Sealed mode).
  bool sealed() const { return sealed_; }
  /// Totals from the end marker. In Tail mode these are only meaningful
  /// once sealed(); use indexed_records() for live progress before that.
  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t executions() const { return executions_; }
  std::uint64_t injections() const { return injections_; }
  /// Sum of record counts over the indexed (complete) blocks — equals
  /// total_records() once sealed.
  std::uint64_t indexed_records() const { return indexed_records_; }

  struct BlockInfo {
    std::uint32_t first_point = 0;
    std::uint32_t last_point = 0;
    std::uint64_t num_records = 0;
  };
  /// Blocks in ascending first-point order (file order may differ when the
  /// writer streamed completion-ordered points). Ranges are validated to be
  /// pairwise disjoint at scan time.
  std::size_t num_blocks() const { return blocks_.size(); }
  const BlockInfo& block_info(std::size_t i) const { return blocks_[i].info; }

  /// Reads, checksums and decodes block `i` (sorted order). Throws
  /// qufi::Error on checksum mismatch, unsorted records, or records whose
  /// point index falls outside the block's declared range.
  std::vector<InjectionRecord> read_block(std::size_t i);

 private:
  struct IndexedBlock {
    BlockInfo info;
    std::uint64_t body_offset = 0;  ///< file offset of the block body
    std::uint64_t body_size = 0;
    std::size_t ordinal = 0;  ///< position in file order (for diagnostics)
  };

  std::string path_;
  std::ifstream in_;
  ResultFileHeader header_;
  std::vector<IndexedBlock> blocks_;
  bool sealed_ = false;
  std::uint64_t indexed_records_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t executions_ = 0;
  std::uint64_t injections_ = 0;
};

/// True when `path` currently holds at least a complete header section
/// (magic through header checksum) — the gate incremental mergers use to
/// separate "a live writer has not flushed its header yet" (skip the input
/// for now) from "readable": once this returns true, a Tail-mode
/// ResultReader either succeeds or diagnoses genuine corruption. Never
/// throws; a missing or too-short file is simply false.
bool result_header_available(const std::string& path);

/// Convenience one-shot writer: emits `records` (already sorted by point —
/// the canonical order every campaign/merge produces) as a sequence of
/// blocks. Used by the CLIs for non-streaming exports and by tests.
void write_result_file(const std::string& path, const ResultFileHeader& header,
                       std::span<const InjectionRecord> records,
                       std::uint64_t executions, std::uint64_t injections,
                       std::size_t block_records = kDefaultBlockRecords);

/// Convenience one-shot reader: loads the entire file (header + all blocks,
/// in sorted order). For streaming consumption use ResultReader directly.
struct LoadedResultFile {
  ResultFileHeader header;
  std::vector<InjectionRecord> records;
  std::uint64_t executions = 0;
  std::uint64_t injections = 0;
};
LoadedResultFile read_result_file(const std::string& path);

/// ResultBlockSink that streams a campaign into one QUFIPART file. begin()
/// opens the ResultWriter with the final header — the engine's metadata and
/// point table plus this file's shard identity — so every header that
/// reaches the disk is final from its first write; emit() appends. The
/// caller still invokes finish() (the engine cannot know when the *file* is
/// complete).
class ResultFileSink final : public ResultBlockSink {
 public:
  ResultFileSink(std::string path, std::uint32_t shard_index,
                 std::uint32_t shard_count,
                 WriteMode mode = WriteMode::TempRename);

  void begin(const CampaignMetadata& meta,
             std::span<const InjectionPoint> points,
             std::uint64_t expected_total_records) override;
  void emit(std::span<const InjectionRecord> records) override {
    writer_->append(records);
  }

  /// Seals the file (ResultWriter::finish). Throws qufi::Error when begin()
  /// never ran.
  void finish(std::uint64_t executions, std::uint64_t injections);

  /// The open writer; null before begin().
  const ResultWriter* writer() const { return writer_.get(); }

 private:
  std::string path_;
  std::uint32_t shard_index_;
  std::uint32_t shard_count_;
  WriteMode mode_;
  std::unique_ptr<ResultWriter> writer_;
};

}  // namespace qufi::resio
