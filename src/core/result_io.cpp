#include "core/result_io.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qufi::resio {

namespace {

constexpr std::uint8_t kBlockTag = 'B';
constexpr std::uint8_t kEndTag = 'E';

/// Fixed prefix of a block body (first_point, last_point, num_records).
constexpr std::uint64_t kBlockPrefixBytes = 4 + 4 + 8;
/// Per-record columnar footprint: 6 u32 index columns + 3 f64 columns.
constexpr std::uint64_t kRecordBytes = 6 * 4 + 3 * 8;
/// Point-table entry: instr_index (u64) + qubit, logical_qubit, moment.
constexpr std::uint64_t kPointBytes = 8 + 4 + 4 + 4;
/// End-marker body: total_records, executions, injections.
constexpr std::uint64_t kEndBodyBytes = 3 * 8;

std::uint32_t i32_bits(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

std::int32_t bits_i32(std::uint32_t v) {
  return static_cast<std::int32_t>(v);
}

void encode_header(util::ByteWriter& w, const ResultFileHeader& h) {
  w.u32(h.shard_index);
  w.u32(h.shard_count);
  w.u64(h.expected_total_records);
  w.str(h.meta.circuit_name);
  w.str(h.meta.backend_name);
  w.u32(i32_bits(h.meta.circuit_qubits));
  w.u32(i32_bits(h.meta.transpiled_gates));
  w.f64(h.meta.grid.theta_step_deg);
  w.f64(h.meta.grid.phi_step_deg);
  w.f64(h.meta.grid.theta_max_deg);
  w.f64(h.meta.grid.phi_max_deg);
  w.u64(h.meta.shots);
  w.u64(h.meta.seed);
  w.u8(h.meta.double_fault ? 1 : 0);
  w.u8(h.meta.idle_noise ? 1 : 0);
  w.f64(h.meta.faultfree_qvf);
  w.u8(h.meta.adaptive ? 1 : 0);
  w.f64(h.meta.adaptive_policy.max_config_fraction);
  w.f64(h.meta.adaptive_policy.qvf_ci_target);
  w.u32(h.meta.adaptive_policy.min_configs_per_point);
  w.u64(h.meta.adaptive_policy.seed);
  w.u64(h.points.size());
  for (const auto& p : h.points) {
    w.u64(static_cast<std::uint64_t>(p.instr_index));
    w.u32(i32_bits(p.qubit));
    w.u32(i32_bits(p.logical_qubit));
    w.u32(i32_bits(p.moment));
  }
}

ResultFileHeader decode_header(util::ByteReader& r, const std::string& path) {
  ResultFileHeader h;
  h.shard_index = r.u32();
  h.shard_count = r.u32();
  h.expected_total_records = r.u64();
  h.meta.circuit_name = r.str();
  h.meta.backend_name = r.str();
  h.meta.circuit_qubits = bits_i32(r.u32());
  h.meta.transpiled_gates = bits_i32(r.u32());
  h.meta.grid.theta_step_deg = r.f64();
  h.meta.grid.phi_step_deg = r.f64();
  h.meta.grid.theta_max_deg = r.f64();
  h.meta.grid.phi_max_deg = r.f64();
  h.meta.shots = r.u64();
  h.meta.seed = r.u64();
  h.meta.double_fault = r.u8() != 0;
  h.meta.idle_noise = r.u8() != 0;
  h.meta.faultfree_qvf = r.f64();
  h.meta.adaptive = r.u8() != 0;
  h.meta.adaptive_policy.max_config_fraction = r.f64();
  h.meta.adaptive_policy.qvf_ci_target = r.f64();
  h.meta.adaptive_policy.min_configs_per_point = r.u32();
  h.meta.adaptive_policy.seed = r.u64();
  const std::uint64_t num_points = r.u64();
  // The count is checksum-covered but still untrusted: bound it by the
  // bytes left before reserving, so a crafted header cannot request an
  // impossible allocation.
  require(num_points <= r.remaining() / kPointBytes,
          "result file " + path + ": point table size exceeds the header");
  h.points.reserve(static_cast<std::size_t>(num_points));
  for (std::uint64_t i = 0; i < num_points; ++i) {
    InjectionPoint p;
    p.instr_index = static_cast<std::size_t>(r.u64());
    p.qubit = bits_i32(r.u32());
    p.logical_qubit = bits_i32(r.u32());
    p.moment = bits_i32(r.u32());
    h.points.push_back(p);
  }
  return h;
}

void encode_block(util::ByteWriter& w,
                  std::span<const InjectionRecord> records) {
  w.u32(records.front().point_index);
  w.u32(records.back().point_index);
  w.u64(records.size());
  for (const auto& r : records) w.u32(r.point_index);
  for (const auto& r : records) w.u32(i32_bits(r.theta_index));
  for (const auto& r : records) w.u32(i32_bits(r.phi_index));
  for (const auto& r : records) w.u32(i32_bits(r.neighbor_qubit));
  for (const auto& r : records) w.u32(i32_bits(r.theta1_index));
  for (const auto& r : records) w.u32(i32_bits(r.phi1_index));
  for (const auto& r : records) w.f64(r.qvf);
  for (const auto& r : records) w.f64(r.pa);
  for (const auto& r : records) w.f64(r.pb);
}

/// Reads exactly `size` bytes or throws naming the section being read.
std::string read_exact(std::ifstream& in, std::uint64_t size,
                       const std::string& path, const std::string& what) {
  std::string buf(static_cast<std::size_t>(size), '\0');
  if (size > 0) in.read(buf.data(), static_cast<std::streamsize>(size));
  require(static_cast<std::uint64_t>(in.gcount()) == size && !in.bad(),
          "result file " + path + ": truncated in " + what);
  in.clear();
  return buf;
}

std::uint64_t read_u64(std::ifstream& in, const std::string& path,
                       const std::string& what) {
  const std::string bytes = read_exact(in, 8, path, what);
  util::ByteReader r(bytes);  // ByteReader views, never owns
  return r.u64();
}

}  // namespace

ResultWriter::ResultWriter(std::string path, const ResultFileHeader& header,
                           std::size_t block_records, WriteMode mode)
    : path_(std::move(path)),
      block_records_(block_records),
      mode_(mode) {
  require(block_records_ > 0, "ResultWriter: block_records must be positive");
  if (mode_ == WriteMode::Live) {
    // Live mode streams straight to the destination so tail readers can
    // watch blocks appear; the missing end marker is what marks it
    // unfinished, not a temp name.
    temp_path_ = path_;
  } else {
    static std::atomic<std::uint64_t> counter{0};
    temp_path_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
                 std::to_string(counter.fetch_add(1));
  }
  out_.open(temp_path_, std::ios::binary | std::ios::trunc);
  require(out_.is_open(),
          "ResultWriter: cannot create output file: " + temp_path_);

  util::ByteWriter head;
  head.raw(kResultMagic, sizeof(kResultMagic));
  head.u32(kResultVersion);
  util::ByteWriter body;
  encode_header(body, header);
  head.u64(body.size());
  head.raw(body.data().data(), body.size());
  head.u64(util::fnv1a64(body.data()));
  out_.write(head.data().data(),
             static_cast<std::streamsize>(head.size()));
  if (mode_ == WriteMode::Live) out_.flush();
  require(out_.good(), "ResultWriter: write failed: " + temp_path_);
  bytes_written_ = head.size();
}

ResultWriter::~ResultWriter() {
  if (!finished_) {
    out_.close();
    // Live mode keeps the unsealed file: that *is* the dead-worker artifact
    // (tail readers salvage its complete blocks; the strict reader rejects
    // it). TempRename mode removes the temp so `path` never appears.
    if (mode_ != WriteMode::Live) std::remove(temp_path_.c_str());
  }
}

void ResultWriter::append(std::span<const InjectionRecord> records) {
  if (records.empty()) return;
  for (std::size_t i = 1; i < records.size(); ++i) {
    require(records[i].point_index >= records[i - 1].point_index,
            "ResultWriter::append: records not sorted by point index");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "ResultWriter::append: writer already finished");
  // Only coalesce consecutive point indices into one buffered block: a gap
  // could be filled by a later (completion-ordered) append, which would make
  // this block's point range overlap the later block's.
  if (!pending_.empty() &&
      records.front().point_index != pending_.back().point_index + 1) {
    flush_pending_locked(/*all=*/true);
  }
  pending_.insert(pending_.end(), records.begin(), records.end());
  records_written_ += records.size();
  flush_pending_locked(/*all=*/false);
}

void ResultWriter::flush_pending_locked(bool all) {
  if (all) {
    if (!pending_.empty()) {
      write_block_locked(pending_);
      pending_.clear();
    }
    return;
  }
  while (pending_.size() >= block_records_) {
    // Cut at the first point boundary at or past the block target so a
    // point never spans blocks.
    std::size_t cut = block_records_;
    while (cut < pending_.size() &&
           pending_[cut].point_index == pending_[cut - 1].point_index) {
      ++cut;
    }
    if (cut == pending_.size()) return;  // tail point may still grow
    write_block_locked(
        std::span<const InjectionRecord>(pending_.data(), cut));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(cut));
  }
}

void ResultWriter::write_block_locked(
    std::span<const InjectionRecord> records) {
  util::ByteWriter body;
  encode_block(body, records);
  util::ByteWriter frame;
  frame.u8(kBlockTag);
  frame.u64(body.size());
  frame.raw(body.data().data(), body.size());
  frame.u64(util::fnv1a64(body.data()));
  out_.write(frame.data().data(),
             static_cast<std::streamsize>(frame.size()));
  // Live blocks must reach the file promptly: a tail reader's view advances
  // block by block, and an ofstream-buffered block would stall the
  // incremental-merge frontier until the next flush.
  if (mode_ == WriteMode::Live) out_.flush();
  require(out_.good(), "ResultWriter: write failed: " + temp_path_);
  bytes_written_ += frame.size();
}

void ResultWriter::finish(std::uint64_t executions, std::uint64_t injections) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "ResultWriter::finish: already finished");
  flush_pending_locked(/*all=*/true);
  util::ByteWriter body;
  body.u64(records_written_);
  body.u64(executions);
  body.u64(injections);
  util::ByteWriter frame;
  frame.u8(kEndTag);
  frame.u64(body.size());
  frame.raw(body.data().data(), body.size());
  frame.u64(util::fnv1a64(body.data()));
  out_.write(frame.data().data(),
             static_cast<std::streamsize>(frame.size()));
  require(out_.good(), "ResultWriter: write failed: " + temp_path_);
  bytes_written_ += frame.size();
  out_.flush();
  require(out_.good(), "ResultWriter: write failed: " + temp_path_);
  out_.close();
  if (mode_ != WriteMode::Live &&
      std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(temp_path_.c_str());
    throw Error("ResultWriter: cannot rename temp file into place: " + path_);
  }
  finished_ = true;
}

ResultReader::ResultReader(std::string path, ReadMode mode)
    : path_(std::move(path)) {
  in_.open(path_, std::ios::binary);
  require(in_.is_open(), "result file " + path_ + ": cannot open");
  in_.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);

  const std::string magic = read_exact(in_, sizeof(kResultMagic), path_,
                                       "magic");
  require(std::memcmp(magic.data(), kResultMagic, sizeof(kResultMagic)) == 0,
          "result file " + path_ + ": bad magic (not a QUFIPART file)");
  {
    const std::string bytes = read_exact(in_, 4, path_, "version");
    util::ByteReader r(bytes);
    const std::uint32_t version = r.u32();
    require(version == kResultVersion,
            "result file " + path_ + ": unsupported container version " +
                std::to_string(version));
  }

  const std::uint64_t header_size = read_u64(in_, path_, "header size");
  require(header_size <= file_size,
          "result file " + path_ + ": truncated in header");
  const std::string header_bytes =
      read_exact(in_, header_size, path_, "header");
  const std::uint64_t header_sum = read_u64(in_, path_, "header checksum");
  require(util::fnv1a64(header_bytes) == header_sum,
          "result file " + path_ + ": header checksum mismatch");
  {
    util::ByteReader r(header_bytes);
    header_ = decode_header(r, path_);
    require(r.at_end(),
            "result file " + path_ + ": header has trailing bytes");
  }

  // A live writer appends whole frames sequentially, so a still-growing (or
  // killed-mid-write) file is always a *prefix* of a valid frame sequence:
  // running out of bytes inside a frame means "not written yet" (torn tail),
  // while an inconsistency inside fully available bytes is genuine
  // corruption. Tail mode therefore stops cleanly on the former and still
  // throws on the latter; Sealed mode throws on both.
  bool torn = false;
  const auto torn_or_throw = [&](const std::string& what) {
    if (mode == ReadMode::Tail) {
      torn = true;
      return;
    }
    throw Error("result file " + path_ + ": " + what);
  };
  std::size_t ordinal = 0;
  while (!sealed_ && !torn) {
    char tag_ch = 0;
    in_.read(&tag_ch, 1);
    if (in_.gcount() != 1) {
      in_.clear();
      torn_or_throw("truncated (missing end marker)");
      break;  // clean EOF at a frame boundary: an unsealed tail read
    }
    const std::uint64_t after_tag = static_cast<std::uint64_t>(in_.tellg());
    const std::uint8_t tag = static_cast<std::uint8_t>(tag_ch);
    if (tag == kBlockTag) {
      const std::string label = "block " + std::to_string(ordinal);
      if (file_size - after_tag < 8) {
        torn_or_throw("truncated in " + label + " size");
        break;
      }
      const std::uint64_t body_size =
          read_u64(in_, path_, label + " size");
      const std::uint64_t body_offset =
          static_cast<std::uint64_t>(in_.tellg());
      if (body_offset + body_size + 8 > file_size) {
        torn_or_throw(label + ": truncated");
        break;
      }
      const std::string prefix =
          read_exact(in_, kBlockPrefixBytes, path_, label + " prefix");
      util::ByteReader r(prefix);
      IndexedBlock blk;
      blk.info.first_point = r.u32();
      blk.info.last_point = r.u32();
      blk.info.num_records = r.u64();
      blk.body_offset = body_offset;
      blk.body_size = body_size;
      blk.ordinal = ordinal;
      require(body_size ==
                  kBlockPrefixBytes + blk.info.num_records * kRecordBytes,
              "result file " + path_ + ": " + label + ": size mismatch");
      require(blk.info.num_records > 0 &&
                  blk.info.first_point <= blk.info.last_point &&
                  blk.info.last_point < header_.points.size(),
              "result file " + path_ + ": " + label +
                  ": invalid point range");
      blocks_.push_back(blk);
      // Skip the column arrays and the body checksum; read_block() verifies
      // the checksum when the body is actually consumed.
      in_.seekg(static_cast<std::streamoff>(body_offset + body_size + 8),
                std::ios::beg);
      ++ordinal;
    } else if (tag == kEndTag) {
      if (file_size - after_tag < 8 + kEndBodyBytes + 8) {
        torn_or_throw("truncated in end marker");
        break;
      }
      const std::uint64_t body_size = read_u64(in_, path_, "end marker size");
      require(body_size == kEndBodyBytes,
              "result file " + path_ + ": end marker: size mismatch");
      const std::string body =
          read_exact(in_, body_size, path_, "end marker");
      const std::uint64_t sum = read_u64(in_, path_, "end marker checksum");
      require(util::fnv1a64(body) == sum,
              "result file " + path_ + ": end marker checksum mismatch");
      util::ByteReader r(body);
      total_records_ = r.u64();
      executions_ = r.u64();
      injections_ = r.u64();
      sealed_ = true;
    } else {
      throw Error("result file " + path_ + ": unknown section tag at block " +
                  std::to_string(ordinal));
    }
  }
  if (sealed_) {
    require(in_.peek() == std::ifstream::traits_type::eof(),
            "result file " + path_ + ": trailing bytes after end marker");
  }
  in_.clear();

  for (const auto& b : blocks_) indexed_records_ += b.info.num_records;
  if (sealed_) {
    require(indexed_records_ == total_records_,
            "result file " + path_ + ": end marker record count mismatch (" +
                std::to_string(indexed_records_) + " indexed, " +
                std::to_string(total_records_) + " declared)");
  }

  std::sort(blocks_.begin(), blocks_.end(),
            [](const IndexedBlock& a, const IndexedBlock& b) {
              return a.info.first_point < b.info.first_point;
            });
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    require(blocks_[i - 1].info.last_point < blocks_[i].info.first_point,
            "result file " + path_ + ": blocks " +
                std::to_string(blocks_[i - 1].ordinal) + " and " +
                std::to_string(blocks_[i].ordinal) +
                " have overlapping point ranges");
  }
}

std::vector<InjectionRecord> ResultReader::read_block(std::size_t i) {
  require(i < blocks_.size(), "ResultReader::read_block: index out of range");
  const IndexedBlock& blk = blocks_[i];
  const std::string label = "block " + std::to_string(blk.ordinal) +
                            " (points " +
                            std::to_string(blk.info.first_point) + ".." +
                            std::to_string(blk.info.last_point) + ")";
  in_.seekg(static_cast<std::streamoff>(blk.body_offset), std::ios::beg);
  const std::string body = read_exact(in_, blk.body_size, path_, label);
  const std::uint64_t sum = read_u64(in_, path_, label + " checksum");
  require(util::fnv1a64(body) == sum,
          "result file " + path_ + ": " + label + ": checksum mismatch");

  util::ByteReader r(body);
  const std::uint32_t first = r.u32();
  const std::uint32_t last = r.u32();
  const std::uint64_t n = r.u64();
  require(first == blk.info.first_point && last == blk.info.last_point &&
              n == blk.info.num_records,
          "result file " + path_ + ": " + label + ": index mismatch");
  std::vector<InjectionRecord> records(static_cast<std::size_t>(n));
  for (auto& rec : records) rec.point_index = r.u32();
  for (auto& rec : records) rec.theta_index = bits_i32(r.u32());
  for (auto& rec : records) rec.phi_index = bits_i32(r.u32());
  for (auto& rec : records) rec.neighbor_qubit = bits_i32(r.u32());
  for (auto& rec : records) rec.theta1_index = bits_i32(r.u32());
  for (auto& rec : records) rec.phi1_index = bits_i32(r.u32());
  for (auto& rec : records) rec.qvf = r.f64();
  for (auto& rec : records) rec.pa = r.f64();
  for (auto& rec : records) rec.pb = r.f64();
  require(r.at_end(),
          "result file " + path_ + ": " + label + ": trailing bytes");
  // Per-record checks build their message only when one fails.
  for (std::size_t k = 0; k < records.size(); ++k) {
    const std::uint32_t point = records[k].point_index;
    const char* broken = nullptr;
    if (point < first || point > last) {
      broken = "record outside declared point range";
    } else if (k > 0 && point < records[k - 1].point_index) {
      broken = "records not sorted by point index";
    }
    if (broken) {
      throw Error("result file " + path_ + ": " + label + ": " + broken);
    }
  }
  return records;
}

bool result_header_available(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  // Fixed prefix: magic + version + header size field.
  constexpr std::uint64_t kFixed = sizeof(kResultMagic) + 4 + 8;
  if (file_size < kFixed + 8) return false;
  in.seekg(static_cast<std::streamoff>(sizeof(kResultMagic) + 4),
           std::ios::beg);
  std::string bytes(8, '\0');
  in.read(bytes.data(), 8);
  if (in.gcount() != 8) return false;
  util::ByteReader r(bytes);
  const std::uint64_t header_size = r.u64();
  // Body + trailing checksum fully present? (Avoids summing into overflow.)
  return file_size - kFixed - 8 >= header_size;
}

void write_result_file(const std::string& path, const ResultFileHeader& header,
                       std::span<const InjectionRecord> records,
                       std::uint64_t executions, std::uint64_t injections,
                       std::size_t block_records) {
  ResultWriter writer(path, header, block_records);
  writer.append(records);
  writer.finish(executions, injections);
}

LoadedResultFile read_result_file(const std::string& path) {
  ResultReader reader(path);
  LoadedResultFile out;
  out.header = reader.header();
  out.executions = reader.executions();
  out.injections = reader.injections();
  out.records.reserve(static_cast<std::size_t>(reader.total_records()));
  for (std::size_t i = 0; i < reader.num_blocks(); ++i) {
    auto block = reader.read_block(i);
    out.records.insert(out.records.end(), block.begin(), block.end());
  }
  return out;
}

ResultFileSink::ResultFileSink(std::string path, std::uint32_t shard_index,
                               std::uint32_t shard_count, WriteMode mode)
    : path_(std::move(path)),
      shard_index_(shard_index),
      shard_count_(shard_count),
      mode_(mode) {}

void ResultFileSink::begin(const CampaignMetadata& meta,
                           std::span<const InjectionPoint> points,
                           std::uint64_t expected_total_records) {
  require(!writer_, "ResultFileSink::begin: called twice");
  ResultFileHeader header;
  header.shard_index = shard_index_;
  header.shard_count = shard_count_;
  header.expected_total_records = expected_total_records;
  header.meta = meta;
  header.points.assign(points.begin(), points.end());
  writer_ = std::make_unique<ResultWriter>(path_, header,
                                           kDefaultBlockRecords, mode_);
}

void ResultFileSink::finish(std::uint64_t executions,
                            std::uint64_t injections) {
  require(writer_ != nullptr, "ResultFileSink::finish: begin() never ran");
  writer_->finish(executions, injections);
}

}  // namespace qufi::resio
