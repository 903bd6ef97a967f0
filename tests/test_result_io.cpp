// QUFIPART container tests (docs/RESULT_FORMAT.md): round-trips through
// ResultWriter/ResultReader, the block invariants that make the streaming
// k-way merge possible, exhaustive corruption rejection (every byte flipped,
// every truncation length), the reader's per-record error texts, the
// double-bit exactness of a partial through write -> read -> merge, and a
// live partial's header being final from its first block.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "core/result_io.hpp"
#include "dist/merge.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/test_files.hpp"
#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

namespace fs = std::filesystem;
using test_support::expect_same_records;
using test_support::for_each_byte_flip;
using test_support::for_each_truncation;
using test_support::slurp;
using test_support::spit;
using test_support::TempDir;

/// A header over `num_points` synthetic points in which every field holds a
/// non-default value, so a field the codec drops or swaps shows up.
resio::ResultFileHeader test_header(std::size_t num_points) {
  resio::ResultFileHeader header;
  header.shard_index = 2;
  header.shard_count = 5;
  header.expected_total_records = 12345;
  header.meta.circuit_name = "resio_test";
  header.meta.backend_name = "synthetic";
  header.meta.circuit_qubits = 4;
  header.meta.transpiled_gates = 17;
  header.meta.grid.theta_step_deg = 30.0;
  header.meta.grid.phi_step_deg = 45.0;
  header.meta.grid.theta_max_deg = 90.0;
  header.meta.grid.phi_max_deg = 270.0;
  header.meta.shots = 1024;
  header.meta.seed = 0x51754649;
  header.meta.double_fault = true;
  header.meta.idle_noise = true;
  header.meta.adaptive = true;
  header.meta.adaptive_policy.max_config_fraction = 0.375;
  header.meta.adaptive_policy.qvf_ci_target = 0.0078125;
  header.meta.adaptive_policy.min_configs_per_point = 11;
  header.meta.adaptive_policy.seed = 0xFEEDFACE;
  header.meta.faultfree_qvf = 0.125;
  for (std::size_t i = 0; i < num_points; ++i) {
    InjectionPoint p;
    p.instr_index = 2 * i + 1;
    p.qubit = static_cast<int>(i % 5);
    p.logical_qubit = static_cast<int>(i % 3);
    p.moment = static_cast<int>(i);
    header.points.push_back(p);
  }
  return header;
}

/// `per_point` records for each of `num_points` points, with value patterns
/// that expose column mixups (every field differs from every other).
std::vector<InjectionRecord> test_records(std::size_t num_points,
                                          std::size_t per_point) {
  std::vector<InjectionRecord> records;
  for (std::size_t p = 0; p < num_points; ++p) {
    for (std::size_t k = 0; k < per_point; ++k) {
      InjectionRecord r;
      r.point_index = static_cast<std::uint32_t>(p);
      r.theta_index = static_cast<int>(k);
      r.phi_index = static_cast<int>(k + 1);
      r.neighbor_qubit = (k % 2 == 0) ? -1 : static_cast<int>(k);
      r.theta1_index = (k % 3 == 0) ? -1 : static_cast<int>(k + 2);
      r.phi1_index = (k % 3 == 0) ? -1 : static_cast<int>(k + 3);
      r.qvf = 0.25 + 0.5 * static_cast<double>(p * per_point + k);
      r.pa = 1.0 / (1.0 + static_cast<double>(k));
      r.pb = 1.0 / (3.0 + static_cast<double>(p));
      records.push_back(r);
    }
  }
  return records;
}

// ---- round trips -----------------------------------------------------------

TEST(ResultIo, RoundTripAcrossMultipleBlocks) {
  TempDir dir("roundtrip");
  const auto header = test_header(9);
  const auto records = test_records(9, 7);  // 63 records, block cut at 8+

  resio::write_result_file(dir.str("file"), header, records,
                           /*executions=*/64, /*injections=*/63,
                           /*block_records=*/8);

  const auto loaded = resio::read_result_file(dir.str("file"));
  const auto& got = loaded.header;
  EXPECT_EQ(got.shard_index, header.shard_index);
  EXPECT_EQ(got.shard_count, header.shard_count);
  EXPECT_EQ(got.expected_total_records, header.expected_total_records);
  EXPECT_EQ(got.meta.circuit_name, header.meta.circuit_name);
  EXPECT_EQ(got.meta.backend_name, header.meta.backend_name);
  EXPECT_EQ(got.meta.circuit_qubits, header.meta.circuit_qubits);
  EXPECT_EQ(got.meta.transpiled_gates, header.meta.transpiled_gates);
  EXPECT_EQ(got.meta.grid.theta_step_deg, header.meta.grid.theta_step_deg);
  EXPECT_EQ(got.meta.grid.phi_step_deg, header.meta.grid.phi_step_deg);
  EXPECT_EQ(got.meta.grid.theta_max_deg, header.meta.grid.theta_max_deg);
  EXPECT_EQ(got.meta.grid.phi_max_deg, header.meta.grid.phi_max_deg);
  EXPECT_EQ(got.meta.shots, header.meta.shots);
  EXPECT_EQ(got.meta.seed, header.meta.seed);
  EXPECT_EQ(got.meta.double_fault, header.meta.double_fault);
  EXPECT_EQ(got.meta.idle_noise, header.meta.idle_noise);
  EXPECT_EQ(got.meta.adaptive, header.meta.adaptive);
  EXPECT_EQ(got.meta.adaptive_policy, header.meta.adaptive_policy);
  EXPECT_EQ(got.meta.faultfree_qvf, header.meta.faultfree_qvf);
  ASSERT_EQ(got.points.size(), header.points.size());
  for (std::size_t i = 0; i < header.points.size(); ++i) {
    EXPECT_EQ(got.points[i].instr_index, header.points[i].instr_index);
    EXPECT_EQ(got.points[i].qubit, header.points[i].qubit);
    EXPECT_EQ(got.points[i].logical_qubit, header.points[i].logical_qubit);
    EXPECT_EQ(got.points[i].moment, header.points[i].moment);
  }
  EXPECT_EQ(loaded.executions, 64u);
  EXPECT_EQ(loaded.injections, 63u);
  expect_same_records(loaded.records, records);

  resio::ResultReader reader(dir.str("file"));
  EXPECT_GT(reader.num_blocks(), 1u) << "block size 8 must split 63 records";
  for (std::size_t i = 0; i < reader.num_blocks(); ++i) {
    const auto& info = reader.block_info(i);
    EXPECT_LE(info.first_point, info.last_point);
    if (i > 0) {
      EXPECT_LT(reader.block_info(i - 1).last_point, info.first_point)
          << "block ranges must be pairwise disjoint";
    }
  }
}

TEST(ResultIo, CompletionOrderAppendsYieldSortedDisjointBlocks) {
  TempDir dir("completion_order");
  const auto header = test_header(5);
  const auto records = test_records(5, 3);

  // Emit whole points in scrambled completion order, as a campaign sink
  // would; the writer must cut blocks so ranges stay disjoint.
  resio::ResultWriter writer(dir.str("file"), header, /*block_records=*/4);
  const std::size_t order[] = {3, 0, 4, 1, 2};
  for (const std::size_t p : order) {
    writer.append(std::span<const InjectionRecord>(&records[p * 3], 3));
  }
  writer.finish(/*executions=*/15, /*injections=*/15);

  const auto loaded = resio::read_result_file(dir.str("file"));
  expect_same_records(loaded.records, records);  // reader sorts by point
}

TEST(ResultIo, AbortedWriterLeavesNothingBehind) {
  TempDir dir("abort");
  {
    resio::ResultWriter writer(dir.str("file"), test_header(2));
    writer.append(test_records(2, 2));
    // No finish(): destructor must remove the temp file.
  }
  EXPECT_FALSE(fs::exists(dir.str("file")));
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u) << "temp file leaked";
}

TEST(ResultIo, RejectsDescendingPointsWithinSpan) {
  TempDir dir("descending");
  resio::ResultWriter writer(dir.str("file"), test_header(3));
  auto records = test_records(3, 1);
  std::swap(records[0], records[2]);  // 2, 1, 0
  EXPECT_THROW(writer.append(records), Error);
}

// ---- corruption ------------------------------------------------------------

/// Every single-byte corruption (two flip masks per byte) must be rejected,
/// and so must every truncation length: the container checksums each
/// section, validates every size field, and requires the end marker.
TEST(ResultIo, ExhaustiveByteFlipAndTruncationSweep) {
  TempDir dir("corruption");
  const std::string good_path = dir.str("good");
  // Two points per block keeps the file small enough for an exhaustive
  // sweep while still exercising multi-block indexing.
  resio::write_result_file(good_path, test_header(4), test_records(4, 2),
                           /*executions=*/8, /*injections=*/8,
                           /*block_records=*/3);
  const std::string good = slurp(good_path);
  ASSERT_GT(good.size(), 0u);

  const std::string mutant_path = dir.str("mutant");
  for_each_byte_flip(good, [&](const std::string& mutant, std::size_t i,
                               unsigned mask) {
    spit(mutant_path, mutant);
    try {
      (void)resio::read_result_file(mutant_path);
      FAIL() << "byte " << i << " mask " << mask
             << ": corruption not detected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("result file"), std::string::npos)
          << "byte " << i << ": diagnosis should name the file/section: "
          << e.what();
    }
  });

  // Ground truth for the tail sweep: every block of the intact file, in the
  // reader's sorted order (which here is also file order — write_result_file
  // streams records already sorted by point).
  resio::ResultReader full(good_path);
  std::vector<std::vector<InjectionRecord>> full_blocks;
  for (std::size_t b = 0; b < full.num_blocks(); ++b) {
    full_blocks.push_back(full.read_block(b));
  }

  // Tail mode: every truncation is exactly what a live writer killed
  // mid-append leaves behind. Below a complete header the reader cannot
  // exist and must throw (result_header_available is the gate callers probe
  // first); from the header on it must succeed, index only the complete
  // blocks, and hand each of them back bit-identical to the intact file's —
  // a tail read never returns a torn block.
  std::uint64_t last_indexed = 0;
  const auto check_tail = [&](std::size_t len) {
    if (!resio::result_header_available(mutant_path)) {
      EXPECT_THROW(resio::ResultReader(mutant_path, resio::ReadMode::Tail),
                   Error)
          << "no complete header at " << len << " bytes";
      return;
    }
    resio::ResultReader tail(mutant_path, resio::ReadMode::Tail);
    EXPECT_EQ(tail.sealed(), len == good.size())
        << "seal misreported at " << len << " bytes";
    EXPECT_GE(tail.indexed_records(), last_indexed)
        << "indexed records regressed at " << len << " bytes";
    last_indexed = tail.indexed_records();
    ASSERT_LE(tail.num_blocks(), full_blocks.size()) << len << " bytes";
    for (std::size_t b = 0; b < tail.num_blocks(); ++b) {
      EXPECT_EQ(tail.block_info(b).first_point,
                full.block_info(b).first_point)
          << "block " << b << " at " << len << " bytes";
      EXPECT_EQ(tail.block_info(b).num_records,
                full.block_info(b).num_records)
          << "block " << b << " at " << len << " bytes";
      expect_same_records(tail.read_block(b), full_blocks[b]);
    }
  };
  for_each_truncation(good, [&](const std::string& prefix, std::size_t len) {
    spit(mutant_path, prefix);
    EXPECT_THROW((void)resio::read_result_file(mutant_path), Error)
        << "truncation to " << len << " bytes not detected";
    check_tail(len);
  });
  spit(mutant_path, good);
  check_tail(good.size());
  EXPECT_EQ(last_indexed, full.indexed_records());
}

TEST(ResultIo, TailReaderObservesLiveWriterGrowth) {
  TempDir dir("tail");
  const std::string path = dir.str("live");
  const auto header = test_header(4);
  const auto records = test_records(4, 2);

  // Stream one point per block so every append changes the observable file.
  resio::ResultWriter writer(path, header, /*block_records=*/1,
                             resio::WriteMode::Live);
  for (std::size_t p = 0; p < 4; ++p) {
    {
      // Before the next append: the header is readable, the file unsealed,
      // and the blocks flushed so far are indexed. The writer keeps the
      // most recent point buffered (it may coalesce with the next
      // consecutive point into one block), so the tail view lags the
      // append stream by exactly one point until finish() drains it.
      ASSERT_TRUE(resio::result_header_available(path));
      resio::ResultReader tail(path, resio::ReadMode::Tail);
      EXPECT_FALSE(tail.sealed());
      const std::size_t flushed = p == 0 ? 0 : p - 1;
      EXPECT_EQ(tail.num_blocks(), flushed);
      EXPECT_EQ(tail.indexed_records(), 2 * flushed);
      // The strict reader refuses the unsealed file throughout.
      EXPECT_THROW(resio::ResultReader(path, resio::ReadMode::Sealed), Error);
    }
    writer.append(std::span<const InjectionRecord>(records.data() + 2 * p, 2));
  }
  writer.finish(/*executions=*/8, /*injections=*/8);

  resio::ResultReader sealed(path, resio::ReadMode::Tail);
  EXPECT_TRUE(sealed.sealed());
  EXPECT_EQ(sealed.indexed_records(), records.size());
  std::vector<InjectionRecord> all;
  for (std::size_t b = 0; b < sealed.num_blocks(); ++b) {
    const auto block = sealed.read_block(b);
    all.insert(all.end(), block.begin(), block.end());
  }
  expect_same_records(all, records);
}

/// Forwards to a Live ResultFileSink and, right after the first block is
/// handed over, reads the header back through a Tail reader: what a
/// dispatcher polling a running shard sees.
class TailProbeSink final : public ResultBlockSink {
 public:
  explicit TailProbeSink(std::string path)
      : path_(path),
        inner_(std::move(path), /*shard_index=*/0, /*shard_count=*/1,
               resio::WriteMode::Live) {}

  void begin(const CampaignMetadata& meta,
             std::span<const InjectionPoint> points,
             std::uint64_t expected_total_records) override {
    inner_.begin(meta, points, expected_total_records);
  }
  void emit(std::span<const InjectionRecord> records) override {
    inner_.emit(records);
    std::lock_guard<std::mutex> lock(mutex_);
    if (probed_faultfree_) return;
    resio::ResultReader tail(path_, resio::ReadMode::Tail);
    EXPECT_FALSE(tail.sealed());
    probed_faultfree_ = tail.header().meta.faultfree_qvf;
  }

  resio::ResultFileSink& inner() { return inner_; }
  std::optional<double> probed_faultfree() const { return probed_faultfree_; }

 private:
  std::string path_;
  resio::ResultFileSink inner_;
  std::mutex mutex_;
  std::optional<double> probed_faultfree_;
};

TEST(ResultIo, LivePartialHeaderIsFinalFromTheFirstBlock) {
  TempDir dir("live_header");
  const std::string path = dir.str("live.qp");
  const auto bench = algo::paper_circuit("bv", 4);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 90.0;
  spec.max_points = 4;
  TailProbeSink sink(path);
  spec.record_sink = &sink;
  const CampaignResult result = run_single_fault_campaign(spec);
  sink.inner().finish(result.meta.executions, result.meta.injections);

  // A worker killed at any point after its first block leaves a header
  // that already carries the real fault-free QVF, bit for bit.
  ASSERT_TRUE(sink.probed_faultfree().has_value());
  const auto sealed = resio::read_result_file(path);
  EXPECT_NE(sealed.header.meta.faultfree_qvf, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*sink.probed_faultfree()),
            std::bit_cast<std::uint64_t>(sealed.header.meta.faultfree_qvf));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.meta.faultfree_qvf),
            std::bit_cast<std::uint64_t>(sealed.header.meta.faultfree_qvf));
}

TEST(ResultIo, CorruptionDiagnosisNamesTheBadSection) {
  TempDir dir("diagnosis");
  const std::string good_path = dir.str("good");
  resio::write_result_file(good_path, test_header(3), test_records(3, 2),
                           /*executions=*/6, /*injections=*/6,
                           /*block_records=*/2);
  const std::string good = slurp(good_path);
  const std::string mutant_path = dir.str("mutant");

  const auto message_for = [&](const std::string& mutant) -> std::string {
    spit(mutant_path, mutant);
    try {
      (void)resio::read_result_file(mutant_path);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };

  {  // magic
    std::string mutant = good;
    mutant[0] = 'X';
    EXPECT_NE(message_for(mutant).find("bad magic"), std::string::npos);
  }
  {  // version: a newer one, and the retired v1 — only v2 is read
    std::string mutant = good;
    mutant[8] = 99;
    EXPECT_NE(message_for(mutant).find("unsupported container version 99"),
              std::string::npos);
    mutant[8] = 1;
    EXPECT_NE(message_for(mutant).find("unsupported container version 1"),
              std::string::npos);
  }
  {  // a text file (e.g. a CSV handed to the merger) is not a partial
    const std::string message =
        message_for("shard,0,2\nrecord,0,0,0,-1,-1,-1,0.5,0.25,0.75\n");
    EXPECT_NE(message.find("bad magic"), std::string::npos) << message;
  }
  {  // a checksum-valid header claiming 2^62 points: diagnosed, not reserved
    const std::string size_bytes = good.substr(8 + 4, 8);
    util::ByteReader sizer(size_bytes);
    const std::size_t header_size = static_cast<std::size_t>(sizer.u64());
    // The header ends with the point count (u64) and 3 points x 20 bytes.
    std::string header = good.substr(8 + 4 + 8, header_size - 3 * 20 - 8);
    util::ByteWriter count;
    count.u64(std::uint64_t{1} << 62);
    header += count.data();
    util::ByteWriter framed;
    framed.raw(good.data(), 8 + 4);  // magic + version
    framed.u64(header.size());
    framed.raw(header.data(), header.size());
    framed.u64(util::fnv1a64(header));
    const std::string message = message_for(framed.data());
    EXPECT_NE(message.find("point table size exceeds the header"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(mutant_path), std::string::npos) << message;
  }
  {  // header body (first byte past magic + version + header size)
    std::string mutant = good;
    mutant[8 + 4 + 8] ^= 0x40;
    EXPECT_NE(message_for(mutant).find("header checksum mismatch"),
              std::string::npos);
  }
  {  // block body: flip one byte inside the first block's column data.
    // Layout: the first block starts right after the header section; its
    // body begins 1 (tag) + 8 (size) bytes later, and the prefix is used
    // for indexing, so flip a byte past the 16-byte prefix.
    const std::string size_bytes = good.substr(8 + 4, 8);
    util::ByteReader sizer(size_bytes);
    const std::uint64_t header_size = sizer.u64();
    const std::size_t block_body =
        8 + 4 + 8 + static_cast<std::size_t>(header_size) + 8 + 1 + 8;
    std::string mutant = good;
    mutant[block_body + 16 + 2] ^= 0x20;
    const std::string message = message_for(mutant);
    EXPECT_NE(message.find("block"), std::string::npos) << message;
    EXPECT_NE(message.find("checksum mismatch"), std::string::npos)
        << message;
  }
  {  // end marker: flip the declared total in the last section's body.
    std::string mutant = good;
    mutant[mutant.size() - 8 - 24] ^= 0x01;  // total_records low byte
    const std::string message = message_for(mutant);
    EXPECT_NE(message.find("end marker"), std::string::npos) << message;
  }
  {  // trailing garbage after the end marker
    std::string mutant = good + "junk";
    EXPECT_NE(message_for(mutant).find("trailing bytes"), std::string::npos);
  }
}

/// The reader's per-record checks, reached through a block whose checksum is
/// valid but whose point column breaks an invariant, and the byte codec's
/// truncation check. The full texts are pinned: they name the file and the
/// block (its ordinal and declared point range) an operator must look at.
TEST(ResultIo, RecordCheckErrorsNameFileAndBlock) {
  TempDir dir("record_checks");
  // One block over points 0..2 of a 4-point table (6 records).
  const std::string good_path = dir.str("good");
  resio::write_result_file(good_path, test_header(4), test_records(3, 2),
                           /*executions=*/6, /*injections=*/6);
  const std::string good = slurp(good_path);
  const std::string size_bytes = good.substr(8 + 4, 8);
  util::ByteReader sizer(size_bytes);
  const std::size_t header_size = static_cast<std::size_t>(sizer.u64());
  // magic + version + header size + header + checksum, then tag + size.
  const std::size_t body = 8 + 4 + 8 + header_size + 8 + 1 + 8;
  const std::size_t body_size = 16 + 6 * (6 * 4 + 3 * 8);

  // Rewrites the point column (it follows the 16-byte block prefix) and
  // re-seals the block checksum, so only the record checks can object.
  const auto message_for =
      [&](const std::vector<std::uint32_t>& points) -> std::string {
    std::string mutant = good;
    util::ByteWriter column;
    for (const std::uint32_t p : points) column.u32(p);
    mutant.replace(body + 16, column.size(), column.data());
    util::ByteWriter sum;
    sum.u64(util::fnv1a64(std::string_view(mutant).substr(body, body_size)));
    mutant.replace(body + body_size, 8, sum.data());
    const std::string path = dir.str("mutant");
    spit(path, mutant);
    try {
      (void)resio::read_result_file(path);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };

  EXPECT_EQ(message_for({0, 0, 1, 1, 2, 2}), "");  // the framing is right
  const std::string block = "result file " + dir.str("mutant") +
                            ": block 0 (points 0..2): ";
  EXPECT_EQ(message_for({0, 0, 1, 1, 2, 3}),
            block + "record outside declared point range");
  EXPECT_EQ(message_for({0, 1, 0, 1, 2, 2}),
            block + "records not sorted by point index");

  const std::string three = "abc";
  util::ByteReader short_reader(three);
  try {
    (void)short_reader.u32();
    ADD_FAILURE() << "a 3-byte buffer yielded a u32";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "binary_io: truncated input");
  }
}

// ---- double-bit exactness through write -> read -> merge -----------------

/// The property the merger relies on: a record survives write -> read ->
/// merge with its exact double bits, including negative zero and
/// subnormals.
TEST(ResultIo, PartialsRoundTripDoubleBitsExactly) {
  TempDir dir("bitexact");

  const double specials[] = {
      0.0,
      -0.0,
      1.0 / 3.0,
      5e-324,                                  // smallest subnormal
      2.2250738585072011e-308,                 // largest subnormal
      -5e-324,
      std::numeric_limits<double>::min(),      // smallest normal
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      0.1,
      1.0 - 0x1p-53,
  };
  const std::size_t n = sizeof(specials) / sizeof(specials[0]);

  auto header = test_header(n);
  header.expected_total_records = n;
  std::vector<InjectionRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    InjectionRecord r;
    r.point_index = static_cast<std::uint32_t>(i);
    r.theta_index = static_cast<int>(i);
    r.phi_index = 0;
    r.neighbor_qubit = -1;
    r.theta1_index = -1;
    r.phi1_index = -1;
    r.qvf = specials[i];
    r.pa = specials[(i + 3) % n];
    r.pb = -specials[(i + 5) % n];
    records.push_back(r);
  }

  const std::string partial_path = dir.str("partial.qp");
  resio::write_result_file(partial_path, header, records, /*executions=*/n,
                           /*injections=*/n);
  expect_same_records(resio::read_result_file(partial_path).records, records);

  // A lone shard merges to itself, bit for bit.
  const std::string merged_path = dir.str("merged.qp");
  const std::string inputs[] = {partial_path};
  const auto stats = dist::merge_result_files(inputs, merged_path);
  EXPECT_EQ(stats.merged_records, n);
  expect_same_records(resio::read_result_file(merged_path).records, records);
}

}  // namespace
}  // namespace qufi
