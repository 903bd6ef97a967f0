// Unit tests for src/util: RNG, matrices, stats, CSV, bitstrings, threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/test_files.hpp"
#include "util/ascii_plot.hpp"
#include "util/bitstring.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/matrix.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace qufi::util {
namespace {

// ------------------------------------------------------------------- rng

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);  // advanced state
}

TEST(Rng, HashCombineOrderSensitive) {
  const std::uint64_t ab[] = {1, 2};
  const std::uint64_t ba[] = {2, 1};
  EXPECT_NE(hash_combine(ab), hash_combine(ba));
}

TEST(Rng, HashCombineLengthSensitive) {
  const std::uint64_t a[] = {7};
  const std::uint64_t a0[] = {7, 0};
  EXPECT_NE(hash_combine(a), hash_combine(a0));
}

TEST(Rng, SameSeedSameStream) {
  Xoshiro256pp a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedDifferentStream) {
  Xoshiro256pp a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256pp rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, UniformIntIsUnbiased) {
  Xoshiro256pp rng(11);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_int(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(Rng, UniformIntRejectsZeroBound) {
  Xoshiro256pp rng(1);
  EXPECT_THROW(rng.uniform_int(0), Error);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256pp rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, DiscreteRespectsWeights) {
  Xoshiro256pp rng(17);
  const double weights[] = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 40000; ++i) ones += rng.discrete(weights) == 1;
  EXPECT_NEAR(ones / 40000.0, 0.75, 0.02);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Xoshiro256pp rng(1);
  const double none[] = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(none), Error);
  const double negative[] = {0.5, -0.1};
  EXPECT_THROW(rng.discrete(negative), Error);
}

TEST(Rng, SampleCountsSumsToShots) {
  Xoshiro256pp rng(23);
  const double probs[] = {0.5, 0.25, 0.25};
  const auto counts = sample_counts(probs, 4096, rng);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 4096u);
  EXPECT_NEAR(static_cast<double>(counts[0]), 2048, 200);
}

TEST(Rng, SampleCountsZeroShots) {
  Xoshiro256pp rng(1);
  const double probs[] = {1.0};
  const auto counts = sample_counts(probs, 0, rng);
  EXPECT_EQ(counts[0], 0u);
}

// ---------------------------------------------------------------- matrix

TEST(Matrix, IdentityMultiplication) {
  const Mat2 h{{1 / std::sqrt(2.0), 1 / std::sqrt(2.0), 1 / std::sqrt(2.0),
                -1 / std::sqrt(2.0)}};
  EXPECT_TRUE((h * Mat2::identity()).approx_equal(h));
  EXPECT_TRUE((Mat2::identity() * h).approx_equal(h));
}

TEST(Matrix, HadamardIsUnitaryAndSelfInverse) {
  const double s = 1 / std::sqrt(2.0);
  const Mat2 h{{s, s, s, -s}};
  EXPECT_TRUE(h.is_unitary());
  EXPECT_TRUE((h * h).approx_equal(Mat2::identity()));
}

TEST(Matrix, AdjointConjugates) {
  Mat2 m;
  m(0, 1) = cplx{1, 2};
  const Mat2 a = m.adjoint();
  EXPECT_EQ(a(1, 0), (cplx{1, -2}));
}

TEST(Matrix, EqualUpToPhase) {
  const double s = 1 / std::sqrt(2.0);
  const Mat2 h{{s, s, s, -s}};
  const Mat2 rotated = h * std::exp(cplx{0, 1.234});
  EXPECT_TRUE(rotated.equal_up_to_phase(h));
  EXPECT_FALSE(rotated.approx_equal(h));
  const Mat2 x{{0, 1, 1, 0}};
  EXPECT_FALSE(x.equal_up_to_phase(h));
}

TEST(Matrix, KronHighLowConvention) {
  const Mat2 x{{0, 1, 1, 0}};
  const Mat4 xi = kron(x, Mat2::identity());
  // a acts on the high bit: |00> -> |10> (index 0 -> 2).
  EXPECT_EQ(xi(2, 0), (cplx{1, 0}));
  EXPECT_EQ(xi(0, 0), (cplx{0, 0}));
}

TEST(Matrix, UnitaryFromAnglesMatchesPaperEq3) {
  const double theta = 0.7, phi = 1.1, lambda = -0.4;
  const Mat2 u = unitary_from_angles(theta, phi, lambda);
  EXPECT_TRUE(u.is_unitary());
  EXPECT_NEAR(u(0, 0).real(), std::cos(theta / 2), 1e-12);
  EXPECT_NEAR(std::abs(u(1, 0)), std::sin(theta / 2), 1e-12);
  EXPECT_NEAR(std::arg(u(1, 0)), phi, 1e-12);
  EXPECT_NEAR(std::arg(-u(0, 1)), lambda, 1e-12);
}

TEST(Matrix, Mat4UnitaryCheck) {
  Mat4 swap;
  swap(0, 0) = swap(3, 3) = 1;
  swap(1, 2) = swap(2, 1) = 1;
  EXPECT_TRUE(swap.is_unitary());
  EXPECT_TRUE((swap * swap).approx_equal(Mat4::identity()));
}

// ----------------------------------------------------------------- stats

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, MergeEqualsBulk) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 0.5);
    all.add(i * 0.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Stats, HistogramBinsAndDensity) {
  Histogram h(0.0, 1.0, 4);
  for (double x : {0.1, 0.1, 0.6, 0.9}) h.add(x);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  const auto density = h.density();
  // Density integrates to 1: sum(density) * width == 1.
  double integral = 0.0;
  for (double d : density) integral += d * 0.25;
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Stats, HistogramRejectsBadConfig) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(Histogram(1.0, 0.0, 4), Error);
}

TEST(Stats, SpanHelpers) {
  const double xs[] = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 4.0);
  EXPECT_NEAR(stddev_of(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

// ------------------------------------------------------------------- csv

TEST(Csv, RoundTripWithQuoting) {
  const std::string path = ::testing::TempDir() + "qufi_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
    csv.close();
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Re-split the logical line (ignore the embedded newline handling by
  // reading the whole file minus trailing newline).
  content.pop_back();
  const auto fields = split_csv_line(content);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with\"quote");
  EXPECT_EQ(fields[3], "multi\nline");
  std::remove(path.c_str());
}

TEST(Csv, OpenFailureThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), Error);
}

TEST(Csv, FieldFormatsNumbersExactly) {
  const auto ostream_g17 = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  const double doubles[] = {-0.0, 5e-324, 0.1 + 0.2, 1e21, 1e-5, 1.0};
  const char* expected[] = {"-0", "4.9406564584124654e-324",
                            "0.30000000000000004", "1e+21",
                            "1.0000000000000001e-05", "1"};
  for (std::size_t i = 0; i < std::size(doubles); ++i) {
    char printf_g17[64];
    std::snprintf(printf_g17, sizeof printf_g17, "%.17g", doubles[i]);
    EXPECT_EQ(CsvWriter::field(doubles[i]), printf_g17) << i;
    EXPECT_EQ(CsvWriter::field(doubles[i]), ostream_g17(doubles[i])) << i;
    EXPECT_EQ(CsvWriter::field(doubles[i]), expected[i]) << i;
  }
  EXPECT_EQ(CsvWriter::field(std::int32_t{-1}), "-1");  // no neighbor qubit
  EXPECT_EQ(CsvWriter::field(0), "0");
  EXPECT_EQ(CsvWriter::field(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");  // a seed
}

TEST(Csv, CellsMatchWriteRowBytes) {
  const test_support::TempDir dir("csv_cells");
  const std::string by_row = dir.str("rows.csv");
  const std::string by_cell = dir.str("cells.csv");
  {
    CsvWriter csv(by_row);
    csv.write_row({"a,b", CsvWriter::field(-1), "", CsvWriter::field(0.5)});
    csv.close();
  }
  {
    CsvWriter csv(by_cell);
    csv.cell("a,b");
    csv.cell(-1);
    csv.cell("");
    csv.cell(0.5);
    csv.end_row();
    csv.close();
  }
  EXPECT_EQ(test_support::slurp(by_cell), "\"a,b\",-1,,0.5\n");
  EXPECT_EQ(test_support::slurp(by_cell), test_support::slurp(by_row));
}

TEST(Csv, CloseReportsWriteFailureNamingThePath) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  {
    // A few rows stay buffered until close(), which must report the error.
    CsvWriter csv("/dev/full");
    csv.write_row({"point_index", "qvf"});
    csv.write_row({"0", "0.5"});
    try {
      csv.close();
      ADD_FAILURE() << "close() succeeded on /dev/full";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
  {
    // Past the buffer, the failing block write throws from the row itself.
    CsvWriter csv("/dev/full");
    const std::string wide(1024, 'x');
    EXPECT_THROW(
        {
          for (int i = 0; i < 4096; ++i) csv.write_row({wide});
          csv.close();
        },
        Error);
  }
}

// ------------------------------------------------------------- bitstring

TEST(ParseUnsigned, AcceptsPlainDecimalWithinTheTargetRange) {
  EXPECT_EQ(util::parse_unsigned<std::uint32_t>("0"), 0u);
  EXPECT_EQ(util::parse_unsigned<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(util::parse_unsigned<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsSignsOverflowAndStrayBytes) {
  // Each of these wraps or truncates under std::stoul + a narrowing cast.
  for (const char* bad : {"-1", "+1", "4294967296", "4294967298", "", " 1",
                          "1 ", "12x", "0x10"}) {
    EXPECT_FALSE(util::parse_unsigned<std::uint32_t>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(
      util::parse_unsigned<std::uint64_t>("18446744073709551616").has_value());
  try {
    (void)util::parse_unsigned_flag<std::uint32_t>("--shards", "-1");
    ADD_FAILURE() << "--shards -1 parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad --shards value '-1'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseNumberFlag, AcceptsSignedAndFiniteValuesAndRejectsTheRest) {
  EXPECT_EQ(util::parse_number_flag<int>("--priority", "-7"), -7);
  EXPECT_EQ(util::parse_number_flag<double>("--phi-max", "180"), 180.0);
  EXPECT_EQ(util::parse_number_flag<double>("--adaptive-ci", "5e-3"), 5e-3);
  EXPECT_EQ(util::parse_number_flag<double>("--theta-step", "-0.5"), -0.5);
  // std::stoi / std::stod take " 3", "3x" as 3 and throw a bare
  // std::invalid_argument or std::out_of_range on "x" and "1e999".
  for (const char* bad : {"", "x", "3x", " 3", "3 ", "+3", "2147483648"}) {
    EXPECT_THROW(util::parse_number_flag<int>("--priority", bad), Error)
        << bad;
  }
  for (const char* bad : {"", "x", "15x", " 15", "+15", "1e999", "inf",
                          "-inf", "nan"}) {
    try {
      (void)util::parse_number_flag<double>("--phi-max", bad);
      ADD_FAILURE() << "--phi-max '" << bad << "' parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad --phi-max value '" +
                                           std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonString, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(util::json_string(""), "\"\"");
  EXPECT_EQ(util::json_string("bv4 a/b"), "\"bv4 a/b\"");
  EXPECT_EQ(util::json_string("q\"x"), "\"q\\\"x\"");
  EXPECT_EQ(util::json_string("C:\\out"), "\"C:\\\\out\"");
  EXPECT_EQ(util::json_string(std::string("a\nb\tc\x01\x1f", 7)),
            "\"a\\u000ab\\u0009c\\u0001\\u001f\"");
  EXPECT_EQ(util::json_string(std::string("\0", 1)), "\"\\u0000\"");
  // Bytes from 0x20 up, UTF-8 included, pass through unchanged.
  EXPECT_EQ(util::json_string("\x7f \xc3\xa9"), "\"\x7f \xc3\xa9\"");
}

TEST(Bitstring, FormatsMsbFirst) {
  EXPECT_EQ(to_bitstring(0b101, 3), "101");
  EXPECT_EQ(to_bitstring(1, 4), "0001");
  EXPECT_EQ(to_bitstring(0, 0), "");
}

TEST(Bitstring, ParsesMsbFirst) {
  EXPECT_EQ(from_bitstring("101"), 0b101u);
  EXPECT_EQ(from_bitstring("0001"), 1u);
  EXPECT_THROW(from_bitstring("10x"), Error);
  EXPECT_THROW(from_bitstring(""), Error);
}

TEST(Bitstring, BitOps) {
  EXPECT_EQ(get_bit(0b100, 2), 1);
  EXPECT_EQ(get_bit(0b100, 1), 0);
  EXPECT_EQ(set_bit(0, 3, true), 0b1000u);
  EXPECT_EQ(flip_bit(0b1000, 3), 0u);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, ParallelForRunsAll) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10,
                   [&](std::size_t i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
}

/// One parallel_for in the campaign relay's pattern: fn(i) waits for the
/// promise fn(i - 1) sets. Throws Error(`error`) at index `throw_at` (n and
/// beyond never throw). Returns how many iterations ran.
std::size_t relay_call(ThreadPool& pool, std::size_t n, std::size_t throw_at,
                       const std::string& error) {
  std::vector<std::promise<void>> handoff(n);
  std::vector<std::future<void>> received;
  for (auto& promise : handoff) received.push_back(promise.get_future());
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(n, [&](std::size_t i) {
    if (i > 0) received[i - 1].wait();
    ran.fetch_add(1);
    // Hand over before throwing, as a relay chain passes on before it
    // rethrows, so the next index never waits on a failed one.
    handoff[i].set_value();
    if (i == throw_at) throw Error(error);
  });
  return ran.load();
}

TEST(ThreadPool, ConcurrentCallersRelayAndKeepTheirOwnErrors) {
  ThreadPool pool(4);
  constexpr std::size_t n = 64;
  for (int round = 0; round < 20; ++round) {
    // On odd rounds caller a throws mid-relay: it rethrows its own error,
    // and caller b still runs every one of its iterations.
    const std::size_t throw_at = round % 2 == 1 ? 17 : n;
    std::size_t ran_b = 0;
    std::string error_a;
    std::thread a([&] {
      try {
        (void)relay_call(pool, n, throw_at, "caller a");
      } catch (const Error& e) {
        error_a = e.what();
      }
    });
    std::thread b([&] { ran_b = relay_call(pool, n, n, "caller b"); });
    a.join();
    b.join();
    EXPECT_EQ(ran_b, n) << "round " << round;
    EXPECT_EQ(error_a, throw_at < n ? "caller a" : "") << "round " << round;
  }
}

TEST(ThreadPool, ACallReturnsWithoutWaitingForAnotherCallersIterations) {
  ThreadPool pool(4);
  // Caller a holds one lane until released (bounded, so a regression fails
  // instead of hanging); caller b's relay runs on the other lanes and must
  // return while a's iteration is still running.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> running;
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    pool.parallel_for(1, [&](std::size_t) {
      running.set_value();
      released.wait_for(std::chrono::seconds(10));
    });
    a_done.store(true);
  });
  running.get_future().wait();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(relay_call(pool, 64, 64, "caller b"), 64u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(a_done.load());
  release.set_value();
  a.join();
  EXPECT_TRUE(a_done.load());
}

// ------------------------------------------------------------ ascii plot

TEST(AsciiPlot, HeatmapClassifiesCells) {
  const std::vector<std::vector<double>> rows{{0.1, 0.5, 0.9}};
  const std::string row_labels[] = {std::string("r0")};
  const std::string col_labels[] = {std::string("a"), std::string("b"),
                                    std::string("c")};
  const std::string out = ascii_heatmap(rows, row_labels, col_labels);
  EXPECT_NE(out.find(".0.10"), std::string::npos);  // masked glyph
  EXPECT_NE(out.find("o0.50"), std::string::npos);  // dubious glyph
  EXPECT_NE(out.find("#0.90"), std::string::npos);  // silent-error glyph
}

TEST(AsciiPlot, HeatmapRejectsRaggedInput) {
  const std::vector<std::vector<double>> rows{{0.1, 0.2}};
  const std::string row_labels[] = {std::string("r0")};
  const std::string col_labels[] = {std::string("a")};
  EXPECT_THROW(ascii_heatmap(rows, row_labels, col_labels), Error);
}

TEST(AsciiPlot, HistogramScalesBars) {
  const double centers[] = {0.25, 0.75};
  const double values[] = {1.0, 2.0};
  const std::string out = ascii_histogram(centers, values, 10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(AsciiPlot, GroupedBars) {
  const std::string cats[] = {std::string("t"), std::string("s")};
  const std::string names[] = {std::string("sim"), std::string("hw")};
  const std::vector<std::vector<double>> values{{0.3, 0.4}, {0.32, 0.41}};
  const std::string out = ascii_grouped_bars(cats, names, values);
  EXPECT_NE(out.find("sim"), std::string::npos);
  EXPECT_NE(out.find("hw"), std::string::npos);
  EXPECT_NE(out.find("0.4100"), std::string::npos);
}

}  // namespace
}  // namespace qufi::util
