// Differential kernel-conformance and fuzz suite.
//
// The engine's merge/golden-CSV gates promise bit-identical results no
// matter which kernel set executed a campaign. This suite is that
// promise's enforcement point: every available kernel variant is diffed
// bit-for-bit against the scalar reference in kernels.hpp on randomized
// states and matrices across all qubit positions and sizes, and the sparse
// apply_matrix_k path is fuzzed against a naive dense oracle.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernel_dispatch.hpp"
#include "sim/kernels.hpp"
#include "sim/kernels_simd.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace qufi::sim {
namespace {

using util::cplx;
using util::Mat2;
using util::Mat4;
using u64 = std::uint64_t;

std::vector<cplx> random_state(std::size_t size, util::Xoshiro256pp& rng) {
  std::vector<cplx> amps(size);
  for (auto& a : amps) a = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return amps;
}

Mat2 random_mat2(util::Xoshiro256pp& rng) {
  Mat2 m;
  for (auto& x : m.a) x = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return m;
}

Mat4 random_mat4(util::Xoshiro256pp& rng) {
  Mat4 m;
  for (auto& x : m.a) x = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return m;
}

/// Bit-level comparison; on mismatch names the first differing amplitude so
/// failures point at a concrete lane, not just "vectors differ".
::testing::AssertionResult BitIdentical(const std::vector<cplx>& got,
                                        const std::vector<cplx>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(cplx)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(cplx)) != 0) {
      return ::testing::AssertionFailure()
             << "first bit difference at amplitude " << i << ": got ("
             << got[i].real() << ", " << got[i].imag() << ") want ("
             << want[i].real() << ", " << want[i].imag() << ")";
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch (padding?)";
}

/// Saves and restores the globally selected kernel set so each test can
/// reconfigure dispatch freely.
class KernelConformance : public ::testing::Test {
 protected:
  void SetUp() override { saved_set_ = active_kernel_set().name; }
  void TearDown() override { select_kernel_set(saved_set_); }

 private:
  std::string saved_set_;
};

TEST_F(KernelConformance, ScalarSetIsAlwaysAvailable) {
  ASSERT_NE(find_kernel_set("scalar"), nullptr);
  ASSERT_FALSE(available_kernel_sets().empty());
  // Best-first ordering: the default pick is the front of the list.
  EXPECT_EQ(find_kernel_set(available_kernel_sets().front()->name),
            available_kernel_sets().front());
}

// The error names every set this host offers, best first.
TEST_F(KernelConformance, SelectRejectsUnknownSet) {
  std::string offered;
  for (const KernelSet* ks : available_kernel_sets()) {
    offered += (offered.empty() ? "" : ", ") + std::string(ks->name);
  }
  try {
    select_kernel_set("avx9000");
    ADD_FAILURE() << "avx9000 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("(this host offers: " + offered + ")"),
              std::string::npos)
        << e.what();
  }
}

// avx512 is offered exactly when CPUID reports AVX-512F, and then first.
TEST_F(KernelConformance, Avx512IsOfferedExactlyWhenTheCpuHasIt) {
#if QUFI_KERNELS_HAVE_AVX2
  const bool cpu_has = __builtin_cpu_supports("avx512f");
#else
  const bool cpu_has = false;
#endif
  EXPECT_EQ(find_kernel_set("avx512") != nullptr, cpu_has);
  if (cpu_has) {
    EXPECT_STREQ(available_kernel_sets().front()->name, "avx512");
  }
}

// ---- apply_matrix1: every set x every qubit position x 1..12 qubits -------

TEST_F(KernelConformance, Matrix1AllSetsAllPositionsBitIdentical) {
  util::Xoshiro256pp rng(101);
  for (int n = 1; n <= 12; ++n) {
    const std::size_t size = std::size_t{1} << n;
    const auto base = random_state(size, rng);
    const Mat2 m = random_mat2(rng);
    for (int q = 0; q < n; ++q) {
      auto want = base;
      detail::apply_matrix1(want, m, q);
      for (const KernelSet* ks : available_kernel_sets()) {
        auto got = base;
        ks->m1(got, m, q);
        EXPECT_TRUE(BitIdentical(got, want))
            << "set=" << ks->name << " n=" << n << " q=" << q;
      }
    }
  }
}

TEST_F(KernelConformance, Matrix1MisalignedSubspan) {
  // A view starting at an odd complex offset is 16- but not 32-byte
  // aligned; every vector path must tolerate it (unaligned loads).
  util::Xoshiro256pp rng(303);
  const std::size_t size = 1 << 8;
  auto backing = random_state(size + 1, rng);
  const Mat2 m = random_mat2(rng);
  for (const KernelSet* ks : available_kernel_sets()) {
    auto got_backing = backing;
    auto want_backing = backing;
    std::span<cplx> got(got_backing.data() + 1, size);
    std::span<cplx> want(want_backing.data() + 1, size);
    detail::apply_matrix1(want, m, 3);
    ks->m1(got, m, 3);
    EXPECT_TRUE(BitIdentical(got_backing, want_backing)) << "set=" << ks->name;
  }
}

// ---- apply_matrix2: every set x every (q0, q1) pair ------------------------

TEST_F(KernelConformance, Matrix2AllSetsAllPairsBitIdentical) {
  util::Xoshiro256pp rng(404);
  for (int n = 2; n <= 12; n += 2) {
    const std::size_t size = std::size_t{1} << n;
    const auto base = random_state(size, rng);
    const Mat4 m = random_mat4(rng);
    // Both operand orders for every unordered pair: adjacent, far, and the
    // q=0 / q=n-1 edges all occur naturally.
    for (int q0 = 0; q0 < n; ++q0) {
      for (int q1 = 0; q1 < n; ++q1) {
        if (q0 == q1) continue;
        auto want = base;
        detail::apply_matrix2(want, m, q0, q1);
        for (const KernelSet* ks : available_kernel_sets()) {
          auto got = base;
          ks->m2(got, m, q0, q1);
          EXPECT_TRUE(BitIdentical(got, want))
              << "set=" << ks->name << " n=" << n << " q0=" << q0
              << " q1=" << q1;
        }
      }
    }
  }
}

// ---- apply_ccx -------------------------------------------------------------

TEST_F(KernelConformance, CcxAllSetsBitIdentical) {
  util::Xoshiro256pp rng(606);
  for (int n = 3; n <= 12; n += 3) {
    const std::size_t size = std::size_t{1} << n;
    const auto base = random_state(size, rng);
    const std::array<std::array<int, 3>, 4> cases = {{
        {0, 1, 2},
        {n - 1, n - 2, 0},
        {0, n - 1, n / 2},
        {1, n / 2, n - 1},
    }};
    for (const auto& [c0, c1, t] : cases) {
      auto want = base;
      detail::apply_ccx(want, c0, c1, t);
      for (const KernelSet* ks : available_kernel_sets()) {
        auto got = base;
        ks->ccx(got, c0, c1, t);
        EXPECT_TRUE(BitIdentical(got, want))
            << "set=" << ks->name << " n=" << n << " c0=" << c0
            << " c1=" << c1 << " t=" << t;
      }
    }
  }
}

// ---- apply_matrix_k: variants and fuzz vs dense oracle ---------------------

/// Pauli-mixture-shaped superoperator: structurally sparse with the zero
/// pattern real channels produce, plus optional fill to hit capacity.
std::vector<cplx> random_sparse_superop(std::size_t dim,
                                        util::Xoshiro256pp& rng,
                                        double density) {
  std::vector<cplx> m(dim * dim);
  for (auto& x : m) {
    if (rng.uniform() < density) x = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  // Keep a dominant diagonal so the matrix is not accidentally all-zero.
  for (std::size_t i = 0; i < dim; ++i) {
    m[i * dim + i] += cplx{1.0, 0.0};
  }
  return m;
}

/// A state whose components mix +0, -0, negatives and positives, so a
/// kernel that moved the sign of a zero or dropped a nonzero product would
/// show it.
std::vector<cplx> signed_zero_state(std::size_t size, util::Xoshiro256pp& rng) {
  const auto component = [&rng] {
    const double u = rng.uniform();
    if (u < 0.15) return 0.0;
    if (u < 0.3) return -0.0;
    return rng.uniform(-1, 1);
  };
  std::vector<cplx> amps(size);
  for (auto& a : amps) {
    const double re = component();
    a = cplx{re, component()};
  }
  return amps;
}

/// Value comparison (+0 == -0): what a consumer of the state can observe.
::testing::AssertionResult ValueEqual(const std::vector<cplx>& got,
                                      const std::vector<cplx>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].real() == want[i].real() &&
          got[i].imag() == want[i].imag())) {
      return ::testing::AssertionFailure()
             << "first value difference at amplitude " << i << ": got ("
             << got[i].real() << ", " << got[i].imag() << ") want ("
             << want[i].real() << ", " << want[i].imag() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The fused CX + edge-noise superop the density backend bakes for a CX on
/// fake_casablanca's (0, 1) edge.
std::vector<cplx> baked_cx_superop() {
  const auto nm = noise::NoiseModel::from_backend(noise::fake_casablanca());
  const noise::SuperOp2 so = noise::compose_superops(
      *nm.superop_after_2q(0, 1),
      noise::channel_superop(noise::KrausChannel2{
          {circ::gate_matrix2(circ::GateKind::CX, {})}}));
  return {so.a.begin(), so.a.end()};
}

/// A random sparse table with exactly-real entries of both signs.
std::vector<cplx> random_real_sparse(std::size_t dim, util::Xoshiro256pp& rng) {
  std::vector<cplx> m(dim * dim);
  for (auto& x : m) {
    if (rng.uniform() < 0.3) x = cplx{rng.uniform(-1, 1), 0.0};
  }
  for (std::size_t i = 0; i < dim; ++i) m[i * dim + i] += cplx{1.0, 0.0};
  return m;
}

// Every set equals the reference bit for bit on complex tables, on random
// real ones and on a baked CX superop (k=4), over states with and without
// signed zeros. A real table also equals the dense oracle by value and the
// full complex products bit for bit: skipping the exact-zero cross terms
// moves no value, and row sums from +0 never end at -0. Besides a 10-qubit
// state, each AVX2 path that takes groups two or eight at a time also runs
// on the smallest state it accepts.
TEST_F(KernelConformance, MatrixKAllSetsBitIdentical) {
  util::Xoshiro256pp rng(707);
  util::Xoshiro256pp real_rng(1515);
  const auto cx = baked_cx_superop();
  struct Case {
    int n;
    std::vector<int> bits;
  };
  const std::vector<Case> cases = {
      {10, {0}}, {10, {5}}, {10, {9}},         // k=1: bit 0 masked and free
      {10, {0, 5}}, {10, {3, 8}}, {10, {1, 0}}, // k=2, both orders
      {10, {0, 4, 7}}, {10, {2, 5, 9}},         // k=3
      {10, {0, 3, 6, 9}}, {10, {1, 4, 7, 2}},   // k=4 with and without bit 0
      // k=4 with the lowest masked bit >= 3: the AVX2 contiguous-run path
      // (the shape of a 2q superop on a lane-batched density matrix).
      {10, {3, 5, 7, 9}}, {10, {4, 3, 8, 6}}, {10, {3, 4, 8, 9}},
      // Exactly 8 groups on the contiguous-run path (n = k + 3).
      {4, {3}}, {5, {4, 3}}, {7, {3, 5, 4, 6}},
      // Exactly 2 groups on the bit-0-free path (n = k + 1).
      {2, {1}}, {3, {2, 1}}, {5, {1, 4, 2, 3}},
      // Lowest masked bit 2: just under the contiguous-run path.
      {10, {2, 7}}, {10, {6, 2, 9, 4}},
  };
  for (const auto& [n, bits] : cases) {
    const std::size_t size = std::size_t{1} << n;
    const auto base = random_state(size, rng);
    const auto zeros = signed_zero_state(size, real_rng);
    const std::size_t dim = std::size_t{1} << bits.size();
    std::vector<std::pair<const char*, std::vector<cplx>>> tables = {
        {"complex", random_sparse_superop(dim, rng, 0.3)},
        {"real", random_real_sparse(dim, real_rng)}};
    if (bits.size() == 4) tables.emplace_back("baked CX", cx);
    for (const auto& [table, m] : tables) {
      const auto tables_k = kern::build_mk_tables(m, bits);
      for (const auto* state : {&base, &zeros}) {
        const std::string what = std::string(table) + " n=" +
                                 std::to_string(n) + " k=" +
                                 std::to_string(bits.size()) +
                                 (state == &zeros ? " signed zeros" : "");
        auto want = *state;
        detail::apply_matrix_k(want, m, bits);
        if (tables_k.real) {
          auto dense = *state;
          detail::apply_matrix_k_dense(dense, m, bits);
          EXPECT_TRUE(ValueEqual(want, dense)) << what;
          auto complex_products = *state;
          kern::scalar_mk_rows<false>(complex_products, tables_k);
          EXPECT_TRUE(BitIdentical(want, complex_products)) << what;
        }
        for (const KernelSet* ks : available_kernel_sets()) {
          auto got = *state;
          ks->mk(got, m, bits);
          EXPECT_TRUE(BitIdentical(got, want)) << "set=" << ks->name << " "
                                               << what;
        }
      }
    }
  }
}

TEST_F(KernelConformance, MatrixKSparseFuzzAgainstDenseOracle) {
  util::Xoshiro256pp rng(808);
  const int n = 8;
  const std::size_t size = std::size_t{1} << n;
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t k = 1 + rng.uniform_int(4);
    std::vector<int> bits;
    while (bits.size() < k) {
      const int b = static_cast<int>(rng.uniform_int(n));
      bool dup = false;
      for (int x : bits) dup |= (x == b);
      if (!dup) bits.push_back(b);
    }
    const std::size_t dim = std::size_t{1} << k;
    const auto m = random_sparse_superop(dim, rng, rng.uniform(0.1, 0.9));
    const auto base = random_state(size, rng);
    auto sparse = base;
    auto dense = base;
    detail::apply_matrix_k(sparse, m, bits);
    detail::apply_matrix_k_dense(dense, m, bits);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_NEAR(sparse[i].real(), dense[i].real(), 1e-12)
          << "iter=" << iter << " k=" << k << " amp=" << i;
      ASSERT_NEAR(sparse[i].imag(), dense[i].imag(), 1e-12)
          << "iter=" << iter << " k=" << k << " amp=" << i;
    }
  }
}

TEST_F(KernelConformance, MatrixKDropThresholdBoundary) {
  // The sparsifier keeps entries with |x| > 1e-12 and drops the rest. An
  // entry exactly at the boundary is dropped; one at 2e-12 must survive and
  // contribute to the result.
  const std::vector<int> bits = {0};
  std::vector<cplx> base = {cplx{1.0, 0.0}, cplx{1.0, 0.0}};

  std::vector<cplx> m_dropped = {cplx{1.0, 0.0}, cplx{1e-12, 0.0},
                                 cplx{0.0, 0.0}, cplx{1.0, 0.0}};
  auto dropped = base;
  detail::apply_matrix_k(dropped, m_dropped, bits);
  EXPECT_EQ(dropped[0], (cplx{1.0, 0.0}));  // off-diagonal 1e-12 was dropped

  std::vector<cplx> m_kept = {cplx{1.0, 0.0}, cplx{2e-12, 0.0},
                              cplx{0.0, 0.0}, cplx{1.0, 0.0}};
  auto kept = base;
  detail::apply_matrix_k(kept, m_kept, bits);
  EXPECT_EQ(kept[0], (cplx{1.0 + 2e-12, 0.0}));

  // And the dense oracle never drops anything.
  auto dense = base;
  detail::apply_matrix_k_dense(dense, m_dropped, bits);
  EXPECT_EQ(dense[0], (cplx{1.0 + 1e-12, 0.0}));
}

TEST_F(KernelConformance, MatrixKFullDenseHitsEntryCapacity) {
  // k=4 with every one of the 256 entries nonzero: exercises the full
  // sparse-entry store on every set, with bit 0 masked and with the lowest
  // masked bit >= 3 (where avx512 hands a table this dense to avx2).
  util::Xoshiro256pp rng(909);
  const int n = 8;
  const std::size_t size = std::size_t{1} << n;
  std::vector<cplx> m(256);
  for (auto& x : m) x = cplx{rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)};
  const auto base = random_state(size, rng);
  for (const std::vector<int>& bits : {std::vector<int>{0, 2, 5, 7},
                                       std::vector<int>{3, 4, 6, 7}}) {
    auto want = base;
    detail::apply_matrix_k(want, m, bits);
    auto dense = base;
    detail::apply_matrix_k_dense(dense, m, bits);
    EXPECT_TRUE(BitIdentical(want, dense));  // nothing droppable: bit-equal
    for (const KernelSet* ks : available_kernel_sets()) {
      auto got = base;
      ks->mk(got, m, bits);
      EXPECT_TRUE(BitIdentical(got, want))
          << "set=" << ks->name << " lowest bit=" << bits[0];
    }
  }
}

TEST_F(KernelConformance, MatrixKRejectsMoreThanFourBits) {
  // Regression for the capacity hazard: offset/v scratch holds 16 entries
  // (k=4); k=5 used to index out of bounds silently.
  std::vector<cplx> amps(64, cplx{0.1, 0.0});
  std::vector<cplx> m(32 * 32, cplx{});
  const std::vector<int> bits = {0, 1, 2, 3, 4};
  EXPECT_THROW(detail::apply_matrix_k(amps, m, bits), Error);
  EXPECT_THROW(detail::apply_matrix_k_dense(amps, m, bits), Error);
  EXPECT_THROW(dispatch::apply_matrix_k(amps, m, bits), Error);
  EXPECT_THROW(kern::build_mk_tables(m, bits), Error);
}

// The dense 2q kernel on states with signed zeros and a table with exact
// zeros and real entries (the shape of a fused Superop1), with the lower
// operand bit on either side of 2, where four complexes of a plane first
// run contiguously: both operand orders, far and adjacent upper bits.
TEST_F(KernelConformance, Matrix2SignedZerosAroundTheContiguousThreshold) {
  util::Xoshiro256pp rng(505);
  const int n = 8;
  const auto base = signed_zero_state(std::size_t{1} << n, rng);
  Mat4 m = random_mat4(rng);
  for (const std::size_t i : {1, 6, 11}) m.a[i] = cplx{};
  for (const std::size_t i : {0, 5, 9, 15}) m.a[i] = cplx{m.a[i].real(), 0.0};
  for (const int low : {1, 2}) {
    for (const int high : {low + 1, n - 1}) {
      for (const auto& [q0, q1] :
           {std::pair{low, high}, std::pair{high, low}}) {
        auto want = base;
        detail::apply_matrix2(want, m, q0, q1);
        for (const KernelSet* ks : available_kernel_sets()) {
          auto got = base;
          ks->m2(got, m, q0, q1);
          EXPECT_TRUE(BitIdentical(got, want))
              << "set=" << ks->name << " q0=" << q0 << " q1=" << q1;
        }
      }
    }
  }
}

// ---- exact-zero skipping: real tables and diagonal 1q unitaries ------------

TEST_F(KernelConformance, MatrixKRealTablesTakeTheRealPathOnly) {
  util::Xoshiro256pp rng(1414);
  const std::vector<int> bits = {3, 5, 7, 9};
  const auto cx = baked_cx_superop();
  EXPECT_TRUE(kern::build_mk_tables(cx, bits).real);
  EXPECT_TRUE(kern::build_mk_tables(random_real_sparse(16, rng), bits).real);
  // One complex entry anywhere sends the whole table down the complex path.
  auto one_complex = cx;
  one_complex[16 * 7 + 2] = cplx{0.25, -1e-3};
  EXPECT_FALSE(kern::build_mk_tables(one_complex, bits).real);
  EXPECT_FALSE(
      kern::build_mk_tables(random_sparse_superop(16, rng, 0.3), bits).real);
}

/// A diagonal 1q unitary: a virtual RZ, or two random complex phases.
std::vector<std::pair<const char*, Mat2>> diagonal_unitaries(
    util::Xoshiro256pp& rng) {
  const double theta[] = {0.7};
  Mat2 phases{};
  phases.a[0] = std::polar(1.0, rng.uniform(-3, 3));
  phases.a[3] = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return {{"RZ", circ::gate_matrix1(circ::GateKind::RZ, theta)},
          {"phases", phases}};
}

// The one-pass diagonal kernel on a density matrix: every set, every qubit
// of a 1- and a 3-qubit matrix, lane bits {0, 2, 3} (so col_bit 0 to 5,
// either side of the contiguous-run threshold 2), equals the scalar
// kernel bit for bit and the old two dense m1 passes (rows with u, then
// columns with conj(u)) by value.
TEST_F(KernelConformance, DiagonalUnitary1AllSetsMatchTwoDensePasses) {
  util::Xoshiro256pp rng(1616);
  for (const auto& [name, u] : diagonal_unitaries(rng)) {
    ASSERT_EQ(u.a[1], cplx{});
    ASSERT_EQ(u.a[2], cplx{});
    for (const int n : {1, 3}) {
      for (const int lane_bits : {0, 2, 3}) {
        const std::size_t size = std::size_t{1} << (2 * n + lane_bits);
        const auto base = signed_zero_state(size, rng);
        for (int q = 0; q < n; ++q) {
          const int row_bit = q + n + lane_bits;
          const int col_bit = q + lane_bits;
          const std::string what = std::string(name) + " n=" +
                                   std::to_string(n) + " lanes=" +
                                   std::to_string(lane_bits) + " q=" +
                                   std::to_string(q);
          auto want = base;
          kern::scalar_diag1(want, u, row_bit, col_bit);
          auto two_pass = base;
          detail::apply_matrix1(two_pass, u, row_bit);
          detail::apply_matrix1(two_pass, detail::conj_elementwise(u),
                                col_bit);
          EXPECT_TRUE(ValueEqual(want, two_pass)) << what;
          for (const KernelSet* ks : available_kernel_sets()) {
            auto got = base;
            ks->diag1(got, u, row_bit, col_bit);
            EXPECT_TRUE(BitIdentical(got, want))
                << "set=" << ks->name << " " << what;
            // Through DensityMatrix and dispatch.
            select_kernel_set(ks->name);
            DensityMatrix dm(n, lane_bits);
            std::copy(base.begin(), base.end(), dm.mutable_raw().begin());
            dm.apply_unitary1(u, q);
            EXPECT_TRUE(
                BitIdentical({dm.raw().begin(), dm.raw().end()}, want))
                << "set=" << ks->name << " " << what << " (DensityMatrix)";
          }
        }
      }
    }
  }
}

// ---- lane-batched density matrices ------------------------------------------

/// One matrix of a lane batch, copied out of the interleaved storage.
std::vector<cplx> lane_of(const DensityMatrix& batch, u64 lane) {
  const auto raw = batch.raw();
  const int lb = batch.lane_bits();
  std::vector<cplx> out(raw.size() >> lb);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = raw[(i << lb) | lane];
  return out;
}

std::vector<cplx> raw_copy(const DensityMatrix& dm) {
  return {dm.raw().begin(), dm.raw().end()};
}

// Every op kind the density backend replays (unitary 1q/2q, fused superop
// 1q/2q, Toffoli, and the exact-zero paths: a diagonal RZ and a real baked
// CX superop) applied once to a lane batch equals the same op applied to
// each lane's matrix on its own, bit for bit, under every kernel set and
// lane count.
TEST_F(KernelConformance, LaneBatchedReplayMatchesSingleMatrices) {
  util::Xoshiro256pp rng(1313);
  const int n = 3;
  const Mat2 u1 = random_mat2(rng);
  const Mat4 u2 = random_mat4(rng);
  const Mat4 s1 = random_mat4(rng);
  const auto s2 = random_sparse_superop(16, rng, 0.1);
  const double theta[] = {1.3};
  const Mat2 rz = circ::gate_matrix1(circ::GateKind::RZ, theta);
  const auto cx = baked_cx_superop();
  using Op = std::function<void(DensityMatrix&)>;
  const std::vector<std::pair<const char*, Op>> ops = {
      {"Unitary1", [&](DensityMatrix& dm) { dm.apply_unitary1(u1, 1); }},
      {"Unitary2", [&](DensityMatrix& dm) { dm.apply_unitary2(u2, 2, 0); }},
      {"Superop1", [&](DensityMatrix& dm) { dm.apply_superop1(s1, 0); }},
      {"Superop2", [&](DensityMatrix& dm) { dm.apply_superop2(s2, 0, 2); }},
      {"RZ Unitary1", [&](DensityMatrix& dm) { dm.apply_unitary1(rz, 0); }},
      {"CX Superop2", [&](DensityMatrix& dm) { dm.apply_superop2(cx, 1, 2); }},
      {"CCX",
       [&](DensityMatrix& dm) {
         dm.apply_instruction(
             circ::Instruction{circ::GateKind::CCX, {2, 0, 1}, {}, {}});
       }},
  };
  for (const KernelSet* ks : available_kernel_sets()) {
    select_kernel_set(ks->name);
    for (const int lane_bits : {0, 2, 3, 5}) {
      const u64 lanes = u64{1} << lane_bits;
      DensityMatrix batch(n, lane_bits);
      std::vector<DensityMatrix> singles(lanes, DensityMatrix(n));
      for (u64 l = 0; l < lanes; ++l) {
        const auto fill = random_state(singles[l].raw().size(), rng);
        std::copy(fill.begin(), fill.end(), singles[l].mutable_raw().begin());
        for (std::size_t i = 0; i < fill.size(); ++i) {
          batch.mutable_raw()[(i << lane_bits) | l] = fill[i];
        }
      }
      for (const auto& [name, op] : ops) {
        op(batch);
        for (u64 l = 0; l < lanes; ++l) {
          op(singles[l]);
          EXPECT_TRUE(BitIdentical(lane_of(batch, l), raw_copy(singles[l])))
              << "set=" << ks->name << " op=" << name << " lanes=" << lanes
              << " lane=" << l;
        }
      }
    }
  }
}

// A state holds at most 2^27 complexes (2 * qubits + lane bits <= 27); the
// shapes just past that bound are rejected before anything is allocated.
TEST_F(KernelConformance, LaneBatchRejectsSingleMatrixReaders) {
  DensityMatrix batch(2, 3);
  EXPECT_THROW(batch.at(0, 0), Error);
  EXPECT_THROW(batch.trace(), Error);
  EXPECT_THROW(batch.probabilities(), Error);
  EXPECT_THROW(DensityMatrix(12, 4), Error);
  EXPECT_THROW(DensityMatrix(2, 24), Error);
  EXPECT_THROW(DensityMatrix(2, -1), Error);
}

// ---- folding finished qubits into lanes --------------------------------------

// fold(q) keeps exactly the blocks where q's row bit equals its column bit:
// element (r, c) of lane l, with bit f inserted at q into both r and c,
// becomes element (r, c) of lane (f << b) | l, for every q and lane count.
TEST_F(KernelConformance, FoldKeepsTheRowEqualsColumnBlocksAsLanes) {
  util::Xoshiro256pp rng(2020);
  const int n = 4;
  for (const int lane_bits : {0, 1, 3}) {
    for (int q = 0; q < n; ++q) {
      DensityMatrix dm(n, lane_bits);
      const auto fill = random_state(dm.raw().size(), rng);
      std::copy(fill.begin(), fill.end(), dm.mutable_raw().begin());
      dm.fold(q);
      ASSERT_EQ(dm.num_qubits(), n - 1);
      ASSERT_EQ(dm.lane_bits(), lane_bits + 1);
      ASSERT_EQ(dm.raw().size(), fill.size() / 2);
      const auto insert = [q](u64 x, u64 f) {
        const u64 low = (u64{1} << q) - 1;
        return ((x & ~low) << 1) | (f << q) | (x & low);
      };
      const u64 half = u64{1} << (n - 1);
      const u64 lanes = u64{1} << lane_bits;
      for (u64 r = 0; r < half; ++r) {
        for (u64 c = 0; c < half; ++c) {
          for (u64 f = 0; f < 2; ++f) {
            for (u64 l = 0; l < lanes; ++l) {
              const u64 from =
                  (((insert(r, f) << n) | insert(c, f)) << lane_bits) | l;
              const u64 to =
                  (((r << (n - 1)) | c) << (lane_bits + 1)) | (f << lane_bits) |
                  l;
              ASSERT_EQ(std::memcmp(&dm.raw()[to], &fill[from], sizeof(cplx)),
                        0)
                  << "q=" << q << " lanes=" << lanes << " r=" << r
                  << " c=" << c << " f=" << f << " l=" << l;
            }
          }
        }
      }
    }
  }
  DensityMatrix one(1, 2);
  EXPECT_THROW(one.fold(0), Error);
}

// Folding moves no byte of the final diagonal. Random sequences of every op
// kind the density backend bakes (unitary 1q/2q, diagonal RZ, superop 1q,
// complex and baked-CX superop 2q, Toffoli), with qubits finishing at
// random points, run twice under every kernel set at lane bits {0, 3}:
// unfolded, and folding each qubit into a lane bit once it finishes, the
// later ops renumbered. The diagonal read through
// folded_diagonal_positions is memcmp-equal to the unfolded replay's. Half
// of the sequences fold down to a single remaining qubit.
TEST_F(KernelConformance, FoldedReplayKeepsTheFinalDiagonalBitForBit) {
  util::Xoshiro256pp rng(2121);
  const int n = 5;
  const int num_ops = 24;
  const double theta[] = {0.7};
  const Mat2 rz = circ::gate_matrix1(circ::GateKind::RZ, theta);
  const auto cx = baked_cx_superop();
  enum class Kind { Unitary1, Rz, Unitary2, Superop1, Superop2, CxSuperop2,
                    Ccx };
  struct Op {
    Kind kind;
    std::vector<int> qubits;
    Mat2 m1;
    Mat4 m4;
    std::vector<cplx> so2;
  };
  const auto apply = [&](DensityMatrix& dm, const Op& op,
                         const std::vector<int>& index) {
    const auto at = [&](std::size_t j) {
      return index[static_cast<std::size_t>(op.qubits[j])];
    };
    switch (op.kind) {
      case Kind::Unitary1:
        dm.apply_unitary1(op.m1, at(0));
        break;
      case Kind::Rz:
        dm.apply_unitary1(rz, at(0));
        break;
      case Kind::Unitary2:
        dm.apply_unitary2(op.m4, at(0), at(1));
        break;
      case Kind::Superop1:
        dm.apply_superop1(op.m4, at(0));
        break;
      case Kind::Superop2:
        dm.apply_superop2(op.so2, at(0), at(1));
        break;
      case Kind::CxSuperop2:
        dm.apply_superop2(cx, at(0), at(1));
        break;
      case Kind::Ccx:
        dm.apply_instruction(circ::Instruction{
            circ::GateKind::CCX, {at(0), at(1), at(2)}, {}, {}});
        break;
    }
  };
  for (int trial = 0; trial < 8; ++trial) {
    // finish[q]: the first op index q no longer takes part in; one qubit
    // (two in odd trials) runs to the end.
    const bool down_to_one = trial % 2 == 0;
    std::vector<int> finish(n);
    for (int q = 0; q < n; ++q) {
      finish[static_cast<std::size_t>(q)] =
          static_cast<int>(rng.uniform_int(num_ops));
    }
    const int keep = static_cast<int>(rng.uniform_int(n));
    finish[static_cast<std::size_t>(keep)] = num_ops;
    if (!down_to_one) finish[static_cast<std::size_t>((keep + 1) % n)] = num_ops;
    std::vector<Op> ops;
    for (int i = 0; i < num_ops; ++i) {
      std::vector<int> alive;
      for (int q = 0; q < n; ++q) {
        if (finish[static_cast<std::size_t>(q)] > i) alive.push_back(q);
      }
      for (std::size_t j = alive.size(); j > 1; --j) {
        std::swap(alive[j - 1], alive[rng.uniform_int(j)]);
      }
      auto kind = static_cast<Kind>(rng.uniform_int(7));
      const std::size_t arity = kind == Kind::Ccx ? 3
                                : (kind == Kind::Unitary2 ||
                                   kind == Kind::Superop2 ||
                                   kind == Kind::CxSuperop2)
                                    ? 2
                                    : 1;
      if (alive.size() < arity) kind = Kind::Unitary1;
      Op op{kind, {}, random_mat2(rng), random_mat4(rng),
            random_sparse_superop(16, rng, 0.3)};
      const std::size_t take = kind == Kind::Unitary1 ? 1 : arity;
      op.qubits.assign(alive.begin(), alive.begin() + static_cast<long>(take));
      ops.push_back(std::move(op));
    }
    for (const KernelSet* ks : available_kernel_sets()) {
      select_kernel_set(ks->name);
      for (const int lane_bits : {0, 3}) {
        DensityMatrix unfolded(n, lane_bits);
        const auto fill = random_state(unfolded.raw().size(), rng);
        std::copy(fill.begin(), fill.end(), unfolded.mutable_raw().begin());
        DensityMatrix folded = unfolded.clone();
        std::vector<int> identity(n), index(n), folds;
        for (int q = 0; q < n; ++q) identity[q] = index[q] = q;
        for (int i = 0; i < num_ops; ++i) {
          for (int q = 0; q < n; ++q) {
            if (finish[static_cast<std::size_t>(q)] != i) continue;
            folds.push_back(index[static_cast<std::size_t>(q)]);
            folded.fold(folds.back());
            for (int p = q + 1; p < n; ++p) --index[static_cast<std::size_t>(p)];
          }
          apply(unfolded, ops[static_cast<std::size_t>(i)], identity);
          apply(folded, ops[static_cast<std::size_t>(i)], index);
        }
        ASSERT_EQ(folded.num_qubits(), down_to_one ? 1 : 2);
        const auto positions = folded_diagonal_positions(n, folds);
        const u64 lanes = u64{1} << lane_bits;
        std::vector<cplx> want, got;
        for (u64 l = 0; l < lanes; ++l) {
          for (u64 i = 0; i < (u64{1} << n); ++i) {
            want.push_back(
                unfolded.raw()[((((i << n) | i)) << lane_bits) | l]);
            got.push_back(folded.raw()[(positions[i] << lane_bits) | l]);
          }
        }
        EXPECT_TRUE(BitIdentical(got, want))
            << "set=" << ks->name << " trial=" << trial
            << " lanes=" << lanes << " folds=" << folds.size();
      }
    }
  }
}

TEST_F(KernelConformance, DispatchSelectionRoutesToNamedSet) {
  // Selecting a set is observable end to end: a statevector evolved under
  // each set produces bit-identical amplitudes (the whole point of the
  // contract), and the active set reports the selected name.
  util::Xoshiro256pp rng(1212);
  const std::size_t size = 1 << 10;
  const auto base = random_state(size, rng);
  const Mat2 m = random_mat2(rng);
  select_kernel_set("scalar");
  EXPECT_STREQ(active_kernel_set().name, "scalar");
  auto want = base;
  dispatch::apply_matrix1(want, m, 7);
  for (const KernelSet* ks : available_kernel_sets()) {
    select_kernel_set(ks->name);
    EXPECT_STREQ(active_kernel_set().name, ks->name);
    auto got = base;
    dispatch::apply_matrix1(got, m, 7);
    EXPECT_TRUE(BitIdentical(got, want)) << "set=" << ks->name;
  }
}

}  // namespace
}  // namespace qufi::sim
