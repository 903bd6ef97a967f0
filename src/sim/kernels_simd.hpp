#pragma once

// Vectorized variants of the simulator bit-kernels.
//
// Every kernel here walks a whole state in "groups": the independent
// amplitude tuples a gate application touches (pairs for a 1q matrix,
// quadruples for a 2q matrix, 2^k-tuples for apply_matrix_k, adjacent
// amplitude pairs for the diagonal density kernel). The state size is a
// power of two, so the group count is too, and a vector path that takes
// groups two, four or eight at a time needs a scalar remainder only where
// the whole state is smaller than one step.
//
// The bit-identity contract (docs/ARCHITECTURE.md "Kernel dispatch"): every
// variant performs, per amplitude, the exact operation sequence of the
// scalar reference in kernels.hpp — products in the same operand order,
// sums associated left-to-right, no FMA contraction (explicit intrinsics
// only), no reassociation across lanes. The differential suite in
// tests/test_kernels.cpp enforces this bit-for-bit; campaign-level results
// (golden CSVs, shard merges) therefore do not depend on which kernel set
// executed them.
//
// Three implementations:
//   scalar   — the reference loops, restructured over groups;
//   avx2     — AVX2 intrinsics behind __attribute__((target)), selected at
//              runtime by CPUID, so the build needs no global arch flags;
//   avx512   — AVX-512F intrinsics on the three paths the lane-batched
//              response-basis replay runs, the avx2 kernels elsewhere.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "sim/kernels.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

#ifndef QUFI_ENABLE_AVX2
#define QUFI_ENABLE_AVX2 1
#endif

#if QUFI_ENABLE_AVX2 && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QUFI_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define QUFI_KERNELS_HAVE_AVX2 0
#endif

namespace qufi::sim::kern {

using util::cplx;
using util::Mat2;
using util::Mat4;
using u64 = std::uint64_t;

/// Inserts a zero bit at position `pos`: bits >= pos shift up by one.
inline u64 insert_zero_bit(u64 g, int pos) {
  const u64 low = (u64{1} << pos) - 1;
  return ((g & ~low) << 1) | (g & low);
}

// ---- shared apply_matrix_k setup --------------------------------------------

/// Precomputed per-call tables for apply_matrix_k: local-offset expansion,
/// sorted mask positions for group expansion, and the sparse rows of the
/// matrix (same 1e-12 magnitude drop threshold as the scalar reference).
struct MkTables {
  std::size_t k = 0;
  std::size_t dim = 0;
  u64 mask = 0;
  /// Every kept entry has an exactly-zero imaginary part, so each product
  /// is taken componentwise (the rule of detail::apply_matrix_k).
  bool real = true;
  std::array<u64, 16> offset{};
  std::array<int, 4> sorted{};
  struct Entry {
    std::uint16_t col;
    cplx value;
  };
  std::array<Entry, 256> entries;
  std::array<std::uint16_t, 17> row_start{};
};

inline MkTables build_mk_tables(std::span<const cplx> m,
                                std::span<const int> bits) {
  MkTables t;
  t.k = bits.size();
  require(t.k <= detail::kApplyMatrixKMaxBits,
          "apply_matrix_k: at most 4 bit positions supported (16x16 matrix); "
          "widen the kernel scratch tables before growing k");
  t.dim = std::size_t{1} << t.k;
  for (std::size_t j = 0; j < t.dim; ++j) {
    u64 off = 0;
    for (std::size_t b = 0; b < t.k; ++b) {
      if ((j >> b) & 1) off |= u64{1} << bits[b];
    }
    t.offset[j] = off;
  }
  for (std::size_t b = 0; b < t.k; ++b) {
    t.mask |= u64{1} << bits[b];
    t.sorted[b] = bits[b];
  }
  std::sort(t.sorted.begin(), t.sorted.begin() + t.k);
  std::uint16_t nnz = 0;
  for (std::size_t r = 0; r < t.dim; ++r) {
    t.row_start[r] = nnz;
    const cplx* row = m.data() + r * t.dim;
    for (std::size_t c = 0; c < t.dim; ++c) {
      if (std::norm(row[c]) > 1e-24) {
        t.entries[nnz++] =
            MkTables::Entry{static_cast<std::uint16_t>(c), row[c]};
        t.real = t.real && row[c].imag() == 0.0;
      }
    }
  }
  t.row_start[t.dim] = nnz;
  return t;
}

/// Expands group index `g` to a base amplitude index: zeros are inserted at
/// the (ascending) masked bit positions.
inline u64 expand_group(u64 g, const MkTables& t) {
  u64 x = g;
  for (std::size_t b = 0; b < t.k; ++b) x = insert_zero_bit(x, t.sorted[b]);
  return x;
}

// ---- scalar reference ---------------------------------------------------------

inline void scalar_m1(std::span<cplx> amps, const Mat2& m, int q) {
  cplx* a = amps.data();
  const u64 stride = u64{1} << q;
  const u64 groups = amps.size() / 2;
  for (u64 g = 0; g < groups; g += stride) {
    const u64 i0_first = (g >> q) << (q + 1);
    for (u64 r = 0; r < stride; ++r) {
      const u64 i0 = i0_first + r;
      const u64 i1 = i0 + stride;
      const cplx a0 = a[i0];
      const cplx a1 = a[i1];
      a[i0] = m.a[0] * a0 + m.a[1] * a1;
      a[i1] = m.a[2] * a0 + m.a[3] * a1;
    }
  }
}

inline void scalar_m2(std::span<cplx> amps, const Mat4& m, int q_low,
                      int q_high) {
  cplx* a = amps.data();
  const u64 bl = u64{1} << q_low;
  const u64 bh = u64{1} << q_high;
  const int s0 = std::min(q_low, q_high);
  const int s1 = std::max(q_low, q_high);
  const u64 low = u64{1} << s0;
  const u64 groups = amps.size() / 4;
  for (u64 g = 0; g < groups; g += low) {
    const u64 i00_first = insert_zero_bit(insert_zero_bit(g, s0), s1);
    for (u64 r = 0; r < low; ++r) {
      const u64 i00 = i00_first + r;
      const u64 i01 = i00 | bl;
      const u64 i10 = i00 | bh;
      const u64 i11 = i00 | bl | bh;
      const cplx a0 = a[i00];
      const cplx a1 = a[i01];
      const cplx a2 = a[i10];
      const cplx a3 = a[i11];
      a[i00] = m.a[0] * a0 + m.a[1] * a1 + m.a[2] * a2 + m.a[3] * a3;
      a[i01] = m.a[4] * a0 + m.a[5] * a1 + m.a[6] * a2 + m.a[7] * a3;
      a[i10] = m.a[8] * a0 + m.a[9] * a1 + m.a[10] * a2 + m.a[11] * a3;
      a[i11] = m.a[12] * a0 + m.a[13] * a1 + m.a[14] * a2 + m.a[15] * a3;
    }
  }
}

inline void scalar_ccx(std::span<cplx> amps, int c0, int c1, int t) {
  cplx* a = amps.data();
  const u64 bc0 = u64{1} << c0;
  const u64 bc1 = u64{1} << c1;
  const u64 bt = u64{1} << t;
  const u64 groups = amps.size() / 2;
  for (u64 g = 0; g < groups; ++g) {
    const u64 i = insert_zero_bit(g, t);
    if ((i & bc0) && (i & bc1)) std::swap(a[i], a[i | bt]);
  }
}

/// One sparse-row product c * x; `Real` tables take it componentwise.
template <bool Real>
inline cplx mk_mul(cplx c, cplx x) {
  if constexpr (Real) {
    return {c.real() * x.real(), c.real() * x.imag()};
  } else {
    return c * x;
  }
}

/// The scalar reference with the tables already built.
template <bool Real>
inline void scalar_mk_rows(std::span<cplx> amps, const MkTables& t) {
  cplx* a = amps.data();
  const u64 groups = amps.size() >> t.k;
  std::array<cplx, 16> v{};
  for (u64 g = 0; g < groups; ++g) {
    const u64 base = expand_group(g, t);
    for (std::size_t j = 0; j < t.dim; ++j) v[j] = a[base | t.offset[j]];
    for (std::size_t r = 0; r < t.dim; ++r) {
      cplx sum{};
      for (std::uint16_t e = t.row_start[r]; e < t.row_start[r + 1]; ++e) {
        sum += mk_mul<Real>(t.entries[e].value, v[t.entries[e].col]);
      }
      a[base | t.offset[r]] = sum;
    }
  }
}

inline void scalar_mk(std::span<cplx> amps, std::span<const cplx> m,
                      std::span<const int> bits) {
  const MkTables t = build_mk_tables(m, bits);
  if (t.real) {
    scalar_mk_rows<true>(amps, t);
  } else {
    scalar_mk_rows<false>(amps, t);
  }
}

/// rho -> D rho D† for a diagonal 1q D = diag(d[0], d[1]) = diag(u.a[0],
/// u.a[3]) on a density matrix: amplitude i becomes
/// conj(d[col]) * (d[row] * x), with row and col its bits at `row_bit` and
/// `col_bit` (col_bit < row_bit). That is the two dense m1 passes (rows,
/// then columns with conj(u)) less their products with the exact-zero
/// off-diagonals, so it differs from them at most in the sign of an exact
/// zero. The walk goes in runs of constant row bit (and column bit, unless
/// that is bit 0), so the coefficients are picked once per run.
inline void scalar_diag1(std::span<cplx> amps, const Mat2& u, int row_bit,
                         int col_bit) {
  cplx* a = amps.data();
  const cplx dr[2] = {u.a[0], u.a[3]};
  const cplx dc[2] = {std::conj(u.a[0]), std::conj(u.a[3])};
  const u64 run = u64{1} << (col_bit >= 1 ? col_bit : row_bit);
  for (u64 i = 0; i < amps.size();) {
    const u64 run_end = i + run;
    const cplx r = dr[(i >> row_bit) & 1];
    if (col_bit >= 1) {
      const cplx c = dc[(i >> col_bit) & 1];
      for (; i < run_end; ++i) a[i] = c * (r * a[i]);
    } else {
      for (; i < run_end; ++i) a[i] = dc[i & 1] * (r * a[i]);
    }
  }
}

// ---- AVX2 variants ----------------------------------------------------------
//
// One __m256d holds two interleaved complexes. cmul applies a coefficient to
// both: t1 = x * bc(re); t2 = swap_within_pairs(x) * bc(im);
// addsub(t1, t2) = (x.re*re - x.im*im, x.im*re + x.re*im) — the scalar
// formula, lane for lane, with no FMA contraction (explicit mul/addsub).

#if QUFI_KERNELS_HAVE_AVX2

#define QUFI_AVX2_FN __attribute__((target("avx2")))
#define QUFI_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

struct Avx2Coeff {
  __m256d rr;
  __m256d ii;
};

QUFI_AVX2_INLINE Avx2Coeff avx2_coeff(cplx c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Per-128-lane coefficients: `lo` multiplies the low complex, `hi` the
/// high one (for paths where the two lanes carry different local indices).
QUFI_AVX2_INLINE Avx2Coeff avx2_coeff_pair(cplx lo, cplx hi) {
  return {_mm256_set_pd(hi.real(), hi.real(), lo.real(), lo.real()),
          _mm256_set_pd(hi.imag(), hi.imag(), lo.imag(), lo.imag())};
}

QUFI_AVX2_INLINE __m256d avx2_cmul(const Avx2Coeff& c, __m256d x) {
  const __m256d t1 = _mm256_mul_pd(x, c.rr);
  const __m256d sw = _mm256_permute_pd(x, 0x5);  // swap re/im within pairs
  const __m256d t2 = _mm256_mul_pd(sw, c.ii);
  return _mm256_addsub_pd(t1, t2);
}

QUFI_AVX2_FN inline void avx2_m1(std::span<cplx> amps, const Mat2& m,
                                 int q) {
  cplx* a = amps.data();
  const u64 stride = u64{1} << q;
  const u64 groups = amps.size() / 2;
  const Avx2Coeff c0 = avx2_coeff(m.a[0]);
  const Avx2Coeff c1 = avx2_coeff(m.a[1]);
  const Avx2Coeff c2 = avx2_coeff(m.a[2]);
  const Avx2Coeff c3 = avx2_coeff(m.a[3]);
  if (stride >= 2) {
    // Runs of `stride` (even) contiguous groups: two per vector.
    for (u64 g = 0; g < groups; g += stride) {
      const u64 i0_first = (g >> q) << (q + 1);
      for (u64 r = 0; r < stride; r += 2) {
        double* p0 = reinterpret_cast<double*>(a + i0_first + r);
        double* p1 = reinterpret_cast<double*>(a + i0_first + r + stride);
        const __m256d a0 = _mm256_loadu_pd(p0);
        const __m256d a1 = _mm256_loadu_pd(p1);
        const __m256d r0 = _mm256_add_pd(avx2_cmul(c0, a0), avx2_cmul(c1, a1));
        const __m256d r1 = _mm256_add_pd(avx2_cmul(c2, a0), avx2_cmul(c3, a1));
        _mm256_storeu_pd(p0, r0);
        _mm256_storeu_pd(p1, r1);
      }
    }
    return;
  }
  // q == 0: each group is an adjacent (a0, a1) pair; process two groups per
  // iteration by regrouping lanes so each vector holds one local index of
  // both groups. A 1-qubit statevector has a single group, left to the
  // scalar remainder.
  u64 g = 0;
  for (; g + 2 <= groups; g += 2) {
    double* p = reinterpret_cast<double*>(a + 2 * g);
    const __m256d x = _mm256_loadu_pd(p);      // [g0.a0, g0.a1]
    const __m256d y = _mm256_loadu_pd(p + 4);  // [g1.a0, g1.a1]
    const __m256d a0 = _mm256_permute2f128_pd(x, y, 0x20);  // [g0.a0, g1.a0]
    const __m256d a1 = _mm256_permute2f128_pd(x, y, 0x31);  // [g0.a1, g1.a1]
    const __m256d r0 = _mm256_add_pd(avx2_cmul(c0, a0), avx2_cmul(c1, a1));
    const __m256d r1 = _mm256_add_pd(avx2_cmul(c2, a0), avx2_cmul(c3, a1));
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(r0, r1, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(r0, r1, 0x31));
  }
  for (; g < groups; ++g) {
    const u64 i0 = 2 * g;
    const cplx a0 = a[i0];
    const cplx a1 = a[i0 + 1];
    a[i0] = m.a[0] * a0 + m.a[1] * a1;
    a[i0 + 1] = m.a[2] * a0 + m.a[3] * a1;
  }
}

QUFI_AVX2_FN inline void avx2_m2(std::span<cplx> amps, const Mat4& m,
                                 int q_low, int q_high) {
  cplx* a = amps.data();
  const u64 bl = u64{1} << q_low;
  const u64 bh = u64{1} << q_high;
  const int s0 = std::min(q_low, q_high);
  const int s1 = std::max(q_low, q_high);
  const u64 groups = amps.size() / 4;
  if (s0 >= 1) {
    // Offsets below s0 are contiguous in every plane: vectorize two offsets
    // per step with broadcast coefficients.
    std::array<Avx2Coeff, 16> c;
    for (std::size_t i = 0; i < 16; ++i) c[i] = avx2_coeff(m.a[i]);
    const u64 low = u64{1} << s0;
    for (u64 g = 0; g < groups; g += low) {
      const u64 i00_first = insert_zero_bit(insert_zero_bit(g, s0), s1);
      for (u64 r = 0; r < low; r += 2) {
        const u64 i00 = i00_first + r;
        double* p0 = reinterpret_cast<double*>(a + i00);
        double* p1 = reinterpret_cast<double*>(a + (i00 | bl));
        double* p2 = reinterpret_cast<double*>(a + (i00 | bh));
        double* p3 = reinterpret_cast<double*>(a + (i00 | bl | bh));
        const __m256d a0 = _mm256_loadu_pd(p0);
        const __m256d a1 = _mm256_loadu_pd(p1);
        const __m256d a2 = _mm256_loadu_pd(p2);
        const __m256d a3 = _mm256_loadu_pd(p3);
        const __m256d r0 = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(avx2_cmul(c[0], a0),
                                        avx2_cmul(c[1], a1)),
                          avx2_cmul(c[2], a2)),
            avx2_cmul(c[3], a3));
        const __m256d r1 = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(avx2_cmul(c[4], a0),
                                        avx2_cmul(c[5], a1)),
                          avx2_cmul(c[6], a2)),
            avx2_cmul(c[7], a3));
        const __m256d r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(avx2_cmul(c[8], a0),
                                        avx2_cmul(c[9], a1)),
                          avx2_cmul(c[10], a2)),
            avx2_cmul(c[11], a3));
        const __m256d r3 = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(avx2_cmul(c[12], a0),
                                        avx2_cmul(c[13], a1)),
                          avx2_cmul(c[14], a2)),
            avx2_cmul(c[15], a3));
        _mm256_storeu_pd(p0, r0);
        _mm256_storeu_pd(p1, r1);
        _mm256_storeu_pd(p2, r2);
        _mm256_storeu_pd(p3, r3);
      }
    }
    return;
  }
  // One operand is qubit 0: each group's four amplitudes live in two
  // adjacent-pair vectors. Broadcast each local amplitude across both
  // lanes and use per-lane coefficient rows to produce two outputs per
  // cmul chain.
  //
  // Lane labels depend on which operand is bit 0:
  //   q_low == 0 : x = (a0, a1) at i00, z = (a2, a3) at i00|bh
  //   q_high == 0: x = (a0, a2) at i00, z = (a1, a3) at i00|bl
  const bool low_is_bit0 = q_low == 0;
  const u64 bfar = low_is_bit0 ? bh : bl;
  const std::size_t lx1 = low_is_bit0 ? 1 : 2;  // local index of x's high lane
  const std::size_t lz0 = low_is_bit0 ? 2 : 1;  // local index of z's low lane
  // Output-row coefficient pairs: rx lanes hold rows (0, lx1), rz rows
  // (lz0, 3); column j coefficients in ascending j to match the scalar sum
  // order.
  std::array<Avx2Coeff, 4> cx;
  std::array<Avx2Coeff, 4> cz;
  for (std::size_t j = 0; j < 4; ++j) {
    cx[j] = avx2_coeff_pair(m.a[0 * 4 + j], m.a[lx1 * 4 + j]);
    cz[j] = avx2_coeff_pair(m.a[lz0 * 4 + j], m.a[3 * 4 + j]);
  }
  for (u64 g = 0; g < groups; ++g) {
    const u64 i00 = insert_zero_bit(g << 1, s1);
    double* px = reinterpret_cast<double*>(a + i00);
    double* pz = reinterpret_cast<double*>(a + (i00 | bfar));
    const __m256d x = _mm256_loadu_pd(px);
    const __m256d z = _mm256_loadu_pd(pz);
    // Broadcast the four local amplitudes, indexed by local label.
    __m256d amp[4];
    amp[0] = _mm256_permute2f128_pd(x, x, 0x00);
    amp[lx1] = _mm256_permute2f128_pd(x, x, 0x11);
    amp[lz0] = _mm256_permute2f128_pd(z, z, 0x00);
    amp[3] = _mm256_permute2f128_pd(z, z, 0x11);
    const __m256d rx = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(avx2_cmul(cx[0], amp[0]), avx2_cmul(cx[1], amp[1])),
            avx2_cmul(cx[2], amp[2])),
        avx2_cmul(cx[3], amp[3]));
    const __m256d rz = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(avx2_cmul(cz[0], amp[0]), avx2_cmul(cz[1], amp[1])),
            avx2_cmul(cz[2], amp[2])),
        avx2_cmul(cz[3], amp[3]));
    _mm256_storeu_pd(px, rx);
    _mm256_storeu_pd(pz, rz);
  }
}

/// The diagonal density-matrix kernel (see scalar_diag1), one amplitude
/// pair (2g, 2g + 1) per vector. The row bit is >= 1, so both complexes of
/// a pair share the row phase; with col_bit == 0 they take conj(d[0]) and
/// conj(d[1]) per 128-bit lane. Runs of constant coefficients keep the
/// index arithmetic out of the inner loop.
QUFI_AVX2_FN inline void avx2_diag1(std::span<cplx> amps, const Mat2& u,
                                    int row_bit, int col_bit) {
  double* p = reinterpret_cast<double*>(amps.data());
  const u64 groups = amps.size() / 2;
  const Avx2Coeff dr[2] = {avx2_coeff(u.a[0]), avx2_coeff(u.a[3])};
  const cplx c0 = std::conj(u.a[0]);
  const cplx c1 = std::conj(u.a[3]);
  Avx2Coeff dc[2];
  if (col_bit == 0) {
    dc[0] = dc[1] = avx2_coeff_pair(c0, c1);
  } else {
    dc[0] = avx2_coeff(c0);
    dc[1] = avx2_coeff(c1);
  }
  const u64 run = u64{1} << ((col_bit >= 1 ? col_bit : row_bit) - 1);
  for (u64 g = 0; g < groups;) {
    const u64 run_end = g + run;
    const Avx2Coeff r = dr[(g >> (row_bit - 1)) & 1];
    const Avx2Coeff c = dc[col_bit >= 1 ? (g >> (col_bit - 1)) & 1 : 0];
#pragma GCC unroll 4
    for (; g < run_end; ++g) {
      double* pg = p + 4 * g;
      _mm256_storeu_pd(pg, avx2_cmul(c, avx2_cmul(r, _mm256_loadu_pd(pg))));
    }
  }
}

/// One sparse-row product on two complexes; `Real` tables take it
/// componentwise (see mk_mul).
template <bool Real>
QUFI_AVX2_INLINE __m256d avx2_mk_mul(const Avx2Coeff& c, __m256d x) {
  if constexpr (Real) {
    return _mm256_mul_pd(x, c.rr);
  } else {
    return avx2_cmul(c, x);
  }
}

template <bool Real>
QUFI_AVX2_INLINE __m128d avx2_mk_mul128(cplx c, __m128d x) {
  const __m128d rr = _mm_set1_pd(c.real());
  const __m128d t1 = _mm_mul_pd(x, rr);
  if constexpr (Real) {
    return t1;
  } else {
    const __m128d ii = _mm_set1_pd(c.imag());
    const __m128d sw = _mm_shuffle_pd(x, x, 0x1);
    const __m128d t2 = _mm_mul_pd(sw, ii);
    return _mm_addsub_pd(t1, t2);
  }
}

/// One entry of a real table on the contiguous-run path: the byte offset
/// of its column's local plane and its real coefficient.
struct Avx2RealEntry {
  u64 byte_offset;
  double re;
};

template <bool Real>
QUFI_AVX2_FN inline void avx2_mk_rows(std::span<cplx> amps,
                                      const MkTables& t) {
  cplx* a = amps.data();
  const u64 groups = amps.size() >> t.k;
  std::array<Avx2Coeff, 256> ec;
  const std::uint16_t nnz = t.row_start[t.dim];
  if (t.sorted[0] >= 3) {
    // The lowest masked bit is >= 3 (always so for a lane-batched density
    // matrix): groups 8c..8c+7 expand to the contiguous bases
    // base..base+7 in every local plane, and bits 0-2 are free, so the
    // group count is a multiple of 8. One walk of the sparse rows then
    // serves 8 complexes, 4 accumulators per row; the outputs are staged
    // so inputs are read straight from the state. Each output still sums
    // its products in ascending entry order from +0 with explicit
    // mul/addsub/add (mul/add on a real table), so the result is the
    // scalar reference bit for bit. A real table walks a flat list of
    // (byte offset, coefficient) entries, 16 bytes each, instead of
    // looking up each entry's column offset and 64-byte coefficient.
    std::array<Avx2RealEntry, 256> flat;
    for (std::uint16_t e = 0; e < nnz; ++e) {
      if constexpr (Real) {
        flat[e] = {t.offset[t.entries[e].col] * sizeof(cplx),
                   t.entries[e].value.real()};
      } else {
        ec[e] = avx2_coeff(t.entries[e].value);
      }
    }
    __m256d out[16][4];
    for (u64 g = 0; g < groups; g += 8) {
      const u64 base = expand_group(g, t);
      const char* plane0 = reinterpret_cast<const char*>(a + base);
      for (std::size_t r = 0; r < t.dim; ++r) {
        __m256d s0 = _mm256_setzero_pd();
        __m256d s1 = _mm256_setzero_pd();
        __m256d s2 = _mm256_setzero_pd();
        __m256d s3 = _mm256_setzero_pd();
        for (std::uint16_t e = t.row_start[r]; e < t.row_start[r + 1]; ++e) {
          if constexpr (Real) {
            const double* p =
                reinterpret_cast<const double*>(plane0 + flat[e].byte_offset);
            const __m256d c = _mm256_set1_pd(flat[e].re);
            s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(p), c));
            s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(p + 4), c));
            s2 = _mm256_add_pd(s2, _mm256_mul_pd(_mm256_loadu_pd(p + 8), c));
            s3 = _mm256_add_pd(s3, _mm256_mul_pd(_mm256_loadu_pd(p + 12), c));
          } else {
            const double* p = reinterpret_cast<const double*>(
                a + (base | t.offset[t.entries[e].col]));
            s0 = _mm256_add_pd(s0, avx2_cmul(ec[e], _mm256_loadu_pd(p)));
            s1 = _mm256_add_pd(s1, avx2_cmul(ec[e], _mm256_loadu_pd(p + 4)));
            s2 = _mm256_add_pd(s2, avx2_cmul(ec[e], _mm256_loadu_pd(p + 8)));
            s3 = _mm256_add_pd(s3, avx2_cmul(ec[e], _mm256_loadu_pd(p + 12)));
          }
        }
        out[r][0] = s0;
        out[r][1] = s1;
        out[r][2] = s2;
        out[r][3] = s3;
      }
      for (std::size_t r = 0; r < t.dim; ++r) {
        double* p = reinterpret_cast<double*>(a + (base | t.offset[r]));
        _mm256_storeu_pd(p, out[r][0]);
        _mm256_storeu_pd(p + 4, out[r][1]);
        _mm256_storeu_pd(p + 8, out[r][2]);
        _mm256_storeu_pd(p + 12, out[r][3]);
      }
    }
    return;
  }
  if ((t.mask & 1) == 0) {
    // Bit 0 is free: group g and g+1 expand to adjacent bases (g even), so
    // every local amplitude vector serves two bases at once, and the group
    // count is even.
    for (std::uint16_t e = 0; e < nnz; ++e) {
      ec[e] = avx2_coeff(t.entries[e].value);
    }
    __m256d v[16];
    for (u64 g = 0; g < groups; g += 2) {
      const u64 base = expand_group(g, t);
      for (std::size_t j = 0; j < t.dim; ++j) {
        v[j] = _mm256_loadu_pd(
            reinterpret_cast<double*>(a + (base | t.offset[j])));
      }
      for (std::size_t r = 0; r < t.dim; ++r) {
        __m256d sum = _mm256_setzero_pd();
        for (std::uint16_t e = t.row_start[r]; e < t.row_start[r + 1]; ++e) {
          sum = _mm256_add_pd(sum,
                              avx2_mk_mul<Real>(ec[e], v[t.entries[e].col]));
        }
        _mm256_storeu_pd(reinterpret_cast<double*>(a + (base | t.offset[r])),
                         sum);
      }
    }
    return;
  }
  // Bit 0 is masked: bases are never adjacent; use branch-free 128-bit
  // complex arithmetic per base.
  __m128d v[16];
  for (u64 g = 0; g < groups; ++g) {
    const u64 base = expand_group(g, t);
    for (std::size_t j = 0; j < t.dim; ++j) {
      v[j] =
          _mm_loadu_pd(reinterpret_cast<double*>(a + (base | t.offset[j])));
    }
    for (std::size_t r = 0; r < t.dim; ++r) {
      __m128d sum = _mm_setzero_pd();
      for (std::uint16_t e = t.row_start[r]; e < t.row_start[r + 1]; ++e) {
        sum = _mm_add_pd(sum, avx2_mk_mul128<Real>(t.entries[e].value,
                                                   v[t.entries[e].col]));
      }
      _mm_storeu_pd(reinterpret_cast<double*>(a + (base | t.offset[r])), sum);
    }
  }
}

QUFI_AVX2_FN inline void avx2_mk(std::span<cplx> amps,
                                 std::span<const cplx> m,
                                 std::span<const int> bits) {
  const MkTables t = build_mk_tables(m, bits);
  if (t.real) {
    avx2_mk_rows<true>(amps, t);
  } else {
    avx2_mk_rows<false>(amps, t);
  }
}

// ---- AVX-512 variants -------------------------------------------------------
//
// One __m512d holds four interleaved complexes. Only the three paths the
// lane-batched response-basis replay runs are widened, each where four
// complexes of one plane are contiguous: the sparse k-qubit kernel's
// contiguous-run path (Superop2), the dense 2q kernel with its lower operand
// bit >= 2 (Superop1), and the diagonal density kernel with col_bit >= 2 (a
// virtual RZ). Every other shape, and every other kernel, runs the AVX2
// function. The entry points carry no target attribute: they pick the path
// and build the sparse tables in baseline code, and only the widened loops
// are compiled for AVX-512.
//
// Two rules keep the scalar operation sequence. First, AVX-512F implies FMA,
// and under target("avx512f") GCC contracts a plain vector mul feeding an
// add into one fused op that rounds once where the scalar reference rounds
// twice. Every product and sum therefore goes through the embedded-rounding
// intrinsics (round to nearest, exceptions suppressed), which the compiler
// never fuses. Second, there is no 512-bit addsub: the real part
// x.re*re - x.im*im is taken as x.re*re + x.im*(-im), with the sign of the
// imaginary coefficient flipped on the even lanes once per coefficient.
// Negating a factor negates the product exactly, and a - b == a + (-b).

// GCC 12 reports the undefined merge source of the unmasked AVX-512
// intrinsics as maybe-uninitialized once they are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define QUFI_AVX512_FN __attribute__((target("avx512f")))
#define QUFI_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

inline constexpr int kAvx512Round =
    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

QUFI_AVX512_INLINE __m512d avx512_mul(__m512d a, __m512d b) {
  return _mm512_mul_round_pd(a, b, kAvx512Round);
}

QUFI_AVX512_INLINE __m512d avx512_add(__m512d a, __m512d b) {
  return _mm512_add_round_pd(a, b, kAvx512Round);
}

/// A coefficient broadcast to four complexes: `ii` holds (-im, im) pairs.
struct Avx512Coeff {
  __m512d rr;
  __m512d ii;
};

QUFI_AVX512_INLINE Avx512Coeff avx512_coeff(cplx c) {
  const double im = c.imag();
  return {_mm512_set1_pd(c.real()),
          _mm512_set_pd(im, -im, im, -im, im, -im, im, -im)};
}

/// Swaps re and im within each complex.
QUFI_AVX512_INLINE __m512d avx512_swap(__m512d x) {
  return _mm512_permute_pd(x, 0x55);
}

/// c * x on four complexes, given sw = avx512_swap(x).
QUFI_AVX512_INLINE __m512d avx512_cmul(const Avx512Coeff& c, __m512d x,
                                       __m512d sw) {
  return avx512_add(avx512_mul(x, c.rr), avx512_mul(sw, c.ii));
}

QUFI_AVX512_INLINE __m512d avx512_load(const cplx* p) {
  return _mm512_loadu_pd(reinterpret_cast<const double*>(p));
}

QUFI_AVX512_INLINE void avx512_store(cplx* p, __m512d x) {
  _mm512_storeu_pd(reinterpret_cast<double*>(p), x);
}

/// One output of a dense 4x4 row c[0..3] over four complexes: the scalar
/// ((c0 x0 + c1 x1) + c2 x2) + c3 x3, given wj = avx512_swap(xj).
QUFI_AVX512_INLINE __m512d avx512_m2_row(const Avx512Coeff* c, __m512d x0,
                                         __m512d x1, __m512d x2, __m512d x3,
                                         __m512d w0, __m512d w1, __m512d w2,
                                         __m512d w3) {
  return avx512_add(avx512_add(avx512_add(avx512_cmul(c[0], x0, w0),
                                          avx512_cmul(c[1], x1, w1)),
                               avx512_cmul(c[2], x2, w2)),
                    avx512_cmul(c[3], x3, w3));
}

/// avx2_m2 with both operand bits >= 2: the offsets below them run in
/// blocks of at least four complexes in every plane, one vector per plane
/// per step. Each input is swapped once and serves its four products.
QUFI_AVX512_FN inline void avx512_m2_runs(std::span<cplx> amps, const Mat4& m,
                                          int q_low, int q_high) {
  cplx* a = amps.data();
  const u64 bl = u64{1} << q_low;
  const u64 bh = u64{1} << q_high;
  const int s0 = std::min(q_low, q_high);
  const int s1 = std::max(q_low, q_high);
  const u64 low = u64{1} << s0;
  const u64 groups = amps.size() / 4;
  std::array<Avx512Coeff, 16> c;
  for (std::size_t i = 0; i < 16; ++i) c[i] = avx512_coeff(m.a[i]);
  for (u64 g = 0; g < groups; g += low) {
    const u64 i00_first = insert_zero_bit(insert_zero_bit(g, s0), s1);
    for (u64 r = 0; r < low; r += 4) {
      cplx* p0 = a + i00_first + r;
      cplx* p1 = p0 + bl;
      cplx* p2 = p0 + bh;
      cplx* p3 = p0 + (bl | bh);
      const __m512d x0 = avx512_load(p0);
      const __m512d x1 = avx512_load(p1);
      const __m512d x2 = avx512_load(p2);
      const __m512d x3 = avx512_load(p3);
      const __m512d w0 = avx512_swap(x0);
      const __m512d w1 = avx512_swap(x1);
      const __m512d w2 = avx512_swap(x2);
      const __m512d w3 = avx512_swap(x3);
      avx512_store(p0, avx512_m2_row(&c[0], x0, x1, x2, x3, w0, w1, w2, w3));
      avx512_store(p1, avx512_m2_row(&c[4], x0, x1, x2, x3, w0, w1, w2, w3));
      avx512_store(p2, avx512_m2_row(&c[8], x0, x1, x2, x3, w0, w1, w2, w3));
      avx512_store(p3, avx512_m2_row(&c[12], x0, x1, x2, x3, w0, w1, w2, w3));
    }
  }
}

inline void avx512_m2(std::span<cplx> amps, const Mat4& m, int q_low,
                      int q_high) {
  if (std::min(q_low, q_high) >= 2) {
    avx512_m2_runs(amps, m, q_low, q_high);
  } else {
    avx2_m2(amps, m, q_low, q_high);
  }
}

/// avx2_diag1 with col_bit >= 2: runs of constant row and column phase are
/// at least four complexes long, one vector per step.
QUFI_AVX512_FN inline void avx512_diag1_runs(std::span<cplx> amps,
                                             const Mat2& u, int row_bit,
                                             int col_bit) {
  cplx* a = amps.data();
  const Avx512Coeff dr[2] = {avx512_coeff(u.a[0]), avx512_coeff(u.a[3])};
  const Avx512Coeff dc[2] = {avx512_coeff(std::conj(u.a[0])),
                             avx512_coeff(std::conj(u.a[3]))};
  const u64 run = u64{1} << col_bit;
  for (u64 i = 0; i < amps.size(); i += run) {
    const Avx512Coeff& r = dr[(i >> row_bit) & 1];
    const Avx512Coeff& c = dc[(i >> col_bit) & 1];
#pragma GCC unroll 4
    for (u64 j = i; j < i + run; j += 4) {
      const __m512d x = avx512_load(a + j);
      const __m512d y = avx512_cmul(r, x, avx512_swap(x));
      avx512_store(a + j, avx512_cmul(c, y, avx512_swap(y)));
    }
  }
}

inline void avx512_diag1(std::span<cplx> amps, const Mat2& u, int row_bit,
                         int col_bit) {
  if (col_bit >= 2) {
    avx512_diag1_runs(amps, u, row_bit, col_bit);
  } else {
    avx2_diag1(amps, u, row_bit, col_bit);
  }
}

/// One sparse-table entry on the AVX-512 contiguous-run path: the byte
/// offset of its column's plane and its coefficient (`ii` as in
/// Avx512Coeff; unused on a real table).
struct Avx512MkEntry {
  u64 byte_offset;
  double re;
  double ii[2];
};

/// One output row over four complexes: its products in ascending entry
/// order, summed from +0.
template <bool Real>
QUFI_AVX512_INLINE __m512d avx512_mk_row(const Avx512MkEntry* e,
                                         const Avx512MkEntry* end,
                                         const char* plane0) {
  __m512d sum = _mm512_setzero_pd();
  for (; e != end; ++e) {
    const __m512d x = _mm512_loadu_pd(
        reinterpret_cast<const double*>(plane0 + e->byte_offset));
    const __m512d rr = _mm512_set1_pd(e->re);
    if constexpr (Real) {
      sum = avx512_add(sum, avx512_mul(x, rr));
    } else {
      const __m512d ii = _mm512_castps_pd(
          _mm512_broadcast_f32x4(_mm_castpd_ps(_mm_loadu_pd(e->ii))));
      sum = avx512_add(sum, avx512_cmul({rr, ii}, x, avx512_swap(x)));
    }
  }
  return sum;
}

/// avx2_mk_rows' contiguous-run path (lowest masked bit >= 3), four
/// complexes per plane per step. R... enumerates the table's rows, so the
/// row outputs are held in registers until every input is read.
template <bool Real, std::size_t... R>
QUFI_AVX512_FN inline void avx512_mk_runs(std::span<cplx> amps,
                                          const MkTables& t,
                                          std::index_sequence<R...>) {
  cplx* a = amps.data();
  std::array<Avx512MkEntry, 256> flat;
  for (std::uint16_t e = 0; e < t.row_start[t.dim]; ++e) {
    const cplx c = t.entries[e].value;
    flat[e] = {t.offset[t.entries[e].col] * sizeof(cplx), c.real(),
               {-c.imag(), c.imag()}};
  }
  const u64 run = u64{1} << t.sorted[0];
  const u64 groups = amps.size() >> t.k;
  for (u64 g = 0; g < groups; g += run) {
    cplx* const base = a + expand_group(g, t);
    for (u64 r = 0; r < run; r += 4) {
      const char* plane0 = reinterpret_cast<const char*>(base + r);
      const __m512d out[] = {avx512_mk_row<Real>(
          flat.data() + t.row_start[R], flat.data() + t.row_start[R + 1],
          plane0)...};
      (avx512_store(base + r + t.offset[R], out[R]), ...);
    }
  }
}

template <bool Real>
inline void avx512_mk_rows(std::span<cplx> amps, const MkTables& t) {
  switch (t.dim) {
    case 2:
      return avx512_mk_runs<Real>(amps, t, std::make_index_sequence<2>{});
    case 4:
      return avx512_mk_runs<Real>(amps, t, std::make_index_sequence<4>{});
    case 8:
      return avx512_mk_runs<Real>(amps, t, std::make_index_sequence<8>{});
    default:
      return avx512_mk_runs<Real>(amps, t, std::make_index_sequence<16>{});
  }
}

/// One accumulator per row makes each output of avx512_mk_runs a single
/// dependent add chain, where the avx2 path runs four per row. A table
/// averaging more than 8 entries per row therefore stays on avx2: on an
/// 8-lane width-6 state a scratch sweep read 0.45 against 0.65 ns per
/// amplitude at 2 entries per row, about even at 8, and 2.69 against 2.52
/// at 16.
inline constexpr std::size_t kAvx512MaxEntriesPerRow = 8;

inline void avx512_mk(std::span<cplx> amps, std::span<const cplx> m,
                      std::span<const int> bits) {
  const MkTables t = build_mk_tables(m, bits);
  if (t.sorted[0] < 3 ||
      t.row_start[t.dim] > kAvx512MaxEntriesPerRow * t.dim) {
    if (t.real) {
      avx2_mk_rows<true>(amps, t);
    } else {
      avx2_mk_rows<false>(amps, t);
    }
  } else if (t.real) {
    avx512_mk_rows<true>(amps, t);
  } else {
    avx512_mk_rows<false>(amps, t);
  }
}

#pragma GCC diagnostic pop

#endif  // QUFI_KERNELS_HAVE_AVX2

}  // namespace qufi::sim::kern
