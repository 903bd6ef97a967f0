#pragma once

#include <cstdint>
#include <span>

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace qufi::sim::detail {

using util::cplx;
using util::Mat2;
using util::Mat4;

/// Applies a 2x2 matrix to bit position `q` of a 2^k amplitude array.
/// Shared by the statevector simulator and (via the row/column-bit trick)
/// the density-matrix simulator.
inline void apply_matrix1(std::span<cplx> amps, const Mat2& m, int q) {
  const std::uint64_t stride = 1ULL << q;
  const std::uint64_t size = amps.size();
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    for (std::uint64_t offset = 0; offset < stride; ++offset) {
      const std::uint64_t i0 = base + offset;
      const std::uint64_t i1 = i0 + stride;
      const cplx a0 = amps[i0];
      const cplx a1 = amps[i1];
      amps[i0] = m.a[0] * a0 + m.a[1] * a1;
      amps[i1] = m.a[2] * a0 + m.a[3] * a1;
    }
  }
}

/// Applies a 4x4 matrix to bit positions (`q_low`, `q_high`) of a 2^k
/// amplitude array, where `q_low` is the low bit of the 2-bit local index
/// (gate operand 0) and `q_high` the high bit (operand 1).
inline void apply_matrix2(std::span<cplx> amps, const Mat4& m, int q_low,
                          int q_high) {
  const std::uint64_t bl = 1ULL << q_low;
  const std::uint64_t bh = 1ULL << q_high;
  const std::uint64_t size = amps.size();
  for (std::uint64_t i = 0; i < size; ++i) {
    if ((i & bl) || (i & bh)) continue;  // visit each 4-tuple once
    const std::uint64_t i00 = i;
    const std::uint64_t i01 = i | bl;
    const std::uint64_t i10 = i | bh;
    const std::uint64_t i11 = i | bl | bh;
    const cplx a0 = amps[i00];
    const cplx a1 = amps[i01];
    const cplx a2 = amps[i10];
    const cplx a3 = amps[i11];
    amps[i00] = m.a[0] * a0 + m.a[1] * a1 + m.a[2] * a2 + m.a[3] * a3;
    amps[i01] = m.a[4] * a0 + m.a[5] * a1 + m.a[6] * a2 + m.a[7] * a3;
    amps[i10] = m.a[8] * a0 + m.a[9] * a1 + m.a[10] * a2 + m.a[11] * a3;
    amps[i11] = m.a[12] * a0 + m.a[13] * a1 + m.a[14] * a2 + m.a[15] * a3;
  }
}

/// Toffoli as an amplitude permutation: swaps the amplitudes of states that
/// differ at bit `t` and have both control bits set.
inline void apply_ccx(std::span<cplx> amps, int c0, int c1, int t) {
  const std::uint64_t bc0 = 1ULL << c0;
  const std::uint64_t bc1 = 1ULL << c1;
  const std::uint64_t bt = 1ULL << t;
  const std::uint64_t size = amps.size();
  for (std::uint64_t i = 0; i < size; ++i) {
    if ((i & bc0) && (i & bc1) && !(i & bt)) {
      std::swap(amps[i], amps[i | bt]);
    }
  }
}

/// Applies a dense 2^k x 2^k matrix (row-major) to the k bit positions
/// listed in `bits` (bits[0] = low local bit). Generic kernel behind the
/// density-matrix superoperator fast path (k up to 4).
///
/// Channel superoperators are structurally sparse (Pauli mixtures compose
/// to ~20-30% nonzeros), so the matrix is converted to sparse rows once per
/// call; entries below 1e-12 in magnitude are dropped (far under any
/// physical tolerance used here).
/// Hard capacity of the apply_matrix_k scratch tables: `offset`/`v` hold
/// 2^k entries and the sparse-row store dim^2 entries, both sized for k = 4
/// (the 16x16 two-qubit superoperator). A caller growing past that must
/// widen the tables; until then, reject instead of silently indexing out of
/// bounds.
inline constexpr std::size_t kApplyMatrixKMaxBits = 4;

/// When every kept entry has an exactly-zero imaginary part (the baked CX
/// superops of fake_casablanca), each product is taken componentwise,
/// (c.re * x.re, c.re * x.im). The skipped cross terms are products with
/// that zero, so a product can differ only in the sign of an exact zero,
/// and a row sum, which starts from +0 and never becomes -0, not at all.
/// Every kernel set applies the same rule.
inline void apply_matrix_k(std::span<cplx> amps, std::span<const cplx> m,
                           std::span<const int> bits) {
  const std::size_t k = bits.size();
  require(k <= kApplyMatrixKMaxBits,
          "apply_matrix_k: at most 4 bit positions supported (16x16 matrix); "
          "widen the kernel scratch tables before growing k");
  const std::size_t dim = std::size_t{1} << k;

  std::uint64_t mask = 0;
  std::array<std::uint64_t, 16> offset{};
  for (std::size_t j = 0; j < dim; ++j) {
    std::uint64_t off = 0;
    for (std::size_t b = 0; b < k; ++b) {
      if ((j >> b) & 1) off |= 1ULL << bits[b];
    }
    offset[j] = off;
  }
  for (std::size_t b = 0; b < k; ++b) mask |= 1ULL << bits[b];

  // Sparse rows of m.
  struct Entry {
    std::uint16_t col;
    cplx value;
  };
  std::array<Entry, 256> entries;
  std::array<std::uint16_t, 17> row_start{};
  std::uint16_t nnz = 0;
  bool real = true;
  for (std::size_t r = 0; r < dim; ++r) {
    row_start[r] = nnz;
    const cplx* row = m.data() + r * dim;
    for (std::size_t c = 0; c < dim; ++c) {
      if (std::norm(row[c]) > 1e-24) {
        entries[nnz++] = Entry{static_cast<std::uint16_t>(c), row[c]};
        real = real && row[c].imag() == 0.0;
      }
    }
  }
  row_start[dim] = nnz;

  std::array<cplx, 16> v{};
  const std::uint64_t size = amps.size();
  for (std::uint64_t base = 0; base < size; ++base) {
    if (base & mask) continue;
    for (std::size_t j = 0; j < dim; ++j) v[j] = amps[base | offset[j]];
    for (std::size_t r = 0; r < dim; ++r) {
      cplx sum{};
      for (std::uint16_t e = row_start[r]; e < row_start[r + 1]; ++e) {
        const cplx c = entries[e].value;
        const cplx x = v[entries[e].col];
        sum += real ? cplx{c.real() * x.real(), c.real() * x.imag()} : c * x;
      }
      amps[base | offset[r]] = sum;
    }
  }
}

/// Naive dense reference for apply_matrix_k: no sparsification and no
/// drop threshold — every entry of `m` participates in every row sum. This
/// is the oracle the kernel-conformance/fuzz suite checks the sparse
/// production path against (the sparse path may drop entries with
/// |x| <= 1e-12, so agreement is within that documented tolerance, not
/// bit-level; on a table with no such entries the two compare == equal,
/// differing at most in the sign of an exact zero).
inline void apply_matrix_k_dense(std::span<cplx> amps, std::span<const cplx> m,
                                 std::span<const int> bits) {
  const std::size_t k = bits.size();
  require(k <= kApplyMatrixKMaxBits,
          "apply_matrix_k_dense: at most 4 bit positions supported");
  const std::size_t dim = std::size_t{1} << k;

  std::uint64_t mask = 0;
  std::array<std::uint64_t, 16> offset{};
  for (std::size_t j = 0; j < dim; ++j) {
    std::uint64_t off = 0;
    for (std::size_t b = 0; b < k; ++b) {
      if ((j >> b) & 1) off |= 1ULL << bits[b];
    }
    offset[j] = off;
  }
  for (std::size_t b = 0; b < k; ++b) mask |= 1ULL << bits[b];

  std::array<cplx, 16> v{};
  const std::uint64_t size = amps.size();
  for (std::uint64_t base = 0; base < size; ++base) {
    if (base & mask) continue;
    for (std::size_t j = 0; j < dim; ++j) v[j] = amps[base | offset[j]];
    for (std::size_t r = 0; r < dim; ++r) {
      cplx sum{};
      const cplx* row = m.data() + r * dim;
      for (std::size_t c = 0; c < dim; ++c) sum += row[c] * v[c];
      amps[base | offset[r]] = sum;
    }
  }
}

/// Elementwise conjugate of a 2x2 matrix (NOT the adjoint).
inline Mat2 conj_elementwise(const Mat2& m) {
  Mat2 out;
  for (std::size_t i = 0; i < 4; ++i) out.a[i] = std::conj(m.a[i]);
  return out;
}

/// Elementwise conjugate of a 4x4 matrix (NOT the adjoint).
inline Mat4 conj_elementwise(const Mat4& m) {
  Mat4 out;
  for (std::size_t i = 0; i < 16; ++i) out.a[i] = std::conj(m.a[i]);
  return out;
}

}  // namespace qufi::sim::detail
