#pragma once

// Runtime kernel dispatch: selects between the scalar reference kernels and
// the AVX2 and AVX-512 variants in kernels_simd.hpp, and calls the active
// set's kernel once over the whole state. All variants are bit-identical by
// contract (see kernels_simd.hpp), so the selection is purely a performance
// choice: golden CSVs, shard merges, and snapshot replay do not depend on it.
//
// Selection order: the `QUFI_KERNELS` environment variable
// (`scalar|avx2|avx512`) if set, else the best set the CPU supports (CPUID
// probes for AVX-512F, then AVX2, then scalar). Tests and benches can also
// switch programmatically via select_kernel_set().

#include <span>
#include <string_view>
#include <vector>

#include "util/matrix.hpp"

namespace qufi::sim {

/// One complete kernel implementation: whole-state entry points for the
/// five simulator kernels (see kernels_simd.hpp for the group convention).
///
/// Two entries skip products with an exact zero, which can move at most the
/// sign of an exact-zero result, never a value: `mk` multiplies
/// componentwise when every kept table entry is real (its row sums start
/// from +0, so even zero signs match the complex products), and `diag1`
/// evolves a density matrix under a diagonal 1q unitary in one pass over
/// the row and column bits instead of two `m1` passes.
struct KernelSet {
  const char* name;
  void (*m1)(std::span<util::cplx>, const util::Mat2&, int);
  void (*m2)(std::span<util::cplx>, const util::Mat4&, int, int);
  void (*ccx)(std::span<util::cplx>, int, int, int);
  void (*mk)(std::span<util::cplx>, std::span<const util::cplx>,
             std::span<const int>);
  void (*diag1)(std::span<util::cplx>, const util::Mat2&, int, int);
};

/// Kernel sets usable on this host (compiled in and CPU-supported), best
/// first. "scalar" is always present.
const std::vector<const KernelSet*>& available_kernel_sets();

/// Looks up a set by name among the available ones; nullptr if absent.
const KernelSet* find_kernel_set(std::string_view name);

/// The set dispatch currently routes to.
const KernelSet& active_kernel_set();

/// Makes `name` the active set. Throws qufi::Error, naming the sets this
/// host offers, if the set is unknown or unavailable. Returns the newly
/// active set.
const KernelSet& select_kernel_set(std::string_view name);

namespace dispatch {

/// Drop-in replacements for the detail:: kernels; same semantics, routed
/// through the active KernelSet.
void apply_matrix1(std::span<util::cplx> amps, const util::Mat2& m, int q);
void apply_matrix2(std::span<util::cplx> amps, const util::Mat4& m, int q_low,
                   int q_high);
void apply_ccx(std::span<util::cplx> amps, int c0, int c1, int t);
void apply_matrix_k(std::span<util::cplx> amps, std::span<const util::cplx> m,
                    std::span<const int> bits);
/// rho -> D rho D† for a diagonal `u` (u.a[1] == u.a[2] == 0) on the row
/// and column bits of one qubit of a flat density matrix (col_bit <
/// row_bit); see kern::scalar_diag1.
void apply_diag1(std::span<util::cplx> amps, const util::Mat2& u, int row_bit,
                 int col_bit);

}  // namespace dispatch

}  // namespace qufi::sim
