#pragma once

// Runtime kernel dispatch: selects between the scalar reference kernels and
// the vectorized variants in kernels_simd.hpp, adds cache-tiled iteration,
// and (above a group-count threshold) splits one state across ThreadPool
// lanes. All variants are bit-identical by contract (see kernels_simd.hpp),
// so the selection is purely a performance knob: golden CSVs, shard merges,
// and snapshot replay do not depend on it.
//
// Selection order: the `QUFI_KERNELS` environment variable
// (`scalar|simd|avx2`) if set, else the best set the CPU supports (CPUID
// probe for AVX2, then the portable std::experimental::simd set, then
// scalar). Tests and benches can also switch programmatically via
// select_kernel_set().
//
// Tuning knobs (env, read once at first use):
//   QUFI_KERNEL_BLOCK    — groups per cache tile (default 16384)
//   QUFI_KERNEL_PAR_MIN  — min groups before ThreadPool splitting engages
//                          (default 1<<19; campaign-sized states never hit it)
//   QUFI_KERNEL_THREADS  — kernel pool size (default 0 = hardware; at most
//                          kMaxKernelThreads)
// Each value must be a plain decimal number: a sign, a stray byte or an
// overflow is an error naming the variable, never a wrapped value.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/matrix.hpp"

namespace qufi::sim {

/// One complete kernel implementation: part-range entry points for the five
/// simulator kernels. `*_part` functions process the half-open group range
/// [g_begin, g_end) — see kernels_simd.hpp for the group-index convention.
///
/// Two entries skip products with an exact zero, which can move at most the
/// sign of an exact-zero result, never a value: `mk_part` multiplies
/// componentwise when every kept table entry is real (its row sums start
/// from +0, so even zero signs match the complex products), and
/// `diag1_part` evolves a density matrix under a diagonal 1q unitary in one
/// pass over the row and column bits instead of two `m1_part` passes.
struct KernelSet {
  const char* name;
  void (*m1_part)(std::span<util::cplx>, const util::Mat2&, int,
                  std::uint64_t, std::uint64_t);
  void (*m2_part)(std::span<util::cplx>, const util::Mat4&, int, int,
                  std::uint64_t, std::uint64_t);
  void (*ccx_part)(std::span<util::cplx>, int, int, int, std::uint64_t,
                   std::uint64_t);
  void (*mk_part)(std::span<util::cplx>, std::span<const util::cplx>,
                  std::span<const int>, std::uint64_t, std::uint64_t);
  void (*diag1_part)(std::span<util::cplx>, const util::Mat2&, int, int,
                     std::uint64_t, std::uint64_t);
};

/// Kernel sets usable on this host (compiled in and CPU-supported), best
/// first. "scalar" is always present.
const std::vector<const KernelSet*>& available_kernel_sets();

/// Looks up a set by name among the available ones; nullptr if absent.
const KernelSet* find_kernel_set(std::string_view name);

/// The set dispatch currently routes to.
const KernelSet& active_kernel_set();

/// Makes `name` the active set. Throws qufi::Error if the set is unknown or
/// unavailable on this host. Returns the newly active set.
const KernelSet& select_kernel_set(std::string_view name);

/// Iteration/parallelism knobs. Mutating tuning while kernels run on other
/// threads is not supported; set it up front (tests, benches).
struct KernelTuning {
  std::uint64_t block_groups = 1 << 14;        ///< groups per cache tile
  std::uint64_t parallel_min_groups = 1 << 19; ///< pool engages at/above this
  int threads = 0;                             ///< kernel pool size, 0 = hw
  bool parallel_enabled = true;
};

KernelTuning kernel_tuning();
void set_kernel_tuning(const KernelTuning& t);

/// Sanity cap on QUFI_KERNEL_THREADS: a pool size beyond it is a typo, not
/// a machine.
inline constexpr std::uint64_t kMaxKernelThreads = 1024;

/// Parses the value `text` of the tuning variable `name`: a plain decimal
/// unsigned integer, raised to `min_value` when below it.
///
/// \throws qufi::Error naming `name` on a sign, any non-digit byte, a value
///         that overflows 64 bits, or a value above `max_value`.
std::uint64_t parse_kernel_knob(std::string_view name, std::string_view text,
                                std::uint64_t min_value,
                                std::uint64_t max_value);

namespace dispatch {

/// Drop-in replacements for the detail:: kernels; same semantics, routed
/// through the active KernelSet with tiling/parallel partitioning.
void apply_matrix1(std::span<util::cplx> amps, const util::Mat2& m, int q);
void apply_matrix2(std::span<util::cplx> amps, const util::Mat4& m, int q_low,
                   int q_high);
void apply_ccx(std::span<util::cplx> amps, int c0, int c1, int t);
void apply_matrix_k(std::span<util::cplx> amps, std::span<const util::cplx> m,
                    std::span<const int> bits);
/// rho -> D rho D† for a diagonal `u` (u.a[1] == u.a[2] == 0) on the row
/// and column bits of one qubit of a flat density matrix (col_bit <
/// row_bit); see kern::scalar_diag1_part.
void apply_diag1(std::span<util::cplx> amps, const util::Mat2& u, int row_bit,
                 int col_bit);

}  // namespace dispatch

}  // namespace qufi::sim
