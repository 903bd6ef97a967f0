#include "sim/kernel_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "sim/kernels_simd.hpp"
#include "util/error.hpp"

namespace qufi::sim {

namespace {

const KernelSet kScalarSet{
    "scalar",
    &kern::scalar_m1,
    &kern::scalar_m2,
    &kern::scalar_ccx,
    &kern::scalar_mk,
    &kern::scalar_diag1,
};

#if QUFI_KERNELS_HAVE_AVX2
// ccx is a pure swap permutation, so it stays on the scalar loop.
const KernelSet kAvx2Set{
    "avx2",
    &kern::avx2_m1,
    &kern::avx2_m2,
    &kern::scalar_ccx,
    &kern::avx2_mk,
    &kern::avx2_diag1,
};

// Widens the mk, m2 and diag1 paths the lane-batched basis replay runs; m1
// and every narrower shape are the AVX2 kernels.
const KernelSet kAvx512Set{
    "avx512",
    &kern::avx2_m1,
    &kern::avx512_m2,
    &kern::scalar_ccx,
    &kern::avx512_mk,
    &kern::avx512_diag1,
};
#endif

struct DispatchState {
  std::vector<const KernelSet*> available;  // best first
  std::atomic<const KernelSet*> active{nullptr};

  DispatchState() {
#if QUFI_KERNELS_HAVE_AVX2
    // Every AVX-512F CPU also has AVX2, which the avx512 fallbacks run.
    if (__builtin_cpu_supports("avx512f")) available.push_back(&kAvx512Set);
    if (__builtin_cpu_supports("avx2")) available.push_back(&kAvx2Set);
#endif
    available.push_back(&kScalarSet);

    const KernelSet* chosen = available.front();
    if (const char* env = std::getenv("QUFI_KERNELS");
        env != nullptr && *env != '\0') {
      chosen = nullptr;
      for (const KernelSet* ks : available) {
        if (env == std::string_view(ks->name)) chosen = ks;
      }
      require(chosen != nullptr,
              std::string("QUFI_KERNELS: unknown or unavailable kernel set '") +
                  env + "' (this host offers: " + offered() + ")");
    }
    active.store(chosen, std::memory_order_release);
  }

  /// The available set names, best first, comma-separated.
  std::string offered() const {
    std::string out;
    for (const KernelSet* ks : available) {
      if (!out.empty()) out += ", ";
      out += ks->name;
    }
    return out;
  }
};

DispatchState& state() {
  static DispatchState s;
  return s;
}

}  // namespace

const std::vector<const KernelSet*>& available_kernel_sets() {
  return state().available;
}

const KernelSet* find_kernel_set(std::string_view name) {
  for (const KernelSet* ks : state().available) {
    if (name == std::string_view(ks->name)) return ks;
  }
  return nullptr;
}

const KernelSet& active_kernel_set() {
  return *state().active.load(std::memory_order_acquire);
}

const KernelSet& select_kernel_set(std::string_view name) {
  const KernelSet* ks = find_kernel_set(name);
  require(ks != nullptr,
          std::string("select_kernel_set: unknown or unavailable kernel set '") +
              std::string(name) + "' (this host offers: " + state().offered() +
              ")");
  state().active.store(ks, std::memory_order_release);
  return *ks;
}

namespace dispatch {

void apply_matrix1(std::span<util::cplx> amps, const util::Mat2& m, int q) {
  active_kernel_set().m1(amps, m, q);
}

void apply_matrix2(std::span<util::cplx> amps, const util::Mat4& m, int q_low,
                   int q_high) {
  active_kernel_set().m2(amps, m, q_low, q_high);
}

void apply_ccx(std::span<util::cplx> amps, int c0, int c1, int t) {
  active_kernel_set().ccx(amps, c0, c1, t);
}

void apply_matrix_k(std::span<util::cplx> amps, std::span<const util::cplx> m,
                    std::span<const int> bits) {
  active_kernel_set().mk(amps, m, bits);
}

void apply_diag1(std::span<util::cplx> amps, const util::Mat2& u, int row_bit,
                 int col_bit) {
  active_kernel_set().diag1(amps, u, row_bit, col_bit);
}

}  // namespace dispatch

}  // namespace qufi::sim
