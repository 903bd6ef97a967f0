#include "sim/kernel_dispatch.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <string>

#include "sim/kernels_simd.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace qufi::sim {

namespace {

using u64 = std::uint64_t;

const KernelSet kScalarSet{
    "scalar",
    &kern::scalar_m1_part,
    &kern::scalar_m2_part,
    &kern::scalar_ccx_part,
    &kern::scalar_mk_part,
    &kern::scalar_diag1_part,
};

#if QUFI_KERNELS_HAVE_STD_SIMD
// Portable set: vector m1/m2; ccx is a pure swap permutation (nothing to
// vectorize profitably in ISA-portable code), and mk and diag1 stay on the
// scalar loops here. Its bases are enumerated mask-clear only (expand_group),
// so the cost is the per-row walk, which the AVX2 set amortizes over two
// adjacent bases (bit 0 free) or a run of 8 (lowest masked bit >= 3).
const KernelSet kSimdSet{
    "simd",
    &kern::portable_m1_part,
    &kern::portable_m2_part,
    &kern::scalar_ccx_part,
    &kern::scalar_mk_part,
    &kern::scalar_diag1_part,
};
#endif

#if QUFI_KERNELS_HAVE_AVX2
const KernelSet kAvx2Set{
    "avx2",
    &kern::avx2_m1_part,
    &kern::avx2_m2_part,
    &kern::scalar_ccx_part,
    &kern::avx2_mk_part,
    &kern::avx2_diag1_part,
};
#endif

u64 env_u64(const char* name, u64 fallback, u64 min_value,
            u64 max_value = std::numeric_limits<u64>::max()) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return parse_kernel_knob(name, s, min_value, max_value);
}

struct DispatchState {
  std::vector<const KernelSet*> available;  // best first
  std::atomic<const KernelSet*> active{nullptr};
  KernelTuning tuning;

  DispatchState() {
#if QUFI_KERNELS_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) available.push_back(&kAvx2Set);
#endif
#if QUFI_KERNELS_HAVE_STD_SIMD
    available.push_back(&kSimdSet);
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
                  env + "' (try scalar, simd, or avx2)");
    }
    active.store(chosen, std::memory_order_release);

    tuning.block_groups = env_u64("QUFI_KERNEL_BLOCK", tuning.block_groups, 1);
    tuning.parallel_min_groups =
        env_u64("QUFI_KERNEL_PAR_MIN", tuning.parallel_min_groups, 2);
    tuning.threads = static_cast<int>(
        env_u64("QUFI_KERNEL_THREADS", 0, 0, kMaxKernelThreads));
  }
};

DispatchState& state() {
  static DispatchState s;
  return s;
}

/// Lazily-built pool for intra-state parallelism. The dispatcher service
/// forks worker processes; a pool of threads does not survive fork, so the
/// instance is keyed by pid — in a fresh child the stale husk is leaked
/// (its threads are gone and its mutex state is unspecified; touching it
/// would be worse) and a new pool is built on first large-state kernel.
util::ThreadPool& kernel_pool(int threads) {
  static std::mutex mu;
  static util::ThreadPool* pool = nullptr;
  static pid_t pool_pid = -1;
  std::lock_guard<std::mutex> lock(mu);
  const pid_t pid = ::getpid();
  if (pool == nullptr || pool_pid != pid) {
    pool = new util::ThreadPool(static_cast<std::size_t>(threads));
    pool_pid = pid;
  }
  return *pool;
}

/// Runs `body(g_begin, g_end)` over [0, groups) in cache tiles, splitting
/// across the kernel pool when the state is large enough. Partitioning never
/// changes results: every tile is a disjoint group range.
template <typename Body>
void run_partitioned(u64 groups, const Body& body) {
  if (groups == 0) return;
  const KernelTuning t = state().tuning;
  const u64 block = std::max<u64>(t.block_groups, 1);
  if (t.parallel_enabled && groups >= t.parallel_min_groups) {
    util::ThreadPool& pool = kernel_pool(t.threads);
    // A few chunks per lane so uneven memory bandwidth does not stall the
    // tail; each chunk is tiled internally like the serial path.
    const u64 chunks = std::min<u64>(groups, pool.size() * 4);
    pool.parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
      const u64 begin = groups * c / chunks;
      const u64 end = groups * (c + 1) / chunks;
      for (u64 g = begin; g < end; g += block) {
        body(g, std::min(end, g + block));
      }
    });
    return;
  }
  for (u64 g = 0; g < groups; g += block) {
    body(g, std::min(groups, g + block));
  }
}

}  // namespace

std::uint64_t parse_kernel_knob(std::string_view name, std::string_view text,
                                std::uint64_t min_value,
                                std::uint64_t max_value) {
  const std::optional<u64> value = util::parse_unsigned<u64>(text);
  require(value.has_value(),
          std::string(name) + ": expected an unsigned integer no larger than " +
              std::to_string(max_value) + ", got '" + std::string(text) + "'");
  require(*value <= max_value, std::string(name) + ": " + std::string(text) +
                                   " is above the cap of " +
                                   std::to_string(max_value));
  return std::max<u64>(*value, min_value);
}

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
              std::string(name) + "'");
  state().active.store(ks, std::memory_order_release);
  return *ks;
}

KernelTuning kernel_tuning() { return state().tuning; }

void set_kernel_tuning(const KernelTuning& t) { state().tuning = t; }

namespace dispatch {

void apply_matrix1(std::span<util::cplx> amps, const util::Mat2& m, int q) {
  const KernelSet& ks = active_kernel_set();
  run_partitioned(amps.size() / 2, [&](u64 b, u64 e) {
    ks.m1_part(amps, m, q, b, e);
  });
}

void apply_matrix2(std::span<util::cplx> amps, const util::Mat4& m, int q_low,
                   int q_high) {
  const KernelSet& ks = active_kernel_set();
  run_partitioned(amps.size() / 4, [&](u64 b, u64 e) {
    ks.m2_part(amps, m, q_low, q_high, b, e);
  });
}

void apply_ccx(std::span<util::cplx> amps, int c0, int c1, int t) {
  const KernelSet& ks = active_kernel_set();
  run_partitioned(amps.size() / 2, [&](u64 b, u64 e) {
    ks.ccx_part(amps, c0, c1, t, b, e);
  });
}

void apply_matrix_k(std::span<util::cplx> amps, std::span<const util::cplx> m,
                    std::span<const int> bits) {
  const KernelSet& ks = active_kernel_set();
  require(bits.size() <= detail::kApplyMatrixKMaxBits,
          "apply_matrix_k: at most 4 bit positions supported (16x16 matrix); "
          "widen the kernel scratch tables before growing k");
  run_partitioned(amps.size() >> bits.size(), [&](u64 b, u64 e) {
    ks.mk_part(amps, m, bits, b, e);
  });
}

void apply_diag1(std::span<util::cplx> amps, const util::Mat2& u, int row_bit,
                 int col_bit) {
  const KernelSet& ks = active_kernel_set();
  run_partitioned(amps.size() / 2, [&](u64 b, u64 e) {
    ks.diag1_part(amps, u, row_bit, col_bit, b, e);
  });
}

}  // namespace dispatch

}  // namespace qufi::sim
