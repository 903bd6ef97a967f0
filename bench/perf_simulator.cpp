// Microbenchmarks for the simulation substrates (google-benchmark):
// statevector and density-matrix gate throughput, Kraus channels,
// transpilation, and one full noisy circuit execution.
//
// Beyond the registered google-benchmark suite, three kernel-layer modes:
//   --list-kernels   print the kernel sets available on this host, best first
//   --json           one JSON line per (kernel set, gate kind, qubit count)
//                    with ns/amp — the before/after gate for kernel work
//   --digest         run fixed-seed statevector + density workloads and
//                    print their FNV-1a digests. The output deliberately
//                    omits the kernel-set name so runs under different
//                    QUFI_KERNELS values must diff byte-exactly — the
//                    check.sh kernel smoke relies on this.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "circuit/gate.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernel_dispatch.hpp"
#include "sim/statevector.hpp"
#include "transpile/transpiler.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace qufi;

void BM_StatevectorH(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Statevector sv(n);
  const auto h = circ::gate_matrix1(circ::GateKind::H, {});
  for (auto _ : state) {
    sv.apply_matrix1(h, 0);
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(state.iterations() * (1LL << n));
}
BENCHMARK(BM_StatevectorH)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_StatevectorCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Statevector sv(n);
  const auto cx = circ::gate_matrix2(circ::GateKind::CX, {});
  for (auto _ : state) {
    sv.apply_matrix2(cx, 0, n - 1);
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(state.iterations() * (1LL << n));
}
BENCHMARK(BM_StatevectorCx)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_DensityUnitary(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::DensityMatrix dm(n);
  const auto h = circ::gate_matrix1(circ::GateKind::H, {});
  for (auto _ : state) {
    dm.apply_unitary1(h, 0);
    benchmark::DoNotOptimize(dm);
  }
  state.SetItemsProcessed(state.iterations() * (1LL << (2 * n)));
}
BENCHMARK(BM_DensityUnitary)->Arg(2)->Arg(4)->Arg(6)->Arg(7);

void BM_DensityKrausThermal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::DensityMatrix dm(n);
  const auto relax = noise::thermal_relaxation(300.0, 120.0, 90.0);
  for (auto _ : state) {
    dm.apply_kraus1(relax.ops, 0);
    benchmark::DoNotOptimize(dm);
  }
}
BENCHMARK(BM_DensityKrausThermal)->Arg(2)->Arg(4)->Arg(6)->Arg(7);

void BM_DensityKrausDepol2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::DensityMatrix dm(n);
  const auto depol = noise::depolarizing2(0.0125);
  for (auto _ : state) {
    dm.apply_kraus2(depol.ops, 0, 1);
    benchmark::DoNotOptimize(dm);
  }
}
BENCHMARK(BM_DensityKrausDepol2)->Arg(2)->Arg(4)->Arg(6)->Arg(7);

void BM_TranspileQft(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto bench = algo::paper_circuit("qft", width);
  const auto backend = noise::fake_casablanca();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpile::transpile(bench.circuit, backend, {}));
  }
}
BENCHMARK(BM_TranspileQft)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

void BM_NoisyCircuitExecution(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto bench = algo::paper_circuit("bv", width);
  const auto backend_props = noise::fake_casablanca();
  const auto transpiled = transpile::transpile(bench.circuit, backend_props, {});
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(backend_props));
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.run(transpiled.circuit, 0, 0));
  }
}
BENCHMARK(BM_NoisyCircuitExecution)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

// ---- kernel-layer modes (--list-kernels / --json / --digest) ---------------

/// Median-of-three wall time for `reps` applications of `fn`, in ns per rep.
template <typename Fn>
double time_ns_per_rep(std::uint64_t reps, const Fn& fn) {
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(reps);
    best = (trial == 0) ? ns : std::min(best, ns);
  }
  return best;
}

sim::Statevector seeded_state(int n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  std::vector<sim::cplx> amps(std::size_t{1} << n);
  for (auto& a : amps) a = sim::cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return sim::Statevector::from_amplitudes(std::move(amps));
}

/// One JSON line per measurement; `kernels` names the active set so BENCH
/// files can track scalar and vectorized trajectories side by side.
int run_kernel_json() {
  const auto u1 = circ::gate_matrix1(circ::GateKind::H, {});
  const auto u2 = circ::gate_matrix2(circ::GateKind::CX, {});
  const char* kernels = sim::active_kernel_set().name;
  for (const int n : {10, 12, 14}) {
    const std::uint64_t size = std::uint64_t{1} << n;
    const std::uint64_t reps = std::max<std::uint64_t>(1, (1 << 22) / size);
    sim::Statevector sv = seeded_state(n, 42);
    struct GateCase {
      const char* gate;
      std::function<void()> apply;
    };
    const GateCase cases[] = {
        {"1q_low", [&] { sv.apply_matrix1(u1, 0); }},
        {"1q_high", [&] { sv.apply_matrix1(u1, n - 1); }},
        {"2q_adjacent", [&] { sv.apply_matrix2(u2, 0, 1); }},
        {"2q_far", [&] { sv.apply_matrix2(u2, 0, n - 1); }},
    };
    for (const auto& gc : cases) {
      const double ns = time_ns_per_rep(reps, gc.apply);
      std::printf(
          "{\"bench\": \"kernel\", \"kernels\": \"%s\", \"gate\": \"%s\", "
          "\"qubits\": %d, \"ns_per_amp\": %.4f, \"reps\": %llu}\n",
          kernels, gc.gate, n, ns / static_cast<double>(size),
          static_cast<unsigned long long>(reps));
    }
  }
  return 0;
}

std::uint64_t digest_amps(std::span<const sim::cplx> amps) {
  return util::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(amps.data()), amps.size() * sizeof(sim::cplx)));
}

/// Fixed-seed workloads whose digests must not depend on the kernel set.
int run_digest() {
  // Statevector: a seeded random layer sweep touching every kernel shape —
  // 1q on every position, 2q adjacent/far, CCX.
  sim::Statevector sv = seeded_state(10, 7);
  util::Xoshiro256pp rng(11);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q < 10; ++q) {
      sv.apply_matrix1(
          util::unitary_from_angles(rng.uniform(0, 3.1), rng.uniform(0, 6.2),
                                    rng.uniform(0, 6.2)),
          q);
    }
    const auto cx = circ::gate_matrix2(circ::GateKind::CX, {});
    sv.apply_matrix2(cx, layer, (layer + 1) % 10);
    sv.apply_matrix2(cx, 0, 9);
    sv.apply_instruction(
        circ::Instruction{circ::GateKind::CCX, {1, 5, 8}, {}, {}});
  }
  std::printf("digest sv %016llx\n",
              static_cast<unsigned long long>(digest_amps(sv.amplitudes())));

  // Density matrix: unitaries + 1q/2q channels exercise apply_matrix_k.
  sim::DensityMatrix dm(5);
  const auto relax = noise::thermal_relaxation(300.0, 120.0, 90.0);
  const auto depol = noise::depolarizing2(0.0125);
  for (int q = 0; q < 5; ++q) {
    dm.apply_unitary1(circ::gate_matrix1(circ::GateKind::H, {}), q);
    dm.apply_kraus1(relax.ops, q);
  }
  dm.apply_unitary2(circ::gate_matrix2(circ::GateKind::CX, {}), 0, 4);
  dm.apply_kraus2(depol.ops, 1, 3);
  dm.apply_kraus2(depol.ops, 0, 4);
  std::printf("digest dm %016llx\n",
              static_cast<unsigned long long>(digest_amps(dm.raw())));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-kernels") == 0) {
      for (const sim::KernelSet* ks : sim::available_kernel_sets()) {
        std::printf("%s\n", ks->name);
      }
      return 0;
    }
    if (std::strcmp(argv[i], "--json") == 0) return run_kernel_json();
    if (std::strcmp(argv[i], "--digest") == 0) return run_digest();
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "perf_simulator [--json | --digest | --list-kernels | google-benchmark "
          "flags]\n"
          "  --list-kernels   kernel sets available on this host, best first\n"
          "  --json           one JSON line per (kernel set, gate, qubits) "
          "with ns/amp\n"
          "  --digest         fixed-seed statevector+density digests "
          "(kernel-set independent by contract)\n"
          "  (no flag)        run the registered google-benchmark suite\n"
          "Kernel selection: QUFI_KERNELS=scalar|avx2|avx512\n");
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
