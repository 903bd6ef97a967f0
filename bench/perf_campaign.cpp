// Microbenchmarks for the QuFI core (google-benchmark): injection-point
// enumeration, faulty-circuit construction, QVF computation, and end-to-end
// campaign throughput.
//
// Mode flags (combine with any google-benchmark flags):
//   --idle-noise     run the campaigns with moment-scheduled idle-qubit
//                    relaxation (moment-aware snapshots);
//   --json           skip google-benchmark and instead time one single- and
//                    one double-fault campaign per paper circuit (30-degree
//                    grid), printing one machine-readable JSON line each:
//                      {"bench":"perf_campaign","circuit":"bv",
//                       "campaign":"single","mode":"tree","shards":1,
//                       "wall_ms":123.456,"executions":N}
//                    (the mode flags in effect always ride along, so bench
//                    trajectories can distinguish configurations)
//                    so BENCH_*.json files can track the perf trajectory;
//   --shards N       (with --json) run each campaign through the sharded
//                    path instead: plan N cost-weighted shards, execute
//                    every shard as an isolated subset campaign on its own
//                    thread (each re-transpiles and owns a backend, like a
//                    worker process would), then merge — so the reported
//                    wall time includes the full plan -> execute -> merge
//                    distribution overhead (mode "shardsN").

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "core/qvf.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "noise/backend_props.hpp"

namespace {

using namespace qufi;

bool g_idle_noise = false;
bool g_adaptive = false;
unsigned g_shards = 1;
unsigned g_grid_div = 1;

std::string mode_label() {
  std::string label =
      g_shards > 1 ? "shards" + std::to_string(g_shards) : "tree";
  if (g_idle_noise) label += "+idle";
  if (g_adaptive) label += "+adaptive";
  return label;
}

CampaignSpec small_spec() {
  const auto bench = algo::paper_circuit("bv", 4);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 90.0;
  spec.threads = 2;
  spec.idle_noise = g_idle_noise;
  return spec;
}

/// One of the paper circuits on fake_casablanca with the 30-degree quick
/// grid (84 configs per injection point) — the speedup-acceptance workload.
CampaignSpec paper_spec_30deg(const std::string& name, int width) {
  const auto bench = algo::paper_circuit(name, width);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  // --grid-div N shrinks both steps N-fold (~N^2 more configs per point) to
  // stress the result path: at --grid-div 4 a single-fault point carries
  // 16x the records of the 30-degree default, yet the sharded --json mode's
  // merge peak-RSS stays at O(shards x block) because both the workers and
  // the merge stream columnar blocks instead of materializing the campaign.
  spec.grid.theta_step_deg = 30.0 / static_cast<double>(g_grid_div);
  spec.grid.phi_step_deg = 30.0 / static_cast<double>(g_grid_div);
  spec.idle_noise = g_idle_noise;
  return spec;
}

/// What the adaptive --json path measured beyond wall time: how much of
/// the grid the estimator actually swept and how far its per-point QVF
/// estimates land from the exhaustive per-point grid means (the untimed
/// reference run).
struct AdaptiveRunStats {
  std::uint64_t configs_evaluated = 0;
  double est_abs_err = 0.0;
};

/// Runs the circuit's adaptive campaign (timed by the caller) plus an
/// untimed exhaustive reference, and reports the max per-point absolute
/// error of the estimated grid-mean QVF.
AdaptiveRunStats adaptive_accuracy(const CampaignSpec& spec,
                                   const CampaignResult& adaptive_result) {
  AdaptiveRunStats stats;
  stats.configs_evaluated = adaptive_result.meta.executions;
  auto reference_spec = spec;
  reference_spec.adaptive.reset();
  const auto reference = run_single_fault_campaign(reference_spec);
  std::vector<double> mean(reference.points.size(), 0.0);
  std::vector<std::uint64_t> count(reference.points.size(), 0);
  for (const auto& record : reference.records) {
    mean[record.point_index] += record.qvf;
    ++count[record.point_index];
  }
  for (std::size_t p = 0; p < mean.size(); ++p) {
    if (count[p] == 0) continue;
    mean[p] /= static_cast<double>(count[p]);
    const double err =
        std::abs(adaptive_result.point_estimates[p].est_qvf - mean[p]);
    stats.est_abs_err = std::max(stats.est_abs_err, err);
  }
  return stats;
}

/// What the sharded --json path measured beyond wall time.
struct ShardedRunStats {
  std::uint64_t executions = 0;
  /// Total size of the columnar partials the shard workers streamed out.
  std::uint64_t partial_bytes = 0;
  /// Streaming file-merge time (k-way block merge over the partials).
  double merge_ms = 0.0;
};

/// The sharded execution path: plan -> manifests -> one dist::run_shard per
/// shard (own thread, own transpile + backend, exactly what a worker
/// process executes), each streaming its records into a columnar QUFIPART
/// partial on disk, then a timed streaming k-way file merge. No stage
/// materializes the campaign's records in memory — worker memory is
/// O(in-flight points) and merge memory is O(shards x block) — so the
/// process peak-RSS in the --json line stays bounded as --grid-div scales
/// the record volume up.
ShardedRunStats run_sharded(const CampaignSpec& spec, unsigned num_shards,
                            bool double_fault) {
  const auto plan = dist::plan_campaign_shards(spec, num_shards);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan,
      double_fault);

  const auto temp_dir = std::filesystem::temp_directory_path();
  const std::string stem =
      "qufi_perf_" + std::to_string(static_cast<long>(getpid())) + "_";
  std::vector<std::string> partial_paths;
  for (std::size_t k = 0; k < manifests.size(); ++k) {
    partial_paths.push_back(
        (temp_dir / (stem + std::to_string(k) + ".qp")).string());
  }

  ShardedRunStats stats;
  std::vector<dist::ShardRunOutput> outputs(manifests.size());
  std::vector<std::thread> workers;
  workers.reserve(manifests.size());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t k = 0; k < manifests.size(); ++k) {
    workers.emplace_back([&, k] {
      dist::ShardRunOptions options;
      // Split the machine across concurrent shard workers.
      options.threads = static_cast<int>(std::max(1u, hw / num_shards));
      options.columnar_output_path = partial_paths[k];
      outputs[k] = dist::run_shard(manifests[k], options);
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& output : outputs) {
    stats.partial_bytes += output.partial_bytes;
  }

  const auto merged_path = (temp_dir / (stem + "merged.qp")).string();
  const auto merge_start = std::chrono::steady_clock::now();
  const auto merge_stats = dist::merge_result_files(partial_paths, merged_path);
  stats.merge_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - merge_start)
                       .count();
  stats.executions = merge_stats.merged_records;  // merged campaign total
  for (const auto& path : partial_paths) std::filesystem::remove(path);
  std::filesystem::remove(merged_path);
  return stats;
}

/// Linux ru_maxrss is in kilobytes — the process-lifetime peak, which is
/// exactly the bound the streaming result path is claiming.
std::uint64_t peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

void print_json_line(const char* circuit, const char* campaign,
                     double wall_ms, std::uint64_t executions,
                     const ShardedRunStats& sharded,
                     const AdaptiveRunStats* adaptive = nullptr) {
  std::string adaptive_fields;
  if (adaptive != nullptr) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer,
                  ",\"configs_evaluated\":%llu,\"est_abs_err\":%.6f",
                  static_cast<unsigned long long>(adaptive->configs_evaluated),
                  adaptive->est_abs_err);
    adaptive_fields = buffer;
  }
  std::printf(
      "{\"bench\":\"perf_campaign\",\"circuit\":\"%s\","
      "\"campaign\":\"%s\",\"mode\":\"%s\","
      "\"idle_noise\":%s,"
      "\"adaptive\":%s,"
      "\"shards\":%u,\"grid_div\":%u,\"wall_ms\":%.3f,\"executions\":%llu,"
      "\"merge_ms\":%.3f,\"partial_bytes\":%llu,\"peak_rss_kb\":%llu%s}\n",
      circuit, campaign, mode_label().c_str(),
      g_idle_noise ? "true" : "false",
      g_adaptive ? "true" : "false", g_shards, g_grid_div, wall_ms,
      static_cast<unsigned long long>(executions), sharded.merge_ms,
      static_cast<unsigned long long>(sharded.partial_bytes),
      static_cast<unsigned long long>(peak_rss_kb()),
      adaptive_fields.c_str());
}

/// Direct timing mode for perf tracking: runs the acceptance workloads once
/// per paper circuit (after one untimed warm-up of the smallest) — the
/// single-fault sweep and the double-fault primary x secondary sweep, both
/// at the 30-degree grid — and emits one JSON line per (circuit, campaign)
/// on stdout.
int run_json_summary() {
  static const char* kNames[] = {"bv", "dj", "qft"};
  {
    auto warm = paper_spec_30deg("bv", 4);
    warm.max_points = 2;
    run_single_fault_campaign(warm);
  }
  for (const char* name : kNames) {
    auto spec = paper_spec_30deg(name, 4);
    spec.max_points = 8;
    if (g_adaptive) spec.adaptive = AdaptivePolicy{};
    ShardedRunStats sharded;
    AdaptiveRunStats adaptive;
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t executions = 0;
    CampaignResult adaptive_result;
    if (g_shards > 1) {
      sharded = run_sharded(spec, g_shards, /*double_fault=*/false);
      executions = sharded.executions;
    } else if (g_adaptive) {
      adaptive_result = run_single_fault_campaign(spec);
      executions = adaptive_result.meta.executions;
    } else {
      executions = run_single_fault_campaign(spec).meta.executions;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (g_adaptive && g_shards == 1) {
      // The exhaustive reference run is untimed — wall_ms stays the
      // adaptive campaign's own cost.
      adaptive = adaptive_accuracy(spec, adaptive_result);
      print_json_line(name, "single", wall_ms, executions, sharded,
                      &adaptive);
    } else {
      print_json_line(name, "single", wall_ms, executions, sharded);
    }
  }
  if (g_adaptive) return 0;  // adaptive estimation is single-fault only
  for (const char* name : kNames) {
    // Double faults square the per-point grid (every theta1 <= theta0,
    // phi1 <= phi0 on every coupled neighbor), so fewer points keep the
    // bench in seconds while the per-point sweep stays the dominant cost.
    auto spec = paper_spec_30deg(name, 4);
    spec.max_points = 4;
    ShardedRunStats sharded;
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t executions = 0;
    if (g_shards > 1) {
      sharded = run_sharded(spec, g_shards, /*double_fault=*/true);
      executions = sharded.executions;
    } else {
      executions = run_double_fault_campaign(spec).meta.executions;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    print_json_line(name, "double", wall_ms, executions, sharded);
  }
  return 0;
}

void BM_EnumerateInjectionPoints(benchmark::State& state) {
  const auto spec = small_spec();
  const auto transpiled = campaign_transpile(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_injection_points(
        transpiled, InjectionStrategy::OperandsAfterEachGate));
  }
}
BENCHMARK(BM_EnumerateInjectionPoints);

void BM_InjectFault(benchmark::State& state) {
  const auto spec = small_spec();
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  const PhaseShiftFault fault{1.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inject_fault(transpiled.circuit, points[points.size() / 2], fault));
  }
}
BENCHMARK(BM_InjectFault);

void BM_ComputeQvf(benchmark::State& state) {
  const auto bench = algo::paper_circuit("qft", 5);
  const auto golden = compute_golden(bench.circuit);
  std::vector<double> probs(golden.ideal_probs.size(),
                            1.0 / static_cast<double>(golden.ideal_probs.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_qvf(probs, golden));
  }
}
BENCHMARK(BM_ComputeQvf);

void BM_SingleFaultCampaign(benchmark::State& state) {
  auto spec = small_spec();
  spec.max_points = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = run_single_fault_campaign(spec);
    benchmark::DoNotOptimize(result);
    state.counters["executions"] =
        static_cast<double>(result.meta.executions);
  }
}
BENCHMARK(BM_SingleFaultCampaign)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DoubleFaultCampaign(benchmark::State& state) {
  auto spec = small_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto result = run_double_fault_campaign(spec);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DoubleFaultCampaign)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PaperCampaign30Deg(benchmark::State& state) {
  static const char* kNames[] = {"bv", "dj", "qft"};
  auto spec = paper_spec_30deg(kNames[state.range(0)], 4);
  spec.max_points = 8;
  for (auto _ : state) {
    const auto result = run_single_fault_campaign(spec);
    benchmark::DoNotOptimize(result);
    state.counters["executions"] =
        static_cast<double>(result.meta.executions);
  }
  state.SetLabel(std::string(kNames[state.range(0)]) + "/" + mode_label());
}
BENCHMARK(BM_PaperCampaign30Deg)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our mode flags before google-benchmark parses the rest.
  bool json_summary = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "perf_campaign: campaign-throughput benchmarks (google-benchmark "
          "suite or --json one-shot timing)\n"
          "mode flags:\n"
          "  --idle-noise     moment-scheduled idle-qubit relaxation "
          "(moment-aware snapshots; combines with every other flag)\n"
          "  --adaptive       adaptive QVF estimation (default policy): the "
          "--json single-fault lines run the estimator instead of the "
          "exhaustive sweep and gain configs_evaluated (grid configs the "
          "estimator actually ran) and est_abs_err (max per-point absolute "
          "error of the estimated grid-mean QVF vs an untimed exhaustive "
          "reference); double-fault lines are skipped (single-fault only)\n"
          "  --json           print one JSON line per (circuit, campaign) "
          "with the mode flags in effect\n"
          "  --shards N       (with --json) time the plan -> N concurrent "
          "shards -> merge path: workers stream columnar QUFIPART partials "
          "to disk and a streaming k-way file merge recombines them, so the "
          "JSON line's merge_ms / partial_bytes / peak_rss_kb track the "
          "result path\n"
          "  --grid-div N     shrink both grid steps N-fold (~N^2 more "
          "configs per point) to scale record volume; peak_rss_kb staying "
          "flat under --shards demonstrates the bounded streaming merge\n"
          "any other flags are forwarded to google-benchmark.\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--idle-noise") == 0) {
      g_idle_noise = true;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      g_adaptive = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_summary = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      g_shards = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (g_shards < 1) g_shards = 1;
    } else if (std::strcmp(argv[i], "--grid-div") == 0 && i + 1 < argc) {
      g_grid_div = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (g_grid_div < 1) g_grid_div = 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (g_adaptive && g_shards > 1) {
    std::fprintf(stderr,
                 "perf_campaign: --adaptive measures the single-process "
                 "estimator; drop --shards\n");
    return 2;
  }
  if (g_adaptive && !json_summary) {
    std::fprintf(stderr, "perf_campaign: --adaptive requires --json\n");
    return 2;
  }
  if (g_shards > 1 && !json_summary) {
    std::fprintf(stderr,
                 "perf_campaign: --shards requires --json (the registered "
                 "google-benchmark suite times the single-process engine)\n");
    return 2;
  }
  if (json_summary) return run_json_summary();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
