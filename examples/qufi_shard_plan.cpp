// Shard-plan CLI — the coordinator step of a distributed campaign
// (docs/SHARDING.md): partitions a campaign's injection points into N
// deterministic shards and writes one self-contained manifest per shard.
// Re-running with the same flags reproduces byte-identical manifests, so a
// crashed coordinator just re-plans.
//
// Usage examples:
//   qufi_shard_plan --circuit bv --width 4 --shards 4 --out-dir shards/
//   qufi_shard_plan --circuit qft --width 5 --shards 8 \
//                   --theta-step 30 --phi-step 30 --out-dir shards/

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "algorithms/algorithms.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "dist/manifest.hpp"
#include "dist/shard_plan.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

using namespace qufi;

struct CliOptions {
  std::string circuit = "bv";
  int width = 4;
  std::string device = "casablanca";
  int opt_level = 3;
  double theta_step = 15.0;
  double phi_step = 15.0;
  double phi_max = 360.0;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0x51754649;
  std::size_t points = 0;
  bool double_faults = false;
  bool idle_noise = false;
  bool adaptive = false;
  AdaptivePolicy adaptive_policy;
  std::uint32_t shards = 2;
  std::string backend_kind = "density";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --circuit NAME      bv | dj | qft | ghz | grover     (default bv)\n"
      "  --width N           total qubits                      (default 4)\n"
      "  --device NAME       casablanca | jakarta | linear | full\n"
      "  --opt N             transpiler optimization level 0-3 (default 3)\n"
      "  --theta-step DEG    theta grid step                   (default 15)\n"
      "  --phi-step DEG      phi grid step                     (default 15)\n"
      "  --phi-max DEG       phi range limit                   (default 360)\n"
      "  --shots N           0 = exact distributions           (default 0)\n"
      "  --seed N            campaign seed\n"
      "  --points N          cap injection points (0 = all)\n"
      "  --double            plan the double-fault campaign\n"
      "  --idle-noise        moment-scheduled idle relaxation (density only)\n"
      "  --adaptive          plan an adaptive-estimation campaign: workers\n"
      "                      inherit the policy; sweep costs scale to the\n"
      "                      per-point config budget (single-fault only)\n"
      "  --adaptive-budget F max fraction of the grid per point (default 0.25)\n"
      "  --adaptive-ci X     QVF CI half-width target          (default 0.005)\n"
      "  --adaptive-min N    per-point config floor            (default 32)\n"
      "  --adaptive-seed N   refinement-probe seed             (default 0)\n"
      "  --shards N          number of shards                  (default 2)\n"
      "  --backend-kind NAME density | trajectory              (default density)\n"
      "  --out-dir DIR       where shard_NNN.manifest files go (default .)\n",
      argv0);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--circuit") options.circuit = value();
    else if (arg == "--width")
      options.width = util::parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--device") options.device = value();
    else if (arg == "--opt")
      options.opt_level =
          util::parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--theta-step")
      options.theta_step = util::parse_number_flag<double>(arg, value());
    else if (arg == "--phi-step")
      options.phi_step = util::parse_number_flag<double>(arg, value());
    else if (arg == "--phi-max")
      options.phi_max = util::parse_number_flag<double>(arg, value());
    else if (arg == "--shots")
      options.shots = util::parse_unsigned_flag<std::uint64_t>(arg, value());
    else if (arg == "--seed")
      options.seed = util::parse_unsigned_flag<std::uint64_t>(arg, value());
    else if (arg == "--points")
      options.points = util::parse_unsigned_flag<std::size_t>(arg, value());
    else if (arg == "--double") options.double_faults = true;
    else if (arg == "--idle-noise") options.idle_noise = true;
    else if (arg == "--adaptive") options.adaptive = true;
    else if (arg == "--adaptive-budget") {
      options.adaptive = true;
      options.adaptive_policy.max_config_fraction =
          util::parse_number_flag<double>(arg, value());
    } else if (arg == "--adaptive-ci") {
      options.adaptive = true;
      options.adaptive_policy.qvf_ci_target =
          util::parse_number_flag<double>(arg, value());
    } else if (arg == "--adaptive-min") {
      options.adaptive = true;
      options.adaptive_policy.min_configs_per_point =
          util::parse_unsigned_flag<std::uint32_t>(arg, value());
    } else if (arg == "--adaptive-seed") {
      options.adaptive = true;
      options.adaptive_policy.seed =
          util::parse_unsigned_flag<std::uint64_t>(arg, value());
    }
    else if (arg == "--shards")
      options.shards = util::parse_unsigned_flag<std::uint32_t>(arg, value());
    else if (arg == "--backend-kind") options.backend_kind = value();
    else if (arg == "--out-dir") options.out_dir = value();
    else usage(argv[0]);
  }
  return options;
}

noise::BackendProperties build_device(const CliOptions& options) {
  return noise::fake_backend_by_name(options.device, options.width);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse(argc, argv);
    const dist::WorkerBackendKind kind =
        dist::worker_backend_kind_from_name(options.backend_kind);
    const auto bench = algo::paper_circuit(options.circuit, options.width);

    CampaignSpec spec;
    spec.circuit = bench.circuit;
    spec.expected_outputs = bench.expected_outputs;
    spec.backend = build_device(options);
    spec.transpile_options.optimization_level = options.opt_level;
    spec.grid.theta_step_deg = options.theta_step;
    spec.grid.phi_step_deg = options.phi_step;
    spec.grid.phi_max_deg = options.phi_max;
    spec.shots = options.shots;
    spec.seed = options.seed;
    spec.max_points = options.points;
    spec.idle_noise = options.idle_noise;
    if (options.adaptive) {
      require(!options.double_faults,
              "--adaptive supports single-fault campaigns only");
      spec.adaptive = options.adaptive_policy;
    }

    const auto plan = dist::plan_campaign_shards(spec, options.shards);
    const auto manifests = dist::make_manifests(spec, options.device, kind,
                                                plan, options.double_faults);

    std::filesystem::create_directories(options.out_dir);
    for (const auto& manifest : manifests) {
      char name[64];
      std::snprintf(name, sizeof name, "shard_%03u.manifest",
                    manifest.shard_index);
      const auto path =
          (std::filesystem::path(options.out_dir) / name).string();
      dist::save_manifest(manifest, path);
      std::printf("shard %u: %zu points, est. cost %llu -> %s\n",
                  manifest.shard_index, manifest.point_indices.size(),
                  static_cast<unsigned long long>(
                      plan.shards[manifest.shard_index].estimated_cost),
                  path.c_str());
    }
    std::printf("planned %zu points across %u shards\n", plan.total_points,
                plan.num_shards);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
