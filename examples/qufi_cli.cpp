// Command-line campaign driver — the equivalent of the original QuFI's
// top-level scripts. Runs a single- or double-fault campaign for any of
// the built-in circuits on any fake backend and prints the summary,
// heatmap and (optionally) a per-record CSV.
//
// Usage examples:
//   qufi_cli --circuit bv --width 4
//   qufi_cli --circuit qft --width 5 --backend jakarta --opt 2
//            --theta-step 30 --phi-step 30 --shots 1024 --csv out.csv
//   qufi_cli --circuit dj --width 4 --double --phi-max 180
//   qufi_cli --circuit ghz --width 5 --points 16

#include <cstdio>
#include <cstdlib>
#include <string>

#include "algorithms/algorithms.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/result_io.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

using namespace qufi;

struct CliOptions {
  std::string circuit = "bv";
  int width = 4;
  std::string backend = "casablanca";
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
  std::string csv_path;
  std::string out_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --circuit NAME    bv | dj | qft | ghz | grover      (default bv)\n"
      "  --width N         total qubits                       (default 4)\n"
      "  --backend NAME    casablanca | jakarta | linear | full (default casablanca)\n"
      "  --opt N           transpiler optimization level 0-3  (default 3)\n"
      "  --theta-step DEG  theta grid step                    (default 15)\n"
      "  --phi-step DEG    phi grid step                      (default 15)\n"
      "  --phi-max DEG     phi range limit                    (default 360)\n"
      "  --shots N         0 = exact distributions            (default 0)\n"
      "  --seed N          campaign seed\n"
      "  --points N        cap injection points (0 = all)\n"
      "  --double          run the double-fault campaign\n"
      "  --idle-noise      moment-scheduled idle-qubit relaxation\n"
      "  --adaptive        adaptive QVF estimation (single-fault only):\n"
      "                    sweep a coarse deterministic lattice per point,\n"
      "                    then refine only high-uncertainty grid cells\n"
      "  --adaptive-budget F  max fraction of the grid per point (default 0.25)\n"
      "  --adaptive-ci X   stop once the QVF CI half-width <= X (default 0.005)\n"
      "  --adaptive-min N  per-point config floor              (default 32)\n"
      "  --adaptive-seed N refinement-probe seed               (default 0)\n"
      "  --csv PATH        write per-record CSV\n"
      "  --out PATH        write binary columnar result (QUFIPART,\n"
      "                    docs/RESULT_FORMAT.md; qufi_shard_merge converts)\n",
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
    else if (arg == "--backend") options.backend = value();
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
    else if (arg == "--csv") options.csv_path = value();
    else if (arg == "--out") options.out_path = value();
    else usage(argv[0]);
  }
  return options;
}

noise::BackendProperties build_backend(const CliOptions& options) {
  return noise::fake_backend_by_name(options.backend, options.width);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse(argc, argv);
    const auto bench = algo::paper_circuit(options.circuit, options.width);

    CampaignSpec spec;
    spec.circuit = bench.circuit;
    spec.expected_outputs = bench.expected_outputs;
    spec.backend = build_backend(options);
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

    const auto result = options.double_faults
                            ? run_double_fault_campaign(spec)
                            : run_single_fault_campaign(spec);

    std::printf("%s\n", render_campaign_summary(result).c_str());
    std::printf("%s\n",
                render_heatmap(result.mean_heatmap(),
                               spec.circuit.name() + " mean QVF heatmap")
                    .c_str());
    std::printf("%s\n",
                render_histogram(result.qvf_histogram(), "QVF distribution")
                    .c_str());
    if (!options.csv_path.empty()) {
      result.write_csv(options.csv_path);
      std::printf("records written to %s\n", options.csv_path.c_str());
    }
    if (!options.out_path.empty()) {
      resio::ResultFileHeader header;
      header.expected_total_records = result.records.size();
      header.meta = result.meta;
      header.points = result.points;
      resio::write_result_file(options.out_path, header, result.records,
                               result.meta.executions,
                               result.meta.injections);
      std::printf("columnar result written to %s\n",
                  options.out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
