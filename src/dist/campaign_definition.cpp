#include "dist/campaign_definition.hpp"

#include "algorithms/algorithms.hpp"
#include "noise/backend_props.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace qufi::dist {

bool parse_campaign_flag(std::string_view flag,
                         const std::function<std::string()>& next_value,
                         CampaignDefinition& d) {
  using util::parse_number_flag;
  using util::parse_unsigned_flag;
  const auto policy = [&]() -> AdaptivePolicy& {
    if (!d.adaptive) d.adaptive.emplace();
    return *d.adaptive;
  };
  if (flag == "--circuit") d.circuit = next_value();
  else if (flag == "--width")
    d.width = parse_unsigned_flag<std::uint16_t>(flag, next_value());
  else if (flag == "--device") d.device = next_value();
  else if (flag == "--opt")
    d.opt_level = parse_unsigned_flag<std::uint16_t>(flag, next_value());
  else if (flag == "--theta-step")
    d.theta_step = parse_number_flag<double>(flag, next_value());
  else if (flag == "--phi-step")
    d.phi_step = parse_number_flag<double>(flag, next_value());
  else if (flag == "--phi-max")
    d.phi_max = parse_number_flag<double>(flag, next_value());
  else if (flag == "--shots")
    d.shots = parse_unsigned_flag<std::uint64_t>(flag, next_value());
  else if (flag == "--seed")
    d.seed = parse_unsigned_flag<std::uint64_t>(flag, next_value());
  else if (flag == "--points")
    d.max_points = parse_unsigned_flag<std::size_t>(flag, next_value());
  else if (flag == "--double") d.double_fault = true;
  else if (flag == "--idle-noise") d.idle_noise = true;
  else if (flag == "--adaptive") policy();
  else if (flag == "--adaptive-budget")
    policy().max_config_fraction =
        parse_number_flag<double>(flag, next_value());
  else if (flag == "--adaptive-ci")
    policy().qvf_ci_target = parse_number_flag<double>(flag, next_value());
  else if (flag == "--adaptive-min")
    policy().min_configs_per_point =
        parse_unsigned_flag<std::uint32_t>(flag, next_value());
  else if (flag == "--adaptive-seed")
    policy().seed = parse_unsigned_flag<std::uint64_t>(flag, next_value());
  else return false;
  return true;
}

const char* campaign_flags_help() {
  return "  --circuit NAME      bv | dj | qft | ghz | grover     (default bv)\n"
         "  --width N           total qubits                      (default 4)\n"
         "  --device NAME       casablanca | jakarta | linear | full "
         "(default casablanca)\n"
         "  --opt N             transpiler optimization level 0-3 (default 3)\n"
         "  --theta-step DEG    theta grid step                   (default 15)\n"
         "  --phi-step DEG      phi grid step                     (default 15)\n"
         "  --phi-max DEG       phi range limit                   (default 360)\n"
         "  --shots N           0 = exact distributions           (default 0)\n"
         "  --seed N            campaign seed\n"
         "  --points N          cap injection points (0 = all)\n"
         "  --double            the double-fault campaign\n"
         "  --idle-noise        moment-scheduled idle relaxation (density only)\n"
         "  --adaptive          adaptive QVF estimation (single-fault only):\n"
         "                      sweep a coarse deterministic lattice per point,\n"
         "                      then refine only high-uncertainty grid cells\n"
         "  --adaptive-budget F max fraction of the grid per point (default 0.25)\n"
         "  --adaptive-ci X     QVF CI half-width target          (default 0.005)\n"
         "  --adaptive-min N    per-point config floor            (default 32)\n"
         "  --adaptive-seed N   refinement-probe seed             (default 0)\n";
}

CampaignSpec campaign_spec(const CampaignDefinition& definition) {
  require(!definition.adaptive || !definition.double_fault,
          "--adaptive supports single-fault campaigns only");
  const algo::AlgorithmCircuit bench =
      algo::paper_circuit(definition.circuit, definition.width);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.backend =
      noise::fake_backend_by_name(definition.device, definition.width);
  spec.transpile_options.optimization_level = definition.opt_level;
  spec.grid.theta_step_deg = definition.theta_step;
  spec.grid.phi_step_deg = definition.phi_step;
  spec.grid.phi_max_deg = definition.phi_max;
  spec.shots = definition.shots;
  spec.seed = definition.seed;
  spec.max_points = definition.max_points;
  spec.idle_noise = definition.idle_noise;
  spec.adaptive = definition.adaptive;
  return spec;
}

}  // namespace qufi::dist
