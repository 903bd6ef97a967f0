#include "dist/manifest.hpp"

#include <fstream>
#include <sstream>

#include "circuit/gate.hpp"
#include "noise/backend_props.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace qufi::dist {

namespace {

/// 17-significant-digit formatting round-trips IEEE binary64 exactly, so a
/// worker reconstructs bit-identical gate parameters and grid bounds.
std::string g17(double v) { return util::CsvWriter::field(v); }

const char* strategy_name(InjectionStrategy s) {
  return s == InjectionStrategy::OperandsAfterEachGate ? "operands"
                                                       : "moments";
}

InjectionStrategy strategy_from_name(const std::string& name) {
  if (name == "operands") return InjectionStrategy::OperandsAfterEachGate;
  if (name == "moments") return InjectionStrategy::EveryActiveQubitEveryMoment;
  throw Error("manifest: unknown injection strategy: " + name);
}

const char* kind_name(WorkerBackendKind k) {
  return k == WorkerBackendKind::Density ? "density" : "trajectory";
}

}  // namespace

WorkerBackendKind worker_backend_kind_from_name(const std::string& name) {
  if (name == "density") return WorkerBackendKind::Density;
  if (name == "trajectory") return WorkerBackendKind::Trajectory;
  throw Error("unknown backend kind: " + name +
              " (want density or trajectory)");
}

void save_manifest(const ShardManifest& manifest, const std::string& path) {
  std::ofstream out(path);
  require(out.is_open(), "manifest: cannot open for writing: " + path);

  // Written files always use the current format, whatever version the
  // in-memory manifest claims.
  out << "qufi-shard-manifest " << 6 << "\n";
  out << "shard " << manifest.shard_index << " " << manifest.shard_count
      << "\n";
  out << "device " << manifest.device << "\n";
  out << "backend_kind " << kind_name(manifest.backend_kind) << "\n";
  out << "opt_level " << manifest.opt_level << "\n";
  out << "strategy " << strategy_name(manifest.strategy) << "\n";
  out << "grid " << g17(manifest.grid.theta_step_deg) << " "
      << g17(manifest.grid.phi_step_deg) << " "
      << g17(manifest.grid.theta_max_deg) << " "
      << g17(manifest.grid.phi_max_deg) << "\n";
  out << "shots " << manifest.shots << "\n";
  out << "seed " << manifest.seed << "\n";
  out << "noise_scale " << g17(manifest.noise_scale) << "\n";
  out << "max_points " << manifest.max_points << "\n";
  out << "double " << (manifest.double_fault ? 1 : 0) << "\n";
  out << "idle_noise " << (manifest.idle_noise ? 1 : 0) << "\n";
  if (manifest.adaptive) {
    out << "adaptive " << g17(manifest.adaptive->max_config_fraction) << " "
        << g17(manifest.adaptive->qvf_ci_target) << " "
        << manifest.adaptive->min_configs_per_point << " "
        << manifest.adaptive->seed << "\n";
  }
  for (const auto& expected : manifest.expected_outputs) {
    out << "expected " << expected << "\n";
  }
  out << "points";
  for (const std::size_t p : manifest.point_indices) out << " " << p;
  out << "\n";

  // Circuit block: name line first (the name may contain spaces), then one
  // line per instruction with exact parameter bits.
  const circ::QuantumCircuit& qc = manifest.circuit;
  out << "circuit " << qc.num_qubits() << " " << qc.num_clbits() << " "
      << qc.size() << "\n";
  out << "name " << qc.name() << "\n";
  for (const auto& instr : qc.instructions()) {
    out << instr.name() << " " << instr.qubits.size();
    for (const int q : instr.qubits) out << " " << q;
    out << " " << instr.clbits.size();
    for (const int c : instr.clbits) out << " " << c;
    out << " " << instr.params.size();
    for (const double p : instr.params) out << " " << g17(p);
    out << "\n";
  }
  out << "end\n";
  require(out.good(), "manifest: write failed: " + path);
}

ShardManifest load_manifest(const std::string& path) {
  std::ifstream in(path);
  require(in.is_open(), "manifest: cannot open: " + path);

  ShardManifest m;
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) -> void {
    throw Error("manifest: " + path + ":" + std::to_string(line_no) + ": " +
                why);
  };

  bool saw_header = false, saw_circuit = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;

    if (!saw_header) {
      if (key != "qufi-shard-manifest") fail("missing manifest header");
      std::uint32_t version = 0;
      if (!(ls >> version)) fail("bad header");
      if (version != 6) fail("unsupported manifest version");
      m.format_version = version;
      saw_header = true;
      continue;
    }

    if (key == "shard") {
      if (!(ls >> m.shard_index >> m.shard_count)) fail("bad shard line");
    } else if (key == "device") {
      if (!(ls >> m.device)) fail("bad device line");
    } else if (key == "backend_kind") {
      std::string kind;
      if (!(ls >> kind)) fail("bad backend_kind line");
      m.backend_kind = worker_backend_kind_from_name(kind);
    } else if (key == "opt_level") {
      if (!(ls >> m.opt_level)) fail("bad opt_level line");
    } else if (key == "strategy") {
      std::string s;
      if (!(ls >> s)) fail("bad strategy line");
      m.strategy = strategy_from_name(s);
    } else if (key == "grid") {
      if (!(ls >> m.grid.theta_step_deg >> m.grid.phi_step_deg >>
            m.grid.theta_max_deg >> m.grid.phi_max_deg)) {
        fail("bad grid line");
      }
    } else if (key == "shots") {
      if (!(ls >> m.shots)) fail("bad shots line");
    } else if (key == "seed") {
      if (!(ls >> m.seed)) fail("bad seed line");
    } else if (key == "noise_scale") {
      if (!(ls >> m.noise_scale)) fail("bad noise_scale line");
    } else if (key == "max_points") {
      if (!(ls >> m.max_points)) fail("bad max_points line");
    } else if (key == "double") {
      int v = 0;
      if (!(ls >> v)) fail("bad double line");
      m.double_fault = v != 0;
    } else if (key == "idle_noise") {
      int v = 0;
      if (!(ls >> v)) fail("bad idle_noise line");
      m.idle_noise = v != 0;
    } else if (key == "adaptive") {
      AdaptivePolicy policy;
      if (!(ls >> policy.max_config_fraction >> policy.qvf_ci_target >>
            policy.min_configs_per_point >> policy.seed)) {
        fail("bad adaptive line");
      }
      m.adaptive = policy;
    } else if (key == "expected") {
      std::string bits;
      if (!(ls >> bits)) fail("bad expected line");
      m.expected_outputs.push_back(bits);
    } else if (key == "points") {
      std::size_t p = 0;
      while (ls >> p) m.point_indices.push_back(p);
    } else if (key == "circuit") {
      int nq = 0, nc = 0;
      std::size_t count = 0;
      if (!(ls >> nq >> nc >> count)) fail("bad circuit line");
      circ::QuantumCircuit qc(nq, nc);
      if (!std::getline(in, line)) fail("missing circuit name line");
      ++line_no;
      if (line.rfind("name ", 0) != 0) fail("missing circuit name line");
      qc.set_name(line.substr(5));
      for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line)) fail("truncated circuit block");
        ++line_no;
        std::istringstream is(line);
        std::string gate;
        std::size_t n = 0;
        circ::Instruction instr;
        if (!(is >> gate >> n)) fail("bad instruction line");
        instr.kind = circ::gate_from_name(gate);
        instr.qubits.resize(n);
        for (auto& q : instr.qubits) {
          if (!(is >> q)) fail("bad instruction qubits");
        }
        if (!(is >> n)) fail("bad instruction line");
        instr.clbits.resize(n);
        for (auto& c : instr.clbits) {
          if (!(is >> c)) fail("bad instruction clbits");
        }
        if (!(is >> n)) fail("bad instruction line");
        instr.params.resize(n);
        for (auto& p : instr.params) {
          if (!(is >> p)) fail("bad instruction params");
        }
        qc.append(std::move(instr));
      }
      if (!std::getline(in, line) || line != "end") {
        ++line_no;
        fail("missing end marker");
      }
      ++line_no;
      m.circuit = std::move(qc);
      saw_circuit = true;
    } else {
      fail("unknown key: " + key);
    }
  }
  require(saw_header, "manifest: empty file: " + path);
  require(saw_circuit, "manifest: missing circuit block: " + path);
  require(m.shard_count >= 1 && m.shard_index < m.shard_count,
          "manifest: shard index/count out of range: " + path);
  return m;
}

CampaignSpec manifest_to_spec(const ShardManifest& manifest) {
  CampaignSpec spec;
  spec.circuit = manifest.circuit;
  spec.expected_outputs = manifest.expected_outputs;
  spec.backend = noise::fake_backend_by_name(manifest.device,
                                             manifest.circuit.num_qubits());
  spec.transpile_options.optimization_level = manifest.opt_level;
  spec.grid = manifest.grid;
  spec.strategy = manifest.strategy;
  spec.shots = manifest.shots;
  spec.seed = manifest.seed;
  spec.noise_scale = manifest.noise_scale;
  spec.max_points = manifest.max_points;
  spec.idle_noise = manifest.idle_noise;
  spec.adaptive = manifest.adaptive;
  return spec;
}

std::vector<ShardManifest> make_manifests(const CampaignSpec& spec,
                                          const std::string& device,
                                          WorkerBackendKind kind,
                                          const ShardPlan& plan,
                                          bool double_fault) {
  require(!(double_fault && spec.adaptive),
          "make_manifests: adaptive estimation supports single-fault "
          "campaigns only");
  require(!(spec.idle_noise && kind == WorkerBackendKind::Trajectory),
          "make_manifests: idle_noise requires the density backend kind "
          "(the trajectory family has no idle mode)");
  std::vector<ShardManifest> manifests;
  manifests.reserve(plan.shards.size());
  for (const ShardAssignment& shard : plan.shards) {
    ShardManifest m;
    m.shard_index = shard.shard_index;
    m.shard_count = plan.num_shards;
    m.device = device;
    m.backend_kind = kind;
    m.circuit = spec.circuit;
    m.expected_outputs = spec.expected_outputs;
    m.opt_level = spec.transpile_options.optimization_level;
    m.strategy = spec.strategy;
    m.grid = spec.grid;
    m.shots = spec.shots;
    m.seed = spec.seed;
    m.noise_scale = spec.noise_scale;
    m.max_points = spec.max_points;
    m.double_fault = double_fault;
    m.idle_noise = spec.idle_noise;
    m.adaptive = spec.adaptive;
    m.point_indices = shard.point_indices;
    manifests.push_back(std::move(m));
  }
  return manifests;
}

}  // namespace qufi::dist
