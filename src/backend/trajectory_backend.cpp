#include "backend/trajectory_backend.hpp"

#include <algorithm>
#include <cmath>

#include "noise/readout.hpp"
#include "sim/statevector.hpp"
#include "util/error.hpp"

namespace qufi::backend {

using circ::GateKind;
using circ::Instruction;

namespace {

/// Samples one Kraus branch of a 1q channel and applies it (normalized).
void sample_kraus1(sim::Statevector& sv, const noise::KrausChannel1& ch,
                   int q, util::Xoshiro256pp& rng) {
  if (ch.is_identity()) return;
  const double draw = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t k = 0; k < ch.ops.size(); ++k) {
    // Branch probability = ||K psi||^2; try op on a scratch copy.
    sim::Statevector candidate = sv;
    candidate.apply_matrix1(ch.ops[k], q);
    const double p = candidate.norm() * candidate.norm();
    cumulative += p;
    if (draw < cumulative || k + 1 == ch.ops.size()) {
      if (p > 0) candidate.normalize();
      sv = std::move(candidate);
      return;
    }
  }
}

void sample_kraus2(sim::Statevector& sv, const noise::KrausChannel2& ch,
                   int q0, int q1, util::Xoshiro256pp& rng) {
  if (ch.is_identity()) return;
  const double draw = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t k = 0; k < ch.ops.size(); ++k) {
    sim::Statevector candidate = sv;
    candidate.apply_matrix2(ch.ops[k], q0, q1);
    const double p = candidate.norm() * candidate.norm();
    cumulative += p;
    if (draw < cumulative || k + 1 == ch.ops.size()) {
      if (p > 0) candidate.normalize();
      sv = std::move(candidate);
      return;
    }
  }
}

/// Executes one instruction of a trajectory: unitary + sampled noise
/// branches, or the non-unitary Measure/Reset/Barrier handling. Measure
/// outcomes accumulate into `outcome` (bit = clbit index).
void execute_one(sim::Statevector& sv, std::uint64_t& outcome,
                 const Instruction& instr, util::Xoshiro256pp& rng,
                 const noise::NoiseModel& nm) {
  switch (instr.kind) {
    case GateKind::Barrier:
      return;
    case GateKind::Measure: {
      const int bit = sv.measure_qubit(instr.qubits[0], rng);
      const std::uint64_t mask = 1ULL << instr.clbits[0];
      outcome = bit ? (outcome | mask) : (outcome & ~mask);
      return;
    }
    case GateKind::Reset:
      sv.reset_qubit(instr.qubits[0], rng);
      return;
    default:
      break;
  }

  sv.apply_instruction(instr);
  if (nm.is_ideal()) return;

  const auto& info = circ::gate_info(instr.kind);
  if (info.num_qubits == 1) {
    for (const auto* ch : nm.channels_after_1q(instr.kind, instr.qubits[0])) {
      sample_kraus1(sv, *ch, instr.qubits[0], rng);
    }
  } else if (info.num_qubits == 2) {
    const auto tq = nm.channels_after_2q(instr.qubits[0], instr.qubits[1]);
    if (tq.relax_a) sample_kraus1(sv, *tq.relax_a, instr.qubits[0], rng);
    if (tq.relax_b) sample_kraus1(sv, *tq.relax_b, instr.qubits[1], rng);
    if (tq.depol) {
      sample_kraus2(sv, *tq.depol, instr.qubits[0], instr.qubits[1], rng);
    }
  }
}

/// Measured clbits and their readout errors, in instruction order (the
/// same list run() builds during its first shot).
void collect_readout(const circ::QuantumCircuit& circuit,
                     const noise::NoiseModel& nm, std::vector<int>& clbits,
                     std::vector<noise::ReadoutError>& errors) {
  for (const auto& instr : circuit.instructions()) {
    if (instr.kind != GateKind::Measure) continue;
    clbits.push_back(instr.clbits[0]);
    errors.push_back(nm.readout(instr.qubits[0]));
  }
}

/// One cached prefix trajectory: the statevector, the mid-circuit
/// measurement bits already drawn, and the state of the prefix RNG stream
/// after the last prefix instruction — stored so extend_snapshot can
/// continue the exact draw sequence a longer from-scratch prepare would
/// have produced (prefix-tree bit-identity).
struct CachedShot {
  sim::Statevector sv;
  std::uint64_t outcome = 0;
  std::array<std::uint64_t, 4> rng_state{};
};

class TrajectorySnapshot final : public PrefixSnapshot {
 public:
  TrajectorySnapshot(circ::QuantumCircuit circuit, std::size_t prefix_length,
                     std::vector<CachedShot> shots)
      : PrefixSnapshot(prefix_length),
        circuit_(std::move(circuit)),
        shots_(std::move(shots)) {}

  const circ::QuantumCircuit* circuit() const override { return &circuit_; }
  const std::vector<CachedShot>& shots() const { return shots_; }

 private:
  circ::QuantumCircuit circuit_;
  std::vector<CachedShot> shots_;
};

// Bounds on the per-shot cache. Campaigns build one snapshot per
// concurrently-processed injection point, so the budget is per snapshot and
// deliberately modest; shots beyond the cache re-simulate their prefix.
constexpr std::uint64_t kMaxCachedTrajectories = 4096;
constexpr std::uint64_t kMaxCacheBytes = 64ULL << 20;  // 64 MiB per snapshot

// Snapshot-internal randomness: prefix draws must not depend on the
// per-config seed (that is what makes one snapshot shareable), so they are
// salted independently of the suffix stream.
constexpr std::uint64_t kPrefixSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSuffixSalt = 0xd1b54a32d192ed03ULL;

}  // namespace

TrajectoryBackend::TrajectoryBackend(noise::NoiseModel noise_model)
    : noise_model_(std::move(noise_model)) {}

std::string TrajectoryBackend::name() const {
  return "trajectory(" + noise_model_.source_name() + ")";
}

ExecutionResult TrajectoryBackend::run(const circ::QuantumCircuit& circuit,
                                       std::uint64_t shots,
                                       std::uint64_t seed) {
  require(shots > 0, "TrajectoryBackend: shots must be > 0");
  require(circuit.num_clbits() > 0,
          "TrajectoryBackend: circuit has no classical bits");

  std::vector<std::uint64_t> outcome_counts(
      std::size_t{1} << circuit.num_clbits(), 0);

  // Per-shot readout errors are applied to the measured clbits.
  std::vector<int> measured_clbits;
  std::vector<noise::ReadoutError> readout_errors;
  collect_readout(circuit, noise_model_, measured_clbits, readout_errors);

  for (std::uint64_t shot = 0; shot < shots; ++shot) {
    const std::uint64_t words[] = {seed, shot};
    util::Xoshiro256pp rng(util::hash_combine(words));

    sim::Statevector sv(circuit.num_qubits());
    std::uint64_t outcome = 0;
    for (const auto& instr : circuit.instructions()) {
      execute_one(sv, outcome, instr, rng, noise_model_);
    }

    outcome = noise::sample_readout_flips(outcome, measured_clbits,
                                          readout_errors, rng);
    ++outcome_counts[outcome];
  }

  return ExecutionResult::from_outcome_counts(outcome_counts,
                                              circuit.num_clbits(), name());
}

PrefixSnapshotPtr TrajectoryBackend::prepare_prefix(
    const circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  const std::uint64_t bytes_per_shot =
      sizeof(sim::cplx) * (std::uint64_t{1} << circuit.num_qubits());
  const std::uint64_t cacheable = std::min(
      {shots_hint, kMaxCachedTrajectories, kMaxCacheBytes / bytes_per_shot});
  if (cacheable == 0) {
    return Backend::prepare_prefix(circuit, prefix_length, shots_hint,
                                   snapshot_seed);
  }
  require(prefix_length <= circuit.size(),
          "prepare_prefix: prefix length exceeds circuit size");

  std::vector<CachedShot> cached;
  cached.reserve(cacheable);
  const auto& instrs = circuit.instructions();
  for (std::uint64_t shot = 0; shot < cacheable; ++shot) {
    const std::uint64_t words[] = {kPrefixSalt, snapshot_seed, shot};
    util::Xoshiro256pp rng(util::hash_combine(words));
    CachedShot state{sim::Statevector(circuit.num_qubits()), 0, {}};
    for (std::size_t i = 0; i < prefix_length; ++i) {
      execute_one(state.sv, state.outcome, instrs[i], rng, noise_model_);
    }
    state.rng_state = rng.state();
    cached.push_back(std::move(state));
  }
  return std::make_shared<TrajectorySnapshot>(circuit, prefix_length,
                                              std::move(cached));
}

PrefixSnapshotPtr TrajectoryBackend::extend_snapshot(
    const PrefixSnapshot& parent, std::size_t from_gate, std::size_t to_gate,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  const auto* snap = dynamic_cast<const TrajectorySnapshot*>(&parent);
  if (!snap) {
    return Backend::extend_snapshot(parent, from_gate, to_gate, shots_hint,
                                    snapshot_seed);
  }
  const circ::QuantumCircuit& circuit = *snap->circuit();
  require(from_gate == parent.prefix_length(),
          "extend_snapshot: from_gate does not match the parent prefix");
  require(to_gate >= from_gate,
          "extend_snapshot: cannot extend a snapshot backwards");
  require(to_gate <= circuit.size(),
          "extend_snapshot: to_gate exceeds circuit size");

  const auto& instrs = circuit.instructions();
  std::vector<CachedShot> cached;
  cached.reserve(snap->shots().size());
  for (const CachedShot& parent_shot : snap->shots()) {
    // Resuming the stored stream reproduces exactly the draws a
    // from-scratch prepare at to_gate would make for gates
    // [from_gate, to_gate) — chain hops are invisible in the state bits.
    util::Xoshiro256pp rng(0);
    rng.set_state(parent_shot.rng_state);
    CachedShot state{parent_shot.sv, parent_shot.outcome, {}};
    for (std::size_t i = from_gate; i < to_gate; ++i) {
      execute_one(state.sv, state.outcome, instrs[i], rng, noise_model_);
    }
    state.rng_state = rng.state();
    cached.push_back(std::move(state));
  }
  return std::make_shared<TrajectorySnapshot>(circuit, to_gate,
                                              std::move(cached));
}

ExecutionResult TrajectoryBackend::run_suffix(
    const PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected, std::uint64_t shots,
    std::uint64_t seed) {
  const auto* snap = dynamic_cast<const TrajectorySnapshot*>(&snapshot);
  if (!snap) return Backend::run_suffix(snapshot, injected, shots, seed);
  // A single-config batch: keeps the subtle per-shot RNG-stream derivation
  // (cached resume vs overflow re-simulation) in exactly one place.
  const SuffixConfig config{{injected.begin(), injected.end()}, seed};
  auto results = run_suffix_batch(snapshot, {&config, 1}, shots);
  return std::move(results.front());
}

std::vector<ExecutionResult> TrajectoryBackend::run_suffix_batch(
    const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
    std::uint64_t shots) {
  const auto* snap = dynamic_cast<const TrajectorySnapshot*>(&snapshot);
  if (!snap) return Backend::run_suffix_batch(snapshot, configs, shots);
  if (configs.empty()) return {};
  require(shots > 0, "TrajectoryBackend: shots must be > 0");

  const circ::QuantumCircuit& circuit = *snap->circuit();
  const auto& instrs = circuit.instructions();
  for (const auto& config : configs) {
    for (const auto& instr : config.injected) {
      require(instr.is_unitary(), "run_suffix_batch: injected gate not unitary");
      for (int q : instr.qubits) {
        require(q >= 0 && q < circuit.num_qubits(),
                "run_suffix_batch: injected gate qubit out of range");
      }
    }
  }

  // Per-batch setup shared by every config: the readout table, the backend
  // name, one reusable outcome histogram, and a scratch statevector that
  // cached prefix shots are copied into without reallocating.
  std::vector<int> measured_clbits;
  std::vector<noise::ReadoutError> readout_errors;
  collect_readout(circuit, noise_model_, measured_clbits, readout_errors);
  const std::string backend_name = name();
  const std::size_t cached = snap->shots().size();
  sim::Statevector scratch(circuit.num_qubits());
  std::vector<std::uint64_t> outcome_counts(
      std::size_t{1} << circuit.num_clbits(), 0);

  std::vector<ExecutionResult> results;
  results.reserve(configs.size());
  for (const auto& config : configs) {
    std::fill(outcome_counts.begin(), outcome_counts.end(), 0);
    // Shots past the cache re-simulate the whole spliced circuit (run()
    // semantics); the splice differs per config, so it is built lazily.
    circ::QuantumCircuit spliced;
    if (shots > cached) {
      spliced = splice_circuit(circuit, snap->prefix_length(), config.injected);
    }

    for (std::uint64_t shot = 0; shot < shots; ++shot) {
      std::uint64_t outcome = 0;
      if (shot < cached) {
        // Resume the cached prefix trajectory (common random numbers across
        // configs) with this config's suffix stream.
        const CachedShot& start = snap->shots()[shot];
        const std::uint64_t words[] = {config.seed, shot, kSuffixSalt};
        util::Xoshiro256pp rng(util::hash_combine(words));
        scratch = start.sv;
        outcome = start.outcome;
        for (const auto& instr : config.injected) {
          execute_one(scratch, outcome, instr, rng, noise_model_);
        }
        for (std::size_t i = snap->prefix_length(); i < instrs.size(); ++i) {
          execute_one(scratch, outcome, instrs[i], rng, noise_model_);
        }
        outcome = noise::sample_readout_flips(outcome, measured_clbits,
                                              readout_errors, rng);
      } else {
        const std::uint64_t words[] = {config.seed, shot};
        util::Xoshiro256pp rng(util::hash_combine(words));
        sim::Statevector sv(circuit.num_qubits());
        for (const auto& instr : spliced.instructions()) {
          execute_one(sv, outcome, instr, rng, noise_model_);
        }
        outcome = noise::sample_readout_flips(outcome, measured_clbits,
                                              readout_errors, rng);
      }
      ++outcome_counts[outcome];
    }
    results.push_back(ExecutionResult::from_outcome_counts(
        outcome_counts, circuit.num_clbits(), backend_name));
  }
  return results;
}

}  // namespace qufi::backend
