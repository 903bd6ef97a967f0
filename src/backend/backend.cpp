#include "backend/backend.hpp"

#include "util/error.hpp"

namespace qufi::backend {

namespace {

/// Fallback snapshot: no simulator state, just the circuit and the split.
class SpliceSnapshot final : public PrefixSnapshot {
 public:
  SpliceSnapshot(circ::QuantumCircuit circuit, std::size_t prefix_length)
      : PrefixSnapshot(prefix_length), circuit_(std::move(circuit)) {}

  const circ::QuantumCircuit* circuit() const override { return &circuit_; }

 private:
  circ::QuantumCircuit circuit_;
};

}  // namespace

circ::QuantumCircuit splice_circuit(
    const circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::span<const circ::Instruction> injected) {
  require(prefix_length <= circuit.size(),
          "splice_circuit: prefix length exceeds circuit size");
  circ::QuantumCircuit spliced(circuit.num_qubits(), circuit.num_clbits());
  spliced.set_name(circuit.name() + "+fault");
  const auto& instrs = circuit.instructions();
  for (std::size_t i = 0; i < prefix_length; ++i) spliced.append(instrs[i]);
  for (const auto& instr : injected) {
    require(instr.is_unitary(), "splice_circuit: injected gate not unitary");
    spliced.append(instr);
  }
  for (std::size_t i = prefix_length; i < instrs.size(); ++i) {
    spliced.append(instrs[i]);
  }
  return spliced;
}

PrefixSnapshotPtr Backend::prepare_prefix(const circ::QuantumCircuit& circuit,
                                          std::size_t prefix_length,
                                          std::uint64_t /*shots_hint*/,
                                          std::uint64_t /*snapshot_seed*/) {
  require(prefix_length <= circuit.size(),
          "prepare_prefix: prefix length exceeds circuit size");
  return std::make_shared<SpliceSnapshot>(circuit, prefix_length);
}

ExecutionResult Backend::run_suffix(const PrefixSnapshot& snapshot,
                                    std::span<const circ::Instruction> injected,
                                    std::uint64_t shots, std::uint64_t seed) {
  const auto* splice = dynamic_cast<const SpliceSnapshot*>(&snapshot);
  require(splice != nullptr,
          "run_suffix: snapshot was not produced by this backend");
  return run(splice_circuit(*splice->circuit(), splice->prefix_length(),
                            injected),
             shots, seed);
}

PrefixSnapshotPtr Backend::extend_snapshot(const PrefixSnapshot& parent,
                                           std::size_t from_gate,
                                           std::size_t to_gate,
                                           std::uint64_t /*shots_hint*/,
                                           std::uint64_t /*snapshot_seed*/) {
  const auto* splice = dynamic_cast<const SpliceSnapshot*>(&parent);
  require(splice != nullptr,
          "extend_snapshot: snapshot was not produced by this backend");
  require(from_gate == parent.prefix_length(),
          "extend_snapshot: from_gate does not match the parent prefix");
  require(to_gate >= from_gate,
          "extend_snapshot: cannot extend a snapshot backwards");
  require(to_gate <= splice->circuit()->size(),
          "extend_snapshot: to_gate exceeds circuit size");
  return std::make_shared<SpliceSnapshot>(*splice->circuit(), to_gate);
}

bool Backend::save_snapshot(const PrefixSnapshot& /*snapshot*/,
                            std::ostream& /*out*/) const {
  return false;
}

PrefixSnapshotPtr Backend::load_snapshot(std::istream& /*in*/) const {
  throw Error("load_snapshot: snapshots have no serialized form");
}

std::vector<ExecutionResult> Backend::run_suffix_batch(
    const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
    std::uint64_t shots) {
  std::vector<ExecutionResult> results;
  results.reserve(configs.size());
  for (const auto& config : configs) {
    results.push_back(run_suffix(snapshot, config.injected, shots,
                                 config.seed));
  }
  return results;
}

}  // namespace qufi::backend
