#pragma once

#include <complex>
#include <memory>
#include <span>

#include "backend/backend.hpp"
#include "noise/drift.hpp"
#include "noise/noise_model.hpp"

namespace qufi::backend {

/// Knobs for one density-matrix execution.
struct DensityRunOptions {
  /// Per-physical-qubit coherent miscalibration applied after every noisy
  /// 1q gate (used by the simulated-hardware backend). Empty = none.
  std::span<const noise::DriftModel::CoherentError> coherent_errors = {};
};

/// Exact noisy execution: evolves the full density matrix through the
/// circuit with the noise model's Kraus channels and returns the exact
/// distribution over classical bitstrings (readout error included), one
/// instruction at a time in index order. Requires terminal measurements.
std::vector<double> run_density_probs(const circ::QuantumCircuit& circuit,
                                      const noise::NoiseModel& noise_model,
                                      const DensityRunOptions& options = {});

namespace detail {
class BakeMemo;
}  // namespace detail

/// Backend wrapper over the density-matrix executor — the paper's scenario
/// (2), "simulation of a physical machine, tuning the noise over which the
/// fault is injected using the IBM-Q noise model". With `idle_noise` (an
/// extension beyond the paper's Qiskit noise model; see the ablation bench)
/// every execution runs the circuit's ASAP moments with thermal relaxation
/// on each moment's idle active qubits; without it, one instruction per
/// step with no idle channels. Every entry point walks that one schedule.
class DensityMatrixBackend : public Backend {
 public:
  explicit DensityMatrixBackend(noise::NoiseModel noise_model,
                                bool idle_noise = false);
  ~DensityMatrixBackend() override;

  std::string name() const override;

  ExecutionResult run(const circ::QuantumCircuit& circuit, std::uint64_t shots,
                      std::uint64_t seed) override;

  /// Real checkpointing: the snapshot holds the density matrix evolved
  /// through the schedule steps that are *sealed* at the split (no
  /// spliced-in fault gate or later instruction can ever run in one of
  /// them), together with that sealed cursor: the first `prefix_length`
  /// instructions without idle noise, the sealed moments with it. run_suffix
  /// and run_suffix_batch resume the spliced circuit's schedule from the
  /// cursor, so a resumed execution is bit-identical to a from-scratch run,
  /// idle channels included.
  bool supports_checkpointing() const override { return true; }

  PrefixSnapshotPtr prepare_prefix(const circ::QuantumCircuit& circuit,
                                   std::size_t prefix_length,
                                   std::uint64_t shots_hint = 0,
                                   std::uint64_t snapshot_seed = 0) override;

  /// Advances the parent's evolved density matrix from its sealed cursor to
  /// the one at `to_gate` (instructions [from_gate, to_gate) without idle
  /// noise; the newly sealed moments, idle channels included, with it) —
  /// the same step sequence a from-scratch prepare_prefix(circuit, to_gate)
  /// runs on that state, so the derived snapshot is bit-identical to the
  /// from-scratch one regardless of how many chain hops produced it. Falls
  /// back to the base splice extension when the parent is a fallback
  /// snapshot.
  PrefixSnapshotPtr extend_snapshot(const PrefixSnapshot& parent,
                                    std::size_t from_gate, std::size_t to_gate,
                                    std::uint64_t shots_hint = 0,
                                    std::uint64_t snapshot_seed = 0) override;

  ExecutionResult run_suffix(const PrefixSnapshot& snapshot,
                             std::span<const circ::Instruction> injected,
                             std::uint64_t shots, std::uint64_t seed) override;

  /// Batched grid sweep from one snapshot: compiles the spliced schedule
  /// from the snapshot's cursor once per program key (the injected-gate
  /// count without idle noise, the injection shape with it) into baked ops
  /// — gate matrices built once, each noisy gate's unitary fused into its
  /// noise superoperator, idle channels baked, Inject slots where the fault
  /// gates land — cached on the snapshot, and reuses a single scratch
  /// density matrix across configs, so each config costs one snapshot
  /// refill + the program replay with its own gates in the Inject slots.
  /// Equivalent to per-config run_suffix within floating-point
  /// reassociation (QVF parity well under 1e-9).
  std::vector<ExecutionResult> run_suffix_batch(
      const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
      std::uint64_t shots) override;

  const noise::NoiseModel& noise_model() const { return noise_model_; }

  /// Minimum same-target group sizes at which run_suffix_batch takes the
  /// suffix-response path: large same-qubit batches are evaluated against a
  /// precomputed linear-response basis of the compiled suffix (one basis
  /// replay per slot matrix unit, then a small weighted sum per config)
  /// instead of one full suffix replay per config, matching the replay path
  /// within floating-point reassociation (QVF parity well under 1e-9). The
  /// m^4 basis replays must amortize: 2 x 16 for one target qubit, 2 x 256
  /// for a pair; smaller groups always replay. Public so campaign chunking
  /// can guarantee every full chunk stays on the fast path — the
  /// response-vs-replay decision must be a pure function of the batch
  /// contents, never of thread count or sharding (the byte-identity
  /// contract).
  static constexpr std::size_t kResponseMinConfigs1q = 32;
  static constexpr std::size_t kResponseMinConfigs2q = 512;

 private:
  /// True when moment-scheduled execution is actually in effect: the
  /// idle_noise knob is on AND the model has noise to schedule (an ideal
  /// model takes the plain path, matching run()). The single definition of
  /// "moment-aware mode" — snapshots record it, and every resume path
  /// (extend/run_suffix/batch) validates against this predicate.
  bool idle_mode_active() const {
    return idle_noise_ && !noise_model_.is_ideal();
  }

  noise::NoiseModel noise_model_;
  bool idle_noise_;
  /// Every suffix gate this backend has baked for run_suffix_batch, shared
  /// by all the programs it compiles.
  std::unique_ptr<detail::BakeMemo> bake_memo_;
};

namespace detail {

/// What probe_response_basis returns: every element's responses, indexed
/// [(((a*m + b)*m + c)*m + d) * outcomes + o] (+0 for an element pruned as
/// proven zero), and how many elements were replayed.
struct ResponseBasisProbe {
  std::vector<std::complex<double>> responses;
  std::size_t live = 0;
};

/// Test seam, not an option: builds the suffix-response basis that
/// `backend`'s run_suffix_batch would build on `snapshot` (one of its own)
/// for configs shaped like `injected` (single-qubit fault gates on one or
/// two qubits), with or without pruning the elements proven zero. Throws
/// qufi::Error when the program is not response-eligible.
ResponseBasisProbe probe_response_basis(
    const DensityMatrixBackend& backend, const PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected, bool prune);

}  // namespace detail

}  // namespace qufi::backend
