#pragma once

#include "backend/backend.hpp"
#include "noise/noise_model.hpp"

namespace qufi::backend {

/// Monte-Carlo wavefunction (quantum trajectory) execution: each shot runs
/// the statevector and samples one Kraus branch per noise channel. Agrees
/// with DensityMatrixBackend in expectation (cross-validated by property
/// tests); supports mid-circuit measurement and reset, which the density
/// path does not.
class TrajectoryBackend : public Backend {
 public:
  explicit TrajectoryBackend(noise::NoiseModel noise_model);

  std::string name() const override;

  /// shots must be > 0 (a trajectory backend cannot produce exact output).
  ExecutionResult run(const circ::QuantumCircuit& circuit, std::uint64_t shots,
                      std::uint64_t seed) override;

  /// Trajectory checkpointing caches one evolved statevector per shot
  /// (including mid-circuit measurement outcomes drawn so far). Prefix
  /// randomness comes from a snapshot-internal stream, so every run_suffix
  /// sweep shares the same prefix trajectories (common random numbers):
  /// distribution-equivalent to run() on the spliced circuit, not
  /// bit-identical, and lower variance across grid configs.
  bool supports_checkpointing() const override { return true; }

  /// `shots_hint` sizes the per-shot cache; with shots_hint == 0 (or a
  /// prefix too large to cache) this degrades to the base splice snapshot.
  /// `snapshot_seed` salts the prefix noise stream so different campaign
  /// seeds resample the prefix realizations.
  PrefixSnapshotPtr prepare_prefix(const circ::QuantumCircuit& circuit,
                                   std::size_t prefix_length,
                                   std::uint64_t shots_hint = 0,
                                   std::uint64_t snapshot_seed = 0) override;

  /// Advances every cached shot through instructions [from_gate, to_gate),
  /// resuming each shot's stored prefix RNG stream — the derived snapshot
  /// is bit-identical to prepare_prefix(circuit, to_gate, ...) with the
  /// same snapshot_seed (which the cached streams already encode), so tree
  /// shape and sharding never change sampled records. Falls back to the
  /// base splice extension for fallback snapshots.
  PrefixSnapshotPtr extend_snapshot(const PrefixSnapshot& parent,
                                    std::size_t from_gate, std::size_t to_gate,
                                    std::uint64_t shots_hint = 0,
                                    std::uint64_t snapshot_seed = 0) override;

  ExecutionResult run_suffix(const PrefixSnapshot& snapshot,
                             std::span<const circ::Instruction> injected,
                             std::uint64_t shots, std::uint64_t seed) override;

  /// Batched grid sweep: replays the cached per-shot prefix statevectors
  /// across every config with common random numbers, hoisting the readout
  /// table and reusing one scratch statevector (no per-shot clone
  /// allocation). Each config's counts are bit-identical to a sequential
  /// run_suffix call with the same snapshot and per-config seed.
  std::vector<ExecutionResult> run_suffix_batch(
      const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
      std::uint64_t shots) override;

 private:
  noise::NoiseModel noise_model_;
};

}  // namespace qufi::backend
