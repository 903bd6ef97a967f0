#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/result.hpp"
#include "circuit/circuit.hpp"

namespace qufi::backend {

/// Opaque simulator state captured after a circuit prefix.
///
/// Injection campaigns sweep hundreds of fault configurations that all share
/// the gates before the injection site; a snapshot lets the backend evolve
/// that prefix once and resume per configuration (the QVF-methodology
/// amortization). Snapshots are immutable once built and safe to share
/// across threads; run_suffix / run_suffix_batch never mutate them.
class PrefixSnapshot {
 public:
  virtual ~PrefixSnapshot() = default;

  /// \return Number of leading circuit instructions folded into this
  ///         snapshot (the faulty circuit is prefix + injected gates +
  ///         remaining instructions).
  std::size_t prefix_length() const { return prefix_length_; }

  /// \return The circuit this snapshot was prepared over, or nullptr when
  ///         the snapshot kind does not retain it. All bundled snapshot
  ///         kinds (splice, density, trajectory) return non-null; the
  ///         accessor lets backend decorators (e.g. perfbench's
  ///         TracedBackend) key per-snapshot state without widening the
  ///         run_suffix_batch signature.
  virtual const circ::QuantumCircuit* circuit() const { return nullptr; }

 protected:
  explicit PrefixSnapshot(std::size_t prefix_length)
      : prefix_length_(prefix_length) {}

 private:
  std::size_t prefix_length_;
};

using PrefixSnapshotPtr = std::shared_ptr<const PrefixSnapshot>;

/// One entry of a run_suffix_batch call: the fault gates spliced in at the
/// snapshot's split point plus the sampling seed for that configuration.
///
/// Campaigns keep per-config seeds (derived from the grid indices, not the
/// submission order) so batched and per-config execution produce identical
/// sampling streams regardless of scheduling.
struct SuffixConfig {
  /// Fault gates inserted at the split point, in order. All must be
  /// unitary; typically one U(theta, phi, 0) gate (two for double faults).
  std::vector<circ::Instruction> injected;
  /// Seed forwarded to measurement sampling, exactly as the `seed`
  /// parameter of run_suffix would be.
  std::uint64_t seed = 0;
};

/// Execution target abstraction. The paper's three scenarios map to:
///   (1) ideal simulation            -> IdealBackend
///   (2) simulation with noise model -> DensityMatrixBackend (exact) or
///                                      TrajectoryBackend (sampled)
///   (3) physical IBM-Q machine      -> SimulatedHardwareBackend
///                                      (drifting-calibration substitute)
///
/// Thread-safety: all methods of the bundled backends are safe to call
/// concurrently from multiple threads (campaign pools do so); snapshots are
/// immutable and may be shared across lanes. Custom backends passed to
/// campaigns via CampaignSpec::backend_override must uphold the same
/// guarantee.
class Backend {
 public:
  virtual ~Backend() = default;

  /// \return Human-readable backend identifier (stamped into results and
  ///         campaign metadata), e.g. "density_matrix(fake_casablanca)".
  virtual std::string name() const = 0;

  /// Executes `circuit`.
  ///
  /// \param circuit Circuit with terminal measurements into clbits.
  /// \param shots   0 requests the exact output distribution (supported by
  ///                all backends except TrajectoryBackend, which must
  ///                sample); > 0 samples that many shots.
  /// \param seed    Makes sampling deterministic; ignored for exact runs.
  /// \return The output distribution (and counts when shots > 0).
  virtual ExecutionResult run(const circ::QuantumCircuit& circuit,
                              std::uint64_t shots, std::uint64_t seed) = 0;

  /// \return True when prepare_prefix captures real simulator state, so
  ///         run_suffix skips re-executing the prefix; the base splice
  ///         snapshot only records the split. No engine path branches on
  ///         it: the checkpoint and conformance tests assert it, and
  ///         perfbench's TracedBackend forwards it.
  virtual bool supports_checkpointing() const { return false; }

  /// Survives only for perfbench's TracedBackend forwarder; always 0.
  virtual std::uint64_t snapshot_schedule_digest(
      const circ::QuantumCircuit& circuit, std::size_t prefix_length) const {
    (void)circuit;
    (void)prefix_length;
    return 0;
  }

  /// Captures the execution state after the first `prefix_length`
  /// instructions of `circuit`.
  ///
  /// \param circuit       Full circuit the suffix calls will complete.
  /// \param prefix_length Number of leading instructions to fold in
  ///                      (must be <= circuit.size()).
  /// \param shots_hint    Shot count the caller intends to pass to
  ///                      run_suffix; sampling backends size per-shot
  ///                      caches from it, exact backends ignore it.
  /// \param snapshot_seed Feeds any randomness the snapshot itself consumes
  ///                      (the trajectory backend's prefix noise sampling),
  ///                      so replications with different campaign seeds
  ///                      resample the prefix; exact backends ignore it.
  /// \return An immutable, thread-shareable snapshot.
  virtual PrefixSnapshotPtr prepare_prefix(const circ::QuantumCircuit& circuit,
                                           std::size_t prefix_length,
                                           std::uint64_t shots_hint = 0,
                                           std::uint64_t snapshot_seed = 0);

  /// Derives a deeper snapshot from an existing one: advances `parent`
  /// through circuit instructions [from_gate, to_gate) instead of
  /// re-evolving from the initial state — the prefix-tree primitive that
  /// lets a campaign's nested split points share prefix work (the child of
  /// a snapshot at gate a is the snapshot at gate b > a).
  ///
  /// Equivalence contract: the returned snapshot is bit-identical to
  /// prepare_prefix(circuit, to_gate, shots_hint, snapshot_seed) — the
  /// density backend replays the same operation sequence on the parent's
  /// state, and the trajectory backend resumes each cached shot's stored
  /// RNG stream — so results are independent of the tree shape (chain
  /// depth, skipped intermediate splits, sharding of the point set).
  ///
  /// \param parent        Snapshot produced by prepare_prefix or
  ///                      extend_snapshot on this backend.
  /// \param from_gate     Must equal parent.prefix_length() (validated;
  ///                      spelled out so call sites document their chain).
  /// \param to_gate       New prefix length, in [from_gate, circuit size].
  /// \param shots_hint    As in prepare_prefix; backends whose snapshots
  ///                      carry their sampling state ignore it.
  /// \param snapshot_seed As in prepare_prefix; same note.
  /// \return An immutable, thread-shareable snapshot at to_gate. The base
  ///         implementation advances the splice fallback (no simulator
  ///         state to reuse, still exact).
  virtual PrefixSnapshotPtr extend_snapshot(const PrefixSnapshot& parent,
                                            std::size_t from_gate,
                                            std::size_t to_gate,
                                            std::uint64_t shots_hint = 0,
                                            std::uint64_t snapshot_seed = 0);

  /// Resumes from `snapshot`: executes the `injected` gates (all unitary),
  /// then the remaining instructions of the snapshot's circuit, and
  /// resolves measurements exactly as run() would.
  ///
  /// \param snapshot Snapshot produced by prepare_prefix on this backend.
  /// \param injected Fault gates spliced in at the split point.
  /// \param shots    As in run().
  /// \param seed     As in run().
  /// \return For exact backends, bit-identical to run() on the spliced
  ///         faulty circuit; the trajectory backend shares prefix
  ///         randomness across calls (common random numbers), which is
  ///         distribution-equivalent but not bit-equal.
  virtual ExecutionResult run_suffix(const PrefixSnapshot& snapshot,
                                     std::span<const circ::Instruction> injected,
                                     std::uint64_t shots, std::uint64_t seed);

  /// Executes a whole grid of fault configurations from one snapshot in a
  /// single call — the batched form of run_suffix that campaigns submit
  /// per injection point.
  ///
  /// Backends with real checkpointing amortize per-call setup across the
  /// batch: the density backend reuses one scratch density matrix and a
  /// pre-fused suffix (each config only applies its own U-gate parameters
  /// before replaying the fused suffix superoperators), and the trajectory
  /// backend replays its cached per-shot prefix statevectors across the
  /// grid with common random numbers. The base implementation loops
  /// run_suffix, so backends without batch support keep one code path.
  ///
  /// \param snapshot Snapshot produced by prepare_prefix on this backend.
  /// \param configs  One entry per fault configuration (injected gates +
  ///                 per-config sampling seed).
  /// \param shots    As in run(); shared by every config in the batch.
  /// \return One ExecutionResult per config, in input order; empty when
  ///         `configs` is empty. results[i] equals
  ///         run_suffix(snapshot, configs[i].injected, shots,
  ///         configs[i].seed) within floating-point reassociation (QVF
  ///         parity within 1e-9 on the density backend, bit-identical on
  ///         the trajectory backend).
  virtual std::vector<ExecutionResult> run_suffix_batch(
      const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
      std::uint64_t shots);

  /// Survives only for perfbench's TracedBackend forwarder; always false.
  virtual bool save_snapshot(const PrefixSnapshot& snapshot,
                             std::ostream& out) const;

  /// Survives only for perfbench's TracedBackend forwarder; always throws.
  virtual PrefixSnapshotPtr load_snapshot(std::istream& in) const;
};

/// Builds the faulty circuit run_suffix models: instructions [0,
/// prefix_length), then `injected`, then the rest. Shared by the base
/// fallback and by backends that need the spliced circuit explicitly.
///
/// \param circuit       The fault-free circuit.
/// \param prefix_length Split point (must be <= circuit.size()).
/// \param injected      Unitary fault gates inserted at the split point.
/// \return The spliced circuit, named "<circuit>+fault".
circ::QuantumCircuit splice_circuit(const circ::QuantumCircuit& circuit,
                                    std::size_t prefix_length,
                                    std::span<const circ::Instruction> injected);

}  // namespace qufi::backend
