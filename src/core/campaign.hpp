#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "circuit/circuit.hpp"
#include "core/fault_model.hpp"
#include "core/injection.hpp"
#include "core/qvf.hpp"
#include "core/results.hpp"
#include "noise/backend_props.hpp"
#include "transpile/transpiler.hpp"

namespace qufi {

/// Everything that defines one fault-injection campaign.
struct CampaignSpec {
  /// Logical circuit with terminal measurements (e.g. from qufi::algo).
  circ::QuantumCircuit circuit;
  /// Known correct outputs (MSB-first). Empty = derive by ideal simulation.
  std::vector<std::string> expected_outputs;

  /// Device the circuit is transpiled onto; also sources the noise model
  /// and the coupling map used for neighbor discovery.
  noise::BackendProperties backend = noise::fake_casablanca();
  transpile::TranspileOptions transpile_options{};  // opt level 3, the paper's

  FaultParamGrid grid;
  InjectionStrategy strategy = InjectionStrategy::OperandsAfterEachGate;

  std::uint64_t shots = 0;  ///< 0 = exact distributions; paper uses 1024
  std::uint64_t seed = 0x51754649;
  double noise_scale = 1.0;  ///< scales the backend noise (0 = ideal run)

  /// Apply thermal relaxation to idle qubits per circuit moment (the
  /// calibrated-T1/T2 extension of the paper's noise model; see
  /// docs/CAMPAIGNS.md). The density backend's snapshots are moment-aware,
  /// so idle-noise campaigns run through the same snapshot-tree engine as
  /// plain ones — records match a full re-simulation of every faulty
  /// circuit within the usual 1e-9 QVF bound. Ignored when a
  /// backend_override executes the campaign (configure the override
  /// itself); recorded in CampaignMetadata::idle_noise either way so shard
  /// merges can refuse to mix modes.
  bool idle_noise = false;

  /// Keep only every k-th injection point so the total stays <= max_points
  /// (0 = keep all). Deterministic striding, used by quick benches.
  std::size_t max_points = 0;

  /// Adaptive estimation mode (docs/CAMPAIGNS.md "Adaptive estimation"):
  /// instead of sweeping every (theta, phi) config per injection point, run
  /// the adaptive estimator (core/adaptive.hpp), which evaluates a coarse
  /// stratified lattice and refines only high-uncertainty cells until the
  /// per-point QVF confidence interval or config budget is reached. Records
  /// then cover only the evaluated subset (sorted in enumeration order per
  /// point), CampaignResult gains per-point estimates, and CSVs grow
  /// configs_evaluated/ci_halfwidth/est_qvf columns. The evaluated config
  /// set is deterministic-by-seed — a pure function of (grid, policy,
  /// spec.seed, global point index) — so adaptive runs are bit-identical
  /// across reruns, thread counts, and shard splits, exactly like
  /// exhaustive ones. Single-fault campaigns only (double-fault and named
  /// campaigns reject it).
  std::optional<AdaptivePolicy> adaptive;

  int threads = 0;  ///< worker threads; 0 = hardware concurrency
  /// Run the engine on these borrowed lanes instead of a pool of `threads`
  /// built for the call (`threads` is then ignored). Other callers may
  /// share the lanes at the same time, as a thread fleet's workers do;
  /// records never depend on it. Not owned; nullptr = a pool of its own.
  util::ThreadPool* pool = nullptr;

  /// Execute on this backend instead of the density-matrix simulator built
  /// from `backend` (e.g. SimulatedHardwareBackend). Must be thread-safe:
  /// run(), prepare_prefix(), extend_snapshot() and run_suffix_batch() are
  /// all called concurrently from pool workers (campaigns submit multiple
  /// chunks against one shared snapshot). A backend without checkpointing
  /// runs the same engine through the base splice fallback, which
  /// re-simulates each config with the same per-config seed. Not owned.
  backend::Backend* backend_override = nullptr;

  /// Stream each injection point's completed record slice out of the engine
  /// the moment its whole grid finished, instead of accumulating the full
  /// record vector: the returned CampaignResult then carries metadata, the
  /// point table and execution totals but an *empty* records vector, keeping
  /// engine memory at O(points) slices instead of O(campaign). The sink's
  /// begin() receives the final metadata before the sweep; blocks then
  /// arrive in completion order (not point order) and emit() is called
  /// concurrently from pool lanes — see ResultBlockSink. Values are
  /// bit-identical to the accumulated records (same slots, same seeds).
  /// Not owned; nullptr = accumulate as before.
  ResultBlockSink* record_sink = nullptr;
};

/// Runs the single-fault campaign of §IV-B: every injection point x every
/// grid (theta, phi), one faulty execution each.
///
/// \param spec Campaign definition (circuit, device, grid, execution knobs).
/// \return Per-config records (indexed by point/theta/phi), the point list,
///         and campaign metadata. Record values are independent of thread
///         count and scheduling (per-config seeds, index-addressed slots).
///
/// Thread-safety: runs on spec.pool or a worker pool of its own; concurrent
/// campaign calls are safe, on one shared pool too, as long as any
/// backend_override is itself thread-safe.
CampaignResult run_single_fault_campaign(const CampaignSpec& spec);

/// Runs the double-fault campaign of §IV-C: for every injection point and
/// every coupled, active neighbor, the primary fault (theta0, phi0) sweeps
/// `spec.grid` and the secondary sweeps theta1 <= theta0, phi1 <= phi0 on
/// the same step (the neighbor is farther from the particle impact).
/// The paper restricts phi0 to [0, pi] for BV symmetry; pass a grid with
/// phi_max_deg = 180 to reproduce that.
///
/// \param spec Campaign definition; spec.grid drives the primary sweep.
/// \return Records carrying both fault index tuples (neighbor_qubit,
///         theta1/phi1 set). Deterministic as in run_single_fault_campaign.
CampaignResult run_double_fault_campaign(const CampaignSpec& spec);

/// Runs the single-fault campaign restricted to a subset of the campaign's
/// injection points — the shard-execution primitive (src/dist). Point
/// indices refer to the *global* enumeration (campaign_points(spec)), and
/// per-config seeds are derived from those global indices, so the union of
/// disjoint shard runs is record-for-record identical to the one-process
/// run: streamed into QUFIPART partials (spec.record_sink), the shards
/// reassemble through qufi::dist::merge_result_files bit-exactly on the
/// density backend and under common random numbers on the trajectory
/// backend.
///
/// \param spec          Campaign definition, as in run_single_fault_campaign.
/// \param point_indices Strictly increasing global point indices (a shard
///                      from qufi::dist::plan_campaign_shards). May be
///                      empty: the result then carries metadata and the
///                      full point table but no records (idempotent empty
///                      shard).
/// \return Shard-local records (point_index fields stay global) plus the
///         full point table, so shards merge without re-transpiling.
CampaignResult run_single_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices);

/// Shard form of run_double_fault_campaign: executes only configs whose
/// primary injection point is in `point_indices`. Seeds are derived from
/// the *global* flat config enumeration, so shard unions match the
/// one-process run exactly (see run_single_fault_campaign_subset).
///
/// \param spec          Campaign definition; spec.grid drives the sweep.
/// \param point_indices Strictly increasing global point indices; may be
///                      empty (and a non-empty shard may still yield zero
///                      records when none of its points has a coupled,
///                      active neighbor).
CampaignResult run_double_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices);

/// Mean QVF per named fault (paper Fig. 11): injects each named fault at
/// every point and averages. Grid fields of `spec` are ignored.
struct NamedFaultQvf {
  std::string fault_name;
  double mean_qvf = 0.0;
  std::uint64_t executions = 0;
};

/// \param spec   Campaign definition (grid fields ignored).
/// \param faults Named faults to inject (e.g. gate_equivalent_faults()).
/// \return One entry per fault, in input order, with the mean QVF over all
///         injection points.
std::vector<NamedFaultQvf> run_named_fault_campaign(
    const CampaignSpec& spec, std::span<const NamedFault> faults);

/// Transpiles spec.circuit exactly as the campaign would (for inspection
/// and point counting without running anything).
///
/// \return The transpiled circuit plus layout/attribution metadata.
transpile::TranspileResult campaign_transpile(const CampaignSpec& spec);

/// Injection points the campaign would use (after max_points striding).
///
/// \return Points over the transpiled circuit, in instruction order.
std::vector<InjectionPoint> campaign_points(const CampaignSpec& spec);

/// Deterministic down-selection to at most `max_points` points (0 = keep
/// all): integer striding over the input order — exact output count,
/// strictly increasing source indices, never a duplicate or an out-of-range
/// pick (regression: the old floating-point stride could repeat or skip
/// points for large counts).
///
/// \param points     Candidate points, in enumeration order.
/// \param max_points Budget; 0 keeps everything.
/// \return The strided subset (always includes the first point).
std::vector<InjectionPoint> stride_points(std::vector<InjectionPoint> points,
                                          std::size_t max_points);

/// (point, neighbor) pairs a double campaign would use.
///
/// \return One pair per (injection point, coupled active neighbor), in
///         point order.
std::vector<std::pair<InjectionPoint, int>> campaign_point_neighbor_pairs(
    const CampaignSpec& spec);

}  // namespace qufi
