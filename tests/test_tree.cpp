// Prefix-tree engine tests: extend_snapshot on both checkpointing backends
// (parent-vs-from-scratch bit equivalence, chain hops), the density
// suffix-response batch path, tree-engine campaigns against full
// re-simulation (single and double fault with the response path active,
// shard-subset unions, points with no coupled active neighbor), and the
// snapshot walk every campaign kind shares (one prefix per sweep, one
// snapshot per unique split with work, hand-off across chains without
// work, a failing extension, records across thread counts and shardings).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "backend/ideal_backend.hpp"
#include "backend/trajectory_backend.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "dist/shard_plan.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "resimulating_backend.hpp"
#include "support/campaign_fixtures.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

using test_support::quick_spec;

void expect_same_probs(const backend::ExecutionResult& a,
                       const backend::ExecutionResult& b) {
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (std::size_t i = 0; i < a.probabilities.size(); ++i) {
    EXPECT_EQ(a.probabilities[i], b.probabilities[i]) << "index " << i;
  }
  EXPECT_EQ(a.counts, b.counts);
}

// ---- extend_snapshot: density ----------------------------------------------

TEST(ExtendSnapshot, DensityExtendMatchesFromScratchBitExactly) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  ASSERT_GE(points.size(), 4u);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));

  const std::size_t early = points[1].split_index();
  const std::size_t late = points[points.size() - 2].split_index();
  ASSERT_LT(early, late);

  const auto parent = backend.prepare_prefix(transpiled.circuit, early);
  const auto extended = backend.extend_snapshot(*parent, early, late);
  const auto scratch = backend.prepare_prefix(transpiled.circuit, late);
  EXPECT_EQ(extended->prefix_length(), late);

  const PhaseShiftFault fault{0.9, 1.7};
  const circ::Instruction injected[] = {
      fault.as_instruction(points[points.size() - 2].qubit)};
  expect_same_probs(backend.run_suffix(*extended, injected, 0, 11),
                    backend.run_suffix(*scratch, injected, 0, 11));
}

TEST(ExtendSnapshot, DensityChainHopsAreInvisible) {
  const auto spec = quick_spec("qft", 3);
  const auto transpiled = campaign_transpile(spec);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const std::size_t size = transpiled.circuit.size();
  ASSERT_GE(size, 8u);

  // One hop vs three hops to the same split: records must not depend on
  // the chain shape (the sharding contract — different shards take
  // different hop sequences).
  const auto direct = backend.extend_snapshot(
      *backend.prepare_prefix(transpiled.circuit, 2), 2, size - 2);
  auto chained = backend.prepare_prefix(transpiled.circuit, 2);
  chained = backend.extend_snapshot(*chained, 2, 4);
  chained = backend.extend_snapshot(*chained, 4, size / 2);
  chained = backend.extend_snapshot(*chained, size / 2, size - 2);

  const int qubit = transpiled.circuit.active_qubits().front();
  const circ::Instruction injected[] = {
      PhaseShiftFault{1.3, 0.4}.as_instruction(qubit)};
  expect_same_probs(backend.run_suffix(*direct, injected, 0, 3),
                    backend.run_suffix(*chained, injected, 0, 3));
}

TEST(ExtendSnapshot, RejectsMismatchedChainArguments) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto snapshot = backend.prepare_prefix(transpiled.circuit, 4);
  EXPECT_THROW(backend.extend_snapshot(*snapshot, 3, 6), Error);  // wrong from
  EXPECT_THROW(backend.extend_snapshot(*snapshot, 4, 2), Error);  // backwards
  EXPECT_THROW(
      backend.extend_snapshot(*snapshot, 4, transpiled.circuit.size() + 1),
      Error);
}

TEST(ExtendSnapshot, BaseSpliceFallbackStaysExact) {
  const auto bench = algo::ghz(3);
  backend::IdealBackend backend;
  const auto parent = backend.prepare_prefix(bench.circuit, 1);
  const auto extended = backend.extend_snapshot(*parent, 1, 3);
  EXPECT_EQ(extended->prefix_length(), 3u);

  const circ::Instruction injected[] = {
      PhaseShiftFault{0.8, 2.0}.as_instruction(0)};
  const auto resumed = backend.run_suffix(*extended, injected, 0, 1);
  const auto scratch = backend.run_suffix(
      *backend.prepare_prefix(bench.circuit, 3), injected, 0, 1);
  expect_same_probs(resumed, scratch);
}

// ---- extend_snapshot: trajectory -------------------------------------------

TEST(ExtendSnapshot, TrajectoryExtendResumesTheExactRngStream) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  backend::TrajectoryBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const std::uint64_t shots = 128;
  const std::size_t size = transpiled.circuit.size();

  const auto parent =
      backend.prepare_prefix(transpiled.circuit, 3, shots, /*seed=*/77);
  const auto extended = backend.extend_snapshot(*parent, 3, size / 2, shots, 77);
  const auto scratch =
      backend.prepare_prefix(transpiled.circuit, size / 2, shots, 77);

  // The derived snapshot continued each cached shot's stored RNG stream, so
  // sampled counts are bit-identical to the from-scratch snapshot — not
  // just distribution-close.
  const int qubit = transpiled.circuit.active_qubits().front();
  const circ::Instruction injected[] = {
      PhaseShiftFault{0.6, 1.2}.as_instruction(qubit)};
  expect_same_probs(backend.run_suffix(*extended, injected, shots, 5),
                    backend.run_suffix(*scratch, injected, shots, 5));
}

// ---- density suffix-response batch path ------------------------------------

TEST(SuffixResponse, LargeSingleQubitBatchMatchesSequentialRunSuffix) {
  auto spec = quick_spec("dj", 3);
  spec.grid.theta_step_deg = 30.0;  // 7 x 12 = 84 configs: response-eligible
  spec.grid.phi_step_deg = 30.0;
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const InjectionPoint& point = points[points.size() / 2];
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());

  std::vector<backend::SuffixConfig> configs;
  for (const auto& fault : spec.grid.enumerate()) {
    configs.push_back(backend::SuffixConfig{
        {fault.as_instruction(point.qubit)}, configs.size()});
  }
  ASSERT_GE(configs.size(), 32u);
  const auto batched = backend.run_suffix_batch(*snapshot, configs, 0);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto sequential = backend.run_suffix(
        *snapshot, configs[c].injected, 0, configs[c].seed);
    ASSERT_EQ(batched[c].probabilities.size(),
              sequential.probabilities.size());
    for (std::size_t s = 0; s < sequential.probabilities.size(); ++s) {
      EXPECT_NEAR(batched[c].probabilities[s], sequential.probabilities[s],
                  1e-12)
          << "config " << c << " state " << s;
    }
  }
}

TEST(SuffixResponse, LargeTwoQubitBatchMatchesSequentialRunSuffix) {
  auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto pairs = campaign_point_neighbor_pairs(spec);
  ASSERT_FALSE(pairs.empty());
  const auto& [point, neighbor] = pairs[pairs.size() / 2];

  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());

  // A double-fault-shaped grid big enough for the 2-qubit response basis
  // (>= 512 configs on one (primary, neighbor) pair).
  std::vector<backend::SuffixConfig> configs;
  for (int i = 0; configs.size() < 520; ++i) {
    const PhaseShiftFault primary{0.01 * i, 0.02 * i};
    const PhaseShiftFault secondary{0.005 * i, 0.01 * i};
    configs.push_back(backend::SuffixConfig{
        {primary.as_instruction(point.qubit),
         secondary.as_instruction(neighbor)},
        static_cast<std::uint64_t>(1000 + i)});
  }
  const auto batched = backend.run_suffix_batch(*snapshot, configs, 0);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); c += 7) {
    const auto sequential = backend.run_suffix(
        *snapshot, configs[c].injected, 0, configs[c].seed);
    for (std::size_t s = 0; s < sequential.probabilities.size(); ++s) {
      EXPECT_NEAR(batched[c].probabilities[s], sequential.probabilities[s],
                  1e-12)
          << "config " << c << " state " << s;
    }
  }
}

// ---- pruning response elements proven zero ----------------------------------

/// The basis at `snapshot` for faults shaped like `injected`, built with and
/// without pruning: the responses must be memcmp-equal (a pruned element's
/// replayed response is exactly +0). Returns {live pruned, live unpruned}.
std::pair<std::size_t, std::size_t> expect_pruning_moves_no_byte(
    const backend::DensityMatrixBackend& backend,
    const backend::PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected) {
  const auto pruned =
      backend::detail::probe_response_basis(backend, snapshot, injected, true);
  const auto full = backend::detail::probe_response_basis(backend, snapshot,
                                                          injected, false);
  EXPECT_LE(pruned.live, full.live);
  EXPECT_EQ(pruned.responses.size(), full.responses.size());
  EXPECT_EQ(std::memcmp(pruned.responses.data(), full.responses.data(),
                        full.responses.size() * sizeof(full.responses[0])),
            0);
  return {pruned.live, full.live};
}

TEST(SuffixResponse, PruningMovesNoResponseByteAtAnyInjectionPoint) {
  for (const char* name : {"bv", "dj", "qft"}) {
    SCOPED_TRACE(name);
    const auto spec = quick_spec(name, 4);
    const auto transpiled = campaign_transpile(spec);
    backend::DensityMatrixBackend backend(
        noise::NoiseModel::from_backend(spec.backend, 1.0));
    std::size_t live = 0, elements = 0;
    for (const InjectionPoint& point : enumerate_injection_points(
             transpiled, InjectionStrategy::OperandsAfterEachGate)) {
      const auto snapshot =
          backend.prepare_prefix(transpiled.circuit, point.split_index());
      const circ::Instruction injected[] = {
          PhaseShiftFault{0.7, 1.9}.as_instruction(point.qubit)};
      const auto [pruned, full] =
          expect_pruning_moves_no_byte(backend, *snapshot, injected);
      EXPECT_EQ(full, 16u);
      live += pruned;
      elements += full;
    }
    if (std::string(name) == "qft") {
      // After a qubit's last sx only phases, CX and rz follow: its
      // coherence never reaches the diagonal.
      EXPECT_LT(live, elements);
    }
  }
}

TEST(SuffixResponse, PruningMovesNoResponseByteOnDoubleFaults) {
  const auto spec = quick_spec("bv", 3);
  const auto transpiled = campaign_transpile(spec);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto pairs = campaign_point_neighbor_pairs(spec);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [point, neighbor] : pairs) {
    const auto snapshot =
        backend.prepare_prefix(transpiled.circuit, point.split_index());
    const circ::Instruction injected[] = {
        PhaseShiftFault{0.7, 1.9}.as_instruction(point.qubit),
        PhaseShiftFault{0.3, 2.6}.as_instruction(neighbor)};
    const auto [pruned, full] =
        expect_pruning_moves_no_byte(backend, *snapshot, injected);
    EXPECT_EQ(full, 256u);
  }
}

TEST(SuffixResponse, AnSxOnTheTargetAfterTheSlotIsNeverPruned) {
  // Fault slot on qubit 0 after its first sx. With only CX (qubit 0 the
  // control) and rz left on it, every a != b element is proven zero; one
  // more sx on it rotates coherence back into populations, and nothing is.
  const auto circuit = [](bool trailing_sx) {
    circ::QuantumCircuit qc(2, 2);
    qc.sx(0).sx(1).cx(0, 1).rz(0.4, 0).cx(0, 1);
    if (trailing_sx) qc.sx(0);
    qc.measure(0, 0).measure(1, 1);
    return qc;
  };
  const circ::Instruction injected[] = {
      PhaseShiftFault{0.7, 1.9}.as_instruction(0)};
  for (const bool noisy : {false, true}) {
    SCOPED_TRACE(noisy ? "noisy" : "ideal");
    backend::DensityMatrixBackend backend(
        noisy ? noise::NoiseModel::from_backend(quick_spec().backend, 1.0)
              : noise::NoiseModel::ideal());
    const auto open = backend.prepare_prefix(circuit(true), 1);
    EXPECT_EQ(expect_pruning_moves_no_byte(backend, *open, injected).first,
              16u);
    const auto closed = backend.prepare_prefix(circuit(false), 1);
    EXPECT_EQ(expect_pruning_moves_no_byte(backend, *closed, injected).first,
              8u);
  }
}

// ---- tree engine vs full re-simulation, response path active --------------

using testing_oracle::expect_campaigns_match;
using testing_oracle::resimulated;

TEST(TreeEquivalence, SingleFaultCampaignsMatchOnPaperCircuits) {
  const std::pair<const char*, int> circuits[] = {
      {"bv", 4}, {"dj", 3}, {"qft", 3}};
  for (const auto& [name, width] : circuits) {
    auto spec = quick_spec(name, width);
    spec.grid.theta_step_deg = 30.0;  // large enough for the response path
    spec.grid.phi_step_deg = 30.0;
    spec.max_points = 6;

    SCOPED_TRACE(name);
    expect_campaigns_match(run_single_fault_campaign(spec),
                         resimulated(spec, run_single_fault_campaign), 1e-9);
  }
}

TEST(TreeEquivalence, DoubleFaultCampaignsMatchWithResponseActive) {
  auto spec = quick_spec("bv", 4);
  spec.grid.theta_step_deg = 45.0;  // 5x8 primary grid: 540 pair configs,
  spec.grid.phi_step_deg = 45.0;    // above the 2q response threshold
  spec.max_points = 3;
  expect_campaigns_match(run_double_fault_campaign(spec),
                         resimulated(spec, run_double_fault_campaign), 1e-9);
}

TEST(TreeEquivalence, ChunkedLanesAndSampledCampaignsMatch) {
  const auto bench = algo::ghz(3);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 90.0;
  spec.threads = 16;  // more lanes than points
  spec.max_points = 8;
  spec.shots = 128;
  expect_campaigns_match(run_single_fault_campaign(spec),
                         resimulated(spec, run_single_fault_campaign), 1e-9);
}

TEST(TreeEquivalence, DoubleFaultSubsetsUnionToTheFullRun) {
  // Different shards walk different chains over the same circuit; the
  // derived snapshots must make that invisible in the records.
  auto spec = quick_spec("bv", 4);
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 6;

  const auto full = run_double_fault_campaign(spec);
  const std::size_t evens[] = {0, 2, 4};
  const std::size_t odds[] = {1, 3, 5};
  const auto a = run_double_fault_campaign_subset(spec, evens);
  const auto b = run_double_fault_campaign_subset(spec, odds);

  ASSERT_EQ(a.records.size() + b.records.size(), full.records.size());
  std::size_t ia = 0, ib = 0;
  for (const auto& rec : full.records) {
    const auto& shard =
        rec.point_index % 2 == 0 ? a.records[ia++] : b.records[ib++];
    ASSERT_EQ(shard.point_index, rec.point_index);
    ASSERT_EQ(shard.neighbor_qubit, rec.neighbor_qubit);
    EXPECT_EQ(shard.qvf, rec.qvf);
    EXPECT_EQ(shard.pa, rec.pa);
    EXPECT_EQ(shard.pb, rec.pb);
  }
}

TEST(TreeEquivalence, EmptyNeighborPointsYieldNoRecordsAndNoCrash) {
  // A one-qubit-wide circuit maps a single logical qubit, so no coupled
  // neighbor carries an active logical qubit and every double-fault point
  // has an empty secondary set: the tree engine must skip those nodes
  // without materializing snapshots, and the subset run must return
  // metadata with zero records.
  circ::QuantumCircuit qc(1, 1);
  qc.set_name("lonely");
  qc.h(0).rz(0.5, 0).h(0);
  qc.measure(0, 0);

  CampaignSpec spec;
  spec.circuit = qc;
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.threads = 2;

  const auto points = campaign_points(spec);
  ASSERT_FALSE(points.empty());
  std::vector<std::size_t> all(points.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  const auto result = run_double_fault_campaign_subset(spec, all);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.meta.executions, 0u);
  EXPECT_EQ(result.points.size(), points.size());
}

// ---- head relay between chains ---------------------------------------------

/// Forwards every call to `inner` and counts the prepares and extensions
/// the engine asks for. With `throw_at` set, an extension to that prefix
/// length throws instead.
class CountingBackend final : public backend::Backend {
 public:
  explicit CountingBackend(backend::Backend& inner,
                           std::optional<std::size_t> throw_at = {})
      : inner_(inner), throw_at_(throw_at) {}

  std::string name() const override { return inner_.name(); }
  bool supports_checkpointing() const override {
    return inner_.supports_checkpointing();
  }
  backend::ExecutionResult run(const circ::QuantumCircuit& circuit,
                               std::uint64_t shots,
                               std::uint64_t seed) override {
    return inner_.run(circuit, shots, seed);
  }
  backend::PrefixSnapshotPtr prepare_prefix(
      const circ::QuantumCircuit& circuit, std::size_t prefix_length,
      std::uint64_t shots_hint, std::uint64_t snapshot_seed) override {
    ++prepares;
    return inner_.prepare_prefix(circuit, prefix_length, shots_hint,
                                 snapshot_seed);
  }
  backend::PrefixSnapshotPtr extend_snapshot(
      const backend::PrefixSnapshot& parent, std::size_t from_gate,
      std::size_t to_gate, std::uint64_t shots_hint,
      std::uint64_t snapshot_seed) override {
    if (throw_at_ && *throw_at_ == to_gate) {
      throw Error("counting backend: extension to " +
                  std::to_string(to_gate) + " failed");
    }
    ++extends;
    return inner_.extend_snapshot(parent, from_gate, to_gate, shots_hint,
                                  snapshot_seed);
  }
  backend::ExecutionResult run_suffix(
      const backend::PrefixSnapshot& snapshot,
      std::span<const circ::Instruction> injected, std::uint64_t shots,
      std::uint64_t seed) override {
    return inner_.run_suffix(snapshot, injected, shots, seed);
  }
  std::vector<backend::ExecutionResult> run_suffix_batch(
      const backend::PrefixSnapshot& snapshot,
      std::span<const backend::SuffixConfig> configs,
      std::uint64_t shots) override {
    return inner_.run_suffix_batch(snapshot, configs, shots);
  }

  std::atomic<std::size_t> prepares{0};
  std::atomic<std::size_t> extends{0};

 private:
  backend::Backend& inner_;
  std::optional<std::size_t> throw_at_;
};

backend::DensityMatrixBackend density_for(const CampaignSpec& spec) {
  return backend::DensityMatrixBackend(
      noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
      spec.idle_noise);
}

/// Unique split indices among the points `indices` selects.
std::size_t unique_splits(const std::vector<InjectionPoint>& points,
                          std::span<const std::size_t> indices) {
  std::set<std::size_t> splits;
  for (const std::size_t p : indices) splits.insert(points[p].split_index());
  return splits.size();
}

std::vector<std::size_t> every_point(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

/// Runs `run` on `spec` through a CountingBackend over `inner` and checks
/// the sweep's snapshot walk: one prepare when any split has work, and one
/// snapshot, prepared or extended, per unique split with work.
void expect_one_walk(CampaignSpec spec, backend::Backend& inner,
                     std::size_t splits_with_work,
                     const std::function<void(const CampaignSpec&)>& run) {
  CountingBackend counting(inner);
  spec.backend_override = &counting;
  run(spec);
  EXPECT_EQ(counting.prepares.load(), splits_with_work == 0 ? 0u : 1u);
  EXPECT_EQ(counting.prepares.load() + counting.extends.load(),
            splits_with_work);
}

TEST(TreeRelay, EverySweepPreparesItsPrefixOnce) {
  const auto named = gate_equivalent_faults();
  for (const char* name : {"bv", "dj", "qft"}) {
    SCOPED_TRACE(name);
    auto exhaustive = quick_spec(name, 4);
    exhaustive.threads = 4;
    auto adaptive = exhaustive;
    adaptive.grid.theta_step_deg = 30.0;  // 84 configs: the estimator
    adaptive.grid.phi_step_deg = 30.0;    // evaluates a subset
    adaptive.adaptive = AdaptivePolicy{};
    auto density = density_for(exhaustive);
    const auto points = campaign_points(exhaustive);
    const auto all = every_point(points.size());
    ASSERT_LT(unique_splits(points, all), points.size());  // splits shared

    {
      SCOPED_TRACE("named-fault");
      expect_one_walk(exhaustive, density, unique_splits(points, all),
                      [&](const CampaignSpec& spec) {
                        (void)run_named_fault_campaign(spec, named);
                      });
    }
    for (const CampaignSpec& spec : {exhaustive, adaptive}) {
      SCOPED_TRACE(spec.adaptive ? "adaptive" : "exhaustive");
      expect_one_walk(spec, density, unique_splits(points, all),
                      [](const CampaignSpec& run_spec) {
                        ASSERT_FALSE(
                            run_single_fault_campaign(run_spec).records.empty());
                      });
      // Each shard of a 12-way cost plan is its own sweep over its subset.
      const auto plan =
          dist::plan_campaign_shards(spec, 12);
      ASSERT_EQ(plan.shards.size(), 12u);
      for (const auto& shard : plan.shards) {
        SCOPED_TRACE("shard " + std::to_string(shard.shard_index));
        expect_one_walk(spec, density,
                        unique_splits(points, shard.point_indices),
                        [&](const CampaignSpec& run_spec) {
                          (void)run_single_fault_campaign_subset(
                              run_spec, shard.point_indices);
                        });
      }
    }
  }
}

/// Five qubits on a trivial layout: physical qubit 4's only coupled
/// neighbor (5) holds no logical qubit, so double-fault points on qubit 4
/// have no work. Gates on qubit 0 (coupled to the active qubit 1) surround
/// a longer run on qubit 4, so the chains in the middle of the sweep have
/// no work at all and must hand the trunk on.
CampaignSpec hollow_double_spec() {
  circ::QuantumCircuit qc(5, 5);
  qc.set_name("hollow");
  for (int k = 0; k < 6; ++k) qc.x(0);
  for (int k = 0; k < 18; ++k) qc.x(4);
  for (int k = 0; k < 6; ++k) qc.x(0);
  for (int q = 0; q < 5; ++q) qc.measure(q, q);

  CampaignSpec spec;
  spec.circuit = qc;
  spec.transpile_options.optimization_level = 0;
  spec.transpile_options.layout_method = transpile::LayoutMethod::Trivial;
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  return spec;
}

TEST(TreeRelay, ChainsWithoutWorkPassTheTrunkOn) {
  auto spec = hollow_double_spec();
  const auto transpiled = campaign_transpile(spec);
  const auto coupling = transpile::CouplingMap::from_backend(spec.backend);
  const auto points = campaign_points(spec);
  // The shape the test relies on: work, then a run without, then work.
  std::vector<bool> work;
  for (const auto& point : points) {
    work.push_back(!neighbor_candidates(transpiled, coupling, point).empty());
  }
  ASSERT_GE(work.size(), 30u);
  ASSERT_TRUE(work.front());
  ASSERT_TRUE(work.back());
  ASSERT_GE(std::count(work.begin(), work.end(), false), 18);
  std::vector<std::size_t> with_work;
  for (std::size_t p = 0; p < work.size(); ++p) {
    if (work[p]) with_work.push_back(p);
  }

  auto density = density_for(spec);
  spec.threads = 1;
  const auto reference = run_double_fault_campaign(spec);
  ASSERT_FALSE(reference.records.empty());
  for (int threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    CountingBackend counting(density);
    spec.backend_override = &counting;
    spec.threads = threads;
    const auto result = run_double_fault_campaign(spec);
    EXPECT_EQ(counting.prepares.load(), 1u);
    // Splits without work are jumped, never materialized.
    EXPECT_EQ(counting.prepares.load() + counting.extends.load(),
              unique_splits(points, with_work));
    test_support::expect_same_records(result.records, reference.records);

    // A subset that starts at the run without work: its leading chains
    // pass on nothing, and the first chain with work prepares the trunk.
    CountingBackend tail(density);
    spec.backend_override = &tail;
    const std::size_t idle_from = static_cast<std::size_t>(
        std::find(work.begin(), work.end(), false) - work.begin());
    const std::size_t work_from = static_cast<std::size_t>(
        std::find(work.begin() + static_cast<std::ptrdiff_t>(idle_from),
                  work.end(), true) -
        work.begin());
    std::vector<std::size_t> subset;
    for (std::size_t p = idle_from; p < points.size(); ++p) {
      subset.push_back(p);
    }
    const auto partial = run_double_fault_campaign_subset(spec, subset);
    EXPECT_EQ(tail.prepares.load(), 1u);
    ASSERT_FALSE(partial.records.empty());
    EXPECT_EQ(partial.records.front().point_index, work_from);
  }
}

TEST(TreeRelay, AFailedExtensionIsRethrownNotHung) {
  auto spec = quick_spec("qft", 4);
  const auto points = campaign_points(spec);
  ASSERT_GE(points.size(), 8u);
  auto density = density_for(spec);
  const auto named = gate_equivalent_faults();
  const std::pair<const char*, std::function<void(const CampaignSpec&)>>
      kinds[] = {
          {"exhaustive",
           [](const CampaignSpec& s) { (void)run_single_fault_campaign(s); }},
          {"adaptive",
           [](CampaignSpec s) {
             s.adaptive = AdaptivePolicy{};
             (void)run_single_fault_campaign(s);
           }},
          {"named-fault",
           [&](const CampaignSpec& s) {
             (void)run_named_fault_campaign(s, named);
           }},
      };
  for (const auto& [kind, run] : kinds) {
    for (const std::size_t victim : {std::size_t{1}, points.size() / 2,
                                     points.size() - 1}) {
      for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE(std::string(kind) + ": " + std::to_string(victim) +
                     " at " + std::to_string(threads));
        const std::size_t split = points[victim].split_index();
        if (split == points.front().split_index()) continue;  // the root
        CountingBackend failing(density, split);
        spec.backend_override = &failing;
        spec.threads = threads;
        try {
          run(spec);
          ADD_FAILURE() << "the failed extension was swallowed";
        } catch (const Error& e) {
          EXPECT_EQ(std::string(e.what()), "counting backend: extension to " +
                                               std::to_string(split) +
                                               " failed");
        }
      }
    }
  }
}

/// Records and per-point estimates of `spec` as one sweep, or as the 12
/// subsets of a cost plan merged in ascending point order.
CampaignResult relay_run(const CampaignSpec& spec, bool sharded) {
  if (!sharded) return run_single_fault_campaign(spec);
  const auto plan =
      dist::plan_campaign_shards(spec, 12);
  CampaignResult merged;
  for (const auto& shard : plan.shards) {
    const auto part = run_single_fault_campaign_subset(spec,
                                                       shard.point_indices);
    merged.records.insert(merged.records.end(), part.records.begin(),
                          part.records.end());
    merged.point_estimates.resize(part.point_estimates.size());
    for (const std::size_t p : shard.point_indices) {
      if (p < part.point_estimates.size()) {
        merged.point_estimates[p] = part.point_estimates[p];
      }
    }
  }
  std::stable_sort(merged.records.begin(), merged.records.end(),
                   [](const InjectionRecord& a, const InjectionRecord& b) {
                     return a.point_index < b.point_index;
                   });
  return merged;
}

/// memcmp equality of two vectors of padding-free values.
template <typename T>
void expect_same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // memcmp must not see an empty vector's null data
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

TEST(TreeRelay, RecordsAreIdenticalAcrossThreadsAndShards) {
  // Six index columns and three doubles, and a count and two doubles: no
  // padding, so memcmp compares exactly the record and estimate bits.
  static_assert(sizeof(InjectionRecord) == 6 * 4 + 3 * 8);
  static_assert(sizeof(AdaptivePointEstimate) == 3 * 8);
  for (const char* kind : {"density", "density+idle", "trajectory",
                           "adaptive density", "adaptive trajectory"}) {
    SCOPED_TRACE(kind);
    const std::string k = kind;
    auto spec = quick_spec("bv", 4);
    spec.max_points = 16;  // still more points than shards
    std::optional<backend::TrajectoryBackend> trajectory;
    if (k == "density+idle") spec.idle_noise = true;
    if (k.ends_with("trajectory")) {
      trajectory.emplace(noise::NoiseModel::from_backend(spec.backend));
      spec.backend_override = &*trajectory;
      spec.shots = 16;
    }
    if (k.starts_with("adaptive")) {
      spec.grid.theta_step_deg = 30.0;  // 84 configs: the estimator
      spec.grid.phi_step_deg = 30.0;    // evaluates a subset
      spec.adaptive = AdaptivePolicy{};
    }
    spec.threads = 1;
    const auto reference = relay_run(spec, false);
    ASSERT_FALSE(reference.records.empty());
    ASSERT_EQ(reference.point_estimates.empty(), !spec.adaptive);
    for (int threads = 1; threads <= 4; ++threads) {
      for (const bool sharded : {false, true}) {
        SCOPED_TRACE(std::to_string(threads) +
                     (sharded ? " threads, 12 shards" : " threads"));
        spec.threads = threads;
        const auto result = relay_run(spec, sharded);
        expect_same_bytes(result.records, reference.records);
        expect_same_bytes(result.point_estimates, reference.point_estimates);
      }
    }
  }
}

}  // namespace
}  // namespace qufi
