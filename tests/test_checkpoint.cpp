// Prefix-checkpointed execution tests: the two-phase backend API, campaign
// equivalence against full re-simulation (the ResimulatingBackend oracle),
// integer point striding, and thread-pool exception short-circuiting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "backend/ideal_backend.hpp"
#include "backend/trajectory_backend.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "core/qvf.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "resimulating_backend.hpp"
#include "support/campaign_fixtures.hpp"
#include "util/thread_pool.hpp"

namespace qufi {
namespace {

using test_support::quick_spec;

// ---- integer striding ------------------------------------------------------

std::vector<InjectionPoint> synthetic_points(std::size_t n) {
  std::vector<InjectionPoint> points(n);
  for (std::size_t i = 0; i < n; ++i) points[i].instr_index = i;
  return points;
}

TEST(StridePoints, ExactCountNoDuplicatesNoSkipsPastEnd) {
  const std::size_t n = 100000;
  const auto points = synthetic_points(n);
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{312},
                              std::size_t{49999}, std::size_t{99999},
                              std::size_t{100000}}) {
    const auto kept = stride_points(points, m);
    ASSERT_EQ(kept.size(), std::min(m, n)) << "max_points=" << m;
    // Strictly increasing source indices: no duplicate, no out-of-range.
    for (std::size_t k = 0; k < kept.size(); ++k) {
      ASSERT_LT(kept[k].instr_index, n);
      if (k > 0) {
        ASSERT_GT(kept[k].instr_index, kept[k - 1].instr_index)
            << "duplicate/skip at k=" << k << " max_points=" << m;
      }
    }
    // First point is always kept; coverage reaches the tail of the list.
    EXPECT_EQ(kept.front().instr_index, 0u);
    EXPECT_GE(kept.back().instr_index, (m - 1) * n / m);
  }
}

TEST(StridePoints, ZeroOrLargeBudgetKeepsAll) {
  const auto points = synthetic_points(17);
  EXPECT_EQ(stride_points(points, 0).size(), 17u);
  EXPECT_EQ(stride_points(points, 17).size(), 17u);
  EXPECT_EQ(stride_points(points, 1000).size(), 17u);
}

// ---- thread-pool short-circuiting ------------------------------------------

TEST(ThreadPoolCheckpoint, SingleLaneStopsClaimingAfterException) {
  util::ThreadPool pool(1);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          ++executed;
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // One lane claims in order; after i == 3 fails it must bail, not run the
  // remaining 96 iterations.
  EXPECT_EQ(executed.load(), 4u);
}

TEST(ThreadPoolCheckpoint, AllLanesBailAfterFirstFailure) {
  util::ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.parallel_for(10000,
                                 [&](std::size_t) {
                                   ++executed;
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Each lane executes at most one iteration before seeing the flag.
  EXPECT_LE(executed.load(), 4u);
  EXPECT_GE(executed.load(), 1u);
}

// ---- backend-level prefix/suffix equivalence -------------------------------

TEST(PrefixCheckpoint, DensityRunSuffixMatchesFullRun) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  ASSERT_GE(points.size(), 3u);

  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  ASSERT_TRUE(backend.supports_checkpointing());

  const PhaseShiftFault fault{0.3, 1.1};
  for (const std::size_t p :
       {std::size_t{0}, points.size() / 2, points.size() - 1}) {
    const InjectionPoint& point = points[p];
    const auto full = backend.run(
        inject_fault(transpiled.circuit, point, fault), 0, 42);

    const auto snapshot =
        backend.prepare_prefix(transpiled.circuit, point.split_index());
    const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
    const auto resumed = backend.run_suffix(*snapshot, injected, 0, 42);

    ASSERT_EQ(resumed.probabilities.size(), full.probabilities.size());
    for (std::size_t s = 0; s < full.probabilities.size(); ++s) {
      EXPECT_NEAR(resumed.probabilities[s], full.probabilities[s], 1e-12)
          << "point " << p << " state " << s;
    }
  }
}

TEST(PrefixCheckpoint, IdleNoiseSnapshotsAreMomentAwareAndExact) {
  // The moment-aware snapshot contract: under idle_noise the backend now
  // *does* checkpoint (the snapshot captures exactly the sealed moments at
  // the split), and resuming is bit-identical to a full run of the spliced
  // circuit — the same moment schedule, the same idle channels.
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0), /*idle_noise=*/true);
  EXPECT_TRUE(backend.supports_checkpointing());

  for (const std::size_t p :
       {std::size_t{0}, points.size() / 2, points.size() - 1}) {
    const InjectionPoint& point = points[p];
    const PhaseShiftFault fault{1.2, 0.4};
    const auto full =
        backend.run(inject_fault(transpiled.circuit, point, fault), 0, 7);
    const auto snapshot =
        backend.prepare_prefix(transpiled.circuit, point.split_index());
    const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
    const auto resumed = backend.run_suffix(*snapshot, injected, 0, 7);
    ASSERT_EQ(resumed.probabilities.size(), full.probabilities.size());
    EXPECT_EQ(resumed.probabilities, full.probabilities) << "point " << p;
  }
}

TEST(PrefixCheckpoint, IdleNoiseExtendMatchesFromScratchBitExactly) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0), /*idle_noise=*/true);

  // Chain across every consecutive split pair; each hop must land on the
  // same state a from-scratch prepare reaches (sealed moments only).
  backend::PrefixSnapshotPtr chained =
      backend.prepare_prefix(transpiled.circuit, points[0].split_index());
  for (std::size_t p = 1; p < points.size(); ++p) {
    if (points[p].split_index() == chained->prefix_length()) continue;
    chained = backend.extend_snapshot(*chained, chained->prefix_length(),
                                      points[p].split_index());
    const auto scratch =
        backend.prepare_prefix(transpiled.circuit, points[p].split_index());
    const PhaseShiftFault fault{0.9, 2.2};
    const circ::Instruction injected[] = {fault.as_instruction(points[p].qubit)};
    const auto a = backend.run_suffix(*chained, injected, 0, 3);
    const auto b = backend.run_suffix(*scratch, injected, 0, 3);
    EXPECT_EQ(a.probabilities, b.probabilities) << "split "
                                                << points[p].split_index();
  }
}

TEST(PrefixCheckpoint, IdleNoiseBatchMatchesSuffixWithinQvfBound) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0), /*idle_noise=*/true);
  const InjectionPoint& point = points[points.size() / 2];
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());

  // Cross the 1q response threshold so the fast path (idle channels folded
  // into the basis replays) is what gets compared, not just the replay.
  std::vector<backend::SuffixConfig> configs;
  for (int k = 0; k < 48; ++k) {
    configs.push_back(backend::SuffixConfig{
        {PhaseShiftFault{0.06 * k, 0.13 * k}.as_instruction(point.qubit)},
        static_cast<std::uint64_t>(k)});
  }
  const auto batched = backend.run_suffix_batch(*snapshot, configs, 0);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto sequential =
        backend.run_suffix(*snapshot, configs[c].injected, 0, configs[c].seed);
    for (std::size_t s = 0; s < sequential.probabilities.size(); ++s) {
      EXPECT_NEAR(batched[c].probabilities[s], sequential.probabilities[s],
                  1e-9)
          << "config " << c << " state " << s;
    }
  }
}

TEST(PrefixCheckpoint, BaseSpliceFallbackMatchesRunOnIdealBackend) {
  const auto bench = algo::ghz(3);
  const auto points = enumerate_injection_points(
      bench.circuit, InjectionStrategy::OperandsAfterEachGate);
  ASSERT_FALSE(points.empty());
  backend::IdealBackend backend;
  EXPECT_FALSE(backend.supports_checkpointing());

  const InjectionPoint& point = points.front();
  const PhaseShiftFault fault{0.8, 2.0};
  const auto full =
      backend.run(inject_fault(bench.circuit, point, fault), 0, 1);
  const auto snapshot =
      backend.prepare_prefix(bench.circuit, point.split_index());
  const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
  const auto resumed = backend.run_suffix(*snapshot, injected, 0, 1);
  ASSERT_EQ(resumed.probabilities.size(), full.probabilities.size());
  for (std::size_t s = 0; s < full.probabilities.size(); ++s) {
    EXPECT_NEAR(resumed.probabilities[s], full.probabilities[s], 1e-15);
  }
}

TEST(PrefixCheckpoint, IdentityFaultReproducesFaultFreeRun) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto clean = backend.run(transpiled.circuit, 0, 5);

  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  const InjectionPoint& point = points[points.size() / 3];
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());
  const PhaseShiftFault identity{0.0, 0.0};
  const circ::Instruction injected[] = {identity.as_instruction(point.qubit)};
  const auto resumed = backend.run_suffix(*snapshot, injected, 0, 5);
  ASSERT_EQ(resumed.probabilities.size(), clean.probabilities.size());
  for (std::size_t s = 0; s < clean.probabilities.size(); ++s) {
    // The injected U(0, 0) still passes through the noisy-gate channel, so
    // allow a small deviation from the gate-free clean run.
    EXPECT_NEAR(resumed.probabilities[s], clean.probabilities[s], 5e-3);
  }
}

// ---- campaign engine vs full re-simulation (the acceptance property) -------

using testing_oracle::expect_campaigns_match;
using testing_oracle::resimulated;

TEST(CheckpointEquivalence, SingleFaultCampaignsMatchOnPaperCircuits) {
  const std::pair<const char*, int> circuits[] = {
      {"bv", 4}, {"dj", 3}, {"qft", 3}};
  for (const auto& [name, width] : circuits) {
    auto spec = quick_spec(name, width);
    spec.max_points = 10;  // multiple injection points across the circuit

    SCOPED_TRACE(name);
    expect_campaigns_match(run_single_fault_campaign(spec),
                         resimulated(spec, run_single_fault_campaign), 1e-9);
  }
}

TEST(CheckpointEquivalence, GhzCampaignMatches) {
  const auto bench = algo::ghz(3);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 90.0;
  // More workers than points exercises the chunk fan-out (stored snapshots,
  // chunks spread across lanes).
  spec.threads = 16;
  spec.max_points = 8;
  expect_campaigns_match(run_single_fault_campaign(spec),
                         resimulated(spec, run_single_fault_campaign), 1e-9);
}

TEST(CheckpointEquivalence, DoubleFaultCampaignsMatch) {
  auto spec = quick_spec("bv", 4);
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 6;
  expect_campaigns_match(run_double_fault_campaign(spec),
                         resimulated(spec, run_double_fault_campaign), 1e-9);
}

TEST(CheckpointEquivalence, IdleNoiseCampaignsMatchOnPaperCircuits) {
  // Idle-noise campaigns run the moment-aware snapshot tree and must match
  // the full re-simulation of every faulty circuit within the 1e-9 QVF
  // bound, on more than one paper circuit.
  const std::pair<const char*, int> circuits[] = {
      {"bv", 4}, {"dj", 3}, {"qft", 3}};
  for (const auto& [name, width] : circuits) {
    auto spec = quick_spec(name, width);
    spec.max_points = 10;
    spec.idle_noise = true;

    SCOPED_TRACE(name);
    const auto engine = run_single_fault_campaign(spec);
    EXPECT_TRUE(engine.meta.idle_noise);
    expect_campaigns_match(
        engine, resimulated(spec, run_single_fault_campaign), 1e-9);
  }
}

TEST(CheckpointEquivalence, IdleNoiseDoubleFaultCampaignMatches) {
  auto spec = quick_spec("bv", 4);
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 6;
  spec.idle_noise = true;
  expect_campaigns_match(run_double_fault_campaign(spec),
                         resimulated(spec, run_double_fault_campaign), 1e-9);
}

TEST(CheckpointEquivalence, SampledCampaignsMatchBitExactly) {
  // With shots > 0 the density backend samples from the exact distribution
  // using the per-config seed; the snapshot tree must not disturb the
  // stream.
  auto spec = quick_spec("bv", 4);
  spec.shots = 128;
  spec.max_points = 5;
  expect_campaigns_match(run_single_fault_campaign(spec),
                         resimulated(spec, run_single_fault_campaign), 1e-12);
}

TEST(CheckpointEquivalence, NamedFaultCampaignMatches) {
  auto spec = quick_spec("bv", 4);
  spec.max_points = 6;
  const auto faults = gate_equivalent_faults();
  const auto named = [&](const CampaignSpec& s) {
    return run_named_fault_campaign(s, faults);
  };

  const auto engine = named(spec);
  const auto reference = resimulated(spec, named);
  ASSERT_EQ(engine.size(), reference.size());
  for (std::size_t f = 0; f < engine.size(); ++f) {
    EXPECT_EQ(engine[f].fault_name, reference[f].fault_name);
    EXPECT_EQ(engine[f].executions, reference[f].executions);
    EXPECT_NEAR(engine[f].mean_qvf, reference[f].mean_qvf, 1e-9);
  }
}

// ---- batched suffix execution (run_suffix_batch) ---------------------------

TEST(BatchApi, EmptyConfigBatchReturnsNoResults) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto snapshot = backend.prepare_prefix(
      transpiled.circuit, points.front().split_index());
  EXPECT_TRUE(backend.run_suffix_batch(*snapshot, {}, 0).empty());
}

TEST(BatchApi, SingleConfigBatchMatchesRunSuffix) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const InjectionPoint& point = points[points.size() / 2];
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());

  const PhaseShiftFault fault{0.7, 2.2};
  const backend::SuffixConfig config{{fault.as_instruction(point.qubit)}, 42};
  const auto batched = backend.run_suffix_batch(*snapshot, {&config, 1}, 0);
  ASSERT_EQ(batched.size(), 1u);

  const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
  const auto sequential = backend.run_suffix(*snapshot, injected, 0, 42);
  ASSERT_EQ(batched[0].probabilities.size(), sequential.probabilities.size());
  for (std::size_t s = 0; s < sequential.probabilities.size(); ++s) {
    EXPECT_NEAR(batched[0].probabilities[s], sequential.probabilities[s], 1e-12)
        << "state " << s;
  }
}

TEST(BatchApi, GridBatchMatchesSequentialRunSuffixPerConfig) {
  const auto spec = quick_spec("dj", 3);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  backend::DensityMatrixBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const InjectionPoint& point = points[points.size() / 3];
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index());

  std::vector<backend::SuffixConfig> configs;
  for (const auto& fault : spec.grid.enumerate()) {
    configs.push_back(backend::SuffixConfig{
        {fault.as_instruction(point.qubit)}, configs.size()});
  }
  const auto batched = backend.run_suffix_batch(*snapshot, configs, 0);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto sequential = backend.run_suffix(
        *snapshot, configs[c].injected, 0, configs[c].seed);
    for (std::size_t s = 0; s < sequential.probabilities.size(); ++s) {
      EXPECT_NEAR(batched[c].probabilities[s], sequential.probabilities[s],
                  1e-12)
          << "config " << c << " state " << s;
    }
  }
}

TEST(BatchApi, BaseFallbackLoopsRunSuffix) {
  const auto bench = algo::ghz(3);
  const auto points = enumerate_injection_points(
      bench.circuit, InjectionStrategy::OperandsAfterEachGate);
  backend::IdealBackend backend;  // no checkpointing: base splice fallback
  const InjectionPoint& point = points.front();
  const auto snapshot =
      backend.prepare_prefix(bench.circuit, point.split_index());

  const PhaseShiftFault faults[] = {{0.4, 0.9}, {1.3, 2.6}};
  std::vector<backend::SuffixConfig> configs;
  for (const auto& fault : faults) {
    configs.push_back(backend::SuffixConfig{
        {fault.as_instruction(point.qubit)}, configs.size() + 7});
  }
  const auto batched = backend.run_suffix_batch(*snapshot, configs, 0);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto sequential = backend.run_suffix(
        *snapshot, configs[c].injected, 0, configs[c].seed);
    EXPECT_EQ(batched[c].probabilities, sequential.probabilities);
  }
}

TEST(TrajectoryBatch, BitIdenticalToSequentialRunSuffix) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  const InjectionPoint& point = points[points.size() / 2];
  const std::uint64_t shots = 256;

  backend::TrajectoryBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index(), shots);

  const PhaseShiftFault faults[] = {{0.5, 1.0}, {1.5, 0.25}, {2.8, 3.0}};
  std::vector<backend::SuffixConfig> configs;
  for (const auto& fault : faults) {
    configs.push_back(backend::SuffixConfig{
        {fault.as_instruction(point.qubit)}, 1000 + configs.size()});
  }
  const auto batched = backend.run_suffix_batch(*snapshot, configs, shots);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    // Common random numbers: the batched sweep resumes the same cached
    // prefix trajectories with the same per-config suffix streams, so the
    // counts are exactly equal, not just distribution-close.
    const auto sequential = backend.run_suffix(
        *snapshot, configs[c].injected, shots, configs[c].seed);
    EXPECT_EQ(batched[c].probabilities, sequential.probabilities)
        << "config " << c;
    EXPECT_EQ(batched[c].counts, sequential.counts) << "config " << c;
  }
}

// ---- trajectory checkpointing ----------------------------------------------

TEST(TrajectoryCheckpoint, SuffixDistributionTracksFullRun) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  const InjectionPoint& point = points[points.size() / 2];
  const PhaseShiftFault fault{0.5, 1.0};
  const std::uint64_t shots = 512;

  backend::TrajectoryBackend backend(
      noise::NoiseModel::from_backend(spec.backend, 1.0));
  ASSERT_TRUE(backend.supports_checkpointing());

  const auto full = backend.run(
      inject_fault(transpiled.circuit, point, fault), shots, 99);
  const auto snapshot =
      backend.prepare_prefix(transpiled.circuit, point.split_index(), shots);
  const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
  const auto resumed = backend.run_suffix(*snapshot, injected, shots, 99);

  // Prefix randomness is shared across run_suffix calls (common random
  // numbers), so the comparison is distributional, not bit-exact.
  ASSERT_EQ(resumed.probabilities.size(), full.probabilities.size());
  double tv = 0.0;
  for (std::size_t s = 0; s < full.probabilities.size(); ++s) {
    tv += std::abs(resumed.probabilities[s] - full.probabilities[s]);
  }
  EXPECT_LT(tv / 2.0, 0.15) << "total variation distance too large";

  // Same snapshot + seed must be exactly reproducible.
  const auto again = backend.run_suffix(*snapshot, injected, shots, 99);
  EXPECT_EQ(again.probabilities, resumed.probabilities);
}

}  // namespace
}  // namespace qufi
