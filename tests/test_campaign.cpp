// Campaign tests: injection-point enumeration, faulty-circuit construction,
// single/double campaigns, determinism, aggregations, reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numbers>
#include <span>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "backend/hardware_backend.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "core/report.hpp"
#include "core/results.hpp"
#include "noise/noise_model.hpp"
#include "sim/statevector.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/test_files.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi {
namespace {

using test_support::quick_spec;

constexpr double kPi = std::numbers::pi;

// -------------------------------------------------------------- injection

TEST(Injection, PointsAfterEachGateOperand) {
  circ::QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
  const auto points =
      enumerate_injection_points(qc, InjectionStrategy::OperandsAfterEachGate);
  // h -> 1 point, cx -> 2 points, measures -> none.
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].qubit, 0);
  EXPECT_EQ(points[1].instr_index, 1u);
  EXPECT_EQ(points[2].qubit, 1);
}

TEST(Injection, MomentStrategyCoversActiveQubits) {
  circ::QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);  // qubit 2 inactive
  const auto points = enumerate_injection_points(
      qc, InjectionStrategy::EveryActiveQubitEveryMoment);
  // 2 gate moments x 2 active qubits; measurement-only moment skipped.
  EXPECT_EQ(points.size(), 4u);
  for (const auto& p : points) EXPECT_NE(p.qubit, 2);
}

TEST(Injection, FaultGateInsertedAfterInstruction) {
  circ::QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  const InjectionPoint point{0, 0, 0, 0};
  const PhaseShiftFault fault{kPi / 4, 0.0};
  const auto faulty = inject_fault(qc, point, fault);
  ASSERT_EQ(faulty.size(), qc.size() + 1);
  EXPECT_EQ(faulty.instructions()[1].kind, circ::GateKind::U);
  EXPECT_DOUBLE_EQ(faulty.instructions()[1].params[0], kPi / 4);
}

TEST(Injection, IdentityFaultPreservesDistribution) {
  const auto bench = algo::bernstein_vazirani(4, 0b101);
  const InjectionPoint point{2, 1, 1, 0};
  const auto faulty =
      inject_fault(bench.circuit, point, PhaseShiftFault{0.0, 0.0});
  const auto p0 = sim::ideal_clbit_probabilities(bench.circuit);
  const auto p1 = sim::ideal_clbit_probabilities(faulty);
  for (std::size_t i = 0; i < p0.size(); ++i) EXPECT_NEAR(p0[i], p1[i], 1e-12);
}

TEST(Injection, ThetaPiFaultFlipsMeasuredQubit) {
  // X-like fault right before measurement flips the output bit.
  circ::QuantumCircuit qc(1, 1);
  qc.i(0);
  qc.measure(0, 0);
  const InjectionPoint point{0, 0, 0, 0};
  const auto faulty = inject_fault(qc, point, PhaseShiftFault{kPi, 0.0});
  const auto probs = sim::ideal_clbit_probabilities(faulty);
  EXPECT_NEAR(probs[1], 1.0, 1e-12);
}

TEST(Injection, DoubleFaultInsertsTwoGates) {
  circ::QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).measure_all();
  const InjectionPoint point{1, 0, 0, 1};
  const auto faulty = inject_double_fault(
      qc, point, PhaseShiftFault{kPi, kPi}, 1, PhaseShiftFault{kPi / 2, 0.0});
  ASSERT_EQ(faulty.size(), qc.size() + 2);
  EXPECT_EQ(faulty.instructions()[2].kind, circ::GateKind::U);
  EXPECT_EQ(faulty.instructions()[3].kind, circ::GateKind::U);
  EXPECT_EQ(faulty.instructions()[3].qubits[0], 1);
  EXPECT_THROW(inject_double_fault(qc, point, PhaseShiftFault{kPi, kPi}, 0,
                                   PhaseShiftFault{0, 0}),
               Error);
}

TEST(Injection, ValidatesRanges) {
  circ::QuantumCircuit qc(2, 2);
  qc.h(0).measure_all();
  EXPECT_THROW(
      inject_fault(qc, InjectionPoint{99, 0, 0, 0}, PhaseShiftFault{}),
      Error);
  EXPECT_THROW(
      inject_fault(qc, InjectionPoint{0, 7, 0, 0}, PhaseShiftFault{}),
      Error);
}

TEST(Injection, NeighborCandidatesFollowCoupling) {
  const auto spec = quick_spec("bv", 4);
  const auto transpiled = campaign_transpile(spec);
  const auto coupling =
      transpile::CouplingMap::from_backend(spec.backend);
  const auto points = enumerate_injection_points(
      transpiled, InjectionStrategy::OperandsAfterEachGate);
  ASSERT_FALSE(points.empty());
  for (const auto& p : points) {
    for (int nb : neighbor_candidates(transpiled, coupling, p)) {
      EXPECT_TRUE(coupling.connected(p.qubit, nb));
      EXPECT_GE(transpiled.logical_at(p.instr_index, nb), 0);
    }
  }
}

// -------------------------------------------------------- single campaign

TEST(SingleCampaign, RunsAllConfigs) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const auto points = campaign_points(spec);
  EXPECT_EQ(result.points.size(), points.size());
  EXPECT_EQ(result.records.size(),
            points.size() * static_cast<std::size_t>(spec.grid.num_configs()));
  EXPECT_EQ(result.meta.executions, result.records.size());
  EXPECT_FALSE(result.meta.double_fault);
  for (const auto& r : result.records) {
    EXPECT_GE(r.qvf, 0.0);
    EXPECT_LE(r.qvf, 1.0);
  }
}

TEST(SingleCampaign, IdentityConfigMatchesFaultFree) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  // All (theta=0, phi=0) records equal the fault-free QVF.
  for (const auto& r : result.records) {
    if (r.theta_index == 0 && r.phi_index == 0) {
      EXPECT_NEAR(r.qvf, result.meta.faultfree_qvf, 1e-9);
    }
  }
  // Noise floor: fault-free QVF is small but positive (paper §V-B).
  EXPECT_GT(result.meta.faultfree_qvf, 0.0);
  EXPECT_LT(result.meta.faultfree_qvf, 0.3);
}

// Physics oracle: U(0, phi, 0) = diag(1, e^{i phi}) is a pure phase, and a
// phase on a qubit that no later unitary gate touches commutes with
// everything left before its Z-basis measurement (the noise channels
// included), so it cannot move a single population. Checked on the density
// backend at every such point, for every phi on the paper grid, through the
// same batched suffix path the campaign engine uses, and on the campaign's
// own records.
TEST(PhysicsOracle, PhaseOnlyFaultAfterLastGateLeavesDistributionUnchanged) {
  for (const char* name : {"bv", "dj", "qft"}) {
    SCOPED_TRACE(name);
    auto spec = quick_spec(name, 4);
    spec.grid = FaultParamGrid{};  // the paper's 15-degree grid
    const auto transpiled = campaign_transpile(spec);
    const circ::QuantumCircuit& circuit = transpiled.circuit;
    backend::DensityMatrixBackend backend(
        noise::NoiseModel::from_backend(spec.backend, spec.noise_scale));
    const auto faultfree = backend.run(circuit, 0, 0).probabilities;
    const std::vector<PhaseShiftFault> faults = spec.grid.enumerate();

    const auto last_gate_point = [&](const InjectionPoint& point) {
      for (std::size_t i = point.split_index(); i < circuit.size(); ++i) {
        const circ::Instruction& instr = circuit.instructions()[i];
        if (instr.is_unitary() &&
            std::find(instr.qubits.begin(), instr.qubits.end(),
                      point.qubit) != instr.qubits.end()) {
          return false;
        }
      }
      return true;
    };

    const auto result = run_single_fault_campaign(spec);
    std::size_t oracle_points = 0;
    for (std::size_t p = 0; p < result.points.size(); ++p) {
      const InjectionPoint& point = result.points[p];
      if (!last_gate_point(point)) continue;
      ++oracle_points;
      // The whole grid in one batch, so the suffix-response path serves it
      // exactly as in a campaign; only the theta = 0 row is checked.
      std::vector<backend::SuffixConfig> configs;
      for (const PhaseShiftFault& fault : faults) {
        configs.push_back({{fault.as_instruction(point.qubit)}, 0});
      }
      const auto snapshot =
          backend.prepare_prefix(circuit, point.split_index());
      const auto results = backend.run_suffix_batch(*snapshot, configs, 0);
      for (std::size_t k = 0; k < configs.size(); ++k) {
        if (faults[k].theta != 0.0) continue;
        const auto& probs = results[k].probabilities;
        ASSERT_EQ(probs.size(), faultfree.size());
        for (std::size_t o = 0; o < probs.size(); ++o) {
          EXPECT_NEAR(probs[o], faultfree[o], 1e-12)
              << "point " << p << " config " << k << " outcome " << o;
        }
      }
    }
    EXPECT_GT(oracle_points, 0u);

    std::size_t oracle_records = 0;
    for (const InjectionRecord& r : result.records) {
      if (r.theta_index != 0 || !last_gate_point(result.points[r.point_index]))
        continue;
      ++oracle_records;
      EXPECT_NEAR(r.qvf, result.meta.faultfree_qvf, 1e-12)
          << "point " << r.point_index << " phi " << r.phi_index;
    }
    EXPECT_EQ(oracle_records,
              oracle_points * static_cast<std::size_t>(spec.grid.num_phi()));
  }
}

TEST(SingleCampaign, ThetaPiIsWorstRow) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const auto heatmap = result.mean_heatmap();
  // Mean QVF at theta=pi (last column) must exceed theta=0 (first column).
  const int last = static_cast<int>(heatmap.theta_rad.size()) - 1;
  double mean_flip = 0.0, mean_none = 0.0;
  for (std::size_t j = 0; j < heatmap.phi_rad.size(); ++j) {
    mean_flip += heatmap.mean_qvf[j][static_cast<std::size_t>(last)];
    mean_none += heatmap.mean_qvf[j][0];
  }
  EXPECT_GT(mean_flip, mean_none + 0.2);
}

/// Runs the campaign at several thread counts and byte-compares the CSVs:
/// the pool size sets the snapshot-tree chain count (and, above the point
/// count, selects the fan-out branch), so every run walks a differently
/// shaped tree.
void expect_identical_across_thread_counts(
    CampaignSpec spec, CampaignResult (*run)(const CampaignSpec&)) {
  const test_support::TempDir dir("thread_counts");
  std::string reference;
  for (const int threads : {1, 2, 3, 4, 16}) {
    spec.threads = threads;
    const std::string path = dir.str(std::to_string(threads) + ".csv");
    run(spec).write_csv(path);
    const std::string bytes = test_support::slurp(path);
    if (reference.empty()) reference = bytes;
    EXPECT_TRUE(bytes == reference) << threads << " threads";
  }
}

TEST(SingleCampaign, DeterministicAcrossThreadCounts) {
  auto spec = quick_spec();
  spec.shots = 64;  // exercise the sampling path too
  expect_identical_across_thread_counts(spec, run_single_fault_campaign);
}

TEST(DoubleCampaign, CsvBytesIdenticalAcrossThreadCounts) {
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  expect_identical_across_thread_counts(spec, run_double_fault_campaign);
}

TEST(SingleCampaign, IdleNoiseCsvBytesIdenticalAcrossThreadCounts) {
  auto spec = quick_spec();
  spec.idle_noise = true;
  expect_identical_across_thread_counts(spec, run_single_fault_campaign);
}

TEST(SingleCampaign, GoldenFromIdealSimWhenNotProvided) {
  auto spec = quick_spec();
  spec.expected_outputs.clear();
  const auto result = run_single_fault_campaign(spec);
  EXPECT_FALSE(result.records.empty());
  EXPECT_LT(result.meta.faultfree_qvf, 0.3);
}

TEST(SingleCampaign, MaxPointsStrides) {
  auto spec = quick_spec();
  spec.max_points = 3;
  const auto result = run_single_fault_campaign(spec);
  EXPECT_EQ(result.points.size(), 3u);
}

TEST(SingleCampaign, BackendOverrideIsUsed) {
  auto spec = quick_spec();
  spec.max_points = 2;
  spec.grid.theta_step_deg = 90.0;
  backend::SimulatedHardwareBackend hw(spec.backend);
  spec.backend_override = &hw;
  const auto result = run_single_fault_campaign(spec);
  EXPECT_NE(result.meta.backend_name.find("hardware_sim"), std::string::npos);
}

TEST(SingleCampaign, PerQubitHeatmapsPartitionRecords) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const auto qubits = result.logical_qubits();
  ASSERT_FALSE(qubits.empty());
  std::uint64_t total_samples = 0;
  for (int lq : qubits) {
    const auto grid = result.heatmap_for_logical_qubit(lq);
    total_samples += grid.samples[0][0];
  }
  EXPECT_EQ(total_samples, result.mean_heatmap().samples[0][0]);
}

TEST(SingleCampaign, HandlesSpreadDistributionCircuits) {
  // IQP output distributions are spread over many states; the golden set
  // comes from compute_golden's most-probable rule and the campaign must
  // still produce valid QVF values.
  CampaignSpec spec;
  spec.circuit = algo::iqp_circuit(4, 11);
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 180.0;
  spec.max_points = 6;
  spec.threads = 2;
  const auto result = run_single_fault_campaign(spec);
  ASSERT_FALSE(result.records.empty());
  for (const auto& r : result.records) {
    EXPECT_GE(r.qvf, 0.0);
    EXPECT_LE(r.qvf, 1.0);
  }
}

// -------------------------------------------------------- double campaign

TEST(DoubleCampaign, SecondaryBoundedByPrimary) {
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 4;
  const auto result = run_double_fault_campaign(spec);
  EXPECT_TRUE(result.meta.double_fault);
  ASSERT_FALSE(result.records.empty());
  for (const auto& r : result.records) {
    EXPECT_LE(r.theta1_index, r.theta_index);
    EXPECT_LE(r.phi1_index, r.phi_index);
    EXPECT_GE(r.neighbor_qubit, 0);
  }
}

TEST(DoubleCampaign, ExecutionCountMatchesFormula) {
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 4;
  const auto pairs = campaign_point_neighbor_pairs(spec);
  const auto result = run_double_fault_campaign(spec);
  EXPECT_EQ(result.meta.executions,
            double_campaign_executions(pairs.size(), spec.grid));
}

TEST(DoubleCampaign, WorsensMeanQvf) {
  // The paper's central multi-fault finding: double faults push QVF up.
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 60.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 6;
  const auto single = run_single_fault_campaign(spec);
  const auto dbl = run_double_fault_campaign(spec);
  EXPECT_GT(dbl.qvf_stats().mean(), single.qvf_stats().mean());
}

TEST(DoubleCampaign, SecondaryDetailGridFilled) {
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 3;
  const auto result = run_double_fault_campaign(spec);
  const int ti = spec.grid.num_theta() - 1;
  const int pi_idx = spec.grid.num_phi() - 1;
  const auto detail = result.secondary_detail(ti, pi_idx);
  // Full secondary triangle available at the (pi, pi) primary.
  EXPECT_GT(detail.samples[0][0], 0u);
  EXPECT_GT(detail.samples[static_cast<std::size_t>(pi_idx)]
                          [static_cast<std::size_t>(ti)],
            0u);
}

TEST(DoubleCampaign, SingleCampaignHasNoSecondaryDetail) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  EXPECT_THROW(result.secondary_detail(0, 0), Error);
}

// ---------------------------------------------------- named-fault campaign

TEST(NamedFaultCampaign, ProducesOneEntryPerFault) {
  auto spec = quick_spec();
  spec.max_points = 4;
  const auto faults = gate_equivalent_faults();
  const auto results = run_named_fault_campaign(spec, faults);
  ASSERT_EQ(results.size(), faults.size());
  for (const auto& r : results) {
    EXPECT_GE(r.mean_qvf, 0.0);
    EXPECT_LE(r.mean_qvf, 1.0);
    EXPECT_EQ(r.executions, 4u);
  }
  // Z fault (phi=pi) should be at least as harmful as T (phi=pi/4) on BV.
  EXPECT_GE(results[2].mean_qvf, results[0].mean_qvf - 0.05);
}

// ------------------------------------------------------------ aggregation

TEST(Results, HeatmapDeltaAndAccessors) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const auto grid = result.mean_heatmap();
  const auto zero = grid.delta(grid);
  for (std::size_t j = 0; j < zero.mean_qvf.size(); ++j) {
    for (double v : zero.mean_qvf[j]) EXPECT_NEAR(v, 0.0, 1e-12);
  }
  EXPECT_NO_THROW(grid.at(0, 0));
}

TEST(Results, HistogramAndStatsConsistent) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const auto hist = result.qvf_histogram(10);
  EXPECT_EQ(hist.total(), result.records.size());
  EXPECT_NEAR(hist.stats().mean(), result.qvf_stats().mean(), 1e-12);
  const auto impact = result.impact_breakdown();
  EXPECT_NEAR(impact.masked + impact.dubious + impact.silent, 1.0, 1e-12);
}

TEST(Results, CsvExportHasHeaderAndRows) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const std::string path = ::testing::TempDir() + "qufi_campaign.csv";
  result.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, result.records.size() + 2);  // meta + header + rows
  std::remove(path.c_str());
}

TEST(Results, InjectionAccountingFormulas) {
  // Reproduce the paper's arithmetic: 312 configs x 1024 shots x 59 points
  // = 18,849,792 injections for the fixed-width campaign (§V-B).
  const FaultParamGrid paper_grid;
  EXPECT_EQ(single_campaign_executions(59, paper_grid) * 1024,
            18849792u);
  // Double campaign (§V-D): 20 pairs x T(13)^2 x 1024 = 169,594,880.
  FaultParamGrid primary;
  primary.phi_max_deg = 180.0;
  EXPECT_EQ(double_campaign_executions(20, primary) * 1024, 169594880u);
}

TEST(Results, WriteCsvIsAtomicNoTempLeftBehind) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("qufi_csv_atomic_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  const std::string path = (dir / "out.csv").string();
  result.write_csv(path);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string(), path) << "temp file left behind";
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(Results, WriteCsvFailureNamesThePathAndLeavesNoTempFile) {
  const auto result = run_single_fault_campaign(quick_spec());
  const test_support::TempDir dir("csv_write_failure");
  const std::string path = dir.str("out.csv");
  {
    const test_support::FileSizeCap cap(1024);
    try {
      result.write_csv(path);
      ADD_FAILURE() << "write_csv succeeded past the file-size cap";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir.path))
      << "temp file left behind";
}

// ------------------------------------------------- parallel CSV projection

/// Campaigns of every CSV shape, each several CampaignCsvWriter blocks
/// long: single fault, double fault (theta1/phi1 filled) and adaptive (the
/// estimator columns, blocks extended to whole point runs).
const std::vector<CampaignResult>& csv_campaigns() {
  static const std::vector<CampaignResult> campaigns = [] {
    std::vector<CampaignResult> out;
    auto single = quick_spec("bv", 4);
    single.grid.theta_step_deg = 15.0;
    single.grid.phi_step_deg = 15.0;
    out.push_back(run_single_fault_campaign(single));
    auto dbl = quick_spec("bv", 3);
    dbl.grid.theta_step_deg = 45.0;
    dbl.grid.phi_step_deg = 45.0;
    out.push_back(run_double_fault_campaign(dbl));
    auto adaptive = single;
    adaptive.adaptive = AdaptivePolicy{};
    out.push_back(run_single_fault_campaign(adaptive));
    return out;
  }();
  return campaigns;
}

/// The CSV of `rows` written through one CampaignCsvWriter, serially or
/// with its blocks formatted on `pool`.
std::string csv_of(const CampaignResult& result,
                   std::span<const InjectionRecord> rows,
                   util::ThreadPool* pool, const std::string& path) {
  CampaignCsvWriter csv(path, result.meta, result.points);
  if (pool != nullptr) {
    csv.write(rows, *pool);
  } else {
    csv.write(rows);
  }
  csv.commit();
  return test_support::slurp(path);
}

TEST(Results, ParallelCsvMatchesSerialFormatterOnEveryLaneCount) {
  const test_support::TempDir dir("csv_parallel");
  for (const CampaignResult& result : csv_campaigns()) {
    SCOPED_TRACE(result.meta.circuit_name +
                 (result.meta.double_fault ? " double" : "") +
                 (result.meta.adaptive ? " adaptive" : ""));
    ASSERT_GT(result.records.size(), 2 * CampaignCsvWriter::kBlockRows);
    const std::string serial =
        csv_of(result, result.records, nullptr, dir.str("serial.csv"));
    for (std::size_t lanes = 1; lanes <= 8; ++lanes) {
      util::ThreadPool pool(lanes);
      EXPECT_EQ(csv_of(result, result.records, &pool, dir.str("pool.csv")),
                serial)
          << lanes << " lanes";
    }
    result.write_csv(dir.str("write_csv.csv"));
    EXPECT_EQ(test_support::slurp(dir.str("write_csv.csv")), serial);
  }
}

TEST(Results, ParallelCsvMatchesSerialFormatterAroundTheBlockSize) {
  const test_support::TempDir dir("csv_block_edges");
  constexpr std::size_t kBlock = CampaignCsvWriter::kBlockRows;
  for (const CampaignResult& full : csv_campaigns()) {
    SCOPED_TRACE(full.meta.circuit_name +
                 (full.meta.double_fault ? " double" : "") +
                 (full.meta.adaptive ? " adaptive" : ""));
    for (const std::size_t rows :
         {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1}) {
      CampaignResult result = full;
      std::size_t keep = rows;
      // An adaptive CSV holds whole point runs: round up to the run's end.
      while (full.meta.adaptive && keep > 0 && keep < full.records.size() &&
             full.records[keep].point_index ==
                 full.records[keep - 1].point_index) {
        ++keep;
      }
      result.records.resize(keep);
      const std::string serial =
          csv_of(result, result.records, nullptr, dir.str("serial.csv"));
      result.write_csv(dir.str("write_csv.csv"));
      EXPECT_EQ(test_support::slurp(dir.str("write_csv.csv")), serial)
          << rows << " rows";
      for (const std::size_t lanes : {1, 3, 8}) {
        util::ThreadPool pool(lanes);
        EXPECT_EQ(csv_of(result, result.records, &pool, dir.str("pool.csv")),
                  serial)
            << rows << " rows, " << lanes << " lanes";
      }
    }
  }
}

TEST(Results, ParallelCsvRethrowsABlockErrorAndLeavesNoTempFile) {
  // An adaptive point run cut short fails its estimate replay on a pool
  // lane; the writer rethrows it once no block is in flight.
  const CampaignResult& adaptive = csv_campaigns()[2];
  ASSERT_TRUE(adaptive.meta.adaptive);
  std::vector<InjectionRecord> rows = adaptive.records;
  rows.pop_back();
  const test_support::TempDir dir("csv_parallel_error");
  for (const std::size_t lanes : {1, 4}) {
    util::ThreadPool pool(lanes);
    {
      CampaignCsvWriter csv(dir.str("out.csv"), adaptive.meta,
                            adaptive.points);
      EXPECT_THROW(csv.write(rows, pool), Error) << lanes << " lanes";
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir.path))
        << "temp file left behind";
  }
}

TEST(Results, ParallelWriteCsvFailureNamesThePath) {
  const CampaignResult& result = csv_campaigns()[0];
  ASSERT_GT(result.records.size(), CampaignCsvWriter::kBlockRows);
  const test_support::TempDir dir("csv_parallel_failure");
  const std::string path = dir.str("out.csv");
  {
    const test_support::FileSizeCap cap(64 * 1024);
    try {
      result.write_csv(path);
      ADD_FAILURE() << "write_csv succeeded past the file-size cap";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir.path))
      << "temp file left behind";
}

// ------------------------------------------------------- record streaming

/// Collects what the engine announces and emits; emit() is called
/// concurrently from pool lanes.
class CollectingSink final : public ResultBlockSink {
 public:
  void begin(const CampaignMetadata& meta,
             std::span<const InjectionPoint> points,
             std::uint64_t expected_total_records) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++begins_;
    meta_ = meta;
    points_.assign(points.begin(), points.end());
    expected_total_records_ = expected_total_records;
  }
  void emit(std::span<const InjectionRecord> records) override {
    std::lock_guard<std::mutex> lock(mutex_);
    emitted_before_begin_ = emitted_before_begin_ || begins_ == 0;
    blocks_.emplace_back(records.begin(), records.end());
  }

  /// begin() ran exactly once, before every emit(), and announced the
  /// returned result's metadata (executions/injections are end-of-run
  /// totals, zero when announced), its point table and the full-campaign
  /// record total.
  void expect_announced(const CampaignResult& result,
                        std::uint64_t expected_total_records) {
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_EQ(begins_, 1);
    EXPECT_FALSE(emitted_before_begin_);
    EXPECT_EQ(expected_total_records_, expected_total_records);
    const CampaignMetadata& a = meta_;
    const CampaignMetadata& b = result.meta;
    EXPECT_EQ(a.circuit_name, b.circuit_name);
    EXPECT_EQ(a.backend_name, b.backend_name);
    EXPECT_EQ(a.circuit_qubits, b.circuit_qubits);
    EXPECT_EQ(a.transpiled_gates, b.transpiled_gates);
    EXPECT_EQ(a.grid.theta_step_deg, b.grid.theta_step_deg);
    EXPECT_EQ(a.grid.phi_step_deg, b.grid.phi_step_deg);
    EXPECT_EQ(a.grid.theta_max_deg, b.grid.theta_max_deg);
    EXPECT_EQ(a.grid.phi_max_deg, b.grid.phi_max_deg);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.double_fault, b.double_fault);
    EXPECT_EQ(a.idle_noise, b.idle_noise);
    EXPECT_EQ(a.adaptive, b.adaptive);
    EXPECT_EQ(a.adaptive_policy, b.adaptive_policy);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.faultfree_qvf),
              std::bit_cast<std::uint64_t>(b.faultfree_qvf));
    EXPECT_EQ(a.executions, 0u);
    EXPECT_EQ(a.injections, 0u);
    ASSERT_EQ(points_.size(), result.points.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
      EXPECT_EQ(points_[i].instr_index, result.points[i].instr_index);
      EXPECT_EQ(points_[i].qubit, result.points[i].qubit);
    }
  }
  /// All records, re-sorted into canonical ascending-point order.
  std::vector<InjectionRecord> sorted() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::sort(blocks_.begin(), blocks_.end(),
              [](const auto& a, const auto& b) {
                return a.front().point_index < b.front().point_index;
              });
    std::vector<InjectionRecord> all;
    for (const auto& block : blocks_) {
      all.insert(all.end(), block.begin(), block.end());
    }
    return all;
  }
  std::size_t num_blocks() {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocks_.size();
  }

 private:
  std::mutex mutex_;
  int begins_ = 0;
  bool emitted_before_begin_ = false;
  CampaignMetadata meta_;
  std::vector<InjectionPoint> points_;
  std::uint64_t expected_total_records_ = 0;
  std::vector<std::vector<InjectionRecord>> blocks_;
};

void expect_identical_records(const std::vector<InjectionRecord>& a,
                              const std::vector<InjectionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point_index, b[i].point_index) << "record " << i;
    EXPECT_EQ(a[i].theta_index, b[i].theta_index) << "record " << i;
    EXPECT_EQ(a[i].phi_index, b[i].phi_index) << "record " << i;
    EXPECT_EQ(a[i].neighbor_qubit, b[i].neighbor_qubit) << "record " << i;
    EXPECT_EQ(a[i].theta1_index, b[i].theta1_index) << "record " << i;
    EXPECT_EQ(a[i].phi1_index, b[i].phi1_index) << "record " << i;
    EXPECT_EQ(a[i].qvf, b[i].qvf) << "record " << i;  // bit-identical engine
    EXPECT_EQ(a[i].pa, b[i].pa) << "record " << i;
    EXPECT_EQ(a[i].pb, b[i].pb) << "record " << i;
  }
}

TEST(RecordSink, SingleCampaignStreamsWholePointsBitIdentically) {
  auto spec = quick_spec();
  const auto accumulated = run_single_fault_campaign(spec);

  CollectingSink sink;
  spec.record_sink = &sink;
  const auto streamed = run_single_fault_campaign(spec);

  EXPECT_TRUE(streamed.records.empty())
      << "sink mode must not also accumulate";
  EXPECT_EQ(streamed.meta.executions, accumulated.meta.executions);
  EXPECT_EQ(streamed.meta.faultfree_qvf, accumulated.meta.faultfree_qvf);
  EXPECT_EQ(sink.num_blocks(), accumulated.points.size())
      << "one emitted block per injection point";
  expect_identical_records(sink.sorted(), accumulated.records);
}

TEST(RecordSink, DoubleCampaignStreamsWholePointsBitIdentically) {
  auto spec = quick_spec();
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 4;
  const auto accumulated = run_double_fault_campaign(spec);

  CollectingSink sink;
  spec.record_sink = &sink;
  const auto streamed = run_double_fault_campaign(spec);

  EXPECT_TRUE(streamed.records.empty());
  EXPECT_EQ(streamed.meta.executions, accumulated.meta.executions);
  expect_identical_records(sink.sorted(), accumulated.records);
}

TEST(RecordSink, BeginPrecedesEveryEmitWithTheFinalMetadata) {
  auto spec = quick_spec();
  spec.max_points = 4;
  const std::uint64_t single_total =
      run_single_fault_campaign(spec).records.size();
  {
    CollectingSink sink;
    auto streamed = spec;
    streamed.record_sink = &sink;
    sink.expect_announced(run_single_fault_campaign(streamed), single_total);
  }
  {
    // An empty subset still announces the campaign, and emits nothing.
    CollectingSink sink;
    auto streamed = spec;
    streamed.record_sink = &sink;
    sink.expect_announced(run_single_fault_campaign_subset(streamed, {}),
                          single_total);
    EXPECT_EQ(sink.num_blocks(), 0u);
  }
  {
    auto double_spec = spec;
    double_spec.grid.phi_max_deg = 180.0;
    const std::uint64_t double_total =
        run_double_fault_campaign(double_spec).records.size();
    CollectingSink sink;
    double_spec.record_sink = &sink;
    sink.expect_announced(run_double_fault_campaign(double_spec),
                          double_total);
    // A shard's subset announces the total of the *full* campaign.
    CollectingSink shard_sink;
    double_spec.record_sink = &shard_sink;
    const std::size_t tail[] = {2, 3};
    shard_sink.expect_announced(
        run_double_fault_campaign_subset(double_spec, tail), double_total);
  }
  {
    // Adaptive record counts are decided while the campaign runs: 0.
    auto adaptive_spec = spec;
    adaptive_spec.adaptive = AdaptivePolicy{};
    CollectingSink sink;
    adaptive_spec.record_sink = &sink;
    const auto result = run_single_fault_campaign(adaptive_spec);
    EXPECT_TRUE(result.meta.adaptive);
    sink.expect_announced(result, 0);
  }
}

// ---------------------------------------------------------------- report

TEST(Report, AngleLabels) {
  EXPECT_EQ(angle_label(0.0), "0");
  EXPECT_EQ(angle_label(kPi), "pi");
  EXPECT_EQ(angle_label(kPi / 4), "pi/4");
  EXPECT_EQ(angle_label(3 * kPi / 4), "3pi/4");
  EXPECT_EQ(angle_label(-kPi / 2), "-pi/2");
}

TEST(Report, HeatmapRendering) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const std::string out = render_heatmap(result.mean_heatmap(), "test map");
  EXPECT_NE(out.find("test map"), std::string::npos);
  EXPECT_NE(out.find("pi"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Report, CampaignSummaryMentionsKeyFigures) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const std::string out = render_campaign_summary(result);
  EXPECT_NE(out.find("fault-free QVF"), std::string::npos);
  EXPECT_NE(out.find("masked="), std::string::npos);
}

TEST(Report, NamedFaultComparison) {
  const std::vector<NamedFaultQvf> a{{"t", 0.3, 4}, {"z", 0.5, 4}};
  const std::vector<NamedFaultQvf> b{{"t", 0.32, 4}, {"z", 0.48, 4}};
  const std::string out =
      render_named_fault_comparison(a, b, "sim", "machine");
  EXPECT_NE(out.find("max |diff|"), std::string::npos);
  const std::vector<NamedFaultQvf> mismatched{{"x", 0.1, 1}, {"z", 0.2, 1}};
  EXPECT_THROW(render_named_fault_comparison(a, mismatched, "a", "b"), Error);
}

TEST(Report, HeatmapCsv) {
  const auto spec = quick_spec();
  const auto result = run_single_fault_campaign(spec);
  const std::string path = ::testing::TempDir() + "qufi_heatmap.csv";
  write_heatmap_csv(result.mean_heatmap(), path);
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, result.mean_heatmap().phi_rad.size() + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qufi
