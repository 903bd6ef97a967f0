// Distribution-layer tests: shard planning, manifest round-trips, shard
// execution into QUFIPART partials, N-shard merge equivalence against
// the single-process campaign, and the pooled CSV export around one merge
// batch (bytes, and no file left after a failure mid-merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "algorithms/algorithms.hpp"
#include "backend/trajectory_backend.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/result_io.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/shard_partials.hpp"
#include "support/test_files.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

namespace fs = std::filesystem;
using test_support::expect_error;
using test_support::expect_same_records;
using test_support::load_result;
using test_support::merge_partials;
using test_support::quick_spec;
using test_support::run_manifests;
using test_support::run_sharded;
using test_support::slurp;
using test_support::TempDir;
using test_support::write_partial;
using test_support::write_partials;

// ---- shard planning --------------------------------------------------------

TEST(ShardPlan, BothPoliciesPartitionEveryPointExactlyOnce) {
  const auto spec = quick_spec("bv", 4);
  const auto points = campaign_points(spec);
  ASSERT_GT(points.size(), 4u);
  for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
    const auto plan = dist::plan_campaign_shards(spec, shards);
    ASSERT_EQ(plan.shards.size(), shards);
    std::vector<int> seen(points.size(), 0);
    for (const auto& shard : plan.shards) {
      for (std::size_t s = 1; s < shard.point_indices.size(); ++s) {
        EXPECT_LT(shard.point_indices[s - 1], shard.point_indices[s]);
      }
      for (const std::size_t p : shard.point_indices) {
        ASSERT_LT(p, points.size());
        ++seen[p];
      }
    }
    for (std::size_t p = 0; p < seen.size(); ++p) {
      EXPECT_EQ(seen[p], 1) << "point " << p << " shards " << shards;
    }
  }
}

TEST(ShardPlan, MoreShardsThanPointsYieldsEmptyShards) {
  const auto spec = quick_spec("bv", 4);
  const auto points = campaign_points(spec);
  const auto shards = static_cast<std::uint32_t>(points.size() + 5);
  const auto plan = dist::plan_campaign_shards(spec, shards);
  std::size_t empty = 0, covered = 0;
  for (const auto& shard : plan.shards) {
    if (shard.point_indices.empty()) ++empty;
    covered += shard.point_indices.size();
  }
  EXPECT_EQ(covered, points.size());
  EXPECT_GE(empty, 5u);
}

TEST(ShardPlan, CampaignPlanRefusesAGridWhoseCountOverflows) {
  // Refused at planning time, before a manifest or worker exists.
  for (const bool theta_axis : {true, false}) {
    auto spec = quick_spec("bv", 4);
    (theta_axis ? spec.grid.theta_step_deg : spec.grid.phi_step_deg) = 1e-300;
    EXPECT_THROW((void)dist::plan_campaign_shards(spec, 2), Error);
  }
}

TEST(ShardPlan, CampaignPlanRefusesAnAdaptivePolicyWorkersRefuse) {
  // Refused at planning time by the check every worker runs, before a
  // manifest exists (and before a negative budget reaches the unsigned
  // config-budget cast).
  AdaptivePolicy negative_budget;
  negative_budget.max_config_fraction = -0.5;
  AdaptivePolicy zero_floor;
  zero_floor.min_configs_per_point = 0;
  for (const auto& [policy, reason] :
       {std::pair{negative_budget, "max_config_fraction must be in (0, 1]"},
        std::pair{zero_floor, "min_configs_per_point must be at least 1"}}) {
    auto spec = quick_spec("bv", 4);
    spec.adaptive = policy;
    expect_error([&] { (void)dist::plan_campaign_shards(spec, 2); }, reason);
  }
}

TEST(ShardPlan, DeterministicAndCostBalanced) {
  const auto spec = quick_spec("qft", 4);
  const auto a = dist::plan_campaign_shards(spec, 4);
  const auto b = dist::plan_campaign_shards(spec, 4);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  std::uint64_t max_cost = 0, min_cost = ~0ULL;
  for (std::size_t k = 0; k < a.shards.size(); ++k) {
    EXPECT_EQ(a.shards[k].point_indices, b.shards[k].point_indices);
    EXPECT_EQ(a.shards[k].estimated_cost, b.shards[k].estimated_cost);
    max_cost = std::max(max_cost, a.shards[k].estimated_cost);
    min_cost = std::min(min_cost, a.shards[k].estimated_cost);
  }
  // LPT keeps the spread below one max-point cost; loose sanity bound.
  EXPECT_LT(max_cost - min_cost, max_cost);
}

// ---- manifest round-trips -------------------------------------------

TEST(ShardManifest, SaveLoadRoundTripPreservesEverything) {
  TempDir dir("manifest");
  auto spec = quick_spec("qft", 4);
  spec.shots = 256;
  spec.max_points = 6;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Trajectory, plan, false);
  ASSERT_EQ(manifests.size(), 2u);

  const auto path = (dir.path / "shard_000.manifest").string();
  dist::save_manifest(manifests[0], path);
  const auto loaded = dist::load_manifest(path);

  EXPECT_EQ(loaded.shard_index, manifests[0].shard_index);
  EXPECT_EQ(loaded.shard_count, manifests[0].shard_count);
  EXPECT_EQ(loaded.device, "casablanca");
  EXPECT_EQ(loaded.backend_kind, dist::WorkerBackendKind::Trajectory);
  EXPECT_EQ(loaded.point_indices, manifests[0].point_indices);
  EXPECT_EQ(loaded.expected_outputs, manifests[0].expected_outputs);
  EXPECT_EQ(loaded.shots, 256u);
  EXPECT_EQ(loaded.seed, spec.seed);
  EXPECT_EQ(loaded.max_points, 6u);
  ASSERT_EQ(loaded.circuit.size(), spec.circuit.size());
  EXPECT_EQ(loaded.circuit.name(), spec.circuit.name());
  for (std::size_t i = 0; i < loaded.circuit.size(); ++i) {
    const auto& a = loaded.circuit.instructions()[i];
    const auto& b = spec.circuit.instructions()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.qubits, b.qubits);
    EXPECT_EQ(a.clbits, b.clbits);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (std::size_t k = 0; k < a.params.size(); ++k) {
      EXPECT_EQ(a.params[k], b.params[k]) << "instr " << i;  // exact bits
    }
  }
}

TEST(ShardManifest, NamesParseOnceAndIdleNoiseNeedsTheDensityKind) {
  EXPECT_EQ(dist::worker_backend_kind_from_name("density"),
            dist::WorkerBackendKind::Density);
  EXPECT_EQ(dist::worker_backend_kind_from_name("trajectory"),
            dist::WorkerBackendKind::Trajectory);
  expect_error(
      [] { (void)dist::worker_backend_kind_from_name("statevector"); },
      "unknown backend kind: statevector");

  // Both planners (qufi_shard_plan and plan_submission) build manifests
  // here, so the trajectory family's missing idle mode is refused here.
  auto spec = quick_spec("bv", 4);
  spec.idle_noise = true;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  expect_error(
      [&] {
        (void)dist::make_manifests(spec, "casablanca",
                                   dist::WorkerBackendKind::Trajectory, plan,
                                   false);
      },
      "idle_noise requires the density backend kind");
  EXPECT_EQ(dist::make_manifests(spec, "casablanca",
                                 dist::WorkerBackendKind::Density, plan, false)
                .size(),
            2u);
}

// ---- shard execution + merge equivalence -----------------------------------

TEST(ShardMerge, OneTwoAndEightShardsMatchSingleProcessOnPaperCircuits) {
  // Both partition shapes: the planner's interleaved cost-balanced shards,
  // and contiguous ranges (shard k owns [k*N/M, (k+1)*N/M)).
  for (const char* name : {"bv", "dj", "qft"}) {
    auto spec = quick_spec(name, 4);
    spec.max_points = 6;  // keep the 3-circuit sweep quick
    const auto single = run_single_fault_campaign(spec);
    const std::size_t n = single.points.size();
    for (const std::uint32_t shards : {1u, 2u, 8u}) {
      const TempDir dir("contiguous");
      std::vector<std::string> paths;
      for (std::uint32_t k = 0; k < shards; ++k) {
        std::vector<std::size_t> range;
        for (std::size_t i = n * k / shards; i < n * (k + 1) / shards; ++i) {
          range.push_back(i);
        }
        paths.push_back(dir.str("part_" + std::to_string(k) + ".qp"));
        write_partial(spec, range, k, shards, paths.back());
      }
      for (const auto& merged :
           {run_sharded(spec, shards), merge_partials(paths, dir.str())}) {
        EXPECT_EQ(merged.meta.executions, single.meta.executions);
        EXPECT_EQ(merged.meta.faultfree_qvf, single.meta.faultfree_qvf);
        expect_same_records(merged.records, single.records);
      }
    }
  }
}

TEST(ShardMerge, TrajectoryShardsAreBitIdenticalUnderCommonRandomNumbers) {
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  spec.shots = 64;
  noise::BackendProperties device = noise::fake_casablanca();
  backend::TrajectoryBackend be(noise::NoiseModel::from_backend(device));
  spec.backend_override = &be;

  const auto single = run_single_fault_campaign(spec);
  const auto merged = run_sharded(spec, 2);
  expect_same_records(merged.records, single.records);  // bit equality
}

TEST(ShardMerge, EmptyShardContributesNothingAndMergesCleanly) {
  TempDir dir("empty_shard");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;

  const std::string empty_path = dir.str("empty.qp");
  write_partial(spec, std::span<const std::size_t>{}, 0, 2, empty_path);
  const auto empty = load_result(empty_path);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.meta.executions, 0u);
  EXPECT_EQ(empty.points.size(), 4u);  // full table still present

  const std::size_t all[] = {0, 1, 2, 3};
  const std::string full_path = dir.str("full.qp");
  write_partial(spec, all, 1, 2, full_path);
  const std::string paths[] = {empty_path, full_path};
  const auto merged = merge_partials(paths, dir.str());
  expect_same_records(merged.records, run_single_fault_campaign(spec).records);
}

TEST(ShardMerge, DuplicateShardOutputsAreIdempotent) {
  TempDir dir("duplicate_shard");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  const std::size_t lo[] = {0, 1};
  const std::size_t hi[] = {2, 3};
  write_partial(spec, lo, 0, 2, dir.str("a.qp"));
  write_partial(spec, hi, 1, 2, dir.str("b.qp"));
  write_partial(spec, hi, 1, 2, dir.str("b_retry.qp"));

  // Arrival order scrambled; the retry's records are confirmations.
  const std::string paths[] = {dir.str("b.qp"), dir.str("a.qp"),
                               dir.str("b_retry.qp")};
  const auto stats = dist::merge_result_files(paths, dir.str("merged.qp"));
  EXPECT_EQ(stats.duplicate_records,
            load_result(dir.str("b.qp")).records.size());
  expect_same_records(load_result(dir.str("merged.qp")).records,
                      run_single_fault_campaign(spec).records);
}

TEST(ShardMerge, DoubleFaultShardsMatchSingleProcess) {
  // A 3-shard double-fault campaign merges to the single-process run.
  auto spec = quick_spec("bv", 4);
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 90.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 4;

  const auto single = run_double_fault_campaign(spec);
  const auto merged = run_sharded(spec, 3, /*double_fault=*/true);
  EXPECT_EQ(merged.meta.executions, single.meta.executions);
  expect_same_records(merged.records, single.records);
}

// ---- moment-aware (idle-noise) distribution --------------------------------

TEST(ShardManifest, IdleNoiseKnobRoundTripsAndOlderVersionsDefaultOff) {
  TempDir dir("manifest_idle");
  auto spec = quick_spec("bv", 4);
  spec.idle_noise = true;
  const auto plan = dist::plan_campaign_shards(spec, 1);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan, false);
  const auto path = (dir.path / "idle.manifest").string();
  dist::save_manifest(manifests[0], path);
  const auto loaded = dist::load_manifest(path);
  EXPECT_EQ(loaded.format_version, 6u);
  EXPECT_TRUE(loaded.idle_noise);
  EXPECT_TRUE(dist::manifest_to_spec(loaded).idle_noise);

  // Any other version is rejected, not guessed at: the future v7, and the
  // older v5, whose expected_records key this reader no longer knows.
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const auto header = text.find("qufi-shard-manifest 6");
  ASSERT_NE(header, std::string::npos);
  for (const char* version : {"7", "5"}) {
    std::string other = text;
    other.replace(header, 21, std::string("qufi-shard-manifest ") + version);
    const auto other_path = (dir.path / ("v" + std::string(version) +
                                         ".manifest"))
                                .string();
    {
      std::ofstream out(other_path);
      out << other;
    }
    try {
      (void)dist::load_manifest(other_path);
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported manifest version"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardMerge, RefusesToMixIdleNoiseAndPlainShards) {
  TempDir dir("idle_mix");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  const std::vector<std::size_t> first = {0, 1};
  const std::vector<std::size_t> second = {2, 3};
  write_partial(spec, first, 0, 2, dir.str("plain.qp"));
  spec.idle_noise = true;
  write_partial(spec, second, 1, 2, dir.str("idle.qp"));

  // Both the file merge and the dispatcher's prefix merge diagnose the
  // idle_noise mode, not a generic metadata mismatch.
  test_support::expect_merges_refuse(
      {{dir.str("plain.qp"), first}, {dir.str("idle.qp"), second}},
      dir.str("merged.qp"), "idle-noise");
}

TEST(ShardMerge, IdleNoiseShardsMatchSingleProcess) {
  // The re-admission contract across the process seam: disjoint idle-noise
  // shard runs union bit-identically to the one-process campaign (same
  // moment-aware snapshots, same chunk boundaries, same response bases).
  auto spec = quick_spec("bv", 4);
  spec.max_points = 6;
  spec.idle_noise = true;
  const auto single = run_single_fault_campaign(spec);
  EXPECT_TRUE(single.meta.idle_noise);
  for (const std::uint32_t shards : {2u, 4u}) {
    const auto merged = run_sharded(spec, shards);
    EXPECT_EQ(merged.meta.executions, single.meta.executions);
    expect_same_records(merged.records, single.records);
  }
}

TEST(ShardRunner, IdleNoiseManifestMatchesDirectSubsetRun) {
  TempDir dir("runner_idle");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  spec.idle_noise = true;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan, false);
  ASSERT_TRUE(manifests[0].idle_noise);

  const auto merged = run_manifests(manifests, dir);
  const auto single = run_single_fault_campaign(spec);
  EXPECT_EQ(merged.meta.backend_name, single.meta.backend_name);
  EXPECT_TRUE(merged.meta.idle_noise);
  expect_same_records(merged.records, single.records);

  // The trajectory family has no idle mode: a manifest that asks for the
  // combination is rejected with a diagnosis, not silently downgraded.
  auto bad = manifests[0];
  bad.backend_kind = dist::WorkerBackendKind::Trajectory;
  bad.shots = 32;
  dist::ShardRunOptions options;
  options.columnar_output_path = dir.str("bad.qp");
  try {
    (void)dist::run_shard(bad, options);
    ADD_FAILURE() << "trajectory + idle_noise manifest ran";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("idle_noise requires the density"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(options.columnar_output_path));
}

TEST(ShardRunner, ManifestExecutionMatchesDirectSubsetRun) {
  TempDir dir("runner");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan, false);

  const auto merged = run_manifests(manifests, dir);
  const auto single = run_single_fault_campaign(spec);
  EXPECT_EQ(merged.meta.backend_name, single.meta.backend_name);
  expect_same_records(merged.records, single.records);
}

// ---- columnar partials and the streaming file merge ------------------------

TEST(StreamingMerge, FileMergeMatchesSingleProcessAt2And8Shards) {
  TempDir dir("streaming");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 6;
  const auto single = run_single_fault_campaign(spec);
  const std::string reference_csv = dir.str("single.csv");
  single.write_csv(reference_csv);

  for (const std::uint32_t shards : {2u, 8u}) {
    const auto sub = dir.str("s" + std::to_string(shards));
    fs::create_directories(sub);
    const auto paths =
        write_partials(spec, dist::plan_campaign_shards(spec, shards), sub);

    // Columnar file merge == the single-process campaign, bit for bit.
    const std::string merged_path = sub + "/merged.qp";
    const auto stats = dist::merge_result_files(paths, merged_path);
    EXPECT_EQ(stats.merged_records, single.records.size());
    EXPECT_EQ(stats.duplicate_records, 0u);
    const auto merged = load_result(merged_path);
    expect_same_records(merged.records, single.records);
    EXPECT_EQ(merged.meta.faultfree_qvf, single.meta.faultfree_qvf);

    // Streaming CSV export == CampaignResult::write_csv, byte for byte.
    const std::string merged_csv = sub + "/merged.csv";
    (void)dist::merge_result_files_to_csv(paths, merged_csv);
    EXPECT_EQ(slurp(merged_csv), slurp(reference_csv))
        << shards << "-shard streaming CSV diverges from write_csv";
  }
}

TEST(StreamingMerge, CsvWriteFailureNamesThePathAndLeavesNoTempFile) {
  TempDir dir("csv_failure");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 6;
  const auto paths =
      write_partials(spec, dist::plan_campaign_shards(spec, 2), dir.str());
  const std::string csv = dir.str("merged.csv");
  {
    const test_support::FileSizeCap cap(1024);
    try {
      (void)dist::merge_result_files_to_csv(paths, csv);
      ADD_FAILURE() << "merge succeeded past the file-size cap";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(csv), std::string::npos)
          << e.what();
    }
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().extension(), ".qp")
        << "left behind: " << entry.path();
  }
}

/// A synthetic campaign of `total` records for the pooled CSV merge: 16
/// records per point on a 4 x 4 grid (the last run shorter when 16 does
/// not divide `total`), single- or double-fault. Adaptive campaigns take
/// whole runs: each point's records are the estimator's evaluated set on
/// made-up QVFs (the grid is under the budget floor, so all 16 configs).
CampaignResult synthetic_campaign(const std::string& kind,
                                  std::size_t total) {
  CampaignResult result;
  result.meta.circuit_name = "pooled_" + kind;
  result.meta.backend_name = "synthetic";
  result.meta.grid.theta_step_deg = 60.0;
  result.meta.grid.phi_step_deg = 90.0;
  result.meta.seed = 7;
  result.meta.double_fault = kind == "double";
  result.meta.adaptive = kind == "adaptive";
  const std::size_t per_point = 16;
  const std::size_t num_points = (total + per_point - 1) / per_point;
  for (std::size_t p = 0; p < num_points; ++p) {
    InjectionPoint point;
    point.instr_index = 3 * p + 1;
    point.qubit = static_cast<int>(p % 5);
    point.logical_qubit = static_cast<int>(p % 4);
    point.moment = static_cast<int>(p / 2);
    result.points.push_back(point);
  }
  const auto qvf_of = [](std::size_t p, std::size_t k) {
    return static_cast<double>((p * 7919 + k * 104729) % 1000) / 999.0;
  };
  for (std::size_t p = 0; p < num_points; ++p) {
    if (result.meta.adaptive) {
      std::vector<InjectionRecord> run;
      const AdaptiveBatchEval eval = [&](std::span<const std::uint32_t> rems) {
        std::vector<double> qvfs;
        for (const std::uint32_t rem : rems) {
          InjectionRecord r;
          r.point_index = static_cast<std::uint32_t>(p);
          r.theta_index = static_cast<int>(rem % 4);
          r.phi_index = static_cast<int>(rem / 4);
          r.qvf = qvf_of(p, rem);
          r.pa = 0.5 * r.qvf;
          r.pb = 1.0 - r.pa;
          run.push_back(r);
          qvfs.push_back(r.qvf);
        }
        return qvfs;
      };
      (void)run_adaptive_point(result.meta.grid, result.meta.adaptive_policy,
                               result.meta.seed, p, eval);
      EXPECT_EQ(run.size(), per_point);
      std::sort(run.begin(), run.end(),
                [](const InjectionRecord& a, const InjectionRecord& b) {
                  return std::pair(a.phi_index, a.theta_index) <
                         std::pair(b.phi_index, b.theta_index);
                });
      result.records.insert(result.records.end(), run.begin(), run.end());
      continue;
    }
    for (std::size_t k = 0; k < per_point && result.records.size() < total;
         ++k) {
      InjectionRecord r;
      r.point_index = static_cast<std::uint32_t>(p);
      r.theta_index = static_cast<int>(k % 4);
      r.phi_index = static_cast<int>(k / 4);
      if (result.meta.double_fault) {
        r.neighbor_qubit = static_cast<int>((p + 1) % 5);
        r.theta1_index = static_cast<int>((k + 1) % 4);
        r.phi1_index = static_cast<int>((k / 2) % 4);
      }
      r.qvf = qvf_of(p, k);
      r.pa = 0.5 * r.qvf;
      r.pb = 1.0 - r.pa;
      result.records.push_back(r);
    }
  }
  result.meta.executions = result.records.size();
  result.meta.injections = result.records.size();
  return result;
}

/// Writes `result` as `shards` partials in `dir`, point p going to shard
/// p % shards, and returns their paths.
std::vector<std::string> write_synthetic_partials(const CampaignResult& result,
                                                  std::uint32_t shards,
                                                  const std::string& dir) {
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < shards; ++k) {
    resio::ResultFileHeader header;
    header.shard_index = k;
    header.shard_count = shards;
    header.expected_total_records =
        result.meta.adaptive ? 0 : result.records.size();
    header.meta = result.meta;
    header.points = result.points;
    std::vector<InjectionRecord> mine;
    for (const InjectionRecord& r : result.records) {
      if (r.point_index % shards == k) mine.push_back(r);
    }
    paths.push_back(dir + "/part_" + std::to_string(k) + ".qp");
    resio::write_result_file(paths.back(), header, mine, mine.size(),
                             mine.size());
  }
  return paths;
}

/// Fails for every file in `dir` that is not a QUFIPART partial.
void expect_only_partials(const TempDir& dir) {
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().extension(), ".qp")
        << "left behind: " << entry.path();
  }
}

TEST(StreamingMerge, PooledCsvMatchesWriteCsvAroundOneMergeBatch) {
  constexpr std::size_t batch = dist::kMergeCsvBatchRecords;
  static_assert(batch % 16 == 0);
  for (const std::string kind : {"single", "double", "adaptive"}) {
    // Adaptive runs are whole 16-record points; the others end mid-run.
    const std::size_t step = kind == "adaptive" ? 16 : 1;
    for (const std::size_t total : {batch - step, batch, batch + step}) {
      SCOPED_TRACE(kind + " x " + std::to_string(total));
      TempDir dir("pooled_csv");
      const CampaignResult result = synthetic_campaign(kind, total);
      ASSERT_EQ(result.records.size(), total);
      const std::string reference = dir.str("reference.csv");
      result.write_csv(reference);
      const std::string merged = dir.str("merged.csv");
      const auto paths = write_synthetic_partials(result, 3, dir.str());
      const auto stats = dist::merge_result_files_to_csv(paths, merged);
      EXPECT_EQ(stats.merged_records, total);
      EXPECT_EQ(slurp(merged), slurp(reference));
    }
  }
}

TEST(StreamingMerge, PooledCsvFailuresMidMergeLeaveNoFile) {
  constexpr std::size_t batch = dist::kMergeCsvBatchRecords;
  {  // a conflicting duplicate past the first batch
    TempDir dir("pooled_conflict");
    const CampaignResult result = synthetic_campaign("single", 3 * batch);
    auto paths = write_synthetic_partials(result, 2, dir.str());
    // A retry of shard 1 whose record 3 of point p differs in one bit.
    const std::uint32_t p = static_cast<std::uint32_t>(2 * batch / 16 + 1);
    ASSERT_EQ(p % 2, 1u);
    auto loaded = resio::read_result_file(paths[1]);
    for (auto& r : loaded.records) {
      if (r.point_index == p && r.theta_index == 3 && r.phi_index == 0) {
        r.pb = std::nextafter(r.pb, 2.0);
      }
    }
    paths.push_back(dir.str("retry.qp"));
    resio::write_result_file(paths.back(), loaded.header, loaded.records,
                             loaded.executions, loaded.injections);
    expect_error(
        [&] { (void)dist::merge_result_files_to_csv(paths, dir.str("m.csv")); },
        "disagree on point " + std::to_string(p) + " (record 3 of 16");
    expect_only_partials(dir);
  }
  {  // a write failure past the first of three batches
    TempDir dir("pooled_full");
    const CampaignResult result = synthetic_campaign("double", 3 * batch);
    const auto paths = write_synthetic_partials(result, 2, dir.str());
    std::uintmax_t csv_bytes = 0;
    {
      TempDir reference("pooled_full_reference");
      result.write_csv(reference.str("reference.csv"));
      csv_bytes = fs::file_size(reference.str("reference.csv"));
    }
    const std::uintmax_t limit = csv_bytes / 2;
    const std::string csv = dir.str("merged.csv");
    {
      const test_support::FileSizeCap cap(limit);
      expect_error([&] { (void)dist::merge_result_files_to_csv(paths, csv); },
                   csv);
    }
    expect_only_partials(dir);
  }
}

TEST(StreamingMerge, BitExactDuplicatesMergeConflictsAreNamed) {
  TempDir dir("conflict");
  // Synthetic two-point campaign so the duplicate bits are fully controlled.
  resio::ResultFileHeader header;
  header.shard_count = 2;
  header.expected_total_records = 2;
  header.meta.circuit_name = "conflict_test";
  header.meta.backend_name = "synthetic";
  header.meta.grid.theta_step_deg = 60.0;
  header.meta.grid.phi_step_deg = 90.0;
  header.points.resize(2);
  std::vector<InjectionRecord> records;
  for (std::uint32_t p = 0; p < 2; ++p) {
    InjectionRecord r;
    r.point_index = p;
    r.neighbor_qubit = -1;
    r.theta1_index = -1;
    r.phi1_index = -1;
    r.qvf = p == 1 ? 0.0 : 0.5;
    r.pa = 0.25;
    r.pb = 0.75;
    records.push_back(r);
  }

  const std::string a_path = dir.str("a.qp");
  const std::string ok_path = dir.str("ok.qp");
  const std::string bad_path = dir.str("bad.qp");
  resio::write_result_file(a_path, header, records, 2, 2);
  header.shard_index = 1;  // the retry
  resio::write_result_file(ok_path, header, records, 2, 2);
  // A "retry" that disagrees only in the sign bit of a zero: operator==
  // would accept it, the bit-exact duplicate check must not.
  records[1].qvf = -0.0;
  resio::write_result_file(bad_path, header, records, 2, 2);

  // Bit-exact duplicates are confirmations, counted but merged once.
  const std::string merged_path = dir.str("merged.qp");
  const std::string good_inputs[] = {a_path, ok_path};
  const auto stats = dist::merge_result_files(good_inputs, merged_path);
  EXPECT_EQ(stats.merged_records, 2u);
  EXPECT_EQ(stats.duplicate_records, 2u);

  // The corrupted retry is refused, naming the shard pair and the point.
  const std::string bad_inputs[] = {a_path, bad_path};
  try {
    (void)dist::merge_result_files(bad_inputs, merged_path);
    FAIL() << "conflicting duplicate not detected";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("disagree on point 1"), std::string::npos)
        << message;
    EXPECT_NE(message.find("shard 0"), std::string::npos) << message;
    EXPECT_NE(message.find("shard 1"), std::string::npos) << message;
  }
}

TEST(StreamingMerge, IncompleteColumnarMergeIsDiagnosedUnlessAllowed) {
  TempDir dir("incomplete");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  auto paths = write_partials(spec, plan, dir.str());
  paths.pop_back();  // lose a shard
  const std::vector<std::size_t>& lost = plan.shards.back().point_indices;
  ASSERT_FALSE(lost.empty());
  std::string lost_list;
  for (const std::size_t p : lost) {
    lost_list += (lost_list.empty() ? "" : ", ") + std::to_string(p);
  }

  // The error names the lost shard's points, as qufi_shard_merge's
  // missing_points / first_missing report does.
  const std::string merged_path = dir.str("merged.qp");
  try {
    (void)dist::merge_result_files(paths, merged_path);
    FAIL() << "missing shard not detected";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("incomplete campaign"), std::string::npos)
        << message;
    EXPECT_NE(message.find("first missing: " + lost_list + ")"),
              std::string::npos)
        << message;
  }
  dist::MergeOptions options;
  options.allow_incomplete = true;
  const auto stats = dist::merge_result_files(paths, merged_path, options);
  EXPECT_GT(stats.merged_records, 0u);
  EXPECT_EQ(stats.missing.count, lost.size());
  EXPECT_EQ(std::vector<std::size_t>(stats.missing.first.begin(),
                                     stats.missing.first.end()),
            lost);
}

TEST(ShardRunner, StreamingColumnarOutputMatchesInMemoryPartial) {
  TempDir dir("runner_columnar");
  auto spec = quick_spec("bv", 4);
  spec.max_points = 4;
  const auto plan = dist::plan_campaign_shards(spec, 2);
  const auto manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan, false);

  for (std::size_t k = 0; k < manifests.size(); ++k) {
    auto shard_spec = dist::manifest_to_spec(manifests[k]);
    shard_spec.threads = 2;
    const auto reference = run_single_fault_campaign_subset(
        shard_spec, manifests[k].point_indices);

    dist::ShardRunOptions options;
    options.threads = 2;
    options.columnar_output_path =
        dir.str("part_" + std::to_string(k) + ".qp");
    const auto streamed = dist::run_shard(manifests[k], options);
    EXPECT_GT(streamed.partial_bytes, 0u);
    EXPECT_EQ(streamed.streamed_records, reference.records.size());
    EXPECT_EQ(fs::file_size(options.columnar_output_path),
              streamed.partial_bytes);

    // The streamed file is a complete partial: the manifest's shard
    // identity and completeness total, the subset run's metadata
    // (fault-free QVF patched in after the run) and record bits.
    const auto from_disk =
        resio::read_result_file(options.columnar_output_path);
    EXPECT_EQ(from_disk.header.shard_index, manifests[k].shard_index);
    EXPECT_EQ(from_disk.header.shard_count, manifests[k].shard_count);
    EXPECT_EQ(from_disk.header.expected_total_records,
              single_campaign_executions(reference.points.size(), spec.grid));
    EXPECT_EQ(from_disk.header.meta.faultfree_qvf,
              reference.meta.faultfree_qvf);
    EXPECT_EQ(from_disk.header.meta.backend_name, reference.meta.backend_name);
    EXPECT_EQ(from_disk.executions, reference.meta.executions);
    expect_same_records(from_disk.records, reference.records);
  }

  // The partial is the only output, so a run without a path is refused.
  try {
    (void)dist::run_shard(manifests[0], dist::ShardRunOptions{});
    ADD_FAILURE() << "run_shard ran without an output path";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("columnar_output_path"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace qufi
