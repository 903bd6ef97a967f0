// Property test for the incremental (prefix) merge behind the dispatcher's
// live progress view (docs/DISPATCHER.md): for random shard completion
// orders and random kill schedules — a writer abandoned mid-stream with a
// torn frame on disk, a retry attempt re-emitting the whole shard in a
// different order — every streamed merge prefix must be a bit-exact prefix
// of the final merged output, the frontier must never move backwards, and
// once every attempt seals, the prefix must converge to the complete merged
// record sequence. Campaigns are the bv/dj 2-shard quick specs; the shard
// records are computed once in memory and replayed through Live-mode
// ResultWriters, so the property sweep itself is pure I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "core/result_io.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/test_files.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

using test_support::expect_record_bits;
using test_support::quick_spec;
using test_support::slurp;
using test_support::TempDir;

/// One shard's in-memory execution, sliced per owned point for replay.
struct ShardData {
  std::vector<std::size_t> owned;  // global point indices, ascending
  std::vector<std::vector<InjectionRecord>> slices;  // per owned point
  resio::ResultFileHeader header;
};

/// One attempt file being replayed: a Live writer plus the shuffled order
/// in which it emits its shard's points.
struct Attempt {
  std::size_t shard = 0;
  std::string path;
  std::unique_ptr<resio::ResultWriter> writer;
  std::vector<std::size_t> order;  // positions into ShardData::slices
  std::size_t next = 0;
  bool sealed = false;
  std::uint64_t written = 0;
};

/// The ground truth plus everything the replay needs, built once per
/// circuit (the expensive part) and shared across trials.
struct Campaign {
  /// The single-process run: what every merged prefix must be a prefix of.
  CampaignResult merged;
  std::vector<ShardData> shards;
  /// records with point_index < f, i.e. the expected prefix size at
  /// frontier f (merged.records is sorted by point index).
  std::vector<std::size_t> prefix_size;
};

Campaign build_campaign(const std::string& circuit) {
  const auto spec = quick_spec(circuit, 4);
  const auto plan =
      dist::plan_campaign_shards(spec, 2);

  Campaign campaign;
  std::vector<CampaignResult> results;
  for (const auto& assignment : plan.shards) {
    results.push_back(
        run_single_fault_campaign_subset(spec, assignment.point_indices));
  }
  campaign.merged = run_single_fault_campaign(spec);

  for (std::size_t i = 0; i < results.size(); ++i) {
    ShardData shard;
    shard.owned = plan.shards[i].point_indices;
    shard.slices.resize(shard.owned.size());
    for (std::size_t k = 0; k < shard.owned.size(); ++k) {
      const auto point = static_cast<std::uint32_t>(shard.owned[k]);
      for (const InjectionRecord& r : results[i].records) {
        if (r.point_index == point) shard.slices[k].push_back(r);
      }
    }
    shard.header.shard_index = static_cast<std::uint32_t>(i);
    shard.header.shard_count = static_cast<std::uint32_t>(results.size());
    shard.header.expected_total_records = campaign.merged.records.size();
    shard.header.meta = results[i].meta;
    shard.header.points = results[i].points;
    campaign.shards.push_back(std::move(shard));
  }

  campaign.prefix_size.assign(campaign.merged.points.size() + 1, 0);
  for (const InjectionRecord& r : campaign.merged.records) {
    ++campaign.prefix_size[r.point_index + 1];
  }
  std::partial_sum(campaign.prefix_size.begin(), campaign.prefix_size.end(),
                   campaign.prefix_size.begin());
  return campaign;
}

/// The property itself, asserted after every replay event.
void check_prefix(const Campaign& campaign,
                  const std::vector<dist::PrefixMergeInput>& inputs,
                  std::uint32_t& last_frontier, const std::string& where) {
  const auto view = dist::merge_result_prefix(inputs);
  ASSERT_GE(view.frontier, last_frontier) << where << ": frontier regressed";
  last_frontier = view.frontier;
  ASSERT_LE(view.frontier, campaign.merged.points.size()) << where;
  ASSERT_EQ(view.records.size(), campaign.prefix_size[view.frontier])
      << where << ": prefix size disagrees with the frontier";
  for (std::size_t i = 0; i < view.records.size(); ++i) {
    expect_record_bits(view.records[i], campaign.merged.records[i], i);
    if (::testing::Test::HasFailure()) FAIL() << where;
  }
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

Attempt start_attempt(const Campaign& campaign, std::size_t shard,
                      const std::string& path, std::mt19937_64& rng) {
  Attempt attempt;
  attempt.shard = shard;
  attempt.path = path;
  attempt.order = shuffled_order(campaign.shards[shard].slices.size(), rng);
  // One point per block: the finest streaming granularity, so every single
  // replay step moves the observable state of the file.
  attempt.writer = std::make_unique<resio::ResultWriter>(
      path, campaign.shards[shard].header, /*block_records=*/1,
      resio::WriteMode::Live);
  return attempt;
}

void replay_trial(const Campaign& campaign, const TempDir& dir,
                  const std::string& tag, std::uint64_t seed, bool with_kill) {
  std::mt19937_64 rng(seed);
  std::vector<dist::PrefixMergeInput> inputs;
  std::vector<Attempt> attempts;
  for (std::size_t shard = 0; shard < campaign.shards.size(); ++shard) {
    const std::string path =
        dir.str(tag + "_s" + std::to_string(shard) + "_a1.qp");
    inputs.push_back({path, campaign.shards[shard].owned});
    attempts.push_back(start_attempt(campaign, shard, path, rng));
  }

  // Kill shard 0's first attempt after this many of its appends, leaving a
  // torn frame on disk, then start a retry attempt in a fresh order.
  const std::size_t kill_after =
      with_kill ? rng() % (campaign.shards[0].slices.size() + 1)
                : std::size_t(-1);
  bool killed = false;

  std::uint32_t last_frontier = 0;
  check_prefix(campaign, inputs, last_frontier, tag + " (empty files)");

  std::uniform_int_distribution<std::size_t> pick(0, 1'000'000);
  for (;;) {
    // Candidates: attempts that still have points to append or a seal
    // pending. The killed attempt is out of the pool forever.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      if (attempts[i].writer != nullptr && !attempts[i].sealed) {
        live.push_back(i);
      }
    }
    if (live.empty()) break;
    Attempt& attempt = attempts[live[pick(rng) % live.size()]];
    const ShardData& shard = campaign.shards[attempt.shard];

    if (!killed && attempt.shard == 0 && attempt.next >= kill_after) {
      // SIGKILL mid-stream: destroy the writer (the Live file stays, end
      // marker missing), then append the first bytes of a frame the worker
      // never finished — a torn tail the Tail readers must step over.
      killed = true;
      attempt.writer.reset();
      {
        std::ofstream torn(attempt.path,
                           std::ios::binary | std::ios::app);
        const char partial_frame[3] = {'B', 0x40, 0x00};
        torn.write(partial_frame, sizeof partial_frame);
      }
      check_prefix(campaign, inputs, last_frontier, tag + " (after kill)");

      // The retry's input is visible before its writer exists: the merge
      // must count it unreadable and keep going.
      const std::string retry_path = dir.str(tag + "_s0_a2.qp");
      inputs.push_back({retry_path, shard.owned});
      const auto view = dist::merge_result_prefix(inputs);
      EXPECT_GE(view.unreadable_inputs, 1u) << tag;
      attempts.push_back(start_attempt(campaign, 0, retry_path, rng));
      check_prefix(campaign, inputs, last_frontier, tag + " (retry started)");
      continue;
    }

    if (attempt.next < attempt.order.size()) {
      const auto& slice = shard.slices[attempt.order[attempt.next]];
      attempt.writer->append(slice);
      attempt.written += slice.size();
      ++attempt.next;
    } else {
      attempt.writer->finish(attempt.written, attempt.written);
      attempt.sealed = true;
    }
    check_prefix(campaign, inputs, last_frontier, tag + " (replay step)");
  }

  // Everything sealed (except the killed attempt): the prefix must have
  // converged to the complete merged record sequence.
  const auto final_view = dist::merge_result_prefix(inputs);
  EXPECT_TRUE(final_view.complete) << tag;
  EXPECT_EQ(final_view.frontier, campaign.merged.points.size()) << tag;
  EXPECT_EQ(final_view.records.size(), campaign.merged.records.size()) << tag;
  // Two sealed files either way: without a kill both first attempts seal;
  // with one, the killed attempt stays unsealed and the retry seals instead.
  EXPECT_EQ(final_view.sealed_inputs, 2u) << tag;
  EXPECT_EQ(final_view.unreadable_inputs, 0u) << tag;
}

void run_property(const std::string& circuit) {
  TempDir dir(circuit);
  const Campaign campaign = build_campaign(circuit);
  ASSERT_GE(campaign.merged.points.size(), 4u);
  ASSERT_EQ(campaign.shards.size(), 2u);

  int trial = 0;
  for (const std::uint64_t seed :
       {0x51754649ull, 0xDEADBEEFull, 0xA5A5A5A5ull, 0x0Full}) {
    for (const bool with_kill : {false, true}) {
      replay_trial(campaign, dir,
                   circuit + "_t" + std::to_string(trial++), seed, with_kill);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Adaptive campaigns ride the same recombination machinery: for random
// shard emission orders, random merge input orders, and a duplicate retry
// attempt re-emitting a whole shard, the streaming file merge's CSV must
// stay byte-identical to the single-process adaptive run's write_csv —
// including the derived per-point estimate columns, which every exporter
// recomputes by replay.
TEST(MergePrefix, AdaptiveShardSchedulesMergeToTheSingleProcessCsv) {
  auto spec = quick_spec("bv", 4);
  spec.grid = FaultParamGrid{};  // full 15-degree grid: room to adapt
  spec.max_points = 6;
  spec.adaptive = AdaptivePolicy{};

  TempDir dir("adaptive_csv");
  const auto single = run_single_fault_campaign(spec);
  const auto single_csv = dir.str("single.csv");
  single.write_csv(single_csv);
  const std::string single_bytes = slurp(single_csv);
  ASSERT_FALSE(single_bytes.empty());

  const auto plan =
      dist::plan_campaign_shards(spec, 2);
  std::vector<CampaignResult> results;
  for (const auto& assignment : plan.shards) {
    results.push_back(
        run_single_fault_campaign_subset(spec, assignment.point_indices));
  }

  int trial = 0;
  for (const std::uint64_t seed : {0x5EEDull, 0xCAFEull, 0xF00Dull}) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> inputs;
    // Attempt 0 and 1 are the two shards; attempt 2 is a bit-exact retry
    // of a random shard (the duplicate schedule the merger must collapse).
    const std::size_t retried = rng() % results.size();
    for (std::size_t a = 0; a < 3; ++a) {
      const std::size_t shard = a < 2 ? a : retried;
      const auto& result = results[shard];
      resio::ResultFileHeader header;
      header.shard_index = static_cast<std::uint32_t>(shard);
      header.shard_count = 2;
      header.expected_total_records = 0;  // adaptive: decided at run time
      header.meta = result.meta;
      header.points = result.points;
      const auto path = dir.str("t" + std::to_string(trial) + "_a" +
                                std::to_string(a) + ".qp");
      resio::ResultWriter writer(path, header, /*block_records=*/1,
                                 resio::WriteMode::Live);
      // Emit whole points in a shuffled order — blocks never split points,
      // so any emission order is a valid worker schedule.
      std::vector<std::vector<InjectionRecord>> slices;
      for (std::size_t i = 0; i < result.records.size();) {
        std::size_t j = i;
        while (j < result.records.size() &&
               result.records[j].point_index ==
                   result.records[i].point_index) {
          ++j;
        }
        slices.emplace_back(result.records.begin() + i,
                            result.records.begin() + j);
        i = j;
      }
      for (const std::size_t k : shuffled_order(slices.size(), rng)) {
        writer.append(slices[k]);
      }
      writer.finish(result.meta.executions, result.meta.injections);
      inputs.push_back(path);
    }

    std::shuffle(inputs.begin(), inputs.end(), rng);
    const auto merged_csv = dir.str("t" + std::to_string(trial) + ".csv");
    const auto stats = dist::merge_result_files_to_csv(inputs, merged_csv);
    EXPECT_GT(stats.duplicate_records, 0u) << "trial " << trial;
    EXPECT_EQ(slurp(merged_csv), single_bytes)
        << "trial " << trial << " (retry of shard " << retried << ")";
    ++trial;
  }
}

TEST(MergePrefix, RandomOrdersAndKillsYieldBitExactPrefixesBv) {
  run_property("bv");
}

TEST(MergePrefix, RandomOrdersAndKillsYieldBitExactPrefixesDj) {
  run_property("dj");
}

}  // namespace
}  // namespace qufi
