// Dispatcher fault-injection harness (docs/DISPATCHER.md): every failure
// mode the lease/heartbeat/retry state machine claims to survive is scripted
// here against the injectable FakeClock — a worker killed mid-shard, a
// heartbeat stall, an exhausted retry budget, duplicate completions from
// presumed-dead workers (bit-exact tolerated, divergent fatal), and a
// corrupt partial (quarantined, requeued, never merged). The invariant under
// test throughout: whatever the kill schedule, the final merged campaign CSV
// is byte-identical to the single-process run's.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "core/result_io.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "service/clock.hpp"
#include "service/dispatcher.hpp"
#include "service/fleet.hpp"
#include "service/submission.hpp"
#include "support/campaign_fixtures.hpp"
#include "support/shard_partials.hpp"
#include "support/test_files.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi {
namespace {

namespace fs = std::filesystem;

using test_support::expect_error;
using test_support::for_each_byte_flip;
using test_support::for_each_truncation;
using test_support::quick_spec;
using test_support::slurp;
using test_support::spit;
using test_support::TempDir;

service::CampaignJob make_job(const std::string& name, int priority,
                              const CampaignSpec& spec, std::uint32_t shards,
                              const std::string& csv_path) {
  const auto plan =
      dist::plan_campaign_shards(spec, shards);
  service::CampaignJob job;
  job.name = name;
  job.priority = priority;
  job.manifests = dist::make_manifests(
      spec, "casablanca", dist::WorkerBackendKind::Density, plan,
      /*double_fault=*/false);
  job.csv_path = csv_path;
  return job;
}

/// Executes one leased attempt exactly as a fleet worker would: Live
/// columnar streaming into the lease's attempt path, sealed at finish.
void run_lease(const service::ShardLease& lease) {
  dist::ShardRunOptions options;
  options.threads = 2;
  options.columnar_output_path = lease.output_path;
  options.columnar_live = true;
  (void)dist::run_shard(lease.manifest, options);
}

std::string reference_csv(const CampaignSpec& spec, const std::string& path) {
  run_single_fault_campaign(spec).write_csv(path);
  return path;
}

// ---- submission + priority --------------------------------------------------

TEST(Dispatcher, SubmitRejectsBadJobs) {
  TempDir dir("submit");
  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  service::Dispatcher dispatcher(options, clock);

  const auto spec = quick_spec("bv", 4);
  dispatcher.submit(make_job("ok", 0, spec, 2, dir.str("ok.csv")));
  // Duplicate name.
  EXPECT_THROW(dispatcher.submit(make_job("ok", 0, spec, 2, dir.str("b.csv"))),
               Error);
  // Path separators in the name would escape the spool directory.
  EXPECT_THROW(
      dispatcher.submit(make_job("../oops", 0, spec, 2, dir.str("c.csv"))),
      Error);
  // So would the relative directory names themselves.
  EXPECT_THROW(dispatcher.submit(make_job(".", 0, spec, 2, dir.str("e.csv"))),
               Error);
  EXPECT_THROW(
      dispatcher.submit(make_job("..", 0, spec, 2, dir.str("f.csv"))), Error);
  // Empty manifest list.
  service::CampaignJob empty_job;
  empty_job.name = "empty";
  empty_job.csv_path = dir.str("d.csv");
  EXPECT_THROW(dispatcher.submit(empty_job), Error);
}

TEST(Dispatcher, AcquireOrdersByPriorityThenSubmission) {
  TempDir dir("priority");
  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  service::Dispatcher dispatcher(options, clock);

  const auto spec = quick_spec("bv", 4);
  dispatcher.submit(make_job("low-early", 0, spec, 1, dir.str("a.csv")));
  dispatcher.submit(make_job("high", 5, spec, 1, dir.str("b.csv")));
  dispatcher.submit(make_job("low-late", 0, spec, 1, dir.str("c.csv")));

  const auto first = dispatcher.acquire("w0");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->campaign, "high");
  // Priority ties go to the earlier submission.
  const auto second = dispatcher.acquire("w0");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->campaign, "low-early");
  const auto third = dispatcher.acquire("w0");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->campaign, "low-late");
  EXPECT_FALSE(dispatcher.acquire("w0").has_value());
}

// ---- kill / stall / requeue -------------------------------------------------

TEST(Dispatcher, WorkerKilledMidShardIsRequeuedAndCsvStaysByteIdentical) {
  TempDir dir("kill");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("reference.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));

  // Worker 0 takes shard 0 and dies mid-write: simulate by running the
  // shard fully, then truncating its Live output to a torn tail — exactly
  // the artifact a SIGKILL between block flushes leaves behind.
  const auto doomed = dispatcher.acquire("w0");
  ASSERT_TRUE(doomed.has_value());
  EXPECT_EQ(doomed->attempt, 1u);
  EXPECT_NE(doomed->output_path.find("attempt1"), std::string::npos);
  run_lease(*doomed);
  const auto full_size = fs::file_size(doomed->output_path);
  fs::resize_file(doomed->output_path, full_size - full_size / 3);

  // The live progress merge tolerates the torn attempt file: it merges the
  // complete blocks below the frontier and never throws on the torn tail.
  const auto partial = dispatcher.progress("bv4");
  EXPECT_FALSE(partial.complete);
  EXPECT_LE(partial.frontier, partial.total_points);

  // No heartbeat arrives; the lease expires and the shard requeues.
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);
  EXPECT_FALSE(dispatcher.heartbeat(doomed->id));

  // The retry gets a fresh attempt path — the torn file is never reused.
  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->campaign, "bv4");
  EXPECT_EQ(retry->shard_index, doomed->shard_index);
  EXPECT_EQ(retry->attempt, 2u);
  EXPECT_NE(retry->output_path, doomed->output_path);
  run_lease(*retry);
  dispatcher.complete(retry->id);

  const auto other = dispatcher.acquire("w1");
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->shard_index, doomed->shard_index);
  run_lease(*other);
  dispatcher.complete(other->id);

  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Completed);
  EXPECT_EQ(status.shards_done, 2u);
  EXPECT_EQ(status.requeues, 1u);
  EXPECT_TRUE(dispatcher.idle());

  // The whole point of the exercise: the kill never shows in the output.
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));

  // And the completed campaign's progress view is the full merge.
  const auto final_view = dispatcher.progress("bv4");
  EXPECT_TRUE(final_view.complete);
  EXPECT_EQ(final_view.frontier, final_view.total_points);
}

TEST(Dispatcher, HeartbeatKeepsLeaseAliveUntilTheWorkerStalls) {
  TempDir dir("stall");
  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(
      make_job("bv4", 0, quick_spec("bv", 4), 1, dir.str("bv4.csv")));

  const auto lease = dispatcher.acquire("w0");
  ASSERT_TRUE(lease.has_value());

  // Regular heartbeats hold the lease across several timeout windows.
  for (int i = 0; i < 4; ++i) {
    clock.advance(800);
    EXPECT_TRUE(dispatcher.heartbeat(lease->id));
    EXPECT_EQ(dispatcher.tick(), 0u);
  }
  EXPECT_EQ(dispatcher.campaign_status("bv4").shards_leased, 1u);

  // The worker stalls: one missed window and the lease expires.
  clock.advance(1'200);
  EXPECT_EQ(dispatcher.tick(), 1u);
  EXPECT_FALSE(dispatcher.heartbeat(lease->id));
  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.shards_pending, 1u);
  EXPECT_EQ(status.requeues, 1u);
}

TEST(Dispatcher, RetryBudgetExhaustionFailsTheCampaignNamingTheShard) {
  TempDir dir("budget");
  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.max_retries = 1;  // two attempts total
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(
      make_job("bv4", 0, quick_spec("bv", 4), 1, dir.str("bv4.csv")));

  const auto first = dispatcher.acquire("w0");
  ASSERT_TRUE(first.has_value());
  dispatcher.fail(first->id, "synthetic worker crash");
  EXPECT_EQ(dispatcher.campaign_status("bv4").state,
            service::CampaignState::Running);

  const auto second = dispatcher.acquire("w0");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->attempt, 2u);
  dispatcher.fail(second->id, "synthetic worker crash");

  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Failed);
  EXPECT_NE(status.error.find("shard 0"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("retry budget"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("synthetic worker crash"), std::string::npos)
      << status.error;
  EXPECT_FALSE(dispatcher.acquire("w0").has_value());
  EXPECT_TRUE(dispatcher.idle());
}

// ---- duplicate completions --------------------------------------------------

TEST(Dispatcher, LateDuplicateCompletionIsVerifiedBitExactAndTolerated) {
  TempDir dir("duplicate");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("reference.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("bv4.csv")));

  // Attempt 1 finishes its shard but is presumed dead before it can report:
  // the sealed file sits on disk while the lease expires.
  const auto slow = dispatcher.acquire("w0");
  ASSERT_TRUE(slow.has_value());
  run_lease(*slow);
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);

  // Attempt 2 re-runs the shard and completes the campaign.
  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->attempt, 2u);
  run_lease(*retry);
  dispatcher.complete(retry->id);
  EXPECT_EQ(dispatcher.campaign_status("bv4").state,
            service::CampaignState::Completed);

  // The presumed-dead worker wakes up and reports after all. Determinism
  // means its file is bit-identical, so the duplicate is simply dropped.
  dispatcher.complete(slow->id);
  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Completed);
  EXPECT_EQ(status.shards.at(0).quarantined, 0u);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
}

TEST(Dispatcher, DivergentDuplicateCompletionFailsTheCampaign) {
  TempDir dir("divergent");
  const auto spec = quick_spec("bv", 4);

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  // Two shards: shard 1 stays pending so the campaign is still live when
  // the late divergent report lands (retired leases of a *terminal*
  // campaign are pruned — see RetiredLeasesPrunedAtCampaignTerminal).
  dispatcher.submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));

  const auto slow = dispatcher.acquire("w0");
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(slow->shard_index, 0u);
  run_lease(*slow);
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);

  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->shard_index, 0u);
  run_lease(*retry);
  dispatcher.complete(retry->id);

  // Forge a diverging attempt-1 file: same campaign identity, one QVF off.
  // A real worker can only produce this through nondeterminism, which is
  // exactly what the duplicate check exists to catch.
  auto forged = resio::read_result_file(retry->output_path);
  ASSERT_FALSE(forged.records.empty());
  forged.records.front().qvf += 0.25;
  resio::ResultFileHeader header = forged.header;
  resio::write_result_file(slow->output_path, header, forged.records,
                           forged.executions, forged.injections);

  dispatcher.complete(slow->id);
  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Failed);
  EXPECT_NE(status.error.find("diverge"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("deterministic"), std::string::npos)
      << status.error;
}

// ---- corrupt partials -------------------------------------------------------

TEST(Dispatcher, CorruptPartialIsQuarantinedRequeuedAndNeverMerged) {
  TempDir dir("corrupt");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("reference.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("bv4.csv")));

  const auto lease = dispatcher.acquire("w0");
  ASSERT_TRUE(lease.has_value());
  run_lease(*lease);

  // Flip one byte in the middle of the sealed file (a block body), then
  // report it complete: disk corruption, a bad NIC, a buggy worker — the
  // dispatcher cannot tell and must not merge any of them.
  {
    std::fstream file(lease->output_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size / 2, std::ios::beg);
    char byte = 0;
    file.seekg(size / 2, std::ios::beg);
    file.read(&byte, 1);
    byte = static_cast<char>(static_cast<unsigned char>(byte) ^ 0x01u);
    file.seekp(size / 2, std::ios::beg);
    file.write(&byte, 1);
  }
  dispatcher.complete(lease->id);

  auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Running);
  EXPECT_EQ(status.shards.at(0).state, service::ShardState::Pending);
  EXPECT_EQ(status.shards.at(0).quarantined, 1u);
  EXPECT_EQ(status.requeues, 1u);
  EXPECT_FALSE(fs::exists(lease->output_path));
  EXPECT_TRUE(fs::exists(lease->output_path + ".quarantined"));

  // The quarantined file is out of the merge set: the live progress view
  // still works and sees an empty frontier, not a corruption error.
  const auto partial = dispatcher.progress("bv4");
  EXPECT_EQ(partial.records.size(), 0u);

  // The requeued attempt completes the campaign; the corrupt bytes never
  // reach the merged CSV.
  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->attempt, 2u);
  run_lease(*retry);
  dispatcher.complete(retry->id);
  status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.state, service::CampaignState::Completed);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
  EXPECT_TRUE(fs::exists(lease->output_path + ".quarantined"));
}

// ---- streaming progress -----------------------------------------------------

TEST(Dispatcher, ProgressGrowsMonotonicallyWhileShardsLand) {
  TempDir dir("progress");
  const auto spec = quick_spec("dj", 4);

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("dj4", 0, spec, 2, dir.str("dj4.csv")));

  // Before any lease: nothing readable, empty prefix, no error.
  auto view = dispatcher.progress("dj4");
  EXPECT_EQ(view.frontier, 0u);
  EXPECT_FALSE(view.complete);

  std::uint32_t last_frontier = 0;
  std::size_t last_records = 0;
  for (int i = 0; i < 2; ++i) {
    const auto lease = dispatcher.acquire("w0");
    ASSERT_TRUE(lease.has_value());
    run_lease(*lease);
    dispatcher.complete(lease->id);
    view = dispatcher.progress("dj4");
    EXPECT_GE(view.frontier, last_frontier);
    EXPECT_GE(view.records.size(), last_records);
    last_frontier = view.frontier;
    last_records = view.records.size();
  }
  EXPECT_TRUE(view.complete);
  EXPECT_EQ(view.frontier, view.total_points);
  EXPECT_THROW((void)dispatcher.progress("no-such-campaign"), Error);
}

// ---- end to end through the thread fleet ------------------------------------

TEST(Dispatcher, ThreadFleetSurvivesASwallowedCompletionEndToEnd) {
  TempDir dir("fleet");
  const auto bv = quick_spec("bv", 4);
  const auto dj = quick_spec("dj", 4);
  const std::string ref_bv = reference_csv(bv, dir.str("ref_bv.csv"));
  const std::string ref_dj = reference_csv(dj, dir.str("ref_dj.csv"));

  service::SystemClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'500;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, bv, 2, dir.str("bv4.csv")));
  dispatcher.submit(make_job("dj4", 5, dj, 2, dir.str("dj4.csv")));

  // Swallow the first completion: the worker computed and sealed its file
  // but "dies" before reporting — the dispatcher only learns through the
  // lease expiring, and must requeue and retry.
  std::atomic<bool> swallowed{false};
  service::FleetOptions fleet_options;
  fleet_options.workers = 2;
  fleet_options.threads_per_worker = 1;
  fleet_options.heartbeat_interval_ms = 300;
  fleet_options.deliver_completion = [&](const service::ShardLease&) {
    return swallowed.exchange(true);
  };
  service::ThreadWorkerFleet fleet(dispatcher, fleet_options);
  fleet.drain();
  fleet.stop();

  const auto all = dispatcher.status();
  ASSERT_EQ(all.size(), 2u);
  std::uint32_t total_requeues = 0;
  for (const auto& campaign : all) {
    EXPECT_EQ(campaign.state, service::CampaignState::Completed)
        << campaign.name << ": " << campaign.error;
    total_requeues += campaign.requeues;
  }
  EXPECT_GE(total_requeues, 1u);
  EXPECT_TRUE(swallowed.load());

  // Kill schedules never leak into results: both CSVs byte-identical.
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(ref_bv));
  EXPECT_EQ(slurp(dir.str("dj4.csv")), slurp(ref_dj));
}

TEST(Dispatcher, SharedLaneFleetsWriteTheSingleProcessCsvs) {
  TempDir dir("lanes");
  const std::vector<std::string> names = {"bv", "dj", "qft"};
  std::vector<std::string> references;
  for (const std::string& name : names) {
    references.push_back(slurp(reference_csv(
        quick_spec(name, 4), dir.str("ref_" + name + ".csv"))));
  }
  // workers x threads_per_worker: one shared pool of 4 lanes each time.
  for (const auto& [workers, threads] :
       std::vector<std::pair<int, int>>{{1, 4}, {2, 2}, {4, 1}}) {
    const std::string tag =
        std::to_string(workers) + "x" + std::to_string(threads);
    service::SystemClock clock;
    service::DispatcherOptions options;
    options.work_dir = dir.str("work_" + tag);
    options.journal_path = dir.str("work_" + tag + "/journal");
    service::Dispatcher dispatcher(options, clock);
    for (const std::string& name : names) {
      dispatcher.submit(make_job(name + "4", 0, quick_spec(name, 4), 12,
                                 dir.str(tag + "_" + name + ".csv")));
    }
    service::FleetOptions fleet_options;
    fleet_options.workers = workers;
    fleet_options.threads_per_worker = threads;
    service::ThreadWorkerFleet fleet(dispatcher, fleet_options);
    fleet.drain();
    fleet.stop();
    EXPECT_EQ(fleet.shards_completed(), 36u) << tag;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto status = dispatcher.campaign_status(names[i] + "4");
      EXPECT_EQ(status.state, service::CampaignState::Completed)
          << tag << " " << names[i] << ": " << status.error;
      EXPECT_EQ(slurp(dir.str(tag + "_" + names[i] + ".csv")), references[i])
          << tag << " " << names[i];
    }
  }
}

// ---- the final merge runs outside the dispatcher lock ----------------------

/// A one-lane pool whose lane is held until release(), or for at most
/// 10 s: a merge formatting on it cannot finish before then, and a
/// regression fails its test instead of hanging it.
class HeldLane {
 public:
  HeldLane() : held_(release_.get_future().share()) {
    pool_.submit([held = held_] { held.wait_for(std::chrono::seconds(10)); });
  }
  ~HeldLane() { release(); }
  util::ThreadPool& pool() { return pool_; }
  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> held_;
  bool released_ = false;
  util::ThreadPool pool_{1};
};

/// Runs complete(lease, held lane) on a thread and returns once the
/// completion is acknowledged (every shard of `campaign` Done) while the
/// final merge waits for the held lane. `returned` turns true when
/// complete() returns.
std::thread complete_on_held_lane(service::Dispatcher& dispatcher,
                                  std::uint64_t lease_id,
                                  const std::string& campaign,
                                  HeldLane& lane, std::atomic<bool>& returned) {
  std::thread completer([&dispatcher, lease_id, &lane, &returned] {
    dispatcher.complete(lease_id, &lane.pool());
    returned.store(true);
  });
  for (int i = 0; i < 10'000; ++i) {
    const auto status = dispatcher.campaign_status(campaign);
    if (status.shards_done == status.shards_total) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return completer;
}

TEST(Dispatcher, FinalMergeLeavesTheDispatcherFreeWhileItFormats) {
  TempDir dir("unlocked");
  const auto bv = quick_spec("bv", 4);
  const std::string reference = reference_csv(bv, dir.str("ref.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.journal_path = dir.str("work/journal");
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 1, bv, 1, dir.str("bv4.csv")));
  dispatcher.submit(
      make_job("dj4", 0, quick_spec("dj", 4), 2, dir.str("dj4.csv")));

  const auto last = dispatcher.acquire("w0");
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->campaign, "bv4");
  run_lease(*last);

  HeldLane lane;
  std::atomic<bool> returned{false};
  std::thread completer =
      complete_on_held_lane(dispatcher, last->id, "bv4", lane, returned);
  // The merge waits for the held lane, and every other call goes on.
  // (No ASSERT until the completer is joined.)
  const auto other = dispatcher.acquire("w1");
  EXPECT_TRUE(other.has_value() && other->campaign == "dj4");
  EXPECT_TRUE(other.has_value() && dispatcher.heartbeat(other->id));
  const auto all = dispatcher.status();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at(0).state, service::CampaignState::Running);
  EXPECT_EQ(all.at(0).shards_done, 1u);
  EXPECT_EQ(dispatcher.campaign_status("dj4").shards_leased, 1u);
  EXPECT_FALSE(dispatcher.idle());
  EXPECT_FALSE(dispatcher.wait_idle_for(1));
  EXPECT_FALSE(fs::exists(dir.str("bv4.csv")));
  EXPECT_FALSE(returned.load());
  // The completion was journaled before the merge began; the terminal
  // record waits for it.
  const std::string during = slurp(options.journal_path);
  EXPECT_NE(during.find(" complete "), std::string::npos) << during;
  EXPECT_EQ(during.find(" terminal "), std::string::npos) << during;

  lane.release();
  completer.join();
  EXPECT_EQ(dispatcher.campaign_status("bv4").state,
            service::CampaignState::Completed);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
  EXPECT_FALSE(fs::exists(dir.str("bv4.csv.merging")));
  EXPECT_NE(slurp(options.journal_path).find(" terminal "), std::string::npos);
}

/// A late duplicate of the campaign's only shard lands while the final
/// merge of the accepted attempt waits for its lane: `diverge` forges one
/// QVF in the duplicate's file.
void duplicate_during_final_merge(bool diverge) {
  TempDir dir(diverge ? "merge_divergent" : "merge_duplicate");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("ref.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("bv4.csv")));

  // Attempt 1 finishes but is presumed dead; attempt 2 completes the
  // campaign.
  const auto slow = dispatcher.acquire("w0");
  ASSERT_TRUE(slow.has_value());
  run_lease(*slow);
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);
  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  run_lease(*retry);
  if (diverge) {
    auto forged = resio::read_result_file(retry->output_path);
    ASSERT_FALSE(forged.records.empty());
    forged.records.front().qvf += 0.25;
    resio::write_result_file(slow->output_path, forged.header,
                             forged.records, forged.executions,
                             forged.injections);
  }

  HeldLane lane;
  std::atomic<bool> returned{false};
  std::thread completer =
      complete_on_held_lane(dispatcher, retry->id, "bv4", lane, returned);
  dispatcher.complete(slow->id);
  EXPECT_FALSE(returned.load());
  lane.release();
  completer.join();

  const auto status = dispatcher.campaign_status("bv4");
  EXPECT_EQ(status.shards.at(0).quarantined, 0u);
  EXPECT_TRUE(dispatcher.idle());
  EXPECT_EQ(dispatcher.retired_lease_count(), 0u);
  EXPECT_FALSE(fs::exists(dir.str("bv4.csv.merging")));
  if (diverge) {
    EXPECT_EQ(status.state, service::CampaignState::Failed);
    EXPECT_NE(status.error.find("diverge"), std::string::npos)
        << status.error;
    EXPECT_FALSE(fs::exists(dir.str("bv4.csv")));
  } else {
    EXPECT_EQ(status.state, service::CampaignState::Completed)
        << status.error;
    EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
  }
}

TEST(Dispatcher, DivergentDuplicateDuringTheFinalMergeFailsAndLeavesNoCsv) {
  duplicate_during_final_merge(/*diverge=*/true);
}

TEST(Dispatcher, BitExactDuplicateDuringTheFinalMergeIsTolerated) {
  duplicate_during_final_merge(/*diverge=*/false);
}

TEST(Dispatcher, IdleWaitWakesAtTheTerminalTransitionAndDrainHonorsStop) {
  TempDir dir("idlewait");
  const auto spec = quick_spec("bv", 4);
  {
    service::FakeClock clock;
    service::DispatcherOptions options;
    options.work_dir = dir.str("work");
    service::Dispatcher dispatcher(options, clock);
    dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("bv4.csv")));
    const auto lease = dispatcher.acquire("w0");
    ASSERT_TRUE(lease.has_value());
    run_lease(*lease);
    EXPECT_FALSE(dispatcher.wait_idle_for(1));

    // A waiter with a minute to spare wakes when complete() turns the
    // campaign terminal, not when its timeout runs out.
    std::atomic<bool> woke_idle{false};
    std::chrono::steady_clock::duration waited{};
    std::thread waiter([&] {
      const auto start = std::chrono::steady_clock::now();
      woke_idle.store(dispatcher.wait_idle_for(60'000));
      waited = std::chrono::steady_clock::now() - start;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dispatcher.complete(lease->id);
    waiter.join();
    EXPECT_TRUE(woke_idle.load());
    EXPECT_LT(waited, std::chrono::seconds(30));
  }

  // A drain over a campaign that never finishes (every completion is
  // swallowed, the lease never expires) returns once stop() is called
  // from another thread.
  service::SystemClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work_stop");
  options.lease_timeout_ms = 600'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("stop.csv")));
  service::FleetOptions fleet_options;
  fleet_options.workers = 1;
  fleet_options.heartbeat_interval_ms = 50;
  fleet_options.deliver_completion = [](const service::ShardLease&) {
    return false;
  };
  service::ThreadWorkerFleet fleet(dispatcher, fleet_options);
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    fleet.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(drained.load());
  fleet.stop();
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_FALSE(dispatcher.idle());
}

// ---- lease-lifecycle bugfixes -----------------------------------------------

TEST(Dispatcher, FailReturnsFalseForUnknownOrRetiredLeases) {
  TempDir dir("failbool");
  const auto spec = quick_spec("bv", 4);

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  options.journal_path = dir.str("work/journal");
  fs::create_directories(options.work_dir);
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 1, dir.str("bv4.csv")));

  // A lease id this dispatcher never issued: rejected, and journaled as
  // fail-unknown for post-mortem.
  EXPECT_FALSE(dispatcher.fail(999, "caller bug"));
  EXPECT_NE(slurp(options.journal_path).find(" fail-unknown "),
            std::string::npos);

  const auto lease = dispatcher.acquire("w0");
  ASSERT_TRUE(lease.has_value());

  // Expire the lease: a late failure report must be rejected (the requeue
  // already happened; counting it again would double-book the failure) —
  // and it is a *known* retired lease, so no fail-unknown record.
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);
  const auto journal_before = slurp(options.journal_path);
  EXPECT_FALSE(dispatcher.fail(lease->id, "late report"));
  EXPECT_EQ(slurp(options.journal_path), journal_before);

  // An active lease: the report is accepted.
  const auto retry = dispatcher.acquire("w1");
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(dispatcher.fail(retry->id, "worker exception"));
  EXPECT_EQ(dispatcher.campaign_status("bv4").requeues, 2u);
}

TEST(Dispatcher, RetiredLeasesPrunedAtCampaignTerminal) {
  TempDir dir("prune");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("ref.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));

  // Populate retired_ through every retirement flavor: an expiry, a
  // voluntary failure, and ordinary completions.
  const auto slow = dispatcher.acquire("w0");
  ASSERT_TRUE(slow.has_value());
  clock.advance(1'500);
  EXPECT_EQ(dispatcher.tick(), 1u);
  const auto failed = dispatcher.acquire("w1");
  ASSERT_TRUE(failed.has_value());
  EXPECT_TRUE(dispatcher.fail(failed->id, "induced"));
  EXPECT_EQ(dispatcher.retired_lease_count(), 2u);

  // Drain: the campaign completes and every retired lease of the now
  // terminal campaign is pruned — a long-running daemon's map stays
  // bounded by in-flight work instead of leaking one entry per lease ever
  // issued (the journal keeps late duplicates reconstructible).
  for (int i = 0; i < 8; ++i) {
    const auto lease = dispatcher.acquire("w2");
    if (!lease) break;
    run_lease(*lease);
    dispatcher.complete(lease->id);
  }
  EXPECT_EQ(dispatcher.campaign_status("bv4").state,
            service::CampaignState::Completed);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
  EXPECT_EQ(dispatcher.retired_lease_count(), 0u);
}

// ---- write-ahead journal + restart recovery ---------------------------------

/// Drains a recovered dispatcher exactly as a fleet would: lease, run,
/// complete, expiring stuck leases as needed. Bounded so a regression
/// fails the test instead of hanging it.
void drain(service::Dispatcher& dispatcher, service::FakeClock& clock,
           std::int64_t lease_timeout_ms) {
  for (int i = 0; i < 32 && !dispatcher.idle(); ++i) {
    const auto lease = dispatcher.acquire("drain");
    if (!lease) {
      clock.advance(lease_timeout_ms + 1);
      dispatcher.tick();
      continue;
    }
    run_lease(*lease);
    dispatcher.complete(lease->id);
  }
}

TEST(Dispatcher, JournalRecoveryResumesWithoutRerunningDoneShards) {
  TempDir dir("recover");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("ref.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  options.journal_path = dir.str("work/journal");
  fs::create_directories(options.work_dir);

  auto dispatcher =
      std::make_unique<service::Dispatcher>(options, clock);
  EXPECT_FALSE(dispatcher->recovery_report().recovered);
  dispatcher->submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));

  // Complete shard 0, then "crash" with shard 1 still pending.
  const auto first = dispatcher->acquire("w0");
  ASSERT_TRUE(first.has_value());
  run_lease(*first);
  dispatcher->complete(first->id);
  dispatcher.reset();  // no orderly shutdown exists — destruction IS the kill

  dispatcher = std::make_unique<service::Dispatcher>(options, clock);
  const auto& report = dispatcher->recovery_report();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.campaigns_restored, 1u);
  EXPECT_FALSE(report.journal_truncated);
  const auto status = dispatcher->campaign_status("bv4");
  EXPECT_EQ(status.shards_done, 1u);
  EXPECT_EQ(status.shards_pending, 1u);
  EXPECT_EQ(status.shards.at(0).attempts, 1u);

  drain(*dispatcher, clock, options.lease_timeout_ms);
  const auto final_status = dispatcher->campaign_status("bv4");
  EXPECT_EQ(final_status.state, service::CampaignState::Completed);
  // The Done shard was never re-executed: still exactly one attempt.
  EXPECT_EQ(final_status.shards.at(0).attempts, 1u);
  EXPECT_EQ(final_status.shards.at(1).attempts, 1u);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
}

TEST(Dispatcher, JournalRecoveryAdoptsSealedAndQuarantinesTornAttempts) {
  TempDir dir("adopt");
  const auto spec = quick_spec("bv", 4);
  const std::string reference = reference_csv(spec, dir.str("ref.csv"));

  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  options.journal_path = dir.str("work/journal");
  fs::create_directories(options.work_dir);

  auto dispatcher =
      std::make_unique<service::Dispatcher>(options, clock);
  dispatcher->submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));

  // Shard 0's worker finished its file but the daemon died before the
  // completion was reported. Shard 1's worker died mid-write: truncate its
  // sealed file back to a torn Live prefix.
  const auto sealed = dispatcher->acquire("w0");
  const auto torn = dispatcher->acquire("w1");
  ASSERT_TRUE(sealed.has_value());
  ASSERT_TRUE(torn.has_value());
  run_lease(*sealed);
  run_lease(*torn);
  fs::resize_file(torn->output_path, fs::file_size(torn->output_path) / 2);
  dispatcher.reset();

  dispatcher = std::make_unique<service::Dispatcher>(options, clock);
  const auto& report = dispatcher->recovery_report();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.shards_adopted, 1u);
  EXPECT_EQ(report.shards_requeued, 1u);
  EXPECT_EQ(report.files_quarantined, 1u);
  const auto status = dispatcher->campaign_status("bv4");
  EXPECT_EQ(status.shards_done, 1u);       // adopted, not re-run
  EXPECT_EQ(status.shards_pending, 1u);    // quarantined + requeued
  EXPECT_TRUE(fs::exists(torn->output_path + ".quarantined"));
  EXPECT_FALSE(fs::exists(torn->output_path));

  drain(*dispatcher, clock, options.lease_timeout_ms);
  const auto final_status = dispatcher->campaign_status("bv4");
  EXPECT_EQ(final_status.state, service::CampaignState::Completed);
  EXPECT_EQ(final_status.shards.at(sealed->shard_index).attempts, 1u);
  EXPECT_EQ(final_status.shards.at(torn->shard_index).attempts, 2u);
  EXPECT_EQ(slurp(dir.str("bv4.csv")), slurp(reference));
}

/// The restart-at-every-transition property (ISSUE 10 acceptance): a fixed
/// campaign script — submit, complete one shard, tear one attempt, expire
/// it, retry — is cut short after every prefix of its actions; recovery
/// over the journal plus a plain drain must always converge to the byte-
/// identical final CSV, and a shard that was Done at the kill point must
/// never run again (its attempt count is frozen by the crash).
TEST(Dispatcher, RestartAtEveryJournalPrefixYieldsIdenticalResults) {
  const auto spec = quick_spec("bv", 4);
  TempDir ref_dir("prefix_ref");
  const std::string reference =
      reference_csv(spec, ref_dir.str("ref.csv"));

  struct Script {
    service::FakeClock clock;
    std::optional<service::ShardLease> first, torn, retry;
  };
  using Action = void (*)(service::Dispatcher&, Script&,
                          const std::string& csv);
  const Action actions[] = {
      [](service::Dispatcher& d, Script&, const std::string& csv) {
        d.submit(make_job("bv4", 0, quick_spec("bv", 4), 2, csv));
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        s.first = d.acquire("w0");
        ASSERT_TRUE(s.first.has_value());
        run_lease(*s.first);
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        d.complete(s.first->id);
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        s.torn = d.acquire("w1");
        ASSERT_TRUE(s.torn.has_value());
        run_lease(*s.torn);
        fs::resize_file(s.torn->output_path,
                        fs::file_size(s.torn->output_path) / 2);
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        s.clock.advance(1'500);
        EXPECT_EQ(d.tick(), 1u);
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        s.retry = d.acquire("w2");
        ASSERT_TRUE(s.retry.has_value());
        run_lease(*s.retry);
      },
      [](service::Dispatcher& d, Script& s, const std::string&) {
        d.complete(s.retry->id);
      },
  };
  const std::size_t num_actions = std::size(actions);

  for (std::size_t prefix = 0; prefix <= num_actions; ++prefix) {
    SCOPED_TRACE("killed after action " + std::to_string(prefix) + "/" +
                 std::to_string(num_actions));
    TempDir dir("prefix_" + std::to_string(prefix));
    Script script;
    service::DispatcherOptions options;
    options.work_dir = dir.str("work");
    options.lease_timeout_ms = 1'000;
    options.journal_path = dir.str("work/journal");
    fs::create_directories(options.work_dir);
    const std::string csv = dir.str("bv4.csv");

    auto dispatcher =
        std::make_unique<service::Dispatcher>(options, script.clock);
    for (std::size_t i = 0; i < prefix; ++i) {
      actions[i](*dispatcher, script, csv);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Snapshot which shards were Done (and at how many attempts) at the
    // kill point: recovery must never re-run them.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> done_at_kill;
    if (prefix > 0) {
      for (const auto& shard : dispatcher->campaign_status("bv4").shards) {
        if (shard.state == service::ShardState::Done) {
          done_at_kill.emplace_back(shard.shard_index, shard.attempts);
        }
      }
    }
    dispatcher.reset();  // the kill

    dispatcher =
        std::make_unique<service::Dispatcher>(options, script.clock);
    if (prefix == 0) {
      // Nothing was journaled; the recovered daemon simply sees no
      // campaigns. Submit and run as a fresh one would.
      EXPECT_FALSE(dispatcher->recovery_report().recovered);
      dispatcher->submit(make_job("bv4", 0, spec, 2, csv));
    }
    drain(*dispatcher, script.clock, options.lease_timeout_ms);

    const auto status = dispatcher->campaign_status("bv4");
    EXPECT_EQ(status.state, service::CampaignState::Completed)
        << status.error;
    EXPECT_EQ(slurp(csv), slurp(reference));
    for (const auto& [index, attempts] : done_at_kill) {
      EXPECT_EQ(status.shards.at(index).attempts, attempts)
          << "Done shard " << index << " was re-executed after recovery";
    }
    EXPECT_EQ(dispatcher->retired_lease_count(), 0u);
  }
}

// ---- journal corruption policy ----------------------------------------------

namespace {

/// Records a small but representative journal: submit, two acquires, a
/// heartbeat batch, an expiry requeue, completions, and the terminal
/// record.
std::string record_journal(const TempDir& dir) {
  const auto spec = quick_spec("bv", 4);
  service::FakeClock clock;
  service::DispatcherOptions options;
  options.work_dir = dir.str("work");
  options.lease_timeout_ms = 1'000;
  options.journal_path = dir.str("work/journal");
  fs::create_directories(options.work_dir);
  service::Dispatcher dispatcher(options, clock);
  dispatcher.submit(make_job("bv4", 0, spec, 2, dir.str("bv4.csv")));
  const auto a = dispatcher.acquire("w0");
  const auto b = dispatcher.acquire("w1");
  dispatcher.heartbeat(a->id);
  clock.advance(1'500);
  dispatcher.tick();  // expires both: requeue records
  for (int i = 0; i < 4; ++i) {
    const auto lease = dispatcher.acquire("w2");
    if (!lease) break;
    run_lease(*lease);
    dispatcher.complete(lease->id);
  }
  EXPECT_EQ(dispatcher.campaign_status("bv4").state,
            service::CampaignState::Completed);
  return slurp(options.journal_path);
}

}  // namespace

TEST(Journal, CorruptionSweepNeverSilentlyDropsTransitions) {
  TempDir dir("jcorrupt");
  const std::string bytes = record_journal(dir);
  const std::string path = dir.str("sweep.journal");

  spit(path, bytes);
  const auto full = service::read_journal(path);
  ASSERT_FALSE(full.truncated_tail);
  ASSERT_GE(full.events.size(), 8u);
  ASSERT_EQ(full.valid_bytes, bytes.size());

  // Every-length truncation: reading must recover exactly the records whose
  // lines survived whole — a strict prefix, never a resequenced subset —
  // and flag the torn tail.
  for_each_truncation(bytes, [&](const std::string& prefix, std::size_t len) {
    spit(path, prefix);
    const auto got = service::read_journal(path);
    ASSERT_LE(got.events.size(), full.events.size()) << "len=" << len;
    ASSERT_LE(got.valid_bytes, len) << "len=" << len;
    ASSERT_TRUE(got.truncated_tail || got.valid_bytes == len)
        << "len=" << len;
    for (std::size_t i = 0; i < got.events.size(); ++i) {
      ASSERT_EQ(got.events[i].seq, full.events[i].seq) << "len=" << len;
      ASSERT_EQ(got.events[i].type, full.events[i].type) << "len=" << len;
    }
    ASSERT_EQ(got.last_seq, got.events.size()) << "len=" << len;
  });

  // Byte flips: corruption of any acknowledged byte either throws with a
  // diagnosis naming the byte offset, or — only when the flip tears the
  // final newline — reads as a torn tail missing exactly that last record.
  // Silently skipping a middle record is never acceptable.
  for_each_byte_flip(bytes, [&](const std::string& mutated, std::size_t pos,
                                unsigned mask) {
    spit(path, mutated);
    try {
      const auto got = service::read_journal(path);
      ASSERT_TRUE(got.truncated_tail)
          << "flip at " << pos << " mask " << mask << " read clean with "
          << got.events.size() << " events";
      ASSERT_EQ(got.events.size() + 1, full.events.size())
          << "flip at " << pos << " mask " << mask;
      ASSERT_GE(pos, got.valid_bytes)
          << "flip at " << pos << " mask " << mask
          << " dropped records before the flipped byte";
    } catch (const Error& e) {
      const std::string what = e.what();
      ASSERT_NE(what.find("offset"), std::string::npos)
          << "flip at " << pos << ": diagnosis names no offset: " << what;
    }
  });
}

// ---- submission format ------------------------------------------------------

service::CampaignRequest sample_request() {
  service::CampaignRequest request;
  request.name = "dj5";
  request.priority = 7;
  request.circuit = "dj";
  request.width = 5;
  request.device = "jakarta";
  request.opt_level = 2;
  request.theta_step = 30.0;
  request.phi_step = 0.1;  // not exactly representable: needs all 17 digits
  request.phi_max = 180.0;
  request.shots = 512;
  request.seed = 0xDEADBEEFCAFEULL;
  request.max_points = 9;
  request.double_fault = true;
  request.idle_noise = true;
  request.shards = 3;
  request.policy = "cost";
  request.backend_kind = "density";
  request.csv_path = "out/dj5.csv";
  return request;
}

/// Expects loading `text` as a submission to throw a qufi::Error whose
/// message contains `reason`.
void expect_submission_rejected(const TempDir& dir, const std::string& text,
                                const std::string& reason) {
  const std::string path = dir.str("bad.submission");
  spit(path, text);
  try {
    (void)service::load_submission(path);
    ADD_FAILURE() << "submission loaded; expected: " << reason;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(Submission, V2SaveLoadRoundTripPreservesEverything) {
  TempDir dir("submission");
  const auto request = sample_request();
  const std::string path = dir.str("dj5.submission");
  service::save_submission(request, path);
  EXPECT_EQ(slurp(path).rfind("qufi-submission 2\n", 0), 0u);

  const auto loaded = service::load_submission(path);
  EXPECT_EQ(loaded.name, request.name);
  EXPECT_EQ(loaded.priority, request.priority);
  EXPECT_EQ(loaded.circuit, request.circuit);
  EXPECT_EQ(loaded.width, request.width);
  EXPECT_EQ(loaded.device, request.device);
  EXPECT_EQ(loaded.opt_level, request.opt_level);
  EXPECT_EQ(loaded.theta_step, request.theta_step);  // exact bits
  EXPECT_EQ(loaded.phi_step, request.phi_step);
  EXPECT_EQ(loaded.phi_max, request.phi_max);
  EXPECT_EQ(loaded.shots, request.shots);
  EXPECT_EQ(loaded.seed, request.seed);
  EXPECT_EQ(loaded.max_points, request.max_points);
  EXPECT_EQ(loaded.double_fault, request.double_fault);
  EXPECT_EQ(loaded.idle_noise, request.idle_noise);
  EXPECT_EQ(loaded.shards, request.shards);
  EXPECT_EQ(loaded.policy, request.policy);
  EXPECT_EQ(loaded.backend_kind, request.backend_kind);
  EXPECT_EQ(loaded.csv_path, request.csv_path);
}

TEST(Submission, V1FileIsRejectedWithANamedError) {
  TempDir dir("submission_v1");
  expect_submission_rejected(dir,
                             "qufi-submission 1\n"
                             "name bv4\n"
                             "circuit bv\n"
                             "use_tree 1\n"
                             "csv out/bv4.csv\n",
                             "unsupported submission version");
}

TEST(Submission, StrayUseTreeKeyIsRejected) {
  TempDir dir("submission_key");
  const std::string path = dir.str("good.submission");
  service::save_submission(sample_request(), path);
  expect_submission_rejected(dir, slurp(path) + "use_tree 1\n",
                             "unknown key: use_tree");
}

TEST(Submission, SignedOrOverflowingUnsignedFieldsAreRejected) {
  // Spool input is untrusted: a stream extraction would wrap "shards -1" to
  // 4294967295 shards (and "shards 4294967298" to 2), so each unsigned
  // field is rejected with a named error instead of planned.
  TempDir dir("submission_unsigned");
  const std::string path = dir.str("good.submission");
  service::save_submission(sample_request(), path);
  const std::string good = slurp(path);
  for (const char* key : {"shards", "shots", "seed", "max_points"}) {
    SCOPED_TRACE(key);
    expect_submission_rejected(dir, good + key + " -1\n",
                               std::string("bad ") + key + " line");
    expect_submission_rejected(dir, good + key + " +1\n",
                               std::string("bad ") + key + " line");
  }
  expect_submission_rejected(dir, good + "shards 4294967298\n",
                             "bad shards line");
  expect_submission_rejected(dir, good + "seed 18446744073709551616\n",
                             "bad seed line");
  expect_submission_rejected(dir, good + "shots 12x\n", "bad shots line");
}

TEST(Submission, UnknownNamesAndIdleTrajectoryAreRefusedAtPlanning) {
  // plan_submission parses with the shared dist parsers and leaves the
  // idle-noise rule to make_manifests: each refusal names its reason. The
  // one shard planner is "cost"; the removed policies are refused by name.
  for (const char* policy : {"fastest", "points", "tree"}) {
    auto request = sample_request();
    request.policy = policy;
    expect_error([&] { (void)service::plan_submission(request); },
                 std::string("unknown shard policy: ") + policy);
  }
  auto request = sample_request();
  request.backend_kind = "statevector";
  expect_error([&] { (void)service::plan_submission(request); },
               "unknown backend kind: statevector");
  request = sample_request();
  request.double_fault = false;
  request.backend_kind = "trajectory";
  ASSERT_TRUE(request.idle_noise);
  expect_error([&] { (void)service::plan_submission(request); },
               "idle_noise requires the density backend kind");
}

TEST(Submission, OutOfRangeWidthsThrowBeforeAnyShift) {
  // Spool input is untrusted: widths that would overflow a 64-bit basis
  // mask must be rejected by the circuit builder, not shifted.
  const std::pair<const char*, int> bad[] = {
      {"grover", 64}, {"grover", -1}, {"dj", 66}, {"ghz", 65}, {"qft", 64}};
  for (const auto& [circuit, width] : bad) {
    auto request = sample_request();
    request.circuit = circuit;
    request.width = width;
    EXPECT_THROW((void)service::plan_submission(request), Error)
        << circuit << " width " << width;
  }
}

}  // namespace
}  // namespace qufi
