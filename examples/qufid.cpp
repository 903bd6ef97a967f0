// qufid — the campaign dispatcher daemon (docs/DISPATCHER.md). Watches a
// spool directory for qufi_submit submissions, plans each campaign into
// shards, and supervises a worker fleet through the service-layer
// dispatcher: priority across concurrent campaigns, heartbeat leases,
// bounded retries with requeue, quarantine of corrupt partials, and a
// final merged CSV per campaign that is byte-identical to a single-process
// `qufi_cli --csv` run — regardless of how many workers died on the way.
//
// While campaigns run, qufid streams incremental merges: a JSON progress
// line per campaign plus `<work_dir>/<name>.partial.csv`, a bit-exact,
// monotonically growing prefix of the final CSV's record rows.
//
// Fleets:
//   --fleet thread   in-process worker threads (the library fleet)
//   --fleet process  one forked worker process per lease; children can be
//                    SIGKILLed (or die) and the lease-expiry path recovers.
//                    --chaos-kill N self-injects exactly that fault: the
//                    Nth spawned worker is SIGKILLed at spawn, while it
//                    provably holds its lease (a shard takes far longer
//                    than the fork-to-kill window, so the kill cannot race
//                    shard completion).
//
// Crash durability: the dispatcher write-ahead journals every transition
// to `<work-dir>/qufid.journal` (QUFIJRNL v1, docs/DISPATCHER.md) unless
// `--journal off`. Restarting qufid over the same work dir replays the
// journal, re-adopts sealed attempt files, and resumes without re-running
// completed shards.
//
// Usage examples:
//   qufi_submit --spool spool/ --name bv4 --circuit bv --width 4 \
//               --csv out/bv4.csv
//   qufid --spool spool/ --work-dir work/ --workers 2 --drain
//   qufid --spool spool/ --fleet process --chaos-kill 1 \
//         --lease-timeout 2000 --drain

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/results.hpp"
#include "dist/shard_runner.hpp"
#include "service/dispatcher.hpp"
#include "service/fleet.hpp"
#include "service/submission.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace qufi;
using util::json_string;
using util::parse_unsigned_flag;

struct DaemonOptions {
  std::string spool = "spool";
  std::string work_dir = "qufid-work";
  std::string fleet = "thread";
  std::uint16_t workers = 2;
  std::uint16_t threads_per_worker = 1;
  std::uint32_t lease_timeout_ms = 30'000;
  std::uint16_t max_retries = 2;
  std::uint32_t poll_ms = 50;
  std::uint32_t progress_every_ms = 1'000;
  std::uint16_t chaos_kill = 0;
  bool drain = false;
  /// Empty = default (`<work_dir>/qufid.journal`); "off" disables.
  std::string journal;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --spool DIR          submission spool to watch     (default spool)\n"
      "  --work-dir DIR       partials + progress artifacts (default "
      "qufid-work)\n"
      "  --fleet NAME         thread | process              (default thread)\n"
      "  --workers N          concurrent workers            (default 2)\n"
      "  --threads N          engine threads per worker     (default 1)\n"
      "  --lease-timeout MS   heartbeat deadline            (default 30000)\n"
      "  --max-retries N      re-leases per shard           (default 2)\n"
      "  --poll MS            main-loop interval            (default 50)\n"
      "  --progress-every MS  progress emit interval        (default 1000)\n"
      "  --chaos-kill N       SIGKILL the Nth worker process at spawn,\n"
      "                       while it holds its lease (process fleet only;\n"
      "                       a supervision self-test)\n"
      "  --journal PATH|off   write-ahead journal for crash recovery\n"
      "                       (default <work-dir>/qufid.journal)\n"
      "  --drain              exit once the spool is empty and every\n"
      "                       campaign is terminal\n",
      argv0);
  std::exit(2);
}

DaemonOptions parse(int argc, char** argv) {
  DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--spool") options.spool = value();
    else if (arg == "--work-dir") options.work_dir = value();
    else if (arg == "--fleet") options.fleet = value();
    else if (arg == "--workers")
      options.workers = parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--threads")
      options.threads_per_worker =
          parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--lease-timeout")
      options.lease_timeout_ms =
          parse_unsigned_flag<std::uint32_t>(arg, value());
    else if (arg == "--max-retries")
      options.max_retries = parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--poll")
      options.poll_ms = parse_unsigned_flag<std::uint32_t>(arg, value());
    else if (arg == "--progress-every")
      options.progress_every_ms =
          parse_unsigned_flag<std::uint32_t>(arg, value());
    else if (arg == "--chaos-kill")
      options.chaos_kill = parse_unsigned_flag<std::uint16_t>(arg, value());
    else if (arg == "--journal") options.journal = value();
    else if (arg == "--drain") options.drain = true;
    else usage(argv[0]);
  }
  if (options.fleet != "thread" && options.fleet != "process") usage(argv[0]);
  // No worker would ever drain the queue.
  if (options.workers == 0) throw Error("--workers must be at least 1");
  if (options.chaos_kill > 0 && options.fleet != "process") {
    std::fprintf(stderr, "error: --chaos-kill requires --fleet process\n");
    std::exit(2);
  }
  return options;
}

const char* state_name(service::CampaignState state) {
  switch (state) {
    case service::CampaignState::Queued: return "queued";
    case service::CampaignState::Running: return "running";
    case service::CampaignState::Completed: return "completed";
    case service::CampaignState::Failed: return "failed";
  }
  return "?";
}

/// Admits every complete submission in the spool: plan, submit, rename to
/// `*.accepted`. Any exception while loading or planning one — a named
/// qufi::Error, or e.g. std::bad_alloc from a hostile size — renames it to
/// `*.rejected` instead, so a bad submission can neither wedge the intake
/// loop nor kill the daemon on every restart. Returns the number admitted.
std::size_t scan_spool(const DaemonOptions& options,
                       service::Dispatcher& dispatcher) {
  std::size_t admitted = 0;
  if (!std::filesystem::is_directory(options.spool)) return 0;
  std::vector<std::string> pending;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spool)) {
    if (entry.path().extension() == ".submission") {
      pending.push_back(entry.path().string());
    }
  }
  std::sort(pending.begin(), pending.end());  // deterministic intake order
  for (const std::string& path : pending) {
    try {
      const auto request = service::load_submission(path);
      dispatcher.submit(service::plan_submission(request));
      std::rename(path.c_str(), (path + ".accepted").c_str());
      std::printf("{\"tool\":\"qufid\",\"event\":\"accepted\","
                  "\"campaign\":%s,\"priority\":%d}\n",
                  json_string(request.name).c_str(), request.priority);
      ++admitted;
    } catch (const std::exception& e) {
      std::rename(path.c_str(), (path + ".rejected").c_str());
      std::fprintf(stderr, "qufid: rejected %s: %s\n", path.c_str(),
                   e.what());
    }
  }
  if (admitted > 0) std::fflush(stdout);
  return admitted;
}

/// Whether any `*.submission` file is still waiting in the spool.
bool spool_has_pending(const DaemonOptions& options) {
  if (!std::filesystem::is_directory(options.spool)) return false;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spool)) {
    if (entry.path().extension() == ".submission") return true;
  }
  return false;
}

void emit_progress(const DaemonOptions& options,
                   service::Dispatcher& dispatcher) {
  for (const auto& view : dispatcher.status()) {
    std::string line =
        "{\"tool\":\"qufid\",\"event\":\"progress\",\"campaign\":" +
        json_string(view.name) + ",\"state\":\"" + state_name(view.state) +
        "\",\"shards_done\":" + std::to_string(view.shards_done) +
        ",\"shards_total\":" + std::to_string(view.shards_total) +
        ",\"requeues\":" + std::to_string(view.requeues);
    try {
      const auto prefix = dispatcher.progress(view.name);
      line += ",\"frontier\":" + std::to_string(prefix.frontier) +
              ",\"total_points\":" + std::to_string(prefix.total_points) +
              ",\"prefix_records\":" + std::to_string(prefix.records.size()) +
              ",\"sealed_inputs\":" + std::to_string(prefix.sealed_inputs);
      if (view.state == service::CampaignState::Queued ||
          view.state == service::CampaignState::Running) {
        // The merge prefix as a campaign CSV: the partial QVF map callers
        // can tail while the campaign runs, its rows the final CSV's first.
        CampaignCsvWriter csv((std::filesystem::path(options.work_dir) /
                               (view.name + ".partial.csv"))
                                  .string(),
                              prefix.meta, prefix.points);
        csv.write(prefix.records);
        csv.commit();
      }
    } catch (const Error& e) {
      line += ",\"progress_error\":" + json_string(e.what());
    }
    if (!view.error.empty()) line += ",\"error\":" + json_string(view.error);
    line += "}";
    std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);
}

/// One forked worker: runs the shard attempt and exits. Exit 0 reports
/// success (the parent calls complete()); exit 1 a caught failure (the
/// parent calls fail()); death by signal reports nothing — the lease
/// simply stops being heartbeat, which is exactly what the expiry path
/// exists for.
struct ChildWorker {
  pid_t pid = -1;
  std::uint64_t lease_id = 0;
  std::string output_path;
  int spawn_index = 0;
};

void run_process_fleet(const DaemonOptions& options,
                       service::Dispatcher& dispatcher) {
  std::vector<ChildWorker> children;
  int spawned = 0;
  bool chaos_done = false;
  std::int64_t last_progress = 0;
  const auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  while (true) {
    scan_spool(options, dispatcher);

    // Reap finished children and report on their behalf.
    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      const pid_t r = ::waitpid(it->pid, &status, WNOHANG);
      if (r == 0) {
        ++it;
        continue;
      }
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        dispatcher.complete(it->lease_id);
      } else if (WIFEXITED(status)) {
        if (!dispatcher.fail(it->lease_id,
                             "worker exited with status " +
                                 std::to_string(WEXITSTATUS(status)))) {
          // The lease already expired and was requeued (or its campaign is
          // terminal): the report changed nothing, which is worth a line —
          // the journal carries the matching fail-unknown record.
          std::fprintf(stderr,
                       "qufid: ignored late failure report for lease %llu\n",
                       static_cast<unsigned long long>(it->lease_id));
        }
      }
      // Killed by a signal: say nothing. The heartbeat stops and the
      // dispatcher's lease expiry requeues the shard — the same recovery a
      // worker on a crashed remote machine would get.
      it = children.erase(it);
    }

    // A live child is a live lease.
    for (const ChildWorker& child : children) {
      dispatcher.heartbeat(child.lease_id);
    }
    dispatcher.tick();

    // Fill free slots.
    while (children.size() < options.workers) {
      auto lease = dispatcher.acquire("process-worker");
      if (!lease) break;
      const pid_t pid = ::fork();
      if (pid == 0) {
        try {
          dist::ShardRunOptions run;
          run.threads = options.threads_per_worker;
          run.columnar_output_path = lease->output_path;
          run.columnar_live = true;
          dist::run_shard(lease->manifest, run);
          ::_exit(0);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "qufid worker: %s\n", e.what());
          ::_exit(1);
        }
      }
      require(pid > 0, "qufid: fork failed");
      ++spawned;
      children.push_back(
          ChildWorker{pid, lease->id, lease->output_path, spawned});

      // Chaos self-test: SIGKILL the chosen worker immediately — at this
      // point it provably holds a live lease, and a shard takes far longer
      // than the fork-to-kill window, so the kill cannot race shard
      // completion (the old readable-header gate could: a fast shard would
      // seal before the poll noticed, and the whole drain had to retry).
      if (!chaos_done && spawned == options.chaos_kill) {
        ::kill(pid, SIGKILL);
        chaos_done = true;
        std::printf("{\"tool\":\"qufid\",\"event\":\"chaos_kill\","
                    "\"pid\":%d,\"lease\":%llu}\n",
                    static_cast<int>(pid),
                    static_cast<unsigned long long>(lease->id));
        std::fflush(stdout);
      }
    }

    if (now_ms() - last_progress >= options.progress_every_ms) {
      emit_progress(options, dispatcher);
      last_progress = now_ms();
    }

    if (options.drain && children.empty() && !spool_has_pending(options) &&
        dispatcher.idle()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
}

void run_thread_fleet(const DaemonOptions& options,
                      service::Dispatcher& dispatcher) {
  service::FleetOptions fleet_options;
  fleet_options.workers = options.workers;
  fleet_options.threads_per_worker = options.threads_per_worker;
  fleet_options.heartbeat_interval_ms =
      std::max<std::int64_t>(1, options.lease_timeout_ms / 3);
  service::ThreadWorkerFleet fleet(dispatcher, fleet_options);

  std::int64_t last_progress = 0;
  const auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  while (true) {
    scan_spool(options, dispatcher);
    if (now_ms() - last_progress >= options.progress_every_ms) {
      emit_progress(options, dispatcher);
      last_progress = now_ms();
    }
    if (options.drain && !spool_has_pending(options) && dispatcher.idle()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
  fleet.stop();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const DaemonOptions options = parse(argc, argv);
    std::filesystem::create_directories(options.work_dir);

    service::SystemClock clock;
    service::DispatcherOptions dispatcher_options;
    dispatcher_options.work_dir = options.work_dir;
    dispatcher_options.lease_timeout_ms = options.lease_timeout_ms;
    dispatcher_options.max_retries = options.max_retries;
    if (options.journal != "off") {
      dispatcher_options.journal_path =
          options.journal.empty()
              ? (std::filesystem::path(options.work_dir) / "qufid.journal")
                    .string()
              : options.journal;
    }
    service::Dispatcher dispatcher(dispatcher_options, clock);
    if (const auto& rec = dispatcher.recovery_report(); rec.recovered) {
      std::printf(
          "{\"tool\":\"qufid\",\"event\":\"recovered\","
          "\"events_replayed\":%zu,\"campaigns\":%zu,"
          "\"shards_adopted\":%zu,\"shards_requeued\":%zu,"
          "\"files_quarantined\":%zu,\"journal_truncated\":%s}\n",
          rec.events_replayed, rec.campaigns_restored, rec.shards_adopted,
          rec.shards_requeued, rec.files_quarantined,
          rec.journal_truncated ? "true" : "false");
      std::fflush(stdout);
    }

    if (options.fleet == "process") {
      run_process_fleet(options, dispatcher);
    } else {
      run_thread_fleet(options, dispatcher);
    }

    emit_progress(options, dispatcher);
    std::size_t completed = 0;
    std::size_t failed = 0;
    for (const auto& view : dispatcher.status()) {
      if (view.state == service::CampaignState::Completed) ++completed;
      if (view.state == service::CampaignState::Failed) ++failed;
    }
    std::printf(
        "{\"tool\":\"qufid\",\"event\":\"exit\",\"campaigns\":%zu,"
        "\"completed\":%zu,\"failed\":%zu}\n",
        dispatcher.status().size(), completed, failed);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
