#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/dispatcher.hpp"

namespace qufi::service {

/// ThreadWorkerFleet knobs.
struct FleetOptions {
  /// Concurrent worker threads (each runs one shard at a time).
  int workers = 2;
  /// Engine threads inside each worker's campaign run (ShardRunOptions::
  /// threads). Keep workers x threads near the core count.
  int threads_per_worker = 1;
  /// How often the supervisor thread refreshes every in-flight lease. Keep
  /// well under the dispatcher's lease_timeout_ms (a third or less).
  std::int64_t heartbeat_interval_ms = 1'000;
  /// Idle worker backoff between acquire() polls.
  std::int64_t poll_interval_ms = 20;
  /// Test-only fault hook, called after a shard ran but before its
  /// completion is reported. Return false to swallow the completion —
  /// exactly what a worker killed between finish() and complete() looks
  /// like to the dispatcher (sealed file on disk, lease left to expire).
  /// Must be thread-safe; null means always deliver.
  std::function<bool(const ShardLease&)> deliver_completion;
};

/// An in-process worker fleet: N threads that acquire leases, run shards
/// (streaming Live columnar partials so progress merges can tail them),
/// heartbeat through a shared supervisor thread, and report completions or
/// failures. This is the library fleet qufid's --fleet thread mode uses and
/// the end-to-end tests drive; the SIGKILL-able process fleet lives in the
/// qufid binary itself (docs/DISPATCHER.md).
class ThreadWorkerFleet {
 public:
  /// Starts the workers immediately. The dispatcher must outlive the fleet.
  ThreadWorkerFleet(Dispatcher& dispatcher, FleetOptions options = {});
  /// Stops and joins (see stop()).
  ~ThreadWorkerFleet();

  ThreadWorkerFleet(const ThreadWorkerFleet&) = delete;
  ThreadWorkerFleet& operator=(const ThreadWorkerFleet&) = delete;

  /// Blocks until the dispatcher reports idle (every campaign terminal).
  /// New submissions during the wait are picked up and waited for too.
  void drain();

  /// Asks workers to finish their current shard and exit, then joins them.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Shards completed (reported) by this fleet so far.
  std::uint64_t shards_completed() const { return shards_completed_.load(); }
  /// Shard runs that threw and were reported via Dispatcher::fail().
  std::uint64_t shards_failed() const { return shards_failed_.load(); }

 private:
  void worker_loop(int worker_index);
  void supervisor_loop();

  Dispatcher& dispatcher_;
  FleetOptions options_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> shards_completed_{0};
  std::atomic<std::uint64_t> shards_failed_{0};
  /// Lease ids currently being executed, for the supervisor to heartbeat.
  std::mutex inflight_mutex_;
  std::vector<std::uint64_t> inflight_;
  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

}  // namespace qufi::service
