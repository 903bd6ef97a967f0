#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/dispatcher.hpp"
#include "util/thread_pool.hpp"

namespace qufi::service {

/// ThreadWorkerFleet knobs.
struct FleetOptions {
  /// Concurrent worker threads (each runs one shard at a time).
  int workers = 2;
  /// Sizes the fleet's one engine pool: workers x threads_per_worker lanes,
  /// shared by every worker. Each shard's engine work and the CSV
  /// formatting of each final merge a worker triggers run on all of them,
  /// so one worker's serial stretches (fault-free reference run, transpile,
  /// sealing, the last shard's tail) overlap another worker's chains.
  /// Keep workers x threads_per_worker near the core count; 0 counts as
  /// hardware concurrency per worker.
  int threads_per_worker = 1;
  /// How often the supervisor thread refreshes every in-flight lease. Keep
  /// well under the dispatcher's lease_timeout_ms (a third or less).
  std::int64_t heartbeat_interval_ms = 1'000;
  /// Idle worker backoff between acquire() polls; also how long drain()
  /// may take to notice stop() from another thread. Idle workers and the
  /// supervisor wake at once on stop(), whatever the intervals.
  std::int64_t poll_interval_ms = 20;
  /// Test-only fault hook, called after a shard ran but before its
  /// completion is reported. Return false to swallow the completion —
  /// exactly what a worker killed between finish() and complete() looks
  /// like to the dispatcher (sealed file on disk, lease left to expire).
  /// Must be thread-safe; null means always deliver.
  std::function<bool(const ShardLease&)> deliver_completion;
};

/// An in-process worker fleet: N threads that acquire leases, run shards
/// on the fleet's shared lane pool (streaming Live columnar partials so
/// progress merges can tail them), heartbeat through a shared supervisor
/// thread, and report completions or failures. This is the library fleet qufid's --fleet thread mode uses and
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

  /// Blocks until the dispatcher reports idle (every campaign terminal),
  /// woken by the dispatcher the moment the last campaign turns terminal.
  /// New submissions during the wait are picked up and waited for too.
  /// Returns within poll_interval_ms once stop() was called.
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
  /// Sleeps up to `ms`, waking early once stop() was called.
  void sleep_unless_stopping(std::int64_t ms);

  Dispatcher& dispatcher_;
  FleetOptions options_;
  /// workers x threads_per_worker lanes every worker's shards and final
  /// merges run on.
  util::ThreadPool pool_;
  std::atomic<bool> stopping_{false};
  /// Signalled by stop(): idle workers and the supervisor wait on it.
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<std::uint64_t> shards_completed_{0};
  std::atomic<std::uint64_t> shards_failed_{0};
  /// Lease ids currently being executed, for the supervisor to heartbeat.
  std::mutex inflight_mutex_;
  std::vector<std::uint64_t> inflight_;
  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

}  // namespace qufi::service
