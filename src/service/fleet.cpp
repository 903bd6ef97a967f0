#include "service/fleet.hpp"

#include <algorithm>
#include <chrono>

#include "dist/shard_runner.hpp"
#include "util/error.hpp"

namespace qufi::service {

namespace {

/// The fleet pool's size, checked before the pool is built.
std::size_t lane_count(const FleetOptions& options) {
  require(options.workers > 0, "ThreadWorkerFleet: workers must be positive");
  const std::size_t per_worker =
      options.threads_per_worker > 0
          ? static_cast<std::size_t>(options.threads_per_worker)
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(options.workers) * per_worker;
}

}  // namespace

ThreadWorkerFleet::ThreadWorkerFleet(Dispatcher& dispatcher,
                                     FleetOptions options)
    : dispatcher_(dispatcher),
      options_(std::move(options)),
      pool_(lane_count(options_)) {
  require(options_.heartbeat_interval_ms > 0,
          "ThreadWorkerFleet: heartbeat_interval_ms must be positive");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

ThreadWorkerFleet::~ThreadWorkerFleet() { stop(); }

void ThreadWorkerFleet::drain() {
  while (!stopping_.load() &&
         !dispatcher_.wait_idle_for(options_.poll_interval_ms)) {
  }
}

void ThreadWorkerFleet::stop() {
  {
    // Under the mutex, so no waiter can miss the flag between its check
    // and its wait.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true);
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (supervisor_.joinable()) supervisor_.join();
}

void ThreadWorkerFleet::sleep_unless_stopping(std::int64_t ms) {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  wake_.wait_for(lock, std::chrono::milliseconds(ms),
                 [this] { return stopping_.load(); });
}

void ThreadWorkerFleet::worker_loop(int worker_index) {
  const std::string worker_id = "worker-" + std::to_string(worker_index);
  while (!stopping_.load()) {
    std::optional<ShardLease> lease = dispatcher_.acquire(worker_id);
    if (!lease) {
      sleep_unless_stopping(options_.poll_interval_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.push_back(lease->id);
    }
    try {
      dist::ShardRunOptions run;
      run.pool = &pool_;
      run.columnar_output_path = lease->output_path;
      // Live so the dispatcher's incremental merges observe this shard's
      // completed points while it runs — and so a crash mid-shard leaves a
      // salvageable torn prefix instead of nothing.
      run.columnar_live = true;
      dist::run_shard(lease->manifest, run);
      const bool deliver = !options_.deliver_completion ||
                           options_.deliver_completion(*lease);
      if (deliver) {
        dispatcher_.complete(lease->id, &pool_);
        shards_completed_.fetch_add(1);
      }
    } catch (const Error& e) {
      // fail() returning false means the lease was already expired and
      // requeued (or its campaign is terminal) — the report changed
      // nothing, so it is not counted as a shard failure.
      if (dispatcher_.fail(lease->id, e.what())) shards_failed_.fetch_add(1);
    } catch (const std::exception& e) {
      if (dispatcher_.fail(lease->id, e.what())) shards_failed_.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(
          std::remove(inflight_.begin(), inflight_.end(), lease->id),
          inflight_.end());
    }
  }
}

void ThreadWorkerFleet::supervisor_loop() {
  // One shared heartbeat thread instead of one per worker: workers block
  // inside run_shard for the whole attempt, so they cannot beat their own
  // leases. A heartbeat for a lease the dispatcher already expired returns
  // false and is simply dropped — the worker finds out at complete() time.
  while (!stopping_.load()) {
    std::vector<std::uint64_t> snapshot;
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      snapshot = inflight_;
    }
    for (const std::uint64_t id : snapshot) dispatcher_.heartbeat(id);
    sleep_unless_stopping(options_.heartbeat_interval_ms);
  }
}

}  // namespace qufi::service
