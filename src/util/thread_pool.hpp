#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qufi::util {

/// Fixed-size thread pool with a simple task queue.
///
/// Campaigns submit independent injection configs; determinism is guaranteed
/// by the *submitter* (per-config seeds + index-addressed result slots), not
/// by execution order, so a plain queue is sufficient. One pool may serve
/// several outside callers at once (a thread fleet's workers share one), so
/// every call waits for its own tasks only: the pool has no notion of
/// being idle.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means std::thread::hardware_concurrency(),
  /// clamped to at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Throws qufi::Error after shutdown began.
  void submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and returns once this
  /// call's iterations have finished. Several threads outside the pool may
  /// call it concurrently: each call queues its own claimer tasks, waits
  /// for those alone, and sees only its own iterations and errors. Within
  /// a call, indices are claimed in ascending order: index i is claimed
  /// only after every lower index, and a claimed index always runs to
  /// completion on its lane. fn(i) may therefore wait on work that
  /// fn(i - 1) of the same call hands over (the campaign engine's
  /// chain-head relay relies on this) without deadlock, whatever other
  /// calls share the lanes. Exceptions from tasks are captured and the
  /// call's first one is rethrown; after any failure, the call's lanes
  /// stop claiming new iterations (already-claimed ones still finish), so
  /// not every remaining index is attempted. Must not be called from one
  /// of this pool's own lanes.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
};

}  // namespace qufi::util
