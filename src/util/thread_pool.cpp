#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/error.hpp"

namespace qufi::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    require(!stopping_, "ThreadPool: submit after shutdown");
    tasks_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::exception_ptr first_error;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // This call's claimers that have not finished yet: the call returns when
  // they have, whatever other callers keep the lanes busy with.
  const std::size_t lanes = std::min(n, workers_.size());
  std::size_t claimers = lanes;
  std::mutex mutex;
  std::condition_variable done;

  const auto claim = [&] {
    for (;;) {
      // Once any iteration failed, stop claiming work: a failing campaign
      // aborts promptly instead of burning the rest of the grid.
      if (failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::scoped_lock lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    // Notified under the lock: once the caller sees zero it may unwind
    // this frame.
    std::scoped_lock lock(mutex);
    if (--claimers == 0) done.notify_all();
  };
  for (std::size_t lane = 0; lane < lanes; ++lane) submit(claim);
  std::unique_lock lock(mutex);
  done.wait(lock, [&] { return claimers == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace qufi::util
