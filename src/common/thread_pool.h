// Small fixed-size thread pool used to run fault-injection campaigns and
// training chunks in parallel. The only entry point is parallel_for over an
// index range with deterministic result placement (results are written by
// index, so ordering never depends on scheduling).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace aps {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Workers claim indices one at a time, and each call waits only on its
  /// own indices, so concurrent callers never wait on each other's work.
  /// An outside caller only waits; a call made from inside one of this
  /// pool's tasks also claims indices itself, so nesting cannot deadlock.
  /// Idle workers poll briefly before parking, so back-to-back calls skip
  /// most wake-ups. fn must not throw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  /// tasks_.size(), readable without the lock by workers polling for work.
  std::atomic<std::size_t> queued_{0};
  std::mutex mutex_;
  std::condition_variable task_cv_;
  bool stopping_ = false;
};

}  // namespace aps
