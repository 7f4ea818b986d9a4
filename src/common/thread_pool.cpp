#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

namespace aps {

namespace {

/// The pool whose worker_loop runs on this thread (nullptr elsewhere).
thread_local const ThreadPool* tls_current_pool = nullptr;

/// How long an idle worker polls for new tasks before it parks. Training
/// issues one parallel_for per minibatch, a few hundred microseconds
/// apart; parking across that gap and being woken again costs about as
/// much as the chunks themselves on a virtualized host.
constexpr auto kIdlePoll = std::chrono::microseconds(200);

/// One parallel_for call. Shared with its claim tasks, which may start
/// after the call has returned (every index already taken) and then only
/// touch `next`.
struct ForCall {
  ForCall(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(&body) {}

  /// Claim and run indices until none are left.
  void claim() {
    std::size_t ran = 0;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      (*fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard lock(mutex);
    done += ran;
    if (done == n) done_cv.notify_all();
  }

  void wait() {
    std::unique_lock lock(mutex);
    done_cv.wait(lock, [this] { return done == n; });
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
};

}  // namespace

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
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto call = std::make_shared<ForCall>(n, fn);
  const std::size_t claimers = std::min(n, thread_count());
  {
    std::lock_guard lock(mutex_);
    for (std::size_t c = 0; c < claimers; ++c) {
      tasks_.push([call] { call->claim(); });
    }
    queued_.store(tasks_.size(), std::memory_order_release);
  }
  task_cv_.notify_all();
  // A worker of this pool waiting here could hold the thread its own
  // claim tasks need, so it claims indices too.
  if (tls_current_pool == this) call->claim();
  call->wait();
}

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    const auto poll_end = std::chrono::steady_clock::now() + kIdlePoll;
    while (queued_.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < poll_end) {
      std::this_thread::yield();
    }
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
    }
    task();
  }
}

}  // namespace aps
