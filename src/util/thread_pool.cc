#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>

namespace surf {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  [[maybe_unused]] const bool accepted = TrySubmit(std::move(task));
  assert(accepted);
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push(std::move(task));
  }
  ++submitted_;
  cv_task_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with the queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared with the helpers, which may start after this call returned.
  struct Group {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto group = std::make_shared<Group>();
  // Claims items until none are left. `fn` is only touched for a claimed
  // item, and the caller outlives every claimed item, so a late helper
  // never sees a dangling `fn`.
  auto drain = [n, &fn](Group& g) {
    for (size_t i; (i = g.next.fetch_add(1)) < n;) {
      fn(i);
      if (g.done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(g.mu);
        g.cv.notify_all();
      }
    }
  };
  const size_t helpers = std::min(n - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    if (!pool->TrySubmit([group, drain] { drain(*group); })) break;
  }
  drain(*group);
  std::unique_lock<std::mutex> lock(group->mu);
  group->cv.wait(lock, [&] { return group->done.load() == n; });
}

}  // namespace surf
