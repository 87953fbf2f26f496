#ifndef SURF_UTIL_THREAD_POOL_H_
#define SURF_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace surf {

/// \brief Fixed-size worker pool: the one executor of the process.
///
/// Pools are created at the top (MiningService, a tool's or bench's
/// main, a test) and borrowed below as a `ThreadPool*`, where null means
/// "run serially". Tasks are plain `std::function<void()>`; callers
/// coordinate results through their own synchronization (typically a
/// pre-sized output vector indexed by task id, which needs no locking).
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  /// Runs every task already queued, then joins the workers. Tasks that
  /// run during the drain may still call ParallelFor on this pool; their
  /// callers then run every item themselves.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Must not be called once the
  /// destructor has started.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// Tasks accepted so far: Submit calls plus ParallelFor helpers.
  uint64_t tasks_submitted() const { return submitted_.load(); }

  /// Hardware concurrency with a floor of 1.
  static size_t DefaultThreadCount();

 private:
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

  /// Submit that refuses (returns false) once shutdown has begun.
  bool TrySubmit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool shutdown_ = false;
  std::atomic<uint64_t> submitted_{0};
};

/// Runs `fn(i)` for every i in [0, n) and returns when those n calls have
/// finished. The calling thread claims items too, from a shared atomic
/// index; up to `pool->num_threads()` helper tasks on the pool claim the
/// rest, and a helper that starts late finds no work and returns. The
/// caller waits only for items already running on a helper, never for
/// queued tasks, so ParallelFor nests (a body may call it on the same
/// pool) and never deadlocks behind unrelated work. A null pool runs
/// every item on the caller. `fn` must write only to state owned by its
/// own index.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace surf

#endif  // SURF_UTIL_THREAD_POOL_H_
