#ifndef SURF_SCHED_PRIORITY_SCHEDULER_H_
#define SURF_SCHED_PRIORITY_SCHEDULER_H_

/// \file
/// \brief Deadline-aware two-class job scheduler for the HTTP server.
///
/// Replaces FIFO job execution on the serving path. Jobs carry a class
/// (interactive or batch) and a deadline; each class has its own
/// heap-ordered ready queue (earliest deadline first, FIFO within a
/// tie) and its own worker threads. The split is strict by design:
///
///  - Interactive workers run only interactive jobs, so a batch flood
///    can never occupy them (no priority inversion through worker
///    starvation).
///  - Batch workers run only batch jobs and drop their OS scheduling
///    priority (nice +19 on Linux), so even a *running* batch job
///    yields the CPU to interactive work — the kernel preempts it —
///    instead of timeslicing 50/50 against latency-sensitive requests.
///    The batch worker count is therefore also the batch concurrency
///    cap.
///
/// Load shedding: when the ready backlog reaches `max_queue_depth`,
/// the scheduler abandons the cheapest work first — the not-yet-started
/// batch job with the farthest deadline (zero sunk cost, least urgent).
/// A shed job's `shed` callback runs instead of `run`, so the transport
/// can still answer the client (503) rather than time it out.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace surf::sched {

/// \brief Scheduling class of a job.
enum class JobClass {
  kInteractive = 0,  ///< Latency-sensitive; dedicated full-priority workers.
  kBatch = 1,        ///< Throughput work; capped, niced workers; shed first.
};

/// The class of the PriorityScheduler worker running on the calling
/// thread, or nullopt on any other thread (library callers, pool
/// workers). Lets a job's own fan-out respect its class: a batch job
/// runs niced and must not spread onto full-priority threads.
std::optional<JobClass> CurrentJobClass();

/// \brief One schedulable unit of work.
struct Job {
  JobClass cls = JobClass::kInteractive;
  /// Deadline used for in-class ordering (earlier runs first). Use
  /// time_point::max() for "no deadline" (runs after everything dated).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// The work itself. Exceptions must not escape (the caller's run
  /// wrapper owns error handling).
  std::function<void()> run;
  /// Invoked (on the shedding thread) instead of `run` when the job is
  /// abandoned by load shedding; may be empty.
  std::function<void()> shed;
};

/// \brief Two-class deadline scheduler with per-class worker pools.
class PriorityScheduler {
 public:
  struct Options {
    /// Interactive worker threads (clamped to >= 1).
    size_t interactive_workers = 4;
    /// Batch worker threads — also the batch concurrency cap (clamped
    /// to >= 1 so batch work always progresses).
    size_t batch_workers = 1;
    /// Ready jobs (both classes) admitted before load shedding kicks
    /// in; 0 = never shed.
    size_t max_queue_depth = 0;
    /// Drop batch workers to nice +19 (Linux; no-op elsewhere).
    bool nice_batch_workers = true;
  };

  /// \brief Monotonic counters plus a backlog gauge.
  struct Stats {
    uint64_t executed_interactive = 0;
    uint64_t executed_batch = 0;
    uint64_t shed = 0;
    size_t queued = 0;  ///< Ready jobs not yet picked up (gauge).
  };

  explicit PriorityScheduler(Options options);
  /// Drains: every queued job still runs (they are owed responses).
  ~PriorityScheduler();

  PriorityScheduler(const PriorityScheduler&) = delete;
  PriorityScheduler& operator=(const PriorityScheduler&) = delete;

  /// Enqueues `job`, possibly shedding it (or a cheaper queued batch
  /// job) when the backlog is at max_queue_depth. Returns false when
  /// `job` itself was shed (its `shed` callback has already run).
  bool Submit(Job job);

  /// Runs every queued job to completion, then joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  Stats stats() const;

  size_t interactive_workers() const { return options_.interactive_workers; }
  size_t batch_workers() const { return options_.batch_workers; }

 private:
  struct QueuedJob {
    std::chrono::steady_clock::time_point deadline;
    uint64_t seq = 0;  ///< FIFO tie-break within equal deadlines.
    std::function<void()> run;
    std::function<void()> shed;
  };

  /// Min-heap-on-deadline comparator (std::push_heap builds a max-heap,
  /// so "greater" deadline sorts toward the bottom).
  static bool Later(const QueuedJob& a, const QueuedJob& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }

  void WorkerLoop(JobClass cls);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable interactive_cv_;
  std::condition_variable batch_cv_;
  std::vector<QueuedJob> interactive_queue_;  // heap (Later)
  std::vector<QueuedJob> batch_queue_;        // heap (Later)
  uint64_t next_seq_ = 0;
  bool shutting_down_ = false;
  Stats stats_;
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace surf::sched

#endif  // SURF_SCHED_PRIORITY_SCHEDULER_H_
