#include "sched/priority_scheduler.h"

#include <algorithm>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace surf::sched {

namespace {

/// Drops the calling thread's scheduling priority to the weakest nice
/// level, so the kernel preempts it whenever a normal-priority thread
/// (an interactive worker) becomes runnable. Linux-only: setpriority
/// with PRIO_PROCESS and id 0 applies to the calling *thread* there.
void DropThreadPriority() {
#if defined(__linux__)
  ::setpriority(PRIO_PROCESS, 0, 19);
#endif
}

/// Set once per worker thread, before its first job.
thread_local std::optional<JobClass> tls_job_class;

}  // namespace

std::optional<JobClass> CurrentJobClass() { return tls_job_class; }

PriorityScheduler::PriorityScheduler(Options options) : options_(options) {
  options_.interactive_workers = std::max<size_t>(1, options_.interactive_workers);
  options_.batch_workers = std::max<size_t>(1, options_.batch_workers);
  workers_.reserve(options_.interactive_workers + options_.batch_workers);
  for (size_t i = 0; i < options_.interactive_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(JobClass::kInteractive); });
  }
  for (size_t i = 0; i < options_.batch_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(JobClass::kBatch); });
  }
}

PriorityScheduler::~PriorityScheduler() { Shutdown(); }

bool PriorityScheduler::Submit(Job job) {
  std::function<void()> shed_now;
  bool accepted = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      // Late submit during teardown: treat as shed so the caller still
      // answers the client instead of leaking a promise.
      shed_now = std::move(job.shed);
      ++stats_.shed;
      accepted = false;
    } else {
      const size_t depth = interactive_queue_.size() + batch_queue_.size();
      if (options_.max_queue_depth > 0 && depth >= options_.max_queue_depth) {
        // Overload: abandon the cheapest-to-cancel work first — a
        // not-yet-started batch job has zero sunk cost and the loosest
        // latency expectations. The heap root is the *earliest*
        // deadline, so scan for the worst (farthest-deadline) victim;
        // the backlog is bounded by max_queue_depth, so this stays
        // cheap. An incoming batch job only displaces a queued one
        // that is strictly worse than itself.
        auto worst = std::max_element(
            batch_queue_.begin(), batch_queue_.end(),
            [](const QueuedJob& a, const QueuedJob& b) {
              return Later(b, a);  // true when a sorts earlier than b
            });
        const bool displace =
            worst != batch_queue_.end() &&
            (job.cls == JobClass::kInteractive ||
             worst->deadline > job.deadline ||
             (worst->deadline == job.deadline));
        if (displace) {
          shed_now = std::move(worst->shed);
          batch_queue_.erase(worst);
          std::make_heap(batch_queue_.begin(), batch_queue_.end(), Later);
          ++stats_.shed;
        } else {
          shed_now = std::move(job.shed);
          ++stats_.shed;
          accepted = false;
        }
      }
      if (accepted) {
        QueuedJob queued;
        queued.deadline = job.deadline;
        queued.seq = next_seq_++;
        queued.run = std::move(job.run);
        queued.shed = std::move(job.shed);
        if (job.cls == JobClass::kInteractive) {
          interactive_queue_.push_back(std::move(queued));
          std::push_heap(interactive_queue_.begin(), interactive_queue_.end(),
                         Later);
          interactive_cv_.notify_one();
        } else {
          batch_queue_.push_back(std::move(queued));
          std::push_heap(batch_queue_.begin(), batch_queue_.end(), Later);
          batch_cv_.notify_one();
        }
      }
    }
  }
  if (shed_now) shed_now();
  return accepted;
}

void PriorityScheduler::WorkerLoop(JobClass cls) {
  tls_job_class = cls;
  if (cls == JobClass::kBatch && options_.nice_batch_workers) {
    DropThreadPriority();
  }
  std::vector<QueuedJob>& queue =
      cls == JobClass::kInteractive ? interactive_queue_ : batch_queue_;
  std::condition_variable& cv =
      cls == JobClass::kInteractive ? interactive_cv_ : batch_cv_;
  while (true) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv.wait(lock, [&] { return shutting_down_ || !queue.empty(); });
      if (queue.empty()) return;  // shutting down and drained
      std::pop_heap(queue.begin(), queue.end(), Later);
      job = std::move(queue.back());
      queue.pop_back();
      if (cls == JobClass::kInteractive) {
        ++stats_.executed_interactive;
      } else {
        ++stats_.executed_batch;
      }
    }
    if (job.run) job.run();
  }
}

void PriorityScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  interactive_cv_.notify_all();
  batch_cv_.notify_all();
  // Serialize the joins so concurrent Shutdown() calls are safe: the
  // second caller waits here until the first finished joining.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

PriorityScheduler::Stats PriorityScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.queued = interactive_queue_.size() + batch_queue_.size();
  return out;
}

}  // namespace surf::sched
