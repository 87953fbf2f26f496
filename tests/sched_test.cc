// Tests for the src/sched scheduling layer behind the HTTP event loop:
// the hashed timer wheel (arm/advance/disarm/re-arm, lap wrapping), the
// two-class deadline scheduler (ordering, strict class separation, load
// shedding of the farthest-deadline batch job), and the per-tenant QoS
// governor (token buckets, concurrency quotas, spec parsing).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/priority_scheduler.h"
#include "sched/tenant_governor.h"
#include "sched/timer_wheel.h"

namespace surf::sched {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, FiresArmedTimerOncePastDeadline) {
  TimerWheel wheel(milliseconds(10), 16);
  const auto now = Clock::now();
  wheel.Arm(7, now + milliseconds(35));

  std::vector<uint64_t> fired;
  wheel.Advance(now + milliseconds(20), &fired);
  EXPECT_TRUE(fired.empty()) << "fired before its deadline";
  EXPECT_EQ(wheel.armed(), 1u);

  wheel.Advance(now + milliseconds(50), &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
  EXPECT_EQ(wheel.armed(), 0u);

  // A consumed registration never fires again.
  fired.clear();
  wheel.Advance(now + milliseconds(500), &fired);
  EXPECT_TRUE(fired.empty());
}

TEST(TimerWheelTest, DisarmPreventsFiring) {
  TimerWheel wheel(milliseconds(10), 16);
  const auto now = Clock::now();
  wheel.Arm(1, now + milliseconds(30));
  wheel.Disarm(1);
  EXPECT_EQ(wheel.armed(), 0u);

  std::vector<uint64_t> fired;
  wheel.Advance(now + milliseconds(100), &fired);
  EXPECT_TRUE(fired.empty());
}

TEST(TimerWheelTest, RearmReplacesEarlierDeadline) {
  TimerWheel wheel(milliseconds(10), 16);
  const auto now = Clock::now();
  wheel.Arm(3, now + milliseconds(30));
  wheel.Arm(3, now + milliseconds(200));  // push the deadline out

  std::vector<uint64_t> fired;
  wheel.Advance(now + milliseconds(100), &fired);
  EXPECT_TRUE(fired.empty()) << "stale registration fired";

  wheel.Advance(now + milliseconds(250), &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
}

TEST(TimerWheelTest, DeadlineBeyondOneLapWaitsForItsLap) {
  // 16 slots x 10ms = 160ms per lap; a 400ms deadline wraps twice.
  TimerWheel wheel(milliseconds(10), 16);
  const auto now = Clock::now();
  wheel.Arm(9, now + milliseconds(400));

  std::vector<uint64_t> fired;
  wheel.Advance(now + milliseconds(170), &fired);  // one full lap
  EXPECT_TRUE(fired.empty()) << "fired a lap early";
  wheel.Advance(now + milliseconds(340), &fired);  // two laps
  EXPECT_TRUE(fired.empty());
  wheel.Advance(now + milliseconds(410), &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
}

TEST(TimerWheelTest, TimeoutBoundsReflectArmedState) {
  TimerWheel wheel(milliseconds(10), 16);
  const auto now = Clock::now();
  EXPECT_EQ(wheel.TimeoutMs(now, 100), 100) << "idle wheel must not spin";
  wheel.Arm(1, now + milliseconds(50));
  const int timeout = wheel.TimeoutMs(now, 100);
  EXPECT_GE(timeout, 0);
  EXPECT_LE(timeout, 100);
}

// ---------------------------------------------------------------------------
// PriorityScheduler
// ---------------------------------------------------------------------------

Job MakeJob(JobClass cls, Clock::time_point deadline,
            std::function<void()> run, std::function<void()> shed = {}) {
  Job job;
  job.cls = cls;
  job.deadline = deadline;
  job.run = std::move(run);
  job.shed = std::move(shed);
  return job;
}

TEST(PrioritySchedulerTest, RunsEarlierDeadlinesFirstWithinAClass) {
  // One interactive worker, held busy while we queue three dated jobs in
  // scrambled order; they must then run earliest-deadline-first.
  PriorityScheduler::Options options;
  options.interactive_workers = 1;
  options.batch_workers = 1;
  PriorityScheduler scheduler(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;

  const auto now = Clock::now();
  scheduler.Submit(MakeJob(JobClass::kInteractive, now, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  auto record = [&](int tag) {
    return [&order, &mu, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  scheduler.Submit(MakeJob(JobClass::kInteractive,
                           now + std::chrono::seconds(30), record(3)));
  scheduler.Submit(MakeJob(JobClass::kInteractive,
                           now + std::chrono::seconds(10), record(1)));
  scheduler.Submit(MakeJob(JobClass::kInteractive,
                           now + std::chrono::seconds(20), record(2)));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Shutdown();  // drains the queue before joining

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  const PriorityScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.executed_interactive, 4u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(PrioritySchedulerTest, BatchJobsNeverOccupyInteractiveWorkers) {
  // Every batch job records which pool ran it: with the batch worker
  // blocked, queued batch work must wait rather than jump to the idle
  // interactive worker.
  PriorityScheduler::Options options;
  options.interactive_workers = 1;
  options.batch_workers = 1;
  PriorityScheduler scheduler(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> batch_ran{0};
  std::atomic<int> interactive_ran{0};

  scheduler.Submit(MakeJob(JobClass::kBatch, Clock::now(), [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  scheduler.Submit(
      MakeJob(JobClass::kBatch, Clock::now(), [&] { ++batch_ran; }));
  scheduler.Submit(MakeJob(JobClass::kInteractive, Clock::now(),
                           [&] { ++interactive_ran; }));

  // The interactive job completes while the batch queue is stuck.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (interactive_ran.load() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(interactive_ran.load(), 1);
  EXPECT_EQ(batch_ran.load(), 0) << "batch job ran on an interactive worker";

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Shutdown();
  EXPECT_EQ(batch_ran.load(), 1);
}

TEST(PrioritySchedulerTest, ShedsFarthestDeadlineBatchJobFirst) {
  // Both workers blocked, queue capped at 2. Queue two batch jobs, then
  // submit an interactive one: the scheduler must shed the batch job
  // with the *farthest* deadline (cheapest abandonment), not the
  // incoming interactive job and not the most urgent batch job.
  PriorityScheduler::Options options;
  options.interactive_workers = 1;
  options.batch_workers = 1;
  options.max_queue_depth = 2;
  PriorityScheduler scheduler(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  auto block = [&] {
    ++started;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  scheduler.Submit(MakeJob(JobClass::kInteractive, Clock::now(), block));
  scheduler.Submit(MakeJob(JobClass::kBatch, Clock::now(), block));
  // Wait until both workers hold their blocker, so the blockers are no
  // longer part of the queued backlog we are about to fill.
  while (started.load() < 2) std::this_thread::sleep_for(milliseconds(1));

  const auto now = Clock::now();
  std::atomic<int> near_ran{0}, far_ran{0}, far_shed{0}, inter_ran{0};
  ASSERT_TRUE(scheduler.Submit(MakeJob(
      JobClass::kBatch, now + std::chrono::seconds(5), [&] { ++near_ran; })));
  ASSERT_TRUE(scheduler.Submit(MakeJob(
      JobClass::kBatch, now + std::chrono::seconds(60), [&] { ++far_ran; },
      [&] { ++far_shed; })));
  // Queue is now full (depth 2): the interactive submit displaces the
  // far-deadline batch job.
  ASSERT_TRUE(scheduler.Submit(MakeJob(JobClass::kInteractive,
                                       now + std::chrono::seconds(1),
                                       [&] { ++inter_ran; })));
  EXPECT_EQ(far_shed.load(), 1) << "farthest-deadline batch job not shed";
  EXPECT_EQ(scheduler.stats().shed, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Shutdown();
  EXPECT_EQ(near_ran.load(), 1);
  EXPECT_EQ(far_ran.load(), 0);
  EXPECT_EQ(inter_ran.load(), 1);
}

TEST(PrioritySchedulerTest, IncomingBatchIsShedWhenItIsTheWorst) {
  // Queue full of batch work that is *more urgent* than the incoming
  // batch job: the incoming job itself is shed (Submit returns false)
  // and its shed callback runs.
  PriorityScheduler::Options options;
  options.interactive_workers = 1;
  options.batch_workers = 1;
  options.max_queue_depth = 1;
  PriorityScheduler scheduler(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  auto block = [&] {
    ++started;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  // Stage the blockers: with depth 1, submitting the second while the
  // first is still queued would trip the shed path on the blocker.
  scheduler.Submit(MakeJob(JobClass::kInteractive, Clock::now(), block));
  while (started.load() < 1) std::this_thread::sleep_for(milliseconds(1));
  scheduler.Submit(MakeJob(JobClass::kBatch, Clock::now(), block));
  while (started.load() < 2) std::this_thread::sleep_for(milliseconds(1));

  const auto now = Clock::now();
  std::atomic<int> urgent_ran{0}, late_shed{0};
  ASSERT_TRUE(scheduler.Submit(MakeJob(JobClass::kBatch,
                                       now + std::chrono::seconds(1),
                                       [&] { ++urgent_ran; })));
  EXPECT_FALSE(scheduler.Submit(MakeJob(
      JobClass::kBatch, now + std::chrono::seconds(90), [] {},
      [&] { ++late_shed; })));
  EXPECT_EQ(late_shed.load(), 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Shutdown();
  EXPECT_EQ(urgent_ran.load(), 1);
}

TEST(PrioritySchedulerTest, ShutdownDrainsQueuedJobs) {
  PriorityScheduler::Options options;
  options.interactive_workers = 1;
  options.batch_workers = 1;
  PriorityScheduler scheduler(options);

  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    scheduler.Submit(
        MakeJob(i % 2 == 0 ? JobClass::kInteractive : JobClass::kBatch,
                Clock::now(), [&] { ++ran; }));
  }
  scheduler.Shutdown();
  EXPECT_EQ(ran.load(), 50) << "Shutdown dropped queued jobs";
  const PriorityScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.executed_interactive + stats.executed_batch, 50u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(PrioritySchedulerTest, JobsSeeTheirWorkersClass) {
  PriorityScheduler::Options options;
  options.nice_batch_workers = false;
  PriorityScheduler scheduler(options);
  std::optional<JobClass> seen[2];
  for (JobClass cls : {JobClass::kInteractive, JobClass::kBatch}) {
    scheduler.Submit(MakeJob(cls, Clock::now(), [&seen, cls] {
      seen[static_cast<int>(cls)] = CurrentJobClass();
    }));
  }
  scheduler.Shutdown();
  EXPECT_EQ(seen[0], JobClass::kInteractive);
  EXPECT_EQ(seen[1], JobClass::kBatch);
  EXPECT_FALSE(CurrentJobClass().has_value());  // not a scheduler worker
}

// ---------------------------------------------------------------------------
// TenantGovernor
// ---------------------------------------------------------------------------

TEST(TenantGovernorTest, UnlimitedTenantsAlwaysAdmit) {
  TenantGovernor governor(TenantGovernor::Options{});
  const auto now = Clock::now();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(governor.Admit("anyone", now),
              TenantGovernor::Decision::kAdmit);
  }
  EXPECT_EQ(governor.stats().admitted, 100u);
}

TEST(TenantGovernorTest, ConcurrencyQuotaBoundsInflight) {
  TenantGovernor::Options options;
  options.per_tenant["acme"].max_inflight = 2;
  TenantGovernor governor(options);
  const auto now = Clock::now();

  EXPECT_EQ(governor.Admit("acme", now), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("acme", now), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("acme", now),
            TenantGovernor::Decision::kOverQuota);
  // Unrelated tenants are untouched by acme's quota.
  EXPECT_EQ(governor.Admit("other", now), TenantGovernor::Decision::kAdmit);

  governor.Release("acme");
  EXPECT_EQ(governor.Admit("acme", now), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.stats().over_quota, 1u);
}

TEST(TenantGovernorTest, TokenBucketThrottlesAndRefills) {
  TenantGovernor::Options options;
  options.default_limits.rate = 10.0;  // 10 rps
  options.default_limits.burst = 2.0;  // two-token bucket
  TenantGovernor governor(options);
  const auto t0 = Clock::now();

  // The bucket starts full: the burst is admitted, the next is not.
  EXPECT_EQ(governor.Admit("t", t0), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("t", t0), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("t", t0), TenantGovernor::Decision::kThrottled);

  // 100ms at 10 rps refills exactly one token.
  const auto t1 = t0 + milliseconds(100);
  EXPECT_EQ(governor.Admit("t", t1), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("t", t1), TenantGovernor::Decision::kThrottled);

  // Refill is capped at the burst even after a long idle stretch.
  const auto t2 = t1 + std::chrono::seconds(60);
  EXPECT_EQ(governor.Admit("t", t2), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("t", t2), TenantGovernor::Decision::kAdmit);
  EXPECT_EQ(governor.Admit("t", t2), TenantGovernor::Decision::kThrottled);
  EXPECT_EQ(governor.stats().throttled, 3u);
}

TEST(TenantGovernorTest, ParseLimitsAcceptsTripleAndRejectsJunk) {
  TenantLimits limits;
  ASSERT_TRUE(TenantGovernor::ParseLimits("5:10:2", &limits).ok());
  EXPECT_DOUBLE_EQ(limits.rate, 5.0);
  EXPECT_DOUBLE_EQ(limits.burst, 10.0);
  EXPECT_EQ(limits.max_inflight, 2u);

  EXPECT_FALSE(TenantGovernor::ParseLimits("5:10", &limits).ok());
  EXPECT_FALSE(TenantGovernor::ParseLimits("a:b:c", &limits).ok());
  EXPECT_FALSE(TenantGovernor::ParseLimits("1:-2:3", &limits).ok());
  EXPECT_FALSE(TenantGovernor::ParseLimits("", &limits).ok());
}

TEST(TenantGovernorTest, ParseTenantSpecFillsPerTenantMap) {
  TenantGovernor::Options options;
  ASSERT_TRUE(TenantGovernor::ParseTenantSpec(
                  "acme=5:10:2, analytics=1:1:1", &options)
                  .ok());
  ASSERT_EQ(options.per_tenant.size(), 2u);
  EXPECT_DOUBLE_EQ(options.per_tenant["acme"].rate, 5.0);
  EXPECT_EQ(options.per_tenant["analytics"].max_inflight, 1u);

  EXPECT_FALSE(TenantGovernor::ParseTenantSpec("no-equals", &options).ok());
  EXPECT_FALSE(TenantGovernor::ParseTenantSpec("=1:2:3", &options).ok());
}

}  // namespace
}  // namespace surf::sched
