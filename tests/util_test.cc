// Unit tests for the util module: Status/StatusOr, Rng, summaries, CSV,
// string helpers, table printing, CLI flags, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/summary.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace surf {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyTypesWork) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    SURF_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIOError);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectWeights) {
  Rng rng(15);
  std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += rng.Categorical(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsSignalsMiss) {
  Rng rng(16);
  std::vector<double> weights{0.0, 0.0, 0.0};
  EXPECT_EQ(rng.Categorical(weights), weights.size());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<size_t> idx{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&idx);
  std::set<size_t> seen(idx.begin(), idx.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(123);
  Rng child = a.Fork();
  // Child diverges from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == child.Next()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

// --------------------------------------------------------------- Summary

TEST(SummaryTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, RunningStatsEdgeCases) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_EQ(s.variance(), 0.0);  // single sample
}

TEST(SummaryTest, MeanAndStd) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({1.0, 2.0, 3.0}), 1.0, 1e-12);
  EXPECT_EQ(StdDev({5.0}), 0.0);
}

TEST(SummaryTest, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(SummaryTest, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Median({9.0, 1.0, 5.0}), 5.0);
}

TEST(SummaryTest, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(SummaryTest, PearsonConstantSideIsZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(SummaryTest, FitLineRecoversSlope) {
  std::vector<double> xs{0, 1, 2, 3};
  std::vector<double> ys{1, 3, 5, 7};  // y = 1 + 2x
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
}

// ------------------------------------------------------------ StringUtil

TEST(StringUtilTest, Split) {
  const auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimString("  x \t"), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5, 4), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 4), "2");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

TEST(StringUtilTest, JoinAndStartsWith) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTrip) {
  CsvWriter writer({"a", "b"});
  writer.AddRow({1.0, 2.5});
  writer.AddRow({-3.0, 0.125});
  const std::string path = "/tmp/surf_csv_test.csv";
  ASSERT_TRUE(writer.Write(path).ok());

  auto table = ReadCsv(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->num_cols(), 2u);
  EXPECT_DOUBLE_EQ(table->rows[1][1], 0.125);
  EXPECT_EQ(table->Column("a")[0], 1.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto table = ReadCsv("/tmp/definitely_missing_surf.csv");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, ColumnIndexLookup) {
  CsvTable table;
  table.header = {"x", "y"};
  EXPECT_EQ(table.ColumnIndex("y"), 1);
  EXPECT_EQ(table.ColumnIndex("z"), -1);
}

TEST(CsvTest, RaggedRowRejected) {
  const std::string path = "/tmp/surf_csv_ragged.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("a,b\n1,2\n3\n", f);
    fclose(f);
  }
  auto table = ReadCsv(path);
  EXPECT_FALSE(table.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRows) {
  TablePrinter table({"a"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.ToString();
  // header rule + separator + top/bottom = 4 rules
  size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_EQ(rules, 4u);
}

// ------------------------------------------------------------------- CLI

TEST(CliTest, ParsesAllForms) {
  // Note: a bare "--flag" greedily consumes a following non-flag token as
  // its value, so positionals must precede flags or flags must use '='.
  const char* argv[] = {"prog", "positional", "--alpha=1.5", "--n", "42",
                        "--flag"};
  CliFlags flags(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.GetInt("n", 0), 42);
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(CliTest, FlagValueConsumesNextToken) {
  const char* argv[] = {"prog", "--name", "value"};
  CliFlags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetString("name", "dft"), "dft");
  EXPECT_EQ(flags.GetInt("n", -1), -1);
  EXPECT_FALSE(flags.Has("n"));
}

// ------------------------------------------------------------ ThreadPool

constexpr std::chrono::seconds kDeadlockTimeout{20};

/// Runs `body` on a thread of its own and reports whether it finished
/// within `timeout`, so a deadlock fails the test instead of hanging the
/// suite. On timeout the thread is detached and left blocked, so
/// whatever `body` touches must outlive the test (callers leak it).
bool FinishesWithin(std::chrono::seconds timeout,
                    std::function<void()> body) {
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  std::thread([body = std::move(body), finished] {
    body();
    finished->set_value();
  }).detach();
  return done.wait_for(timeout) == std::future_status::ready;
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  // The pool is reusable: a second group sees none of the first.
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPoolTest, ParallelForWithoutPoolRunsInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

/// A ParallelFor inside a ParallelFor body on the same pool covers every
/// (outer, inner) index exactly once and does not deadlock.
void ExpectNestedParallelForCovers(size_t threads) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  auto* pool = new ThreadPool(threads);  // leaked if the calls hang
  auto* hits = new std::vector<std::atomic<int>>(kOuter * kInner);
  const bool finished = FinishesWithin(kDeadlockTimeout, [pool, hits] {
    ParallelFor(pool, kOuter, [pool, hits](size_t i) {
      ParallelFor(pool, kInner, [hits, i](size_t j) {
        (*hits)[i * kInner + j].fetch_add(1);
      });
    });
  });
  ASSERT_TRUE(finished) << "nested ParallelFor on a " << threads
                        << "-thread pool did not return";
  for (size_t k = 0; k < hits->size(); ++k) {
    EXPECT_EQ((*hits)[k].load(), 1) << "index " << k;
  }
  delete pool;
  delete hits;
}

TEST(ThreadPoolTest, NestedParallelForOnOneThreadPool) {
  ExpectNestedParallelForCovers(1);
}

TEST(ThreadPoolTest, NestedParallelForOnTwoThreadPool) {
  ExpectNestedParallelForCovers(2);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  // Every worker blocks on a latch; the ParallelFor's caller must run
  // the whole range itself and return while they are still blocked.
  auto* pool = new ThreadPool(2);  // leaked if the call hangs
  auto gate = std::make_shared<std::latch>(1);
  for (size_t t = 0; t < pool->num_threads(); ++t) {
    pool->Submit([gate] { gate->wait(); });
  }
  auto* hits = new std::vector<int>(100, 0);
  const bool finished = FinishesWithin(kDeadlockTimeout, [pool, hits] {
    ParallelFor(pool, hits->size(), [hits](size_t i) { (*hits)[i] += 1; });
  });
  gate->count_down();
  ASSERT_TRUE(finished) << "ParallelFor waited for unrelated tasks";
  for (int h : *hits) EXPECT_EQ(h, 1);
  delete pool;
  delete hits;
}

TEST(ThreadPoolTest, ParallelForDuringShutdownRunsEveryItem) {
  // A task drained by the destructor may still call ParallelFor on the
  // pool; the pool takes no more helpers then, so the caller runs every
  // item.
  auto* hits = new std::vector<int>(50, 0);  // leaked if the drain hangs
  const bool finished = FinishesWithin(kDeadlockTimeout, [hits] {
    ThreadPool pool(1);
    pool.Submit([&pool, hits] {
      // Give the destructor below time to begin.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ParallelFor(&pool, hits->size(), [hits](size_t i) { (*hits)[i] += 1; });
    });
  });
  ASSERT_TRUE(finished) << "shutdown drain did not finish";
  for (int h : *hits) EXPECT_EQ(h, 1);
  delete hits;
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelGate) {
  const LogLevel prior = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emission below the gate is a no-op (nothing to assert besides no
  // crash; output goes to stderr).
  SURF_LOG(kDebug) << "suppressed";
  SetLogLevel(prior);
}

// -------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0 * 0.99);
  sw.Reset();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

// ------------------------------------------------------------ failpoints

// Each test disarms everything on exit so the process-wide registry
// never leaks state into other tests.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }
};

TEST_F(FailpointTest, IdleRegistryIsFreeAndPasses) {
  EXPECT_FALSE(FailpointRegistry::active());
  EXPECT_TRUE(MaybeFailpoint("serve.train").ok());
  EXPECT_TRUE(FailpointRegistry::Global().List().empty());
}

TEST_F(FailpointTest, ErrorActionFiresEveryHit) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Set("serve.train", "error").ok());
  EXPECT_TRUE(FailpointRegistry::active());
  const Status fired = MaybeFailpoint("serve.train");
  EXPECT_EQ(fired.code(), StatusCode::kInternal);
  EXPECT_NE(fired.message().find("serve.train"), std::string::npos);
  // Other sites stay dark.
  EXPECT_TRUE(MaybeFailpoint("cache.insert").ok());

  const auto infos = reg.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].site, "serve.train");
  EXPECT_EQ(infos[0].hits, 1u);
  EXPECT_EQ(infos[0].fires, 1u);

  EXPECT_TRUE(reg.Clear("serve.train"));
  EXPECT_FALSE(FailpointRegistry::active());
  EXPECT_TRUE(MaybeFailpoint("serve.train").ok());
}

TEST_F(FailpointTest, ProbabilityDrawsAreDeterministicUnderSeed) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.SetSeed(1234);
  ASSERT_TRUE(reg.Set("serve.train", "prob:0.5").ok());
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(!MaybeFailpoint("serve.train").ok());
  }
  // Reseeding with the same seed resets the counters: the decision
  // sequence replays exactly.
  reg.SetSeed(1234);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!MaybeFailpoint("serve.train").ok(), first[i]) << "hit " << i;
  }
  // A 0.5 probability over 64 draws fires somewhere strictly between
  // never and always (deterministic given the seed).
  const size_t fires = static_cast<size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FailpointTest, ConfigureParsesListsAndRejectsBadSpecsAtomically) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(
      reg.Configure("serve.train=error, cache.insert=prob:0.25").ok());
  EXPECT_EQ(reg.List().size(), 2u);
  // One malformed entry arms nothing from the list.
  reg.ClearAll();
  EXPECT_FALSE(
      reg.Configure("serve.train=error,cache.insert=prob:nope").ok());
  EXPECT_FALSE(reg.Configure("serve.train=explode").ok());
  EXPECT_FALSE(reg.Configure("serve.train=prob:1.5").ok());
  EXPECT_TRUE(reg.List().empty());
  EXPECT_FALSE(FailpointRegistry::active());
  // The empty spec is a no-op, not an error.
  EXPECT_TRUE(reg.Configure("").ok());
}

TEST_F(FailpointTest, DelayActionSleepsThenPasses) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(reg.Set("net.write", "delay:30").ok());
  Stopwatch sw;
  EXPECT_TRUE(MaybeFailpoint("net.write").ok());
  EXPECT_GE(sw.ElapsedSeconds(), 0.025);
}

TEST_F(FailpointTest, KnownSitesCatalogueListsEveryCompiledSite) {
  const std::vector<std::string>& sites = FailpointRegistry::KnownSites();
  const std::set<std::string> unique(sites.begin(), sites.end());
  EXPECT_EQ(unique.size(), sites.size());
  EXPECT_TRUE(unique.count("data.load_csv"));
  EXPECT_TRUE(unique.count("serve.train"));
  EXPECT_TRUE(unique.count("cache.insert"));
  EXPECT_TRUE(unique.count("shard.evaluate"));
  EXPECT_TRUE(unique.count("net.write"));
}

// ----------------------------------------------------------------- retry

TEST(RetryTest, DefaultPolicyMakesExactlyOneAttempt) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());
  int attempts = 0;
  const Status status = RunWithRetry(policy, [&] {
    ++attempts;
    return Status::Internal("transient");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryTest, RetriesTransientFailuresUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  int attempts = 0;
  const Status status = RunWithRetry(policy, [&] {
    return ++attempts < 3 ? Status::Internal("transient") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
}

TEST(RetryTest, NonRetriableStatusReturnsImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.001;
  int attempts = 0;
  const Status status = RunWithRetry(policy, [&] {
    ++attempts;
    return Status::InvalidArgument("bad request");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(attempts, 1);
  EXPECT_FALSE(IsRetriableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetriableStatus(Status::Cancelled("x")));
  EXPECT_FALSE(IsRetriableStatus(Status::NotFound("x")));
  EXPECT_TRUE(IsRetriableStatus(Status::Internal("x")));
  EXPECT_TRUE(IsRetriableStatus(Status::IOError("x")));
  EXPECT_TRUE(IsRetriableStatus(Status::TimedOut("x")));
  EXPECT_TRUE(IsRetriableStatus(Status::Unavailable("x")));
}

TEST(RetryTest, CancelledTokenStopsTheLoop) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.005;
  CancelSource source;
  int attempts = 0;
  const Status status = RunWithRetry(
      policy,
      [&] {
        if (++attempts == 2) source.Cancel();
        return Status::Internal("transient");
      },
      source.token());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 2);
}

TEST(RetryTest, BackoffGrowsAndIsCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.5;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(0), 0.1);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.2);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 0.4);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 0.5);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(10), 0.5);
  // Jitter stays inside the configured band and is deterministic for a
  // given (seed, retry index).
  policy.jitter_fraction = 0.2;
  for (int i = 0; i < 5; ++i) {
    const double base = policy.BackoffSeconds(i);
    RetryPolicy same = policy;
    EXPECT_DOUBLE_EQ(same.BackoffSeconds(i), base);
    const double nominal = std::min(
        policy.initial_backoff_seconds * std::pow(2.0, i),
        policy.max_backoff_seconds);
    EXPECT_GE(base, nominal * 0.8 - 1e-12);
    EXPECT_LE(base, nominal * 1.2 + 1e-12);
  }
}

}  // namespace
}  // namespace surf
