// Tests for the sharded dataset backend: ShardedDataset partitioning
// (balance, range partitioning, empty/single-row shards), the
// ColumnSummary / StatisticAccumulator monoid laws, and the
// ShardedScanEvaluator's ISSUE 5 acceptance contract — sharded-vs-
// unsharded bit-identity, merge-order determinism at 1/2/8 threads, and
// per-shard-batch cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>

#include "accel/accel.h"
#include "core/workload.h"
#include "data/sharded.h"
#include "stats/evaluator.h"
#include "stats/sharded_evaluator.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace surf {
namespace {

/// Random dataset over [0,1]^d with a value column and a binary label.
/// `integer_values` snaps the value column to small integers, making
/// every sum exactly representable — floating-point addition is then
/// associative, so sharded re-partitioning cannot perturb even the
/// summed statistics and bit-identity holds at every shard count.
Dataset MakeData(size_t n, size_t d, uint64_t seed, bool integer_values) {
  std::vector<std::string> names;
  for (size_t j = 0; j < d; ++j) names.push_back("a" + std::to_string(j));
  names.push_back("v");
  names.push_back("label");
  Dataset ds(names);
  Rng rng(seed);
  std::vector<double> row(d + 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    row[d] = integer_values ? std::floor(rng.Uniform(-500.0, 500.0))
                            : rng.Gaussian(1.0, 2.0);
    row[d + 1] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    ds.AddRow(row);
  }
  return ds;
}

Statistic MakeStatistic(int kind, size_t d) {
  std::vector<size_t> cols;
  for (size_t j = 0; j < d; ++j) cols.push_back(j);
  switch (kind) {
    case 0: return Statistic::Count(cols);
    case 1: return Statistic::Average(cols, d);
    case 2: return Statistic::Sum(cols, d);
    case 3: return Statistic::MedianOf(cols, d);
    case 4: return Statistic::VarianceOf(cols, d);
    default: return Statistic::LabelRatio(cols, d + 1, 1.0);
  }
}

Region RandomRegion(size_t d, Rng* rng) {
  std::vector<double> center(d), half(d);
  for (size_t j = 0; j < d; ++j) {
    center[j] = rng->Uniform();
    half[j] = rng->Uniform(0.02, 0.4);
  }
  return Region(center, half);
}

/// Bitwise comparison with NaN == NaN.
void ExpectSameDouble(double expected, double actual, const char* what) {
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual)) << what;
  } else {
    EXPECT_EQ(expected, actual) << what;
  }
}

// -------------------------------------------------------- ShardedDataset

TEST(ShardedDatasetTest, PartitionBalancedContiguousRanges) {
  const Dataset ds = MakeData(103, 2, 1, true);
  ShardingOptions options;
  options.num_shards = 8;
  const ShardedDataset sharded = ShardedDataset::Partition(ds, options);

  ASSERT_EQ(sharded.num_shards(), 8u);
  EXPECT_EQ(sharded.num_rows(), 103u);
  EXPECT_EQ(sharded.num_cols(), ds.num_cols());
  EXPECT_EQ(sharded.column_names(), ds.column_names());

  size_t total = 0, smallest = 103, largest = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const size_t rows = sharded.shard(s).num_rows();
    total += rows;
    smallest = std::min(smallest, rows);
    largest = std::max(largest, rows);
    EXPECT_EQ(sharded.shard(s).column(0).size(), rows);
  }
  EXPECT_EQ(total, 103u);
  EXPECT_LE(largest - smallest, 1u);  // balanced within one row
}

TEST(ShardedDatasetTest, NaturalOrderPreservesRowSequence) {
  const Dataset ds = MakeData(50, 1, 2, false);
  ShardingOptions options;
  options.num_shards = 4;
  const ShardedDataset sharded = ShardedDataset::Partition(ds, options);
  size_t r = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    for (double v : sharded.shard(s).column(0)) {
      EXPECT_EQ(v, ds.Get(r++, 0));
    }
  }
  EXPECT_EQ(r, ds.num_rows());
}

TEST(ShardedDatasetTest, OrderByGivesDisjointSlabs) {
  const Dataset ds = MakeData(1000, 2, 3, true);
  ShardingOptions options;
  options.num_shards = 8;
  options.order_by = 0;
  const ShardedDataset sharded = ShardedDataset::Partition(ds, options);
  for (size_t s = 0; s + 1 < sharded.num_shards(); ++s) {
    EXPECT_LE(sharded.shard(s).summary(0).max,
              sharded.shard(s + 1).summary(0).min);
  }
}

TEST(ShardedDatasetTest, EmptyAndSingleRowShards) {
  // More shards than rows: trailing shards are empty but remain valid.
  const Dataset ds = MakeData(3, 1, 4, true);
  ShardingOptions options;
  options.num_shards = 8;
  const ShardedDataset sharded = ShardedDataset::Partition(ds, options);
  ASSERT_EQ(sharded.num_shards(), 8u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded.shard(s).num_rows(), 1u);
  }
  for (size_t s = 3; s < 8; ++s) {
    EXPECT_EQ(sharded.shard(s).num_rows(), 0u);
    EXPECT_EQ(sharded.shard(s).summary(0).count, 0u);
  }
  // Empty shards are the monoid identity: the total is unaffected.
  EXPECT_EQ(sharded.TotalSummary(0).count, 3u);

  // And the evaluator over single-row/empty shards still answers
  // exactly.
  ScanEvaluator scan(&ds, Statistic::Count({0}));
  ShardedScanEvaluator sharded_eval(std::move(sharded), Statistic::Count({0}));
  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    const Region region = RandomRegion(1, &rng);
    EXPECT_EQ(scan.Evaluate(region), sharded_eval.Evaluate(region));
  }
}

TEST(ShardedDatasetTest, TotalSummaryMatchesDirectAggregation) {
  const Dataset ds = MakeData(777, 2, 6, true);
  for (int order_by : {-1, 0}) {
    ShardingOptions options;
    options.num_shards = 5;
    options.order_by = order_by;
    const ShardedDataset sharded = ShardedDataset::Partition(ds, options);
    const ColumnSummary total = sharded.TotalSummary(2);  // value column
    ColumnSummary direct;
    for (size_t r = 0; r < ds.num_rows(); ++r) direct.Observe(ds.Get(r, 2));
    EXPECT_EQ(total.count, direct.count);
    EXPECT_EQ(total.min, direct.min);
    EXPECT_EQ(total.max, direct.max);
    // Integer-valued column: the re-associated sums are still exact.
    EXPECT_EQ(total.sum, direct.sum);
    EXPECT_EQ(total.sum_sq, direct.sum_sq);
  }
}

// ------------------------------------------------------- accumulator laws

TEST(StatisticAccumulatorTest, MergeIdentityAndAssociativity) {
  const Statistic stat = Statistic::Average({0}, 1);
  Rng rng(7);
  std::vector<double> xs, ys, zs;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(std::floor(rng.Uniform(-99.0, 99.0)));
    ys.push_back(std::floor(rng.Uniform(-99.0, 99.0)));
    zs.push_back(std::floor(rng.Uniform(-99.0, 99.0)));
  }
  auto fill = [&](const std::vector<double>& vs) {
    StatisticAccumulator acc(stat);
    for (double v : vs) acc.Add(v);
    return acc;
  };

  // Identity: merging an empty accumulator changes nothing.
  StatisticAccumulator with_identity = fill(xs);
  with_identity.Merge(StatisticAccumulator(stat));
  ExpectSameDouble(fill(xs).Finalize(), with_identity.Finalize(),
                   "right identity");

  // Associativity on exactly-representable values: (x·y)·z == x·(y·z).
  StatisticAccumulator left = fill(xs);
  left.Merge(fill(ys));
  left.Merge(fill(zs));
  StatisticAccumulator yz = fill(ys);
  yz.Merge(fill(zs));
  StatisticAccumulator right = fill(xs);
  right.Merge(yz);
  ExpectSameDouble(left.Finalize(), right.Finalize(), "associativity");
}

TEST(StatisticAccumulatorTest, MedianMergesThroughSketch) {
  const Statistic stat = Statistic::MedianOf({0}, 1);
  StatisticAccumulator whole(stat);
  StatisticAccumulator lo_half(stat), hi_half(stat);
  for (int i = 1; i <= 101; ++i) {
    whole.Add(i);
    (i <= 50 ? lo_half : hi_half).Add(i);
  }
  StatisticAccumulator merged = lo_half;
  merged.Merge(hi_half);
  EXPECT_EQ(whole.Finalize(), 51.0);
  EXPECT_EQ(merged.Finalize(), 51.0);  // exact below sketch capacity
  EXPECT_EQ(merged.count(), 101u);
}

// --------------------------------------------- sharded-vs-unsharded laws

class ShardBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardBitIdentityTest, MatchesScanBitwiseOnIntegerData) {
  const auto [seed, kind] = GetParam();
  const size_t d = 2;
  // Integer value column: every statistic, summed ones included, must be
  // bit-identical to the unsharded scan at every shard count, every
  // partitioning, and every thread count.
  const Dataset ds = MakeData(2500, d, static_cast<uint64_t>(seed), true);
  const Statistic stat = MakeStatistic(kind, d);
  ScanEvaluator reference(&ds, stat);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (int order_by : {-1, 0}) {
      ShardingOptions options;
      options.num_shards = shards;
      options.order_by = order_by;
      ThreadPool pool(2);
      ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                   stat, &pool);
      Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
      for (int q = 0; q < 40; ++q) {
        const Region region = RandomRegion(d, &rng);
        ExpectSameDouble(reference.Evaluate(region),
                         sharded.Evaluate(region), "sharded vs scan");
      }
    }
  }
}

std::string ShardCaseName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kinds[] = {"count", "avg", "sum",
                                "median", "var", "ratio"};
  return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
         kinds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKinds, ShardBitIdentityTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(0, 1, 2, 3, 4, 5)),
    ShardCaseName);

TEST(ShardedEvaluatorTest, OneShardNaturalOrderBitIdenticalOnRealData) {
  // Arbitrary floating-point values: a single natural-order shard runs
  // the exact accumulation sequence of the legacy scan, so even the
  // rounding must match — this is the shards=1 acceptance criterion.
  const size_t d = 2;
  const Dataset ds = MakeData(3000, d, 42, false);
  for (int kind : {0, 1, 2, 4, 5}) {  // the exact (non-median) kinds
    const Statistic stat = MakeStatistic(kind, d);
    ScanEvaluator reference(&ds, stat);
    ShardedScanEvaluator sharded(
        ShardedDataset::Partition(ds, ShardingOptions{}), stat);
    Rng rng(9);
    for (int q = 0; q < 40; ++q) {
      const Region region = RandomRegion(d, &rng);
      ExpectSameDouble(reference.Evaluate(region), sharded.Evaluate(region),
                       "one-shard vs scan");
    }
  }
}

TEST(ShardedEvaluatorTest, ManyShardsRealDataAgreeToRounding) {
  // Re-partitioned floating-point sums may re-associate; they must
  // still agree to relative rounding error.
  const size_t d = 2;
  const Dataset ds = MakeData(3000, d, 43, false);
  for (int kind : {1, 2, 4}) {
    const Statistic stat = MakeStatistic(kind, d);
    ScanEvaluator reference(&ds, stat);
    ShardingOptions options;
    options.num_shards = 8;
    options.order_by = 0;
    ThreadPool pool(2);
    ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                 stat, &pool);
    Rng rng(10);
    for (int q = 0; q < 40; ++q) {
      const Region region = RandomRegion(d, &rng);
      const double expected = reference.Evaluate(region);
      const double actual = sharded.Evaluate(region);
      if (std::isnan(expected)) {
        EXPECT_TRUE(std::isnan(actual));
      } else {
        EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + std::fabs(expected)));
      }
    }
  }
}

TEST(ShardedEvaluatorTest, MergeOrderDeterminismAcrossThreadCounts) {
  // The per-shard partials merge in ascending shard index no matter
  // which thread finishes first: inline evaluation and borrowed pools of
  // 1, 2, and 8 threads must produce bit-identical results —
  // floating-point data, median included. The whole sweep repeats under
  // every supported SURF_ACCEL backend (the mask kernels feeding the
  // scan are specified bit-identical), and the single-thread result
  // under each backend must also match the generic baseline bitwise.
  const size_t d = 2;
  const Dataset ds = MakeData(4000, d, 44, false);
  ShardingOptions options;
  options.num_shards = 8;
  options.order_by = 0;
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const AccelBackend saved = ActiveAccelBackend();
  for (int backend = 0; backend < kNumAccelBackends; ++backend) {
    const AccelBackend b = static_cast<AccelBackend>(backend);
    if (!AccelSupported(b)) continue;
    setenv("SURF_ACCEL", AccelBackendName(b), 1);
    ReselectAccelFromEnv();
    ASSERT_EQ(ActiveAccelBackend(), b);
    for (int kind : {0, 1, 2, 3, 4, 5}) {
      const Statistic stat = MakeStatistic(kind, d);
      ShardedScanEvaluator inline_eval(ShardedDataset::Partition(ds, options),
                                       stat);
      ShardedScanEvaluator one(ShardedDataset::Partition(ds, options), stat,
                               &pool1);
      ShardedScanEvaluator two(ShardedDataset::Partition(ds, options), stat,
                               &pool2);
      ShardedScanEvaluator eight(ShardedDataset::Partition(ds, options), stat,
                                 &pool8);
      EXPECT_EQ(inline_eval.num_threads(), 1u);
      EXPECT_EQ(one.num_threads(), 1u);
      EXPECT_EQ(two.num_threads(), 2u);
      EXPECT_EQ(eight.num_threads(), 8u);
      Rng rng(11);
      for (int q = 0; q < 30; ++q) {
        const Region region = RandomRegion(d, &rng);
        const double a = one.Evaluate(region);
        const double serial = inline_eval.Evaluate(region);
        const double b2 = two.Evaluate(region);
        const double c = eight.Evaluate(region);
        const std::string label =
            std::string(AccelBackendName(b)) + " kind " + std::to_string(kind);
        ExpectSameDouble(a, serial, (label + ": 1 thread vs inline").c_str());
        ExpectSameDouble(a, b2, (label + ": 1 vs 2 threads").c_str());
        ExpectSameDouble(a, c, (label + ": 1 vs 8 threads").c_str());
        // Cross-backend: generic runs first, so compare against it.
        SetActiveAccelBackend(AccelBackend::kGeneric);
        const double g = one.Evaluate(region);
        SetActiveAccelBackend(b);
        ExpectSameDouble(g, a, (label + ": generic vs backend").c_str());
      }
    }
  }
  unsetenv("SURF_ACCEL");
  SetActiveAccelBackend(saved);
}

TEST(ShardedEvaluatorTest, CountsOneEvaluationPerQueryNotPerShard) {
  const Dataset ds = MakeData(100, 1, 45, true);
  ShardingOptions options;
  options.num_shards = 8;
  ThreadPool pool(2);
  ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                               Statistic::Count({0}), &pool);
  Rng rng(12);
  sharded.Evaluate(RandomRegion(1, &rng));
  sharded.Evaluate(RandomRegion(1, &rng));
  EXPECT_EQ(sharded.evaluation_count(), 2u);
}

TEST(ShardedDatasetTest, PartitionClampsAbsurdShardCounts) {
  const Dataset ds = MakeData(64, 1, 48, true);
  ShardingOptions options;
  options.num_shards = size_t{1} << 40;  // would OOM if resized literally
  const ShardedDataset clamped = ShardedDataset::Partition(ds, options);
  EXPECT_EQ(clamped.num_shards(), ShardingOptions::kMaxShards);
  EXPECT_EQ(clamped.TotalSummary(0).count, 64u);

  options.num_shards = 0;
  EXPECT_EQ(ShardedDataset::Partition(ds, options).num_shards(), 1u);
}

TEST(ShardedEvaluatorTest, NanRowsMatchLegacyScanSemantics) {
  // The legacy row test `!(v < lo || v > hi)` keeps NaN coordinates
  // inside every box; the sharded backend must reproduce that — in the
  // mask pass, and in the prune decision (a range-partitioned shard
  // full of NaNs has an empty [min, max] yet its rows still count).
  const size_t d = 2;
  Dataset ds = MakeData(2000, d, 49, true);
  Rng rng(50);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 40; ++i) {
    const size_t r = static_cast<size_t>(rng.Uniform(0.0, 1999.0));
    ds.Set(r, 0, nan);              // region column
    if (i < 10) ds.Set(r, d, nan);  // value column: sums must poison
  }

  for (int kind : {0, 1, 2, 5}) {  // count / avg / sum / ratio
    const Statistic stat = MakeStatistic(kind, d);
    ScanEvaluator reference(&ds, stat);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      ShardingOptions options;
      options.num_shards = shards;
      options.order_by = 0;  // NaNs sort into the trailing shard
      ThreadPool pool(2);
      ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                   stat, &pool);
      Rng query_rng(51);
      for (int q = 0; q < 30; ++q) {
        const Region region = RandomRegion(d, &query_rng);
        ExpectSameDouble(reference.Evaluate(region),
                         sharded.Evaluate(region), "NaN rows vs scan");
      }
    }
  }
}

// ----------------------------------------------------------- cancellation

TEST(ShardedEvaluatorTest, FiredTokenSkipsEveryShardBatch) {
  const Dataset ds = MakeData(5000, 2, 46, true);
  ShardingOptions options;
  options.num_shards = 16;
  ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                               Statistic::Count({0, 1}));
  CancelSource source;
  source.Cancel();
  Rng rng(13);
  sharded.Evaluate(RandomRegion(2, &rng), source.token());
  // The token is polled before each shard batch, so a pre-fired token
  // never touches a shard.
  EXPECT_EQ(sharded.shards_scanned(), 0u);
  EXPECT_EQ(sharded.shards_block_merged(), 0u);
  EXPECT_EQ(sharded.shards_pruned(), 0u);
}

TEST(ShardedEvaluatorTest, CancellationLandsMidShardScan) {
  // A workload labelling run over many shards must stop within one
  // shard batch of the cancel, not at the next whole-query boundary:
  // the returned workload is a strict prefix of the request.
  const Dataset ds = MakeData(60000, 2, 47, true);
  ShardingOptions options;
  options.num_shards = 8;
  options.order_by = 0;
  options.columns = {0, 1};
  ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                               Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 200000;
  params.seed = 3;

  CancelSource source;
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
  });
  started.store(true);
  const RegionWorkload workload = GenerateWorkload(
      sharded, ds.ComputeBounds({0, 1}), params, source.token());
  canceller.join();
  EXPECT_TRUE(source.cancelled());
  EXPECT_LT(workload.size(), params.num_queries);
}

}  // namespace
}  // namespace surf
