// Tests for the SuRF core: workload generation, surrogate training and
// persistence, the finder, and the Surf facade.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/surf.h"
#include "core/topk.h"
#include "data/synthetic.h"
#include "ml/cv.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "util/thread_pool.h"

namespace surf {
namespace {

SyntheticDataset DensityData(size_t dims, size_t k, uint64_t seed = 42) {
  SyntheticSpec spec;
  spec.dims = dims;
  spec.num_gt_regions = k;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 8000;
  spec.seed = seed;
  return SyntheticGenerator::Generate(spec);
}

// -------------------------------------------------------------- Workload

TEST(WorkloadTest, GeneratesRequestedQueries) {
  const SyntheticDataset ds = DensityData(2, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 500;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}), params);
  EXPECT_EQ(workload.size(), 500u);  // counts are never NaN
  EXPECT_EQ(workload.features.num_features(), 4u);  // 2d
  EXPECT_EQ(eval.evaluation_count(), 500u);
}

TEST(WorkloadTest, LengthsRespectFractions) {
  const SyntheticDataset ds = DensityData(2, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 300;
  params.min_length_frac = 0.01;
  params.max_length_frac = 0.15;
  const Bounds domain = ds.data.ComputeBounds({0, 1});
  const RegionWorkload workload = GenerateWorkload(eval, domain, params);
  for (size_t i = 0; i < workload.size(); ++i) {
    const Region r = workload.RegionAt(i);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_GE(r.half_length(j), 0.01 * domain.Extent(j) - 1e-12);
      EXPECT_LE(r.half_length(j), 0.15 * domain.Extent(j) + 1e-12);
      EXPECT_GE(r.center(j), domain.lo(j));
      EXPECT_LE(r.center(j), domain.hi(j));
    }
  }
}

TEST(WorkloadTest, TargetsMatchDirectEvaluation) {
  const SyntheticDataset ds = DensityData(1, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams params;
  params.num_queries = 50;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), params);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(workload.targets[i],
                     eval.Evaluate(workload.RegionAt(i)));
  }
}

TEST(WorkloadTest, DropsUndefinedAverages) {
  // A tiny dataset leaves most random regions empty: the aggregate
  // workload must drop those NaN targets.
  Dataset tiny({"x", "v"});
  tiny.AddRow({0.5, 1.0});
  tiny.AddRow({0.51, 2.0});
  ScanEvaluator eval(&tiny, Statistic::Average({0}, 1));
  WorkloadParams params;
  params.num_queries = 200;
  const RegionWorkload workload =
      GenerateWorkload(eval, Bounds::Unit(1), params);
  EXPECT_LT(workload.size(), 200u);
  for (double t : workload.targets) EXPECT_FALSE(std::isnan(t));
}

// Byte-for-byte equality of two workloads' rows and targets.
void ExpectSameWorkload(const RegionWorkload& a, const RegionWorkload& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.targets.size(), b.targets.size());
  EXPECT_EQ(0, std::memcmp(a.targets.data(), b.targets.data(),
                           a.targets.size() * sizeof(double)));
  for (size_t i = 0; i < a.size(); ++i) {
    const std::vector<double> ra = a.features.Row(i);
    const std::vector<double> rb = b.features.Row(i);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
        << "row " << i;
  }
}

// Points only in the lower-left corner of the unit square, so a
// workload drawn over the whole square leaves many regions empty and an
// Average over them undefined.
Dataset CornerData(size_t rows, uint64_t seed) {
  Dataset data({"x", "y", "v"});
  Rng rng(seed);
  data.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    data.AddRow({rng.Uniform(0.0, 0.4), rng.Uniform(0.0, 0.4),
                 rng.Gaussian(3.0, 1.0)});
  }
  return data;
}

// Chunks labelled concurrently join in chunk order, so every pool size
// reproduces the serial workload on every backend, NaN drops included.
TEST(WorkloadTest, PoolSizesGiveIdenticalWorkloads) {
  const Dataset data = CornerData(3000, 17);
  WorkloadParams params;
  params.num_queries = 1000;  // three full chunks and a short one
  params.seed = 23;
  struct Backend {
    BackendKind kind;
    size_t shards;
  };
  const Backend backends[] = {{BackendKind::kScan, 1},
                              {BackendKind::kGridIndex, 1},
                              {BackendKind::kKdTree, 1},
                              {BackendKind::kRTree, 1},
                              {BackendKind::kScan, 4}};
  for (const Statistic& stat :
       {Statistic::Count({0, 1}), Statistic::Average({0, 1}, 2)}) {
    for (const Backend& backend : backends) {
      SCOPED_TRACE(std::to_string(static_cast<int>(backend.kind)) + "/" +
                   std::to_string(backend.shards) + "/" +
                   std::to_string(static_cast<int>(stat.kind)));
      const auto serial_eval =
          MakeEvaluator(backend.kind, &data, stat, backend.shards);
      const RegionWorkload serial = GenerateWorkload(
          *serial_eval, Bounds::Unit(2), params, CancelToken(), nullptr);
      if (stat.kind == StatisticKind::kAverage) {
        EXPECT_LT(serial.size(), params.num_queries);  // NaNs were dropped
        EXPECT_GT(serial.size(), 0u);
      } else {
        EXPECT_EQ(serial.size(), params.num_queries);
      }
      for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        const auto eval =
            MakeEvaluator(backend.kind, &data, stat, backend.shards, &pool);
        const RegionWorkload pooled = GenerateWorkload(
            *eval, Bounds::Unit(2), params, CancelToken(), nullptr, &pool);
        ExpectSameWorkload(serial, pooled);
        EXPECT_EQ(eval->evaluation_count(), params.num_queries);
      }
    }
  }
}

// Fires a cancel source from inside its `at`-th evaluation.
class CancellingEvaluator : public RegionEvaluator {
 public:
  CancellingEvaluator(const RegionEvaluator* inner, CancelSource* source,
                      uint64_t at)
      : inner_(inner), source_(source), at_(at) {}
  const Statistic& statistic() const override { return inner_->statistic(); }

 protected:
  double EvaluateImpl(const Region& region,
                      const CancelToken& cancel) const override {
    if (calls_.fetch_add(1) + 1 == at_) source_->Cancel();
    return inner_->Evaluate(region, cancel);
  }

 private:
  const RegionEvaluator* inner_;
  CancelSource* source_;
  uint64_t at_;
  mutable std::atomic<uint64_t> calls_{0};
};

// A cancellation while chunks run concurrently still leaves a prefix of
// the uncancelled workload: no row of a later chunk joins after a short
// one.
TEST(WorkloadTest, CancelledPooledLabellingKeepsAPrefix) {
  const Dataset data = CornerData(3000, 19);
  const Statistic stat = Statistic::Average({0, 1}, 2);
  ScanEvaluator scan(&data, stat);
  WorkloadParams params;
  params.num_queries = 2000;
  const RegionWorkload full = GenerateWorkload(scan, Bounds::Unit(2), params);
  ASSERT_GT(full.size(), 0u);
  for (size_t threads : {0u, 1u, 4u}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    CancelSource source;
    CancellingEvaluator eval(&scan, &source, 700);
    const RegionWorkload cut = GenerateWorkload(
        eval, Bounds::Unit(2), params, source.token(), nullptr, pool.get());
    EXPECT_TRUE(source.token().cancelled());
    ASSERT_LT(cut.size(), full.size());
    if (threads == 0) {
      EXPECT_GT(cut.size(), 0u);  // two full chunks and more
    }
    for (size_t i = 0; i < cut.size(); ++i) {
      ASSERT_EQ(cut.targets[i], full.targets[i]) << "row " << i;
      ASSERT_EQ(cut.features.Row(i), full.features.Row(i)) << "row " << i;
    }
  }
}

TEST(WorkloadTest, RegionFeaturesEncoding) {
  const Region r({0.3, 0.6}, {0.1, 0.2});
  const auto feats = RegionFeatures(r);
  EXPECT_EQ(feats, (std::vector<double>{0.3, 0.6, 0.1, 0.2}));
}

// ------------------------------------------------------------- Surrogate

class SurrogateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = DensityData(2, 1);
    evaluator_ = std::make_unique<ScanEvaluator>(
        &data_.data, Statistic::Count({0, 1}));
    WorkloadParams params;
    params.num_queries = 4000;
    workload_ = GenerateWorkload(*evaluator_,
                                 data_.data.ComputeBounds({0, 1}), params);
  }

  SyntheticDataset data_;
  std::unique_ptr<ScanEvaluator> evaluator_;
  RegionWorkload workload_;
};

TEST_F(SurrogateTest, TrainsAndTracksError) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  EXPECT_TRUE(surrogate->trained());
  EXPECT_GT(surrogate->metrics().train_seconds, 0.0);
  EXPECT_GT(surrogate->metrics().test_rmse, 0.0);
  // A count surrogate over ~10k points should be well under 100 RMSE.
  EXPECT_LT(surrogate->metrics().test_rmse, 120.0);
}

// Surrogate::Train takes train_rmse from the fit's learning curve; it
// must equal predicting the training fold again, bit for bit.
double RepredictedTrainRmse(const Surrogate& surrogate,
                            const RegionWorkload& workload,
                            const SurrogateTrainOptions& options) {
  Rng rng(options.seed);
  const Fold split = TrainTestSplit(workload.size(), options.test_fraction,
                                    &rng);
  const FeatureMatrix train_x = workload.features.Gather(split.train);
  std::vector<double> train_y;
  for (size_t r : split.train) train_y.push_back(workload.targets[r]);
  return Rmse(surrogate.model().PredictBatch(train_x), train_y);
}

TEST_F(SurrogateTest, TrainRmseEqualsRepredictedTrainingFold) {
  for (double subsample : {1.0, 0.8}) {
    SCOPED_TRACE(subsample);
    SurrogateTrainOptions options;
    options.gbrt.subsample = subsample;
    auto surrogate = Surrogate::Train(workload_, options);
    ASSERT_TRUE(surrogate.ok());
    const double expected =
        RepredictedTrainRmse(*surrogate, workload_, options);
    const double got = surrogate->metrics().train_rmse;
    EXPECT_EQ(0, std::memcmp(&got, &expected, sizeof(double)))
        << got << " vs " << expected;
  }
}

// With early stopping the curve covers only the rows left after the
// validation holdout, and trees past the best round are trimmed, so
// train_rmse falls back to predicting the training fold.
TEST_F(SurrogateTest, TrainRmseWithEarlyStoppingRepredicts) {
  SurrogateTrainOptions options;
  options.gbrt.early_stopping_rounds = 5;
  options.gbrt.validation_fraction = 0.2;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  const double expected = RepredictedTrainRmse(*surrogate, workload_, options);
  const double got = surrogate->metrics().train_rmse;
  EXPECT_EQ(0, std::memcmp(&got, &expected, sizeof(double)))
      << got << " vs " << expected;
}

TEST_F(SurrogateTest, PredictionsTrackTruth) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  Rng rng(9);
  double err = 0.0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const Region r = workload_.space.Sample(&rng);
    err += std::fabs(surrogate->Predict(r) - evaluator_->Evaluate(r));
  }
  EXPECT_LT(err / n, 100.0);
}

TEST_F(SurrogateTest, EmptyWorkloadRejected) {
  RegionWorkload empty;
  empty.features = FeatureMatrix(4);
  SurrogateTrainOptions options;
  EXPECT_FALSE(Surrogate::Train(empty, options).ok());
}

TEST_F(SurrogateTest, HypertuneSelectsParams) {
  SurrogateTrainOptions options;
  options.hypertune = true;
  options.grid = GridSearchSpace::Small();
  options.cv_folds = 2;
  options.gbrt.n_estimators = 40;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  EXPECT_TRUE(surrogate->metrics().hypertuned);
  // The chosen params must come from the grid.
  const auto& p = surrogate->metrics().chosen_params;
  EXPECT_TRUE(p.learning_rate == 0.1 || p.learning_rate == 0.05);
  EXPECT_TRUE(p.max_depth == 4 || p.max_depth == 7);
}

TEST_F(SurrogateTest, SaveLoadPredictsIdentically) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  const std::string path = "/tmp/surf_surrogate_test.txt";
  ASSERT_TRUE(surrogate->Save(path).ok());

  auto loaded = Surrogate::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dims(), 2u);
  EXPECT_EQ(loaded->statistic().kind, StatisticKind::kCount);
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const Region r = workload_.space.Sample(&rng);
    EXPECT_DOUBLE_EQ(surrogate->Predict(r), loaded->Predict(r));
  }
  std::remove(path.c_str());
}

TEST_F(SurrogateTest, AlternativeModelsTrainToo) {
  auto ridge = Surrogate::TrainWithModel(
      std::make_unique<RidgeRegression>(1.0), workload_, 0.2, 3);
  ASSERT_TRUE(ridge.ok());
  EXPECT_EQ(ridge->model().Name(), "ridge");

  auto knn = Surrogate::TrainWithModel(std::make_unique<KnnRegressor>(8),
                                       workload_, 0.2, 3);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->model().Name(), "knn");
  // The GBRT should beat plain ridge on this non-linear target.
  SurrogateTrainOptions options;
  auto gbrt = Surrogate::Train(workload_, options);
  ASSERT_TRUE(gbrt.ok());
  EXPECT_LT(gbrt->metrics().test_rmse, ridge->metrics().test_rmse);
}

TEST_F(SurrogateTest, NonGbrtPersistenceRejected) {
  auto ridge = Surrogate::TrainWithModel(
      std::make_unique<RidgeRegression>(1.0), workload_, 0.2, 3);
  ASSERT_TRUE(ridge.ok());
  EXPECT_EQ(ridge->Save("/tmp/x.txt").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------- Finder

TEST(FinderTest, MinesPlantedRegions1d) {
  const SyntheticDataset ds = DensityData(1, 1, 7);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 3000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  FinderConfig config;
  config.gso.num_glowworms = 100;
  config.gso.max_iterations = 100;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  finder.SetValidator(&eval);

  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  ASSERT_FALSE(result.regions.empty());
  // The best region must overlap the planted one.
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.4);
  EXPECT_GT(result.report.true_compliance, 0.5);
  EXPECT_GT(result.report.particle_valid_fraction, 0.3);
}

TEST(FinderTest, BelowDirectionFindsSparseRegions) {
  const SyntheticDataset ds = DensityData(1, 1, 8);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 3000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  FinderConfig config;
  config.gso.num_glowworms = 80;
  config.gso.max_iterations = 80;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  finder.SetValidator(&eval);
  // Sparse request: fewer than 600 points. With ~8k background points per
  // unit, boxes under half-length ~0.037 qualify, so a healthy slice of
  // the initial swarm starts valid.
  const FindResult result = finder.Find(600.0, ThresholdDirection::kBelow);
  ASSERT_FALSE(result.regions.empty());
  for (const auto& r : result.regions) {
    EXPECT_LT(r.estimate, 600.0);
  }
  EXPECT_GT(result.report.true_compliance, 0.5);
}

TEST(FinderTest, ValidatorOffLeavesNaNTruth) {
  const SyntheticDataset ds = DensityData(1, 1, 9);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 2000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());
  FinderConfig config;
  config.gso.num_glowworms = 60;
  config.gso.max_iterations = 60;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  for (const auto& r : result.regions) {
    EXPECT_TRUE(std::isnan(r.true_value));
    EXPECT_FALSE(r.complies_true);
  }
}

TEST(FinderTest, NmsLimitsRegionCount) {
  const SyntheticDataset ds = DensityData(1, 3, 10);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 2500;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());
  FinderConfig config;
  config.max_regions = 2;
  config.gso.num_glowworms = 80;
  config.gso.max_iterations = 60;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  EXPECT_LE(result.regions.size(), 2u);
}

// ------------------------------------------------------------------ Surf

TEST(SurfTest, BuildValidatesInput) {
  SurfOptions options;
  EXPECT_FALSE(Surf::Build(nullptr, Statistic::Count({0}), options).ok());

  Dataset empty({"x"});
  EXPECT_FALSE(Surf::Build(&empty, Statistic::Count({0}), options).ok());

  Dataset one_col({"x"});
  one_col.AddRow({0.5});
  EXPECT_FALSE(
      Surf::Build(&one_col, Statistic::Count({0, 5}), options).ok());
  EXPECT_FALSE(
      Surf::Build(&one_col, Statistic::Average({0}, 9), options).ok());
  EXPECT_FALSE(Surf::Build(&one_col, Statistic{}, options).ok());
}

TEST(SurfTest, EndToEndDensityMining) {
  const SyntheticDataset ds = DensityData(2, 1, 11);
  SurfOptions options;
  options.workload.num_queries = 4000;
  options.finder.gso.num_glowworms = 120;
  options.finder.gso.max_iterations = 100;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());

  const FindResult result =
      surf->FindRegions(1000.0, ThresholdDirection::kAbove);
  ASSERT_FALSE(result.regions.empty());
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.3);
  EXPECT_GT(result.report.true_compliance, 0.6);
}

TEST(SurfTest, BackendsProduceSameWorkloadTargets) {
  const SyntheticDataset ds = DensityData(2, 1, 12);
  for (BackendKind kind :
       {BackendKind::kScan, BackendKind::kGridIndex, BackendKind::kKdTree}) {
    auto eval = MakeEvaluator(kind, &ds.data, Statistic::Count({0, 1}));
    // Same seed → same queries → identical targets across back-ends.
    WorkloadParams params;
    params.num_queries = 100;
    params.seed = 55;
    const RegionWorkload workload =
        GenerateWorkload(*eval, ds.data.ComputeBounds({0, 1}), params);
    ASSERT_EQ(workload.size(), 100u);
    ScanEvaluator ref(&ds.data, Statistic::Count({0, 1}));
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_DOUBLE_EQ(workload.targets[i],
                       ref.Evaluate(workload.RegionAt(i)));
    }
  }
}

TEST(SurfTest, EcdfSamplingWorks) {
  const SyntheticDataset ds = DensityData(2, 1, 13);
  SurfOptions options;
  options.workload.num_queries = 1500;
  options.finder.gso.max_iterations = 30;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());
  const Ecdf ecdf = surf->SampleStatisticEcdf(500, 3);
  EXPECT_EQ(ecdf.num_samples(), 500u);
  EXPECT_GT(ecdf.Quantile(0.75), ecdf.Quantile(0.25));
}

TEST(SurfTest, KdeCanBeDisabled) {
  const SyntheticDataset ds = DensityData(1, 1, 14);
  SurfOptions options;
  options.fit_kde = false;
  options.workload.num_queries = 1500;
  options.finder.gso.num_glowworms = 60;
  options.finder.gso.max_iterations = 50;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0}), options);
  ASSERT_TRUE(surf.ok());
  const FindResult result =
      surf->FindRegions(1000.0, ThresholdDirection::kAbove);
  // Still functional without the Eq. 8 prior.
  EXPECT_FALSE(result.regions.empty());
}

TEST(SurfTest, AggregateStatisticEndToEnd) {
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kAggregate;
  spec.seed = 15;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  SurfOptions options;
  options.workload.num_queries = 3000;
  options.finder.gso.num_glowworms = 100;
  options.finder.gso.max_iterations = 100;
  // Aggregates are flat inside the planted region, so recovering its
  // extent needs the size-rewarding end of the c knob (see bench_common
  // CFor for the full argument).
  options.finder.c = -1.0;
  ASSERT_EQ(ds.value_col, 1);
  auto surf = Surf::Build(
      &ds.data, Statistic::Average({0}, static_cast<size_t>(ds.value_col)),
      options);
  ASSERT_TRUE(surf.ok());
  const FindResult result =
      surf->FindRegions(2.0, ThresholdDirection::kAbove);
  ASSERT_FALSE(result.regions.empty());
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.3);
}

// ------------------------------------------------------ FitDataKde pins
//
// Golden digests of the KDE prior FitDataKde fits: the exact sample
// points and bandwidths, so any change to how rows are drawn or gathered
// must keep the prior (and every swarm seeded from it) bit-identical.

uint64_t MixBits(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;  // FNV-1a
  }
  return h;
}

uint64_t KdeDigest(const Kde& kde) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < kde.num_samples(); ++i) {
    for (double v : kde.SamplePoint(i)) h = MixBits(h, v);
  }
  for (double h_j : kde.bandwidths()) h = MixBits(h, h_j);
  return h;
}

Dataset PinDataset(size_t rows, uint64_t seed) {
  Dataset data({"a", "b", "c"});
  Rng rng(seed);
  data.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    data.AddRow({rng.Uniform(), rng.Gaussian(5.0, 2.0), rng.Uniform(-3, 3)});
  }
  return data;
}

TEST(FitDataKdeTest, SubsampledPriorIsPinned) {
  const Dataset data = PinDataset(5000, 41);
  const Kde kde = FitDataKde(data, {2, 0}, 300, 77);
  ASSERT_EQ(kde.num_samples(), 300u);
  ASSERT_EQ(kde.dims(), 2u);
  EXPECT_EQ(KdeDigest(kde), 0xF58E714C73DF2C04ULL);
  // Every sample is a data row projected onto the region columns.
  for (size_t i = 0; i < kde.num_samples(); i += 37) {
    const std::vector<double> p = kde.SamplePoint(i);
    bool found = false;
    for (size_t r = 0; r < data.num_rows() && !found; ++r) {
      found = data.Get(r, 2) == p[0] && data.Get(r, 0) == p[1];
    }
    EXPECT_TRUE(found) << "sample " << i;
  }
}

TEST(FitDataKdeTest, SmallDatasetKeepsEveryRowInOrder) {
  const Dataset data = PinDataset(300, 42);
  const Kde kde = FitDataKde(data, {1, 2}, 300, 78);
  ASSERT_EQ(kde.num_samples(), 300u);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const std::vector<double> p = kde.SamplePoint(r);
    ASSERT_EQ(p[0], data.Get(r, 1));
    ASSERT_EQ(p[1], data.Get(r, 2));
  }
  EXPECT_EQ(KdeDigest(kde), 0xEF6CEBCAB7D75CD7ULL);
}

TEST(FitDataKdeTest, CancelledMidFitReturnsEmptyKde) {
  // A deadline that passes while the rows are being drawn: the fit
  // unwinds at its next poll and reports nothing.
  Dataset data({"x"});
  data.Reserve(size_t{1} << 21);
  for (size_t r = 0; r < (size_t{1} << 21); ++r) {
    data.AddRow({static_cast<double>(r)});
  }
  CancelSource source;
  source.SetDeadline(1e-3);
  const Kde kde = FitDataKde(data, {0}, 2000, 5, source.token());
  EXPECT_EQ(kde.num_samples(), 0u);
  EXPECT_EQ(kde.dims(), 0u);
}

// End-to-end pin of the answers a trained surrogate gives: the regions,
// fitness, surrogate estimates and validated truth of a threshold query
// (SurfFinder) and a top-k query over the same surrogate and KDE prior.
TEST(FinderTest, MinedAnswersArePinned) {
  const SyntheticDataset ds = DensityData(2, 2, 16);
  SurfOptions options;
  options.workload.num_queries = 1500;
  options.finder.gso.num_glowworms = 80;
  options.finder.gso.max_iterations = 40;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());
  const FindResult found =
      surf->FindRegions(300.0, ThresholdDirection::kAbove);
  ASSERT_FALSE(found.regions.empty());
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const FoundRegion& r : found.regions) {
    for (double v : r.region.ToFlat()) h = MixBits(h, v);
    h = MixBits(h, r.fitness);
    h = MixBits(h, r.estimate);
    h = MixBits(h, r.true_value);
  }
  EXPECT_EQ(h, 0x5619368BD9170929ULL);

  TopKConfig topk_config;
  topk_config.k = 3;
  topk_config.gso.num_glowworms = 80;
  topk_config.gso.max_iterations = 40;
  TopKFinder topk(surf->surrogate().AsStatisticFn(), surf->space(),
                  topk_config);
  topk.SetBatchEstimate(surf->surrogate().AsBatchStatisticFn());
  const TopKResult best = topk.Find();
  ASSERT_FALSE(best.regions.empty());
  h = 0xCBF29CE484222325ULL;
  for (const ScoredRegion& r : best.regions) {
    for (double v : r.region.ToFlat()) h = MixBits(h, v);
    h = MixBits(h, r.fitness);
    h = MixBits(h, r.statistic);
  }
  EXPECT_EQ(h, 0x65C5E40023E69035ULL);
}

}  // namespace
}  // namespace surf
