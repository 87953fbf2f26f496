// Tests for the hand-rolled ML substrate: binning, regression trees,
// gradient boosting, ridge regression, k-NN, cross-validation, grid
// search, metrics, and the KDE.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "core/surf.h"
#include "ml/binning.h"
#include "ml/cv.h"
#include "ml/gbrt.h"
#include "ml/grid_search.h"
#include "ml/kde.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/regressor.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace surf {
namespace {

/// y = f(x) sampled on n random points in [0,1]^d.
void MakeRegressionProblem(size_t n, size_t d, uint64_t seed,
                           double (*fn)(const std::vector<double>&),
                           FeatureMatrix* x, std::vector<double>* y) {
  Rng rng(seed);
  *x = FeatureMatrix(d);
  x->Reserve(n);
  y->clear();
  y->reserve(n);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    x->AddRow(row);
    y->push_back(fn(row));
  }
}

double StepFn(const std::vector<double>& x) { return x[0] > 0.5 ? 5.0 : 1.0; }
double SmoothFn(const std::vector<double>& x) {
  return std::sin(4.0 * x[0]) + 2.0 * x[1] * x[1];
}
double LinearFn(const std::vector<double>& x) {
  return 3.0 + 2.0 * x[0] - 1.5 * x[1];
}

// --------------------------------------------------------------- Matrix

TEST(FeatureMatrixTest, AddAndAccess) {
  FeatureMatrix m(2);
  m.AddRow({1.0, 2.0});
  m.AddRow({3.0, 4.0});
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.num_features(), 2u);
  EXPECT_DOUBLE_EQ(m.Get(1, 0), 3.0);
  EXPECT_EQ(m.Row(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(m.feature(1).size(), 2u);
}

TEST(FeatureMatrixTest, Gather) {
  FeatureMatrix m(1);
  for (int i = 0; i < 5; ++i) m.AddRow({static_cast<double>(i)});
  const FeatureMatrix g = m.Gather({4, 0, 2});
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(g.Get(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.Get(2, 0), 2.0);
}

// --------------------------------------------------------------- Metrics

TEST(MetricsTest, RmseKnownValue) {
  EXPECT_DOUBLE_EQ(Rmse({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({0.0, 0.0}, {3.0, 4.0}), std::sqrt(12.5));
}

TEST(MetricsTest, MaeKnownValue) {
  EXPECT_DOUBLE_EQ(Mae({1.0, -1.0}, {0.0, 0.0}), 1.0);
}

TEST(MetricsTest, R2PerfectAndMeanModel) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(R2Score(truth, truth), 1.0);
  EXPECT_DOUBLE_EQ(R2Score({2.0, 2.0, 2.0}, truth), 0.0);  // mean predictor
  EXPECT_LT(R2Score({3.0, 2.0, 1.0}, truth), 0.0);         // worse than mean
}

// -------------------------------------------------------------------- CV

TEST(CvTest, KFoldPartitions) {
  Rng rng(1);
  const auto folds = KFoldSplits(100, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> all_test;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), 100u);
    EXPECT_EQ(fold.test.size(), 20u);
    for (size_t r : fold.test) all_test.insert(r);
    // Train and test are disjoint.
    std::set<size_t> train(fold.train.begin(), fold.train.end());
    for (size_t r : fold.test) EXPECT_EQ(train.count(r), 0u);
  }
  EXPECT_EQ(all_test.size(), 100u);  // every row tested exactly once
}

TEST(CvTest, KFoldUnevenSizes) {
  Rng rng(2);
  const auto folds = KFoldSplits(10, 3, &rng);
  size_t total_test = 0;
  for (const auto& fold : folds) total_test += fold.test.size();
  EXPECT_EQ(total_test, 10u);
}

TEST(CvTest, TrainTestSplitFraction) {
  Rng rng(3);
  const Fold fold = TrainTestSplit(200, 0.25, &rng);
  EXPECT_EQ(fold.test.size(), 50u);
  EXPECT_EQ(fold.train.size(), 150u);
}

// --------------------------------------------------------------- Binning

TEST(BinningTest, FewDistinctValuesGetOwnBins) {
  FeatureMatrix m(1);
  for (double v : {1.0, 1.0, 2.0, 3.0, 3.0}) m.AddRow({v});
  const FeatureBinner binner(m, 256);
  EXPECT_EQ(binner.num_bins(0), 3u);
  EXPECT_EQ(binner.BinIndex(0, 1.0), 0);
  EXPECT_EQ(binner.BinIndex(0, 2.0), 1);
  EXPECT_EQ(binner.BinIndex(0, 3.0), 2);
  EXPECT_EQ(binner.BinIndex(0, -5.0), 0);
  EXPECT_EQ(binner.BinIndex(0, 99.0), 2);
}

TEST(BinningTest, BinsAreMonotone) {
  Rng rng(5);
  FeatureMatrix m(1);
  for (int i = 0; i < 5000; ++i) m.AddRow({rng.Gaussian()});
  const FeatureBinner binner(m, 64);
  EXPECT_LE(binner.num_bins(0), 64u);
  double prev = -10.0;
  uint16_t prev_bin = 0;
  for (int i = 0; i <= 100; ++i) {
    const double v = -3.0 + 0.06 * i;
    const uint16_t b = binner.BinIndex(0, v);
    if (v > prev) {
      EXPECT_GE(b, prev_bin);
    }
    prev = v;
    prev_bin = b;
  }
}

TEST(BinningTest, BinMatrixShape) {
  FeatureMatrix m(2);
  m.AddRow({0.1, 5.0});
  m.AddRow({0.9, -5.0});
  const FeatureBinner binner(m, 16);
  const auto binned = binner.BinMatrix(m);
  ASSERT_EQ(binned.size(), 2u);
  EXPECT_EQ(binned[0].size(), 2u);
}

// ------------------------------------------------------------------ Tree

TEST(TreeTest, FitsStepFunctionExactly) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(500, 1, 7, StepFn, &x, &y);

  // Squared loss from a zero baseline: g = -y, h = 1.
  std::vector<double> grad(y.size()), hess(y.size(), 1.0);
  for (size_t i = 0; i < y.size(); ++i) grad[i] = -y[i];
  std::vector<uint32_t> rows(y.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);

  const FeatureBinner binner(x, 256);
  TreeParams params;
  params.max_depth = 2;
  params.reg_lambda = 0.0;
  RegressionTree tree;
  tree.Fit(binner.Bin(x), binner, grad, hess, &rows, params, nullptr);

  EXPECT_NEAR(tree.Predict({0.2}), 1.0, 0.05);
  EXPECT_NEAR(tree.Predict({0.8}), 5.0, 0.05);
  EXPECT_LE(tree.Depth(), 3u);
}

TEST(TreeTest, DepthZeroIsSingleLeaf) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(100, 1, 8, StepFn, &x, &y);
  std::vector<double> grad(y.size()), hess(y.size(), 1.0);
  double mean = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    grad[i] = -y[i];
    mean += y[i];
  }
  mean /= static_cast<double>(y.size());
  std::vector<uint32_t> rows(y.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);

  const FeatureBinner binner(x, 64);
  TreeParams params;
  params.max_depth = 0;
  params.reg_lambda = 0.0;
  RegressionTree tree;
  tree.Fit(binner.Bin(x), binner, grad, hess, &rows, params, nullptr);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_NEAR(tree.Predict({0.5}), mean, 1e-9);
}

TEST(TreeTest, RegLambdaShrinksLeaves) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(200, 1, 9, StepFn, &x, &y);
  std::vector<double> grad(y.size()), hess(y.size(), 1.0);
  for (size_t i = 0; i < y.size(); ++i) grad[i] = -y[i];
  std::vector<uint32_t> rows(y.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  const FeatureBinner binner(x, 64);

  TreeParams free_params;
  free_params.max_depth = 1;
  free_params.reg_lambda = 0.0;
  TreeParams heavy_params = free_params;
  heavy_params.reg_lambda = 1000.0;

  RegressionTree free_tree, heavy_tree;
  const BinnedMatrix binned = binner.Bin(x);
  std::vector<uint32_t> rows_b = rows;
  free_tree.Fit(binned, binner, grad, hess, &rows, free_params, nullptr);
  heavy_tree.Fit(binned, binner, grad, hess, &rows_b, heavy_params, nullptr);
  EXPECT_LT(std::fabs(heavy_tree.Predict({0.8})),
            std::fabs(free_tree.Predict({0.8})));
}

TEST(TreeTest, SerializeRoundTrip) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(300, 2, 10, SmoothFn, &x, &y);
  std::vector<double> grad(y.size()), hess(y.size(), 1.0);
  for (size_t i = 0; i < y.size(); ++i) grad[i] = -y[i];
  std::vector<uint32_t> rows(y.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  const FeatureBinner binner(x, 64);
  TreeParams params;
  params.max_depth = 4;
  RegressionTree tree;
  tree.Fit(binner.Bin(x), binner, grad, hess, &rows, params, nullptr);

  std::stringstream ss;
  tree.Serialize(ss);
  const auto restored = RegressionTree::Deserialize(ss);
  ASSERT_TRUE(restored.ok());
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> p{rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(tree.Predict(p), restored->Predict(p));
  }
}

// ------------------------------------------------------------------ GBRT

TEST(GbrtTest, RejectsBadInput) {
  GradientBoostedTrees model;
  FeatureMatrix empty(2);
  EXPECT_FALSE(model.Fit(empty, {}).ok());

  FeatureMatrix x(1);
  x.AddRow({1.0});
  EXPECT_FALSE(model.Fit(x, {1.0, 2.0}).ok());
  EXPECT_FALSE(model.Fit(x, {std::nan("")}).ok());
}

TEST(GbrtTest, FitsSmoothFunction) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(3000, 2, 12, SmoothFn, &x, &y);
  GbrtParams params;
  params.n_estimators = 150;
  params.max_depth = 5;
  params.learning_rate = 0.1;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.Name(), "gbrt");

  FeatureMatrix test_x;
  std::vector<double> test_y;
  MakeRegressionProblem(500, 2, 13, SmoothFn, &test_x, &test_y);
  const double rmse = Rmse(model.PredictBatch(test_x), test_y);
  EXPECT_LT(rmse, 0.1);  // target range is roughly [-1, 3]
}

TEST(GbrtTest, TrainCurveDecreases) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(1000, 2, 14, SmoothFn, &x, &y);
  GbrtParams params;
  params.n_estimators = 50;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto& curve = model.train_curve();
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_LT(curve.back(), curve.front() * 0.5);
}

TEST(GbrtTest, MoreTreesFitBetter) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(1500, 2, 15, SmoothFn, &x, &y);
  GbrtParams small;
  small.n_estimators = 5;
  GbrtParams large = small;
  large.n_estimators = 100;
  GradientBoostedTrees a(small), b(large);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_LT(Rmse(b.PredictBatch(x), y), Rmse(a.PredictBatch(x), y));
}

TEST(GbrtTest, PredictBatchMatchesLoop) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(500, 3, 16, LinearFn, &x, &y);
  GradientBoostedTrees model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto batch = model.PredictBatch(x);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.Predict(x.Row(i)));
  }
}

TEST(GbrtTest, SubsampleAndColsampleStillLearn) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(2000, 2, 17, SmoothFn, &x, &y);
  GbrtParams params;
  params.subsample = 0.7;
  params.colsample = 0.8;
  params.n_estimators = 100;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_LT(Rmse(model.PredictBatch(x), y), 0.2);
}

TEST(GbrtTest, EarlyStoppingTruncates) {
  FeatureMatrix x;
  std::vector<double> y;
  // Pure noise: validation error cannot improve, stopping kicks in fast.
  Rng rng(18);
  x = FeatureMatrix(1);
  for (int i = 0; i < 500; ++i) {
    x.AddRow({rng.Uniform()});
    y.push_back(rng.Gaussian());
  }
  GbrtParams params;
  params.n_estimators = 300;
  params.early_stopping_rounds = 5;
  params.validation_fraction = 0.2;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_LT(model.num_trees(), 300u);
}

TEST(GbrtTest, SaveLoadRoundTrip) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(800, 2, 19, SmoothFn, &x, &y);
  GradientBoostedTrees model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const std::string path = "/tmp/surf_gbrt_test.model";
  ASSERT_TRUE(model.Save(path).ok());

  auto loaded = GradientBoostedTrees::Load(path);
  ASSERT_TRUE(loaded.ok());
  Rng rng(20);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> p{rng.Uniform(), rng.Uniform()};
    EXPECT_DOUBLE_EQ(model.Predict(p), loaded->Predict(p));
  }
  std::remove(path.c_str());
}

TEST(GbrtTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/surf_gbrt_bad.model";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("not-a-model\n", f);
    fclose(f);
  }
  EXPECT_FALSE(GradientBoostedTrees::Load(path).ok());
  std::remove(path.c_str());
}

TEST(GbrtTest, DeterministicForSeed) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(600, 2, 21, SmoothFn, &x, &y);
  GbrtParams params;
  params.subsample = 0.8;
  params.seed = 5;
  GradientBoostedTrees a(params), b(params);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.3, 0.7}), b.Predict({0.3, 0.7}));
}

// ----------------------------------------------------------------- Ridge

TEST(RidgeTest, RecoversLinearCoefficients) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(2000, 2, 22, LinearFn, &x, &y);
  RidgeRegression model(1e-6);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_NEAR(model.coefficients()[0], 2.0, 0.01);
  EXPECT_NEAR(model.coefficients()[1], -1.5, 0.01);
  EXPECT_NEAR(model.intercept(), 3.0, 0.02);
  EXPECT_NEAR(model.Predict({0.5, 0.5}), 3.25, 0.01);
  EXPECT_EQ(model.Name(), "ridge");
}

TEST(RidgeTest, HeavyAlphaShrinksTowardMean) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(1000, 2, 23, LinearFn, &x, &y);
  RidgeRegression model(1e9);
  ASSERT_TRUE(model.Fit(x, y).ok());
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(model.Predict({0.9, 0.1}), mean, 0.05);
}

TEST(RidgeTest, ConstantFeatureIsHarmless) {
  FeatureMatrix x(2);
  std::vector<double> y;
  Rng rng(24);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform();
    x.AddRow({v, 7.0});  // second feature constant
    y.push_back(2.0 * v);
  }
  RidgeRegression model(0.001);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_NEAR(model.Predict({0.5, 7.0}), 1.0, 0.05);
}

TEST(CholeskyTest, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  std::vector<double> a{4, 2, 2, 3}, b{10, 8}, x;
  ASSERT_TRUE(CholeskySolve(a, b, 2, &x));
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsNonSpd) {
  std::vector<double> a{0, 0, 0, 0}, b{1, 1}, x;
  EXPECT_FALSE(CholeskySolve(a, b, 2, &x));
}

// ------------------------------------------------------------------- KNN

TEST(KnnTest, MemorizesWithKOne) {
  FeatureMatrix x(1);
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.AddRow({static_cast<double>(i)});
    y.push_back(static_cast<double>(i * i));
  }
  KnnRegressor model(1);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(model.Predict({3.0}), 9.0);
  EXPECT_DOUBLE_EQ(model.Predict({3.2}), 9.0);  // nearest is 3
  EXPECT_EQ(model.Name(), "knn");
}

TEST(KnnTest, UniformAveragesNeighbors) {
  FeatureMatrix x(1);
  std::vector<double> y{0.0, 10.0, 20.0};
  x.AddRow({0.0});
  x.AddRow({1.0});
  x.AddRow({2.0});
  KnnRegressor model(3, /*distance_weighted=*/false);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(model.Predict({1.0}), 10.0);
}

TEST(KnnTest, ApproximatesSmoothFunction) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(4000, 2, 25, SmoothFn, &x, &y);
  KnnRegressor model(8);
  ASSERT_TRUE(model.Fit(x, y).ok());
  FeatureMatrix tx;
  std::vector<double> ty;
  MakeRegressionProblem(300, 2, 26, SmoothFn, &tx, &ty);
  EXPECT_LT(Rmse(model.PredictBatch(tx), ty), 0.15);
}

TEST(KnnTest, RejectsZeroK) {
  KnnRegressor model(0);
  FeatureMatrix x(1);
  x.AddRow({1.0});
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
}

// ----------------------------------------------------------- Grid search

TEST(GridSearchTest, EnumerationCountsCombos) {
  GridSearchSpace space;
  EXPECT_EQ(space.NumCombinations(), 144u);  // the paper's §V-E grid
  const auto combos = space.Enumerate(GbrtParams{});
  EXPECT_EQ(combos.size(), 144u);

  const GridSearchSpace small = GridSearchSpace::Small();
  EXPECT_EQ(small.NumCombinations(), 8u);
}

TEST(GridSearchTest, PicksReasonableParams) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(600, 2, 27, SmoothFn, &x, &y);

  GridSearchSpace space;
  space.learning_rates = {0.1, 0.0001};  // one good, one useless
  space.max_depths = {4};
  space.n_estimators = {60};
  space.reg_lambdas = {1.0};
  GbrtParams base;
  const GridSearchResult result =
      GridSearchCV(x, y, space, base, 3, 31, nullptr);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(result.best_params.learning_rate, 0.1);
  EXPECT_LE(result.best_rmse,
            std::min(result.entries[0].mean_rmse,
                     result.entries[1].mean_rmse) +
                1e-12);
}

TEST(GridSearchTest, ParallelMatchesSerial) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionProblem(400, 2, 28, SmoothFn, &x, &y);
  GridSearchSpace space = GridSearchSpace::Small();
  GbrtParams base;
  base.n_estimators = 30;

  const GridSearchResult serial =
      GridSearchCV(x, y, space, base, 3, 7, nullptr);
  ThreadPool pool(4);
  const GridSearchResult parallel =
      GridSearchCV(x, y, space, base, 3, 7, &pool);
  ASSERT_EQ(serial.entries.size(), parallel.entries.size());
  for (size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.entries[i].mean_rmse,
                     parallel.entries[i].mean_rmse);
  }
  EXPECT_DOUBLE_EQ(serial.best_rmse, parallel.best_rmse);
}

TEST(GridSearchTest, CrossValidatedRmseIsPositiveForNoisyData) {
  FeatureMatrix x(1);
  std::vector<double> y;
  Rng rng(29);
  for (int i = 0; i < 300; ++i) {
    x.AddRow({rng.Uniform()});
    y.push_back(rng.Gaussian());
  }
  GbrtParams params;
  params.n_estimators = 20;
  double stddev = -1.0;
  const double rmse = CrossValidatedRmse(x, y, params, 3, 11, &stddev);
  EXPECT_GT(rmse, 0.5);
  EXPECT_GE(stddev, 0.0);
}

// ------------------------------------------------------------------- KDE

TEST(KdeTest, StdNormalCdfKnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StdNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(KdeTest, TotalMassIsOne) {
  Rng rng(30);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 500; ++i) points.push_back({rng.Uniform()});
  const Kde kde = Kde::Fit(points);
  // A box covering everything holds ~all probability mass.
  EXPECT_NEAR(kde.RegionMass(Region({0.5}, {100.0})), 1.0, 1e-9);
}

TEST(KdeTest, MassIsMonotoneInBoxSize) {
  Rng rng(31);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform()});
  }
  const Kde kde = Kde::Fit(points);
  double prev = 0.0;
  for (double half : {0.05, 0.1, 0.2, 0.4}) {
    const double mass = kde.RegionMass(Region({0.5, 0.5}, {half, half}));
    EXPECT_GE(mass, prev);
    prev = mass;
  }
}

TEST(KdeTest, DensityPeaksAtCluster) {
  Rng rng(32);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 800; ++i) {
    points.push_back({rng.Gaussian(0.3, 0.05), rng.Gaussian(0.7, 0.05)});
  }
  const Kde kde = Kde::Fit(points);
  EXPECT_GT(kde.Density({0.3, 0.7}), kde.Density({0.9, 0.1}) * 10.0);
}

TEST(KdeTest, RegionMassTracksPointFraction) {
  Rng rng(33);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 2000; ++i) points.push_back({rng.Uniform()});
  const Kde kde = Kde::Fit(points);
  // Half the unit interval holds about half the mass.
  EXPECT_NEAR(kde.RegionMass(Region({0.25}, {0.25})), 0.5, 0.06);
}

TEST(KdeTest, FitDataKdeSubsamples) {
  Rng rng(34);
  Dataset data({"x"});
  for (int i = 0; i < 5000; ++i) data.AddRow({rng.Uniform()});
  const Kde kde = FitDataKde(data, {0}, 300, 35);
  EXPECT_EQ(kde.num_samples(), 300u);
  EXPECT_NEAR(kde.RegionMass(Region({0.5}, {10.0})), 1.0, 1e-9);
}

TEST(KdeTest, BandwidthsScaleWithSpread) {
  std::vector<std::vector<double>> narrow, wide;
  Rng rng(36);
  for (int i = 0; i < 400; ++i) {
    narrow.push_back({rng.Gaussian(0.0, 0.01)});
    wide.push_back({rng.Gaussian(0.0, 1.0)});
  }
  EXPECT_LT(Kde::Fit(narrow).bandwidths()[0],
            Kde::Fit(wide).bandwidths()[0]);
}

}  // namespace
}  // namespace surf
