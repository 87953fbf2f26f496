#include "ml/grid_search.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "ml/cv.h"
#include "ml/metrics.h"
#include "util/summary.h"

namespace surf {

std::vector<GbrtParams> GridSearchSpace::Enumerate(
    const GbrtParams& base) const {
  std::vector<GbrtParams> out;
  out.reserve(NumCombinations());
  for (double lr : learning_rates) {
    for (size_t depth : max_depths) {
      for (size_t trees : n_estimators) {
        for (double lambda : reg_lambdas) {
          GbrtParams p = base;
          p.learning_rate = lr;
          p.max_depth = depth;
          p.n_estimators = trees;
          p.reg_lambda = lambda;
          out.push_back(p);
        }
      }
    }
  }
  return out;
}

GridSearchSpace GridSearchSpace::Small() {
  GridSearchSpace space;
  space.learning_rates = {0.1, 0.05};
  space.max_depths = {4, 7};
  space.n_estimators = {100};
  space.reg_lambdas = {1.0, 0.1};
  return space;
}

double CrossValidatedRmse(const FeatureMatrix& x,
                          const std::vector<double>& y,
                          const GbrtParams& params, size_t k_folds,
                          uint64_t seed, double* std_out,
                          ThreadPool* pool) {
  assert(k_folds >= 2);
  Rng rng(seed);
  const auto folds = KFoldSplits(x.num_rows(), k_folds, &rng);

  RunningStats stats;
  for (const auto& fold : folds) {
    FeatureMatrix train_x = x.Gather(fold.train);
    std::vector<double> train_y;
    train_y.reserve(fold.train.size());
    for (size_t r : fold.train) train_y.push_back(y[r]);

    GradientBoostedTrees model(params);
    model.SetThreadPool(pool);
    const Status st = model.Fit(train_x, train_y);
    assert(st.ok());
    (void)st;

    std::vector<double> pred, truth;
    pred.reserve(fold.test.size());
    truth.reserve(fold.test.size());
    for (size_t r : fold.test) {
      pred.push_back(model.Predict(x.Row(r)));
      truth.push_back(y[r]);
    }
    stats.Add(Rmse(pred, truth));
  }
  if (std_out != nullptr) *std_out = stats.stddev();
  return stats.mean();
}

GridSearchResult GridSearchCV(const FeatureMatrix& x,
                              const std::vector<double>& y,
                              const GridSearchSpace& space,
                              const GbrtParams& base, size_t k_folds,
                              uint64_t seed, ThreadPool* pool) {
  const auto combos = space.Enumerate(base);
  GridSearchResult result;
  result.entries.resize(combos.size());

  auto evaluate = [&](size_t i) {
    GridSearchEntry entry;
    entry.params = combos[i];
    entry.mean_rmse = CrossValidatedRmse(x, y, combos[i], k_folds,
                                         seed + i, &entry.std_rmse, pool);
    result.entries[i] = entry;
  };

  ParallelFor(pool, combos.size(), evaluate);

  double best = std::numeric_limits<double>::infinity();
  for (const auto& entry : result.entries) {
    if (entry.mean_rmse < best) {
      best = entry.mean_rmse;
      result.best_params = entry.params;
      result.best_rmse = entry.mean_rmse;
    }
  }
  return result;
}

}  // namespace surf
