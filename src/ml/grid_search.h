#ifndef SURF_ML_GRID_SEARCH_H_
#define SURF_ML_GRID_SEARCH_H_

#include <cstdint>
#include <vector>

#include "ml/gbrt.h"
#include "ml/matrix.h"
#include "util/thread_pool.h"

namespace surf {

/// \brief Hyper-parameter grid for GBRT surrogates. Defaults reproduce the
/// exact grid the paper hypertunes in §V-E: 3 learning rates × 4 depths ×
/// 3 ensemble sizes × 4 lambdas = 144 combinations.
struct GridSearchSpace {
  std::vector<double> learning_rates{0.1, 0.01, 0.001};
  std::vector<size_t> max_depths{3, 5, 7, 9};
  std::vector<size_t> n_estimators{100, 200, 300};
  std::vector<double> reg_lambdas{1.0, 0.1, 0.01, 0.001};

  size_t NumCombinations() const {
    return learning_rates.size() * max_depths.size() * n_estimators.size() *
           reg_lambdas.size();
  }

  /// Enumerates every parameter combination (base carries the non-swept
  /// fields such as subsample and seed).
  std::vector<GbrtParams> Enumerate(const GbrtParams& base) const;

  /// A reduced 2×2×1×2 grid for quick experiments and tests.
  static GridSearchSpace Small();
};

/// \brief One evaluated grid point.
struct GridSearchEntry {
  GbrtParams params;
  double mean_rmse = 0.0;
  double std_rmse = 0.0;
};

/// \brief Grid-search outcome: the winning parameters and the full table.
struct GridSearchResult {
  GbrtParams best_params;
  double best_rmse = 0.0;
  std::vector<GridSearchEntry> entries;
};

/// K-fold cross-validated grid search over GBRT hyper-parameters
/// (scikit-learn's GridSearchCV, §V-E). With a pool, parameter
/// combinations are evaluated in parallel and every fold's model borrows
/// the same pool (nested ParallelFor); results match the serial run
/// bit for bit. `k_folds` >= 2.
GridSearchResult GridSearchCV(const FeatureMatrix& x,
                              const std::vector<double>& y,
                              const GridSearchSpace& space,
                              const GbrtParams& base, size_t k_folds,
                              uint64_t seed, ThreadPool* pool = nullptr);

/// Convenience: cross-validated RMSE of one parameter set. The fold
/// models borrow `pool` (null = serial).
double CrossValidatedRmse(const FeatureMatrix& x, const std::vector<double>& y,
                          const GbrtParams& params, size_t k_folds,
                          uint64_t seed, double* std_out = nullptr,
                          ThreadPool* pool = nullptr);

}  // namespace surf

#endif  // SURF_ML_GRID_SEARCH_H_
