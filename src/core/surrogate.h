#ifndef SURF_CORE_SURROGATE_H_
#define SURF_CORE_SURROGATE_H_

/// \file
/// \brief Surrogate models f̂ ≈ f: training, batched evaluation, warm starts, persistence.

#include <memory>
#include <string>

#include "core/workload.h"
#include "ml/gbrt.h"
#include "ml/grid_search.h"
#include "ml/regressor.h"
#include "opt/objective.h"
#include "util/thread_pool.h"

namespace surf {

/// \brief How to train a surrogate (paper §IV, §V-E).
struct SurrogateTrainOptions {
  /// Base GBRT parameters (used directly when hypertune == false, and as
  /// the non-swept defaults of the grid search otherwise).
  GbrtParams gbrt;
  /// Run GridSearchCV over `grid` before the final fit (§V-E's 144-combo
  /// sweep; expensive — the paper's Fig. 6 quantifies by how much).
  bool hypertune = false;
  /// Hyper-parameter grid swept when `hypertune` is on.
  GridSearchSpace grid;
  /// Cross-validation folds of the hypertune sweep.
  size_t cv_folds = 3;
  /// Fraction of the workload held out to report the out-of-sample RMSE
  /// (the error Fig. 11 correlates with IoU).
  double test_fraction = 0.2;
  /// Seed of the train/test split (and the grid search's folds).
  uint64_t seed = 21;
};

/// \brief Quality/cost record of a trained surrogate.
struct SurrogateMetrics {
  /// RMSE on the training split.
  double train_rmse = 0.0;
  /// RMSE on the held-out test split (out-of-sample fidelity).
  double test_rmse = 0.0;
  /// Training wall-time in seconds (cumulative across warm starts).
  double train_seconds = 0.0;
  /// Labelled examples the model has been fitted on.
  size_t num_train_examples = 0;
  /// Winning hyper-parameters (== the requested ones when not hypertuned).
  GbrtParams chosen_params;
  /// Whether a GridSearchCV sweep preceded the final fit.
  bool hypertuned = false;
};

/// \brief A trained surrogate model f̂ ≈ f (paper Def. 3 / §IV).
///
/// Wraps any `Regressor` over the [x, l] feature encoding. The default
/// training path fits the GBRT (the paper's XGBoost stand-in); the generic
/// path accepts ridge/k-NN models for the surrogate-class ablation.
class Surrogate {
 public:
  /// An untrained placeholder; call Train/TrainWithModel/Load to fit.
  Surrogate() = default;

  /// Trains the default GBRT surrogate on a workload. When
  /// `options.hypertune` is set, runs GridSearchCV first. A non-null
  /// `pool` is borrowed by the grid search and by every model fitted
  /// here; the fitted model is bit-identical either way. `cancel` is
  /// polled between boosting rounds: a fired token aborts the fit and
  /// returns Cancelled within one round. A non-null `trace` records
  /// hypertune/boosting spans; tracing never changes the fitted model.
  static StatusOr<Surrogate> Train(const RegionWorkload& workload,
                                   const SurrogateTrainOptions& options,
                                   ThreadPool* pool = nullptr,
                                   CancelToken cancel = {},
                                   TraceContext* trace = nullptr);

  /// Trains a caller-supplied regressor instead (ablation path). The
  /// model must be unfitted; ownership transfers.
  static StatusOr<Surrogate> TrainWithModel(
      std::unique_ptr<Regressor> model, const RegionWorkload& workload,
      double test_fraction, uint64_t seed);

  /// ŷ = f̂(x, l).
  double Predict(const Region& region) const;

  /// Batched ŷ for a whole population of regions: one feature-matrix fill
  /// plus one blocked PredictBatch instead of per-region feature vectors
  /// and tree walks. Element i corresponds to regions[i].
  std::vector<double> EvaluateMany(const std::vector<Region>& regions) const;

  /// Folds freshly observed region evaluations into the deployed model by
  /// warm-start boosting (`extra_trees` additional rounds fitted to the
  /// current residuals on the new batch). This is the "models will be
  /// trained once and successively used" deployment story (§V-D) extended
  /// with cheap periodic refreshes — no full retrain. GBRT models only.
  Status Update(const RegionWorkload& fresh_workload, size_t extra_trees);

  /// Copy-on-write variant of Update for the serving layer: deep-copies
  /// the GBRT ensemble, warm-start-boosts the copy on `fresh_workload`
  /// (`extra_trees` rounds against the current residuals), and returns the
  /// refreshed surrogate. `*this` is untouched, so readers holding the old
  /// model keep serving consistent results until the caller swaps the new
  /// one in. A 20 % slice of the fresh batch is held out to re-measure
  /// `metrics().test_rmse` for the refreshed model (batches smaller than
  /// 5 train whole and keep the previous figure). GBRT models only.
  StatusOr<Surrogate> WarmStarted(const RegionWorkload& fresh_workload,
                                  size_t extra_trees) const;

  /// Adapter feeding the optimization objective.
  StatisticFn AsStatisticFn() const;

  /// Batched adapter: lets optimizers score an entire swarm per call.
  BatchStatisticFn AsBatchStatisticFn() const;

  /// Quality/cost record of the training run.
  const SurrogateMetrics& metrics() const { return metrics_; }
  /// The solution space the surrogate was trained over.
  const RegionSolutionSpace& space() const { return space_; }
  /// The statistic the surrogate approximates.
  const Statistic& statistic() const { return statistic_; }
  /// Data dimensionality d (feature width is 2d).
  size_t dims() const { return space_.dims(); }
  /// Whether a fitted model is attached.
  bool trained() const { return model_ != nullptr && model_->trained(); }
  /// The underlying regressor.
  const Regressor& model() const { return *model_; }

  /// Persists the surrogate (GBRT models only; other regressors return
  /// FailedPrecondition).
  Status Save(const std::string& path) const;
  /// Loads a surrogate saved by Save.
  static StatusOr<Surrogate> Load(const std::string& path);

 private:
  std::shared_ptr<Regressor> model_;
  RegionSolutionSpace space_;
  Statistic statistic_;
  SurrogateMetrics metrics_;
};

}  // namespace surf

#endif  // SURF_CORE_SURROGATE_H_
