#ifndef SURF_ML_GBRT_H_
#define SURF_ML_GBRT_H_

#include <string>
#include <vector>

#include "ml/regressor.h"
#include "ml/tree.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace surf {

/// \brief Hyper-parameters of the gradient-boosted ensemble. Field names
/// follow XGBoost so the grid the paper hypertunes in §V-E
/// (learning_rate ∈ {0.1, 0.01, 0.001}, max_depth ∈ {3,5,7,9},
/// n_estimators ∈ {100, 200, 300}, reg_lambda ∈ {1, 0.1, 0.01, 0.001})
/// maps one-to-one.
struct GbrtParams {
  double learning_rate = 0.1;
  size_t n_estimators = 100;
  size_t max_depth = 6;
  double reg_lambda = 1.0;
  double min_child_weight = 1.0;
  double min_split_gain = 0.0;
  size_t min_samples_leaf = 1;
  /// Row subsampling per tree (stochastic gradient boosting).
  double subsample = 1.0;
  /// Column subsampling per tree.
  double colsample = 1.0;
  /// Histogram resolution.
  size_t max_bins = 256;
  /// Derive each larger child's histogram by subtracting the smaller
  /// sibling's from the parent's (off = direct rebuild, the reference
  /// path for equivalence tests).
  bool use_sibling_subtraction = true;
  /// Early stopping: stop when the held-out RMSE has not improved for
  /// `early_stopping_rounds` trees (0 disables; requires
  /// validation_fraction > 0).
  size_t early_stopping_rounds = 0;
  double validation_fraction = 0.0;
  uint64_t seed = 1234;

  /// Short display form (the four §V-E grid axes only).
  std::string ToString() const;

  /// Canonical full serialization of every *model-relevant* field, used by
  /// the serving layer to fingerprint cache keys. Two parameter sets with
  /// equal canonical strings train bit-identical ensembles on the same
  /// data. The runtime-only knob `use_sibling_subtraction` is excluded:
  /// it never changes the fitted model.
  std::string CanonicalString() const;
};

/// \brief Gradient-boosted regression trees with squared-error loss —
/// the from-scratch stand-in for the paper's XGBoost surrogate (§IV).
///
/// Second-order boosting: per round the gradient of ½(pred−y)² is
/// (pred − y) and the hessian is 1, so leaf weights reduce to the familiar
/// -Σresidual / (n + λ). Trees are trained histogram-style on quantile
/// bins; prediction sums raw-threshold tree walks.
class GradientBoostedTrees : public Regressor {
 public:
  GradientBoostedTrees() = default;
  explicit GradientBoostedTrees(GbrtParams params)
      : params_(std::move(params)) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;

  /// Warm-start continuation: appends `extra_trees` boosting rounds fitted
  /// to this model's residuals on (x, y) — the mechanism behind
  /// Surrogate::Update, which folds freshly observed region evaluations
  /// into an already-deployed surrogate without retraining from scratch.
  /// Requires a trained model with matching feature width.
  Status ContinueFit(const FeatureMatrix& x, const std::vector<double>& y,
                     size_t extra_trees);

  double Predict(const std::vector<double>& x) const override;

  /// Copy-free blocked batch prediction: walks every tree over a block of
  /// rows straight out of the column-major matrix (no per-row gather), so
  /// each tree's nodes stay cache-hot across the whole block. Blocks of
  /// a large batch run on the borrowed pool (SetThreadPool); output is
  /// bit-identical to the scalar path for any pool size.
  std::vector<double> PredictBatch(const FeatureMatrix& x) const override;

  bool trained() const override { return trained_; }
  std::string Name() const override { return "gbrt"; }

  /// Attaches a cooperative-cancellation token polled between boosting
  /// rounds: Fit/ContinueFit return Cancelled within one round of the
  /// token firing, leaving the model untrained (Fit) or unchanged beyond
  /// the rounds already appended (ContinueFit). The token is runtime-only
  /// state — it never affects a completed fit's results and is excluded
  /// from fingerprints. Reset it (default token) before reusing the model
  /// object for an unrelated fit.
  void SetCancelToken(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Attaches a trace context recording one "boost_rounds" span per
  /// block of boosting rounds during Fit. Like the cancel token this is
  /// runtime-only, per-request state (tracing never changes the fitted
  /// ensemble); reset it (nullptr) before reusing the model object.
  void SetTrace(TraceContext* trace) { trace_ = trace; }

  /// Borrows `pool` (null = serial, the default) for the row blocks of
  /// large PredictBatch calls; Fit and ContinueFit stay serial. Runtime-
  /// only like the cancel token: each block sums its trees in a fixed
  /// order, so results are bit-identical for any pool, and the pool must
  /// outlive every call made while it is attached.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  const GbrtParams& params() const { return params_; }
  size_t num_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }

  /// Training RMSE per boosting round (for learning-curve reports).
  const std::vector<double>& train_curve() const { return train_curve_; }

  /// Model persistence (plain text).
  Status Save(const std::string& path) const;
  static StatusOr<GradientBoostedTrees> Load(const std::string& path);

 private:
  GbrtParams params_;
  CancelToken cancel_;
  TraceContext* trace_ = nullptr;
  ThreadPool* pool_ = nullptr;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> train_curve_;
  size_t num_features_ = 0;
  bool trained_ = false;
};

}  // namespace surf

#endif  // SURF_ML_GBRT_H_
