#ifndef SURF_ML_KDE_H_
#define SURF_ML_KDE_H_

#include <vector>

#include "geom/region.h"
#include "util/rng.h"

namespace surf {

/// \brief Gaussian product-kernel density estimator over R^d.
///
/// SuRF uses a KDE of the data distribution p_A(a) to steer GSO particles
/// toward populated space (paper §III-B, Eq. 8): the neighbour-selection
/// probability is re-weighted by the probability mass the KDE assigns to a
/// particle's box. Per the paper, the KDE is fitted on a subsample for
/// large datasets.
///
/// With a product Gaussian kernel the box-mass integral factorizes into a
/// product of per-dimension Gaussian CDF differences, so `RegionMass` is
/// exact and O(samples · d).
class Kde {
 public:
  /// Fits on row-major points (n × d). Bandwidths follow Scott's rule
  /// h_j = σ_j · n^{-1/(d+4)} with a small floor for degenerate columns.
  static Kde Fit(const std::vector<std::vector<double>>& points);

  /// Fits on an already-flattened row-major buffer (n × dims, n > 0),
  /// taking ownership of it as the sample store.
  static Kde FitFlat(std::vector<double> flat, size_t dims);

  /// Density estimate p(a) at a point.
  double Density(const std::vector<double>& point) const;

  /// Probability mass the KDE assigns to the region's box:
  /// ∫_{x-l}^{x+l} p_A(a) da (the Eq. 8 integral).
  double RegionMass(const Region& region) const;

  size_t dims() const { return bandwidths_.size(); }
  size_t num_samples() const {
    return dims() == 0 ? 0 : points_.size() / dims();
  }
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// One of the fitted sample points (i < num_samples()). Used by
  /// KDE-seeded swarm initialization: placing particles at (jittered)
  /// sample locations starts them inside populated space.
  std::vector<double> SamplePoint(size_t i) const;

  /// Draws a point from the KDE itself (random sample + per-dimension
  /// Gaussian bandwidth jitter) — a sample from the estimated density.
  std::vector<double> DrawPoint(Rng* rng) const;

 private:
  std::vector<double> points_;  // flattened row-major samples
  std::vector<double> bandwidths_;
};

/// Standard normal CDF Φ(x) (exposed for tests).
double StdNormalCdf(double x);

}  // namespace surf

#endif  // SURF_ML_KDE_H_
