#include "ml/kde.h"

#include <cassert>
#include <cmath>

namespace surf {

double StdNormalCdf(double x) { return 0.5 * std::erfc(-x * M_SQRT1_2); }

Kde Kde::FitFlat(std::vector<double> flat, size_t d) {
  assert(d > 0);
  assert(!flat.empty() && flat.size() % d == 0);
  const size_t n = flat.size() / d;

  Kde kde;
  kde.points_ = std::move(flat);

  // Scott's rule bandwidth per dimension.
  kde.bandwidths_.resize(d);
  const double factor =
      std::pow(static_cast<double>(n), -1.0 / (static_cast<double>(d) + 4.0));
  for (size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += kde.points_[i * d + j];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double dev = kde.points_[i * d + j] - mean;
      var += dev * dev;
    }
    var /= static_cast<double>(n > 1 ? n - 1 : 1);
    const double sigma = std::sqrt(var);
    kde.bandwidths_[j] = std::max(1e-6, sigma * factor);
  }
  return kde;
}

Kde Kde::Fit(const std::vector<std::vector<double>>& points) {
  assert(!points.empty());
  const size_t d = points[0].size();
  std::vector<double> flat;
  flat.reserve(points.size() * d);
  for (const auto& p : points) {
    assert(p.size() == d);
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return FitFlat(std::move(flat), d);
}

double Kde::Density(const std::vector<double>& point) const {
  const size_t d = dims();
  assert(point.size() == d);
  const size_t n = num_samples();
  assert(n > 0);

  double norm = 1.0;
  for (size_t j = 0; j < d; ++j) {
    norm *= bandwidths_[j] * std::sqrt(2.0 * M_PI);
  }

  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double expo = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double z = (point[j] - points_[i * d + j]) / bandwidths_[j];
      expo += z * z;
    }
    sum += std::exp(-0.5 * expo);
  }
  return sum / (static_cast<double>(n) * norm);
}

std::vector<double> Kde::SamplePoint(size_t i) const {
  const size_t d = dims();
  assert(i < num_samples());
  return std::vector<double>(points_.begin() + static_cast<long>(i * d),
                             points_.begin() + static_cast<long>((i + 1) * d));
}

std::vector<double> Kde::DrawPoint(Rng* rng) const {
  const size_t n = num_samples();
  assert(n > 0);
  std::vector<double> p = SamplePoint(rng->UniformInt(n));
  for (size_t j = 0; j < p.size(); ++j) {
    p[j] += rng->Gaussian(0.0, bandwidths_[j]);
  }
  return p;
}

double Kde::RegionMass(const Region& region) const {
  const size_t d = dims();
  assert(region.dims() == d);
  const size_t n = num_samples();
  assert(n > 0);

  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double mass = 1.0;
    for (size_t j = 0; j < d; ++j) {
      const double mu = points_[i * d + j];
      const double h = bandwidths_[j];
      const double upper = StdNormalCdf((region.hi(j) - mu) / h);
      const double lower = StdNormalCdf((region.lo(j) - mu) / h);
      mass *= (upper - lower);
      if (mass <= 0.0) break;
    }
    total += mass;
  }
  return total / static_cast<double>(n);
}

}  // namespace surf
