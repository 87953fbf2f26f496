#ifndef SURF_ML_MATRIX_H_
#define SURF_ML_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace surf {

/// \brief Column-major feature matrix for the ML substrate.
///
/// Tree training repeatedly scans one feature across many rows, so features
/// are stored contiguously. Rows are appended; the width is fixed at
/// construction.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  explicit FeatureMatrix(size_t num_features) : cols_(num_features) {}

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return cols_.size(); }

  /// Appends one row (must match num_features()).
  void AddRow(const std::vector<double>& x) {
    assert(x.size() == cols_.size());
    for (size_t j = 0; j < x.size(); ++j) cols_[j].push_back(x[j]);
    ++num_rows_;
  }

  /// Empties the matrix and sets its width, keeping the columns'
  /// capacity when the width is unchanged (for reusable buffers).
  void Reset(size_t num_features) {
    if (num_features != cols_.size()) cols_.assign(num_features, {});
    for (auto& c : cols_) c.clear();
    num_rows_ = 0;
  }

  void Reserve(size_t rows) {
    for (auto& c : cols_) c.reserve(rows);
  }

  /// Contiguous storage of feature j.
  const std::vector<double>& feature(size_t j) const { return cols_[j]; }

  /// Raw pointer to feature j's column (for copy-free batch traversal).
  const double* col_data(size_t j) const { return cols_[j].data(); }

  /// Column pointers for all features, in feature order — the view the
  /// blocked tree-prediction kernel walks without gathering rows.
  std::vector<const double*> ColPointers() const {
    std::vector<const double*> out(cols_.size());
    for (size_t j = 0; j < cols_.size(); ++j) out[j] = cols_[j].data();
    return out;
  }

  double Get(size_t row, size_t j) const { return cols_[j][row]; }

  /// Gathers a row (for per-point prediction APIs).
  std::vector<double> Row(size_t row) const {
    std::vector<double> out(num_features());
    for (size_t j = 0; j < out.size(); ++j) out[j] = cols_[j][row];
    return out;
  }

  /// Selects a subset of rows into a new matrix.
  FeatureMatrix Gather(const std::vector<size_t>& rows) const;

 private:
  std::vector<std::vector<double>> cols_;
  size_t num_rows_ = 0;
};

}  // namespace surf

#endif  // SURF_ML_MATRIX_H_
