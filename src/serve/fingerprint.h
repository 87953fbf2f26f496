#ifndef SURF_SERVE_FINGERPRINT_H_
#define SURF_SERVE_FINGERPRINT_H_

/// \file
/// \brief Content fingerprints and cache keys for the serving layer.

#include <cstdint>
#include <string>

#include "core/surrogate.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "stats/statistic.h"

namespace surf {

/// \brief Streaming 64-bit FNV-1a hasher used to fingerprint cache-key
/// components. Deterministic across platforms (doubles are hashed by bit
/// pattern, sizes as fixed-width integers).
class Fingerprinter {
 public:
  /// Feeds one unsigned integer into the hash.
  void Add(uint64_t v);
  /// Feeds one double by bit pattern (so -0.0 != 0.0 is preserved and no
  /// locale/formatting ambiguity sneaks in).
  void Add(double v);
  /// Feeds a string (length-prefixed, so "ab"+"c" != "a"+"bc").
  void Add(const std::string& s);

  /// The accumulated 64-bit digest.
  uint64_t digest() const { return state_; }

 private:
  void AddByte(unsigned char b);

  uint64_t state_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

/// Content fingerprint of a dataset: dimensions, column names,
/// per-column full-pass aggregates (sum/min/max — any single-cell edit
/// moves the hash), and a deterministic stride-sample of every column.
/// One O(N·d) pass; MiningService computes it once at registration and
/// reuses the cached value per request.
uint64_t FingerprintDataset(const Dataset& data);

/// Fingerprint of a statistic task (kind + region columns + value column
/// + label).
uint64_t FingerprintStatistic(const Statistic& statistic);

/// Fingerprint of the workload recipe that determines both the training
/// set and the solution space the surrogate is valid over (query count,
/// length fractions, seed, undefined-drop policy).
uint64_t FingerprintWorkloadParams(const WorkloadParams& params);

/// Fingerprint of the surrogate training configuration: every
/// model-relevant GBRT hyper-parameter plus the hypertune/CV/test-split
/// settings. The runtime-only knob `gbrt.use_sibling_subtraction` is
/// deliberately excluded — it never changes the fitted model, just as
/// the thread pool a fit borrows does not.
uint64_t FingerprintTrainOptions(const SurrogateTrainOptions& options);

/// \brief Cache key of one servable surrogate: which data, which
/// statistic, which solution space / training workload, which model
/// recipe. Two requests with equal keys are guaranteed (up to hash
/// collision) to want the same trained model.
struct SurrogateKey {
  /// FingerprintDataset of the registered dataset.
  uint64_t dataset = 0;
  /// FingerprintStatistic of the statistic task.
  uint64_t statistic = 0;
  /// FingerprintWorkloadParams of the training-workload recipe.
  uint64_t workload = 0;
  /// FingerprintTrainOptions of the model recipe.
  uint64_t model = 0;

  /// Component-wise equality.
  bool operator==(const SurrogateKey& other) const = default;

  /// Mixes the four components into one table-hash value.
  uint64_t Hash() const;

  /// Compact hex form for logs ("d=… s=… w=… m=…").
  std::string ToString() const;
};

/// \brief Std-container adapter for SurrogateKey.
struct SurrogateKeyHash {
  /// Forwards to SurrogateKey::Hash.
  size_t operator()(const SurrogateKey& key) const {
    return static_cast<size_t>(key.Hash());
  }
};

/// Builds the full cache key for (dataset, statistic, workload recipe,
/// training options).
SurrogateKey MakeSurrogateKey(const Dataset& data, const Statistic& statistic,
                              const WorkloadParams& workload,
                              const SurrogateTrainOptions& options);

}  // namespace surf

#endif  // SURF_SERVE_FINGERPRINT_H_
