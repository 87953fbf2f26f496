#ifndef SURF_CORE_WORKLOAD_H_
#define SURF_CORE_WORKLOAD_H_

/// \file
/// \brief Past-region-evaluation workloads: generation, persistence, merging.

#include <cstdint>

#include "geom/bounds.h"
#include "ml/matrix.h"
#include "opt/solution_space.h"
#include "stats/evaluator.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace surf {

/// \brief Past-region-evaluation workload parameters (paper §V-A: centers
/// uniform at random across the data space, side lengths covering 1–15 %
/// of the data domain).
struct WorkloadParams {
  /// Number of past evaluations to draw and label.
  size_t num_queries = 10000;
  /// Smallest half side-length, as a fraction of the per-dimension extent.
  double min_length_frac = 0.01;
  /// Largest half side-length, as a fraction of the per-dimension extent.
  double max_length_frac = 0.15;
  /// Drop queries whose statistic is undefined (NaN — e.g. the mean of an
  /// empty region). The surviving count can therefore be slightly lower
  /// than num_queries.
  bool drop_undefined = true;
  /// Seed of the random region draw.
  uint64_t seed = 5;
};

/// \brief A set of past function evaluations Q = {[x_m, l_m] → y_m}
/// (paper §IV) in ML-ready form: one feature row [x_1..x_d, l_1..l_d] per
/// region, with the statistic value as the target.
struct RegionWorkload {
  /// One [x_1..x_d, l_1..l_d] row per past evaluation.
  FeatureMatrix features;
  /// The statistic value y_m of each row.
  std::vector<double> targets;
  /// The solution space the queries were drawn from.
  RegionSolutionSpace space;
  /// The statistic that produced the targets.
  Statistic statistic;

  /// Number of past evaluations.
  size_t size() const { return features.num_rows(); }

  /// Region form of row i.
  Region RegionAt(size_t i) const;
};

/// Flattens a region into the surrogate's feature encoding [x, l].
std::vector<double> RegionFeatures(const Region& region);

/// Draws `params.num_queries` random regions over the evaluator's data
/// domain and labels each with the true statistic. This simulates the
/// "past queries issued by analysts/applications" SuRF learns from.
/// `cancel` is polled periodically during labelling; a fired token stops
/// the draw early and returns the (incomplete) workload so far, always a
/// prefix of the uncancelled one — callers that care check the token
/// afterwards. A non-null `trace` records a workload_gen span with one
/// label_batch child per 256-query chunk (and, on the sharded backend,
/// prune/block/scan counter totals as workload_gen attributes). A
/// non-null `pool` labels the chunks concurrently, so the evaluator must
/// be safe to call from several threads; neither the pool nor tracing
/// ever changes the generated workload.
RegionWorkload GenerateWorkload(const RegionEvaluator& evaluator,
                                const Bounds& domain,
                                const WorkloadParams& params,
                                CancelToken cancel = {},
                                TraceContext* trace = nullptr,
                                ThreadPool* pool = nullptr);

/// Persists a workload as CSV (columns x1..xd, l1..ld, y) so real past
/// query logs can be replayed into surrogate training. The solution-space
/// metadata is stored in a sidecar header line.
Status SaveWorkload(const RegionWorkload& workload,
                    const std::string& path);

/// Loads a workload saved by SaveWorkload. The statistic description is
/// not persisted (a query log knows its shape, not its provenance);
/// callers re-attach it if needed.
StatusOr<RegionWorkload> LoadWorkload(const std::string& path);

/// Merges `extra` into `base` (same feature width required).
Status MergeWorkloads(RegionWorkload* base, const RegionWorkload& extra);

}  // namespace surf

#endif  // SURF_CORE_WORKLOAD_H_
