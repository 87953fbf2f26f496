#ifndef SURF_STATS_SHARDED_EVALUATOR_H_
#define SURF_STATS_SHARDED_EVALUATOR_H_

/// \file
/// \brief Shard-parallel exact back-end over a ShardedDataset.

#include <atomic>

#include "data/sharded.h"
#include "stats/evaluator.h"
#include "util/thread_pool.h"

namespace surf {

/// \brief Exact evaluator that computes f over row-range shards with
/// per-shard partial accumulators merged in fixed shard order.
///
/// Per query, every shard is classified against the box using its
/// column summaries:
///
///  - disjoint on any region column → pruned outright;
///  - fully covered on every region column and decomposable statistic →
///    answered from the pre-aggregated summary in O(1);
///  - otherwise → scanned with a branchless per-column membership mask
///    over the shard's contiguous column chunks, skipping the mask pass
///    for columns the shard is already inside.
///
/// With range partitioning on a region column (ShardingOptions.order_by)
/// most shards land in the first two classes, which is where the
/// speedup on one core comes from; with more cores the boundary-shard
/// scans additionally run in parallel on a borrowed pool.
///
/// Determinism and bit-identity:
///  - partial accumulators are merged in ascending shard index, so the
///    result is independent of worker scheduling (identical at 1, 2, or
///    8 threads);
///  - rows inside a shard accumulate in shard row order, so with a
///    single shard and natural row order every statistic reproduces the
///    legacy ScanEvaluator bit-for-bit;
///  - the integer-backed statistics (count, label ratio — and any sum
///    whose values are exactly representable) are bit-identical to the
///    unsharded scan at every shard count; re-partitioned floating-point
///    sums agree to rounding only, which is why the default shard count
///    everywhere is 1.
///
/// Cancellation is polled once per shard batch: a fired token skips all
/// remaining shard scans and the (meaningless) partial result is
/// discarded by the caller, per the RegionEvaluator contract.
class ShardedScanEvaluator : public RegionEvaluator {
 public:
  /// Takes ownership of the shard chunks. Each query's shards are
  /// evaluated with ParallelFor over the borrowed `pool`, which must
  /// outlive the evaluator; null (the default) evaluates them inline on
  /// the calling thread. ParallelFor nests, so the pool may be the one
  /// the caller itself runs on (MiningService workers).
  ShardedScanEvaluator(ShardedDataset data, Statistic stat,
                       ThreadPool* pool = nullptr);

  const Statistic& statistic() const override { return stat_; }

  size_t num_shards() const { return data_.num_shards(); }
  /// Worker threads of the borrowed pool (1 when evaluating inline).
  size_t num_threads() const { return pool_ ? pool_->num_threads() : 1; }
  const ShardedDataset& data() const { return data_; }

  /// Telemetry (since construction, across all queries): shards skipped
  /// as disjoint, answered from summaries, and actually scanned.
  uint64_t shards_pruned() const { return pruned_.load(); }
  uint64_t shards_block_merged() const { return block_merged_.load(); }
  uint64_t shards_scanned() const { return scanned_.load(); }

  /// \brief Evaluates one shard of one region into `acc` (a fresh
  /// accumulator over statistic()). This is the distributed worker's
  /// entry point: a remote worker computes the per-shard partials it was
  /// assigned and ships the raw accumulator state back, so the
  /// coordinator's ascending-shard Merge fold replays exactly the fold
  /// EvaluateImpl performs in process — bit for bit.
  void EvalShardPartial(size_t shard_index, const Region& region,
                        StatisticAccumulator* acc) const {
    EvalShard(shard_index, region, acc);
  }

  /// \brief Process-wide totals across every evaluator instance (live or
  /// destroyed), so /metrics and /v1/cache/stats can export the
  /// prune/block/scan split without walking the surrogate cache.
  struct GlobalTelemetry {
    uint64_t pruned = 0;
    uint64_t block_merged = 0;
    uint64_t scanned = 0;
  };
  static GlobalTelemetry global_telemetry();

 protected:
  double EvaluateImpl(const Region& region,
                      const CancelToken& cancel) const override;

 private:
  /// Evaluates one shard into `acc` (a fresh per-shard partial).
  void EvalShard(size_t shard_index, const Region& region,
                 StatisticAccumulator* acc) const;

  ShardedDataset data_;
  Statistic stat_;
  /// Per-shard label-match counts (pre-aggregated at construction so
  /// fully-covered shards stay O(1) for kLabelRatio too).
  std::vector<size_t> shard_matches_;
  ThreadPool* pool_;
  mutable std::atomic<uint64_t> pruned_{0};
  mutable std::atomic<uint64_t> block_merged_{0};
  mutable std::atomic<uint64_t> scanned_{0};
};

}  // namespace surf

#endif  // SURF_STATS_SHARDED_EVALUATOR_H_
