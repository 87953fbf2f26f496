#include "stats/sharded_evaluator.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "accel/accel.h"
#include "util/failpoint.h"

namespace surf {

namespace {

/// Process-wide shard-classification totals (see global_telemetry()).
std::atomic<uint64_t> g_pruned{0};
std::atomic<uint64_t> g_block_merged{0};
std::atomic<uint64_t> g_scanned{0};

}  // namespace

ShardedScanEvaluator::GlobalTelemetry
ShardedScanEvaluator::global_telemetry() {
  GlobalTelemetry out;
  out.pruned = g_pruned.load(std::memory_order_relaxed);
  out.block_merged = g_block_merged.load(std::memory_order_relaxed);
  out.scanned = g_scanned.load(std::memory_order_relaxed);
  return out;
}

ShardedScanEvaluator::ShardedScanEvaluator(ShardedDataset data,
                                           Statistic stat,
                                           ThreadPool* pool)
    : data_(std::move(data)), stat_(std::move(stat)), pool_(pool) {
  for ([[maybe_unused]] size_t c : stat_.region_cols) {
    assert(c < data_.num_cols());
  }
  if (stat_.needs_value_column()) {
    assert(stat_.value_col >= 0 &&
           static_cast<size_t>(stat_.value_col) < data_.num_cols());
  }

  if (stat_.kind == StatisticKind::kLabelRatio) {
    shard_matches_.resize(data_.num_shards(), 0);
    const size_t value_col = static_cast<size_t>(stat_.value_col);
    for (size_t s = 0; s < data_.num_shards(); ++s) {
      size_t matches = 0;
      for (double v : data_.shard(s).column(value_col)) {
        if (v == stat_.label_value) ++matches;
      }
      shard_matches_[s] = matches;
    }
  }
}

void ShardedScanEvaluator::EvalShard(size_t shard_index,
                                     const Region& region,
                                     StatisticAccumulator* acc) const {
  const DatasetShard& shard = data_.shard(shard_index);
  const size_t rows = shard.num_rows();
  if (rows == 0) return;
  const size_t d = stat_.dims();

  // Classify the shard against the box per region column. The legacy
  // inclusion test `!(v < lo || v > hi)` keeps NaN coordinates inside
  // every box, so a shard carrying NaNs on a column can never be pruned
  // on that column's [min, max] (those rows are "inside" regardless);
  // it can still be fully covered — NaN rows pass the legacy test too.
  // `covered` needs no NaN guard: [min, max] spans the non-NaN rows
  // (inside iff within the box) and the NaN rows are inside anyway —
  // including the all-NaN shard, whose empty range +inf..-inf
  // trivially satisfies the test.
  bool disjoint = false;
  bool covered = true;
  for (size_t j = 0; j < d; ++j) {
    const ColumnSummary& s = shard.summary(stat_.region_cols[j]);
    if (s.nan_count == 0 &&
        (s.max < region.lo(j) || s.min > region.hi(j))) {
      disjoint = true;
      break;
    }
    if (s.min < region.lo(j) || s.max > region.hi(j)) covered = false;
  }
  if (disjoint) {
    pruned_.fetch_add(1, std::memory_order_relaxed);
    g_pruned.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (covered && stat_.kind != StatisticKind::kMedian) {
    // Every row is inside: the shard's pre-aggregated summary IS the
    // partial accumulator. Summary sums were folded in shard row order,
    // so this path is bit-identical to scanning the shard row by row.
    block_merged_.fetch_add(1, std::memory_order_relaxed);
    g_block_merged.fetch_add(1, std::memory_order_relaxed);
    if (stat_.needs_value_column()) {
      const ColumnSummary& v =
          shard.summary(static_cast<size_t>(stat_.value_col));
      acc->AddBlock(rows, v.sum, v.sum_sq,
                    shard_matches_.empty() ? 0 : shard_matches_[shard_index]);
    } else {
      acc->AddBlock(rows, 0.0, 0.0, 0);
    }
    return;
  }

  scanned_.fetch_add(1, std::memory_order_relaxed);
  g_scanned.fetch_add(1, std::memory_order_relaxed);

  // Branchless membership mask, one pass per still-undecided column,
  // via the dispatched SIMD kernel table. The kernel's inclusion test is
  // the negated form `!(v < lo || v > hi)` — NOT `v >= lo && v <= hi` —
  // reproducing the legacy scan's row test exactly, NaN-keeps-the-row
  // included; being integer-valued it is bit-identical on every backend.
  const AccelOps& ops = Accel();
  std::vector<uint8_t> mask(rows, 1);
  for (size_t j = 0; j < d; ++j) {
    const ColumnSummary& s = shard.summary(stat_.region_cols[j]);
    const double lo = region.lo(j);
    const double hi = region.hi(j);
    if (s.min >= lo && s.max <= hi) continue;  // shard inside on this dim
    const std::vector<double>& col = shard.column(stat_.region_cols[j]);
    ops.mask_range_and(col.data(), rows, lo, hi, mask.data());
  }

  if (!stat_.needs_value_column()) {
    // Count-style statistics reduce the mask directly; integer
    // accumulation is order-independent, so this stays bit-identical to
    // per-row Add() calls.
    acc->AddBlock(ops.mask_count(mask.data(), rows), 0.0, 0.0, 0);
    return;
  }

  const std::vector<double>& values =
      shard.column(static_cast<size_t>(stat_.value_col));
  for (size_t r = 0; r < rows; ++r) {
    if (mask[r]) acc->Add(values[r]);
  }
}

double ShardedScanEvaluator::EvaluateImpl(const Region& region,
                                          const CancelToken& cancel) const {
  assert(region.dims() == stat_.dims());
  // No status channel here: an injected failure becomes an undefined
  // statistic (NaN), the evaluator's native "could not compute" value;
  // a delay action just slows the scan down.
  if (!MaybeFailpoint("shard.evaluate").ok()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const size_t num_shards = data_.num_shards();

  // Per-shard partials land in a pre-sized slot vector and merge in
  // ascending shard index below. The single-threaded path fills the
  // same slots, so the merge tree — and therefore every floating-point
  // rounding — is identical at any thread count.
  std::vector<StatisticAccumulator> partials(num_shards,
                                             StatisticAccumulator(stat_));
  ParallelFor(pool_, num_shards, [&](size_t s) {
    // One poll per shard: a fired token skips the remaining shards (the
    // partial result is discarded by the caller).
    if (cancel.can_cancel() && cancel.cancelled()) return;
    EvalShard(s, region, &partials[s]);
  });

  // Seed the fold with shard 0's partial (a bitwise copy) so the
  // single-shard configuration reproduces the legacy sequential scan
  // exactly, then fold the rest in shard order.
  StatisticAccumulator result = partials[0];
  for (size_t s = 1; s < num_shards; ++s) {
    result.Merge(partials[s]);
  }
  return result.Finalize();
}

}  // namespace surf
