// Extension: sharded exact-backend scaling.
//
// Workload generation — labelling thousands of random boxes with the
// true statistic — is the dominant cost of a cold surrogate train, and
// before this bench it was a single contiguous O(N·d) scan per query.
// This bench measures the sharded backend on a 4M-row synthetic
// dataset: GenerateWorkload through the legacy ScanEvaluator versus
// ShardedScanEvaluator at 1/2/4/8 shards (range-partitioned on the
// first region column), and verifies the acceptance contract:
//
//  - shards=1 (natural row order) labels bit-identically to the
//    pre-sharding scan path for count/sum/mean/variance;
//  - the count workload stays bit-identical at EVERY shard count
//    (integer statistics are order-independent);
//  - 8 shards deliver >= 3x workload-generation speedup, driven by
//    summary pruning + O(1) fully-covered shards + branchless boundary
//    scans (single-core algorithmic wins; threads stack on top where
//    cores exist).
//
// Writes BENCH_shard.json (override with SURF_BENCH_SHARD_JSON).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel.h"
#include "core/workload.h"
#include "data/sharded.h"
#include "stats/evaluator.h"
#include "stats/sharded_evaluator.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace surf;

namespace {

Dataset MakeData(size_t rows, uint64_t seed) {
  Dataset ds({"x", "y", "v"});
  ds.Reserve(rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    // Two uniform box dimensions plus a clustered hot spot (so queries
    // see realistic density variation), and a Gaussian value column.
    double x = rng.Uniform(0.0, 10.0);
    double y = rng.Uniform(0.0, 10.0);
    if (rng.Bernoulli(0.2)) {
      x = rng.Gaussian(7.0, 0.5);
      y = rng.Gaussian(3.0, 0.5);
    }
    ds.AddRow({x, y, rng.Gaussian(1.0, 2.0)});
  }
  return ds;
}

bool BitIdentical(const std::vector<double>& a,
                  const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const bool nan_a = std::isnan(a[i]), nan_b = std::isnan(b[i]);
    if (nan_a != nan_b) return false;
    if (!nan_a && a[i] != b[i]) return false;
  }
  return true;
}

struct ShardArm {
  size_t shards = 0;
  double seconds = 0.0;
  double speedup = 0.0;
  bool count_bit_identical = false;
  uint64_t pruned = 0;
  uint64_t block_merged = 0;
  uint64_t scanned = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t rows =
      static_cast<size_t>(flags.GetInt("rows", 4000000));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 64));
  // --threads sizes the pool the shard scans borrow (0 = hardware
  // concurrency); 1 scans inline on the calling thread.
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 0));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(
        threads == 0 ? ThreadPool::DefaultThreadCount() : threads);
  }

  std::printf("== sharded exact-backend scaling (%zu rows, %zu queries) ==\n",
              rows, queries);

  // Accel backend feeding the mask scans. A SURF_ACCEL override naming an
  // unavailable backend is a hard error, not a silent fallback.
  const AccelSelection selection = CurrentAccelSelection();
  std::printf("accel backend: %s%s\n", AccelBackendName(selection.active),
              selection.override_requested ? " (SURF_ACCEL override)" : "");
  if (selection.override_requested && !selection.override_honored) {
    std::fprintf(stderr,
                 "error: SURF_ACCEL=%s requested but unavailable on this "
                 "host/build\n",
                 selection.requested.c_str());
    return 1;
  }

  const Dataset ds = MakeData(rows, 2026);

  // --- kernel-level mask-scan timing: the accel layer's membership mask
  // over one real data column, generic versus the active backend.
  double mask_generic_ms = 0.0, mask_active_ms = 0.0;
  {
    const std::vector<double>& col = ds.column(0);
    std::vector<uint8_t> mask(col.size());
    const auto time_ms = [&](const AccelOps& ops) {
      double best = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        std::fill(mask.begin(), mask.end(), 1);
        Stopwatch timer;
        ops.mask_range_and(col.data(), col.size(), 2.0, 8.0, mask.data());
        if (ops.mask_count(mask.data(), mask.size()) > col.size()) {
          std::abort();  // keeps the kernel calls observable
        }
        best = std::min(best, 1e3 * timer.ElapsedSeconds());
      }
      return best;
    };
    mask_generic_ms = time_ms(AccelOpsFor(AccelBackend::kGeneric));
    mask_active_ms = time_ms(Accel());
    std::printf("mask scan : generic %.2f ms | %s %.2f ms (%.2fx)\n",
                mask_generic_ms, AccelBackendName(selection.active),
                mask_active_ms, mask_generic_ms / mask_active_ms);
  }
  const Statistic count_stat = Statistic::Count({0, 1});
  const Bounds domain = ds.ComputeBounds(count_stat.region_cols);
  WorkloadParams params;
  params.num_queries = queries;
  params.seed = 11;

  // --- baseline arm: the pre-sharding contiguous scan.
  double baseline_seconds = 0.0;
  std::vector<double> baseline_targets;
  {
    ScanEvaluator scan(&ds, count_stat);
    Stopwatch timer;
    baseline_targets =
        GenerateWorkload(scan, domain, params).targets;
    baseline_seconds = timer.ElapsedSeconds();
  }
  std::printf("scan      : %.3fs (%.1f labels/s)\n", baseline_seconds,
              queries / baseline_seconds);

  // --- single-shard identity arm: natural row order, every exact kind
  // must reproduce the scan bit-for-bit (count/sum/mean/variance).
  bool one_shard_identical = true;
  {
    WorkloadParams small = params;
    small.num_queries = std::min<size_t>(queries, 16);
    const std::vector<Statistic> kinds = {
        count_stat, Statistic::Sum({0, 1}, 2), Statistic::Average({0, 1}, 2),
        Statistic::VarianceOf({0, 1}, 2)};
    for (const Statistic& stat : kinds) {
      ScanEvaluator scan(&ds, stat);
      ShardingOptions options;  // num_shards = 1, natural order
      ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                   stat, pool.get());
      const auto want = GenerateWorkload(scan, domain, small).targets;
      const auto got = GenerateWorkload(sharded, domain, small).targets;
      if (!BitIdentical(want, got)) {
        one_shard_identical = false;
        std::fprintf(stderr, "FAIL: shards=1 diverges from scan for %s\n",
                     StatisticKindName(stat.kind).c_str());
      }
    }
  }
  std::printf("shards=1  : count/sum/mean/variance bit-identical to "
              "pre-sharding scan: %s\n",
              one_shard_identical ? "yes" : "NO");

  // --- scaling arms: range-partitioned shards, count workload.
  std::vector<ShardArm> arms;
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    ShardingOptions options;
    options.num_shards = shards;
    options.order_by = 0;
    options.columns = {0, 1};
    ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                 count_stat, pool.get());
    Stopwatch timer;
    const auto targets = GenerateWorkload(sharded, domain, params).targets;
    ShardArm arm;
    arm.shards = shards;
    arm.seconds = timer.ElapsedSeconds();
    arm.speedup = baseline_seconds / arm.seconds;
    arm.count_bit_identical = BitIdentical(baseline_targets, targets);
    arm.pruned = sharded.shards_pruned();
    arm.block_merged = sharded.shards_block_merged();
    arm.scanned = sharded.shards_scanned();
    std::printf("shards=%zu  : %.3fs (%.2fx) | per query: %.1f pruned, "
                "%.1f summary-answered, %.1f scanned | identical: %s\n",
                shards, arm.seconds, arm.speedup,
                double(arm.pruned) / queries,
                double(arm.block_merged) / queries,
                double(arm.scanned) / queries,
                arm.count_bit_identical ? "yes" : "NO");
    arms.push_back(arm);
  }
  const ShardArm& best = arms.back();

  const char* json_env = std::getenv("SURF_BENCH_SHARD_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_shard.json";
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"rows\": %zu,\n"
                 "  \"queries\": %zu,\n"
                 "  \"accel_backend\": \"%s\",\n"
                 "  \"mask_scan_generic_ms\": %.4f,\n"
                 "  \"mask_scan_active_ms\": %.4f,\n"
                 "  \"mask_scan_speedup\": %.2f,\n"
                 "  \"scan_seconds\": %.4f,\n"
                 "  \"one_shard_bit_identical\": %s,\n"
                 "  \"arms\": [\n",
                 rows, queries, AccelBackendName(selection.active),
                 mask_generic_ms, mask_active_ms,
                 mask_generic_ms / mask_active_ms, baseline_seconds,
                 one_shard_identical ? "true" : "false");
    for (size_t i = 0; i < arms.size(); ++i) {
      const ShardArm& a = arms[i];
      std::fprintf(f,
                   "    {\"shards\": %zu, \"seconds\": %.4f, "
                   "\"speedup\": %.2f, \"count_bit_identical\": %s, "
                   "\"shards_pruned\": %llu, \"shards_block_merged\": %llu, "
                   "\"shards_scanned\": %llu}%s\n",
                   a.shards, a.seconds, a.speedup,
                   a.count_bit_identical ? "true" : "false",
                   static_cast<unsigned long long>(a.pruned),
                   static_cast<unsigned long long>(a.block_merged),
                   static_cast<unsigned long long>(a.scanned),
                   i + 1 < arms.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_8_shards\": %.2f\n"
                 "}\n",
                 best.speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }

  // Acceptance contract: red CI instead of a silently regressed report.
  bool ok = one_shard_identical;
  for (const ShardArm& a : arms) ok = ok && a.count_bit_identical;
  if (!ok) {
    std::fprintf(stderr, "FAIL: sharded labelling diverged from scan\n");
    return 1;
  }
  constexpr double kMinSpeedup = 3.0;
  if (best.speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: 8-shard workload-generation speedup %.2fx below "
                 "%.1fx floor\n",
                 best.speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
