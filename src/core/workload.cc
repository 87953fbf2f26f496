#include "core/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "stats/sharded_evaluator.h"
#include "util/thread_pool.h"

namespace surf {

Region RegionWorkload::RegionAt(size_t i) const {
  assert(i < size());
  return Region::FromFlat(features.Row(i));
}

std::vector<double> RegionFeatures(const Region& region) {
  return region.ToFlat();
}

RegionWorkload GenerateWorkload(const RegionEvaluator& evaluator,
                                const Bounds& domain,
                                const WorkloadParams& params,
                                CancelToken cancel, TraceContext* trace,
                                ThreadPool* pool) {
  assert(params.min_length_frac > 0.0 &&
         params.min_length_frac < params.max_length_frac);
  const size_t d = domain.dims();
  Rng rng(params.seed);

  RegionWorkload workload;
  workload.statistic = evaluator.statistic();
  workload.space = RegionSolutionSpace::ForBounds(
      domain, params.min_length_frac, params.max_length_frac);
  workload.features = FeatureMatrix(2 * d);
  workload.features.Reserve(params.num_queries);
  workload.targets.reserve(params.num_queries);

  TraceSpan gen_span(trace, "workload_gen", TraceStage::kWorkloadGen);

  // Draw every region up front. The RNG sequence is label-independent
  // (center then half per dimension, exactly as the historical
  // draw-then-label loop interleaved them), so the generated regions are
  // draw-for-draw identical — only the labelling below changed shape.
  std::vector<Region> regions;
  regions.reserve(params.num_queries);
  std::vector<double> center(d), half(d);
  for (size_t q = 0; q < params.num_queries; ++q) {
    for (size_t i = 0; i < d; ++i) {
      center[i] = rng.Uniform(domain.lo(i), domain.hi(i));
      // Per-dimension extent scaling (the paper's % of data domain).
      half[i] = rng.Uniform(params.min_length_frac * domain.Extent(i),
                            params.max_length_frac * domain.Extent(i));
    }
    regions.emplace_back(center, half);
  }

  // On the sharded backend the workload_gen span carries the evaluator's
  // prune/block/scan counter totals for this labelling (per-chunk deltas
  // would overlap once chunks run concurrently).
  const ShardedScanEvaluator* sharded =
      trace == nullptr
          ? nullptr
          : dynamic_cast<const ShardedScanEvaluator*>(&evaluator);
  const uint64_t pruned0 = sharded ? sharded->shards_pruned() : 0;
  const uint64_t merged0 = sharded ? sharded->shards_block_merged() : 0;
  const uint64_t scanned0 = sharded ? sharded->shards_scanned() : 0;

  // Label in 256-query chunks through EvaluateBatch — the seam that lets
  // the distributed backend ship one RPC per chunk instead of one per
  // region. Chunks run as one ParallelFor on the borrowed pool, each
  // writing only its own label slot, so the labels are the same for any
  // pool. The token is polled per chunk here and rides into the
  // evaluator too (sharded scans poll it per shard, so cancellation
  // lands mid-evaluation on huge datasets instead of at a chunk edge).
  // Each chunk records one label_batch span under workload_gen.
  constexpr size_t kLabelBatch = 256;
  const size_t num_chunks = (regions.size() + kLabelBatch - 1) / kLabelBatch;
  auto chunk_size = [&](size_t c) {
    return std::min(kLabelBatch, regions.size() - c * kLabelBatch);
  };
  std::vector<std::vector<double>> labels(num_chunks);
  ParallelFor(pool, num_chunks, [&](size_t c) {
    if (cancel.cancelled()) return;
    TraceSpan span(trace, "label_batch", TraceStage::kLabelling,
                   gen_span.index());
    const auto first = regions.begin() + c * kLabelBatch;
    labels[c] = evaluator.EvaluateBatch(
        std::vector<Region>(first, first + chunk_size(c)), cancel);
  });

  // Rows join in chunk order, undefined labels dropped in place. A short
  // chunk is the cancellation signature: its returned labels are
  // complete (and kept), and no later chunk joins, so a cancelled
  // workload is always a prefix of the uncancelled one.
  for (size_t c = 0; c < num_chunks; ++c) {
    for (size_t k = 0; k < labels[c].size(); ++k) {
      if (params.drop_undefined && std::isnan(labels[c][k])) continue;
      workload.features.AddRow(
          RegionFeatures(regions[c * kLabelBatch + k]));
      workload.targets.push_back(labels[c][k]);
    }
    if (labels[c].size() < chunk_size(c)) break;
  }
  if (sharded != nullptr) {
    gen_span.Attr("shards_pruned", sharded->shards_pruned() - pruned0);
    gen_span.Attr("shards_block_merged",
                  sharded->shards_block_merged() - merged0);
    gen_span.Attr("shards_scanned", sharded->shards_scanned() - scanned0);
  }
  gen_span.Attr("labelled", static_cast<uint64_t>(workload.size()));
  return workload;
}

Status SaveWorkload(const RegionWorkload& workload,
                    const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot write " + path);
  os.precision(17);
  const size_t d = workload.space.dims();
  os << "# surf-workload-v1 dims=" << d
     << " min_len=" << workload.space.min_half_length
     << " max_len=" << workload.space.max_half_length;
  for (size_t i = 0; i < d; ++i) {
    os << " b" << i << "=" << workload.space.bounds.lo(i) << ":"
       << workload.space.bounds.hi(i);
  }
  os << "\n";
  for (size_t r = 0; r < workload.size(); ++r) {
    for (size_t j = 0; j < workload.features.num_features(); ++j) {
      os << workload.features.Get(r, j) << ",";
    }
    os << workload.targets[r] << "\n";
  }
  if (!os) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<RegionWorkload> LoadWorkload(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open " + path);
  std::string magic, dims_kv;
  is >> magic >> magic;  // skip '#', read tag
  if (magic != "surf-workload-v1") {
    return Status::IOError("bad workload header in " + path);
  }
  RegionWorkload workload;
  size_t d = 0;
  {
    std::string kv;
    is >> kv;  // dims=N
    d = static_cast<size_t>(std::strtoull(kv.c_str() + 5, nullptr, 10));
    if (d == 0) return Status::IOError("bad dims in " + path);
    is >> kv;  // min_len=
    workload.space.min_half_length = std::strtod(kv.c_str() + 8, nullptr);
    is >> kv;  // max_len=
    workload.space.max_half_length = std::strtod(kv.c_str() + 8, nullptr);
    std::vector<double> lo(d), hi(d);
    for (size_t i = 0; i < d; ++i) {
      is >> kv;  // bI=lo:hi
      const size_t eq = kv.find('=');
      const size_t colon = kv.find(':');
      if (eq == std::string::npos || colon == std::string::npos) {
        return Status::IOError("bad bounds in " + path);
      }
      lo[i] = std::strtod(kv.substr(eq + 1, colon - eq - 1).c_str(),
                          nullptr);
      hi[i] = std::strtod(kv.substr(colon + 1).c_str(), nullptr);
    }
    workload.space.bounds = Bounds(lo, hi);
  }
  workload.features = FeatureMatrix(2 * d);
  std::string line;
  std::getline(is, line);  // consume the header's newline
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<double> row;
    const char* p = line.c_str();
    char* end = nullptr;
    for (;;) {
      const double v = std::strtod(p, &end);
      if (end == p) break;
      row.push_back(v);
      p = (*end == ',') ? end + 1 : end;
      if (*end == '\0') break;
    }
    if (row.size() != 2 * d + 1) {
      return Status::IOError("bad row at line " + std::to_string(line_no) +
                             " of " + path);
    }
    workload.targets.push_back(row.back());
    row.pop_back();
    workload.features.AddRow(row);
  }
  return workload;
}

Status MergeWorkloads(RegionWorkload* base, const RegionWorkload& extra) {
  assert(base != nullptr);
  if (base->features.num_features() != extra.features.num_features()) {
    return Status::InvalidArgument("workload feature width mismatch");
  }
  for (size_t r = 0; r < extra.size(); ++r) {
    base->features.AddRow(extra.features.Row(r));
    base->targets.push_back(extra.targets[r]);
  }
  return Status::OK();
}

}  // namespace surf
