// Shared types of the surfd benchmark: request recipes, load samples, and
// the in-memory span log of a traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geom/region.h"
#include "util/json.h"

namespace perfbench {

/// The request recipes the workloads are built from.
enum class Recipe {
  /// One shared surrogate (2,000 training queries, 100 trees); each
  /// request varies only the threshold, so it is a cache hit.
  kWarm,
  /// The warm recipe with a workload seed of its stream's own: the
  /// requests of one stream share a surrogate that no other stream uses.
  /// The quality set of the warm workloads is made of these.
  kWarmRetrained,
  /// The library-default training recipe (10,000 queries, 100 trees)
  /// with a distinct workload seed per request: always a miss.
  kCold,
  /// Few training queries (500), a distinct workload seed per request,
  /// labelled by scatter-gather over the cluster workers on 4 shards.
  kCluster,
};

/// Deterministic uniform double in [0, 1) for (seed, stream, index).
double Uniform(uint64_t seed, uint64_t stream, uint64_t index);

/// The v2 /v1/mine body of request `index` in `stream`, on the registered
/// dataset `dataset`. Thresholds are drawn from the seed and scaled by
/// `threshold_scale` (the dataset's size relative to the 13,840-row
/// recipe).
std::string MineBody(Recipe recipe, uint64_t seed, uint64_t stream,
                     uint64_t index, double threshold_scale, bool trace,
                     const std::string& dataset = "bench");

/// One timed request as the load generator saw it. Times are seconds
/// since the phase epoch.
struct Sample {
  size_t tenant = 0;
  uint64_t index = 0;
  /// When the request was due: the schedule slot in an open loop, the
  /// send time in a closed loop.
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
  /// How late the generator woke for this request's slot (open loop,
  /// only when it was waiting for the slot); negative when not measured.
  double lag = -1.0;
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

/// The verdict on one response, with what later stages need from it.
struct Outcome {
  bool ok = false;
  /// Why the response failed ("" when ok).
  std::string reason;
  double total_seconds = 0.0;
  /// The parsed response (null JSON when the body did not parse).
  surf::JsonValue json;
};

/// Checks one response: transport, HTTP 200, status "ok", the expected
/// cache_hit, and a non-empty region list.
Outcome CheckResponse(bool transport_ok, int status, const std::string& body,
                      bool expect_hit);

/// The canonical text of a response's region list (`result.regions`
/// re-serialized at %.17g), the unit the correctness replay compares.
std::string RegionsText(const surf::JsonValue& response);

/// Best-match IoU of a response's regions against the planted regions,
/// averaged over planted regions (paper §V-B).
double ResponseIoU(const surf::JsonValue& response,
                   const std::vector<surf::Region>& planted);

/// \brief Spans of a traced run, kept in memory until the run ends and
/// then written as Chrome trace-event JSON.
struct SpanLog {
  struct Span {
    std::string name;
    /// Index of the parent span in `spans`; -1 for roots.
    int64_t parent = -1;
    /// Shared by every span of one request or replay call.
    uint64_t request_id = 0;
    /// Chrome-trace process lane: 1 client, 2 server, 3 in-process replay.
    int pid = 1;
    int tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  std::vector<Span> spans;
  uint64_t next_request_id = 1;

  int64_t Add(Span span) {
    spans.push_back(std::move(span));
    return static_cast<int64_t>(spans.size()) - 1;
  }
};

/// Self time and count of each span name (self = duration minus the part
/// covered by child spans).
struct LayerRow {
  std::string name;
  size_t count = 0;
  double self_ms = 0.0;
};
std::vector<LayerRow> LayerTable(const SpanLog& log);

/// Writes the spans plus `extra` members as a Chrome trace-event JSON
/// object (`{"traceEvents": [...], ...}`). Returns false on I/O failure.
bool WriteChromeTrace(const SpanLog& log, const surf::JsonValue& extra,
                      const std::string& path);

/// Quantile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
