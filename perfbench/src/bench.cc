#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "api/api_v2.h"
#include "net/json_codec.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

double Uniform(uint64_t seed, uint64_t stream, uint64_t index) {
  const uint64_t bits = Mix(Mix(seed) ^ Mix((stream << 40) ^ index));
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::string MineBody(Recipe recipe, uint64_t seed, uint64_t stream,
                     uint64_t index, double threshold_scale, bool trace,
                     const std::string& dataset) {
  surf::v2::MineRequest request;
  request.dataset = dataset;
  request.query.statistic = surf::Statistic::Count({0, 1});
  // Thresholds of 40-58 % of a planted region's count (35-50 % for the
  // cluster recipe, whose 500-query surrogate flattens peaks more): every
  // request then reports at least one region. Searched over 300 seeds,
  // the lowest threshold with an empty answer was 1,250 (warm recipe),
  // 1,400 (cold) and, over 25 seeds, 1,175 (cluster, before scaling).
  const bool cluster = recipe == Recipe::kCluster;
  const double low = cluster ? 650.0 : 800.0;
  const double high = cluster ? 1000.0 : 1150.0;
  request.query.threshold =
      threshold_scale * (low + (high - low) * Uniform(seed, stream, index));
  // bench_ext_http's serving recipe: 30 GSO iterations, no per-iteration
  // KDE integrals.
  request.search.finder.gso.max_iterations = 30;
  request.search.finder.use_kde_guidance = false;
  request.training.surrogate.gbrt.n_estimators = 100;
  // A distinct workload seed per request makes a distinct cache key. It
  // stays below 2^53 (exact as a JSON number); bit 50 keeps it clear of
  // the warm recipe's default seed.
  const uint64_t distinct_seed =
      (Mix(seed ^ (stream << 48) ^ index) >> 14) | (1ULL << 50);
  switch (recipe) {
    case Recipe::kWarm:
      request.training.workload.num_queries = 2000;
      break;
    case Recipe::kWarmRetrained:
      request.training.workload.num_queries = 2000;
      request.training.workload.seed = (Mix(seed ^ (stream << 48)) >> 14) | (1ULL << 50);
      break;
    case Recipe::kCold:
      request.training.workload.num_queries = 10000;
      request.training.workload.seed = distinct_seed;
      break;
    case Recipe::kCluster:
      request.training.workload.num_queries = 500;
      request.training.workload.seed = distinct_seed;
      request.execution.cluster = true;
      request.execution.shards = 4;
      break;
  }
  request.execution.trace = trace;
  return surf::WriteJson(surf::MineRequestV2ToJson(request));
}

Outcome CheckResponse(bool transport_ok, int status, const std::string& body,
                      bool expect_hit) {
  Outcome out;
  if (!transport_ok) {
    out.reason = "transport";
    return out;
  }
  if (status != 200) {
    out.reason = "http_" + std::to_string(status);
    return out;
  }
  auto parsed = surf::ParseJson(body);
  if (!parsed.ok() || !parsed->is_object()) {
    out.reason = "unparsable";
    return out;
  }
  out.json = std::move(parsed).value();
  const surf::JsonValue* code = nullptr;
  if (const surf::JsonValue* st = out.json.Find("status")) code = st->Find("code");
  if (code == nullptr || !code->is_string() || code->string_value() != "ok") {
    out.reason = "status_not_ok";
    return out;
  }
  const surf::JsonValue* hit = out.json.Find("cache_hit");
  if (hit == nullptr || !hit->is_bool() || hit->bool_value() != expect_hit) {
    out.reason = "cache_hit_mismatch";
    return out;
  }
  const surf::JsonValue* result = out.json.Find("result");
  const surf::JsonValue* regions =
      result != nullptr ? result->Find("regions") : nullptr;
  if (regions == nullptr || !regions->is_array() || regions->size() == 0) {
    out.reason = "empty_result";
    return out;
  }
  for (const surf::JsonValue& r : regions->array()) {
    const surf::JsonValue* region = r.is_object() ? r.Find("region") : nullptr;
    if (region == nullptr || !surf::RegionFromJson(*region).ok()) {
      out.reason = "malformed_region";
      return out;
    }
  }
  if (const surf::JsonValue* total = out.json.Find("total_seconds");
      total != nullptr && total->is_number()) {
    out.total_seconds = total->number_value();
  }
  out.ok = true;
  return out;
}

std::string RegionsText(const surf::JsonValue& response) {
  const surf::JsonValue* result = response.Find("result");
  const surf::JsonValue* regions =
      result != nullptr ? result->Find("regions") : nullptr;
  return regions != nullptr ? surf::WriteJson(*regions) : std::string();
}

double ResponseIoU(const surf::JsonValue& response,
                   const std::vector<surf::Region>& planted) {
  const surf::JsonValue* result = response.Find("result");
  const surf::JsonValue* regions =
      result != nullptr ? result->Find("regions") : nullptr;
  if (regions == nullptr || planted.empty()) return 0.0;
  std::vector<surf::Region> found;
  for (const surf::JsonValue& r : regions->array()) {
    auto region = surf::RegionFromJson(*r.Find("region"));
    if (region.ok()) found.push_back(std::move(region).value());
  }
  double total = 0.0;
  for (const surf::Region& g : planted) {
    double best = 0.0;
    for (const surf::Region& f : found) best = std::max(best, f.IoU(g));
    total += best;
  }
  return total / static_cast<double>(planted.size());
}

std::vector<LayerRow> LayerTable(const SpanLog& log) {
  std::vector<double> covered(log.spans.size(), 0.0);
  for (const SpanLog::Span& span : log.spans) {
    if (span.parent >= 0) covered[static_cast<size_t>(span.parent)] += span.dur_us;
  }
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const SpanLog::Span& span = log.spans[i];
    LayerRow& row = rows[span.name];
    row.name = span.name;
    row.count += 1;
    // Children recorded on other threads can overlap; self time never
    // goes negative.
    row.self_ms += std::max(0.0, span.dur_us - covered[i]) * 1e-3;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool WriteChromeTrace(const SpanLog& log, const surf::JsonValue& extra,
                      const std::string& path) {
  surf::JsonValue events = surf::JsonValue::Array();
  for (const SpanLog::Span& span : log.spans) {
    surf::JsonValue e = surf::JsonValue::Object();
    e.Set("name", surf::JsonValue(span.name));
    e.Set("ph", surf::JsonValue("X"));
    e.Set("pid", surf::JsonValue(span.pid));
    e.Set("tid", surf::JsonValue(span.tid));
    e.Set("ts", surf::JsonValue(span.start_us));
    e.Set("dur", surf::JsonValue(span.dur_us));
    surf::JsonValue args = surf::JsonValue::Object();
    args.Set("request_id", surf::JsonValue(static_cast<double>(span.request_id)));
    args.Set("parent", surf::JsonValue(static_cast<double>(span.parent)));
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  surf::JsonValue doc = surf::JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", surf::JsonValue("ms"));
  for (const auto& [key, value] : extra.members()) doc.Set(key, value);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = surf::WriteJson(doc);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return frac == 0.0 ? values[lo] : values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
