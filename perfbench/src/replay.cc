#include "replay.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/finder.h"
#include "core/surf.h"
#include "core/surrogate.h"
#include "core/workload.h"
#include "net/json_codec.h"

namespace perfbench {

namespace {

/// A timed call into another module, on the replay timeline (µs).
struct Call {
  double start_us = 0.0;
  double dur_us = 0.0;
  size_t rows = 0;
};

/// Forwards to the service's exact evaluator and times each call.
class TimedEvaluator : public surf::RegionEvaluator {
 public:
  TimedEvaluator(const surf::RegionEvaluator* inner,
                 std::chrono::steady_clock::time_point epoch,
                 std::vector<Call>* calls)
      : inner_(inner), epoch_(epoch), calls_(calls) {}

  const surf::Statistic& statistic() const override {
    return inner_->statistic();
  }

 protected:
  double EvaluateImpl(const surf::Region& region,
                      const surf::CancelToken& cancel) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const double y = inner_->Evaluate(region, cancel);
    const auto t1 = std::chrono::steady_clock::now();
    calls_->push_back({Micros(t0), Micros(t1) - Micros(t0), 1});
    return y;
  }

 private:
  double Micros(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const surf::RegionEvaluator* inner_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Call>* calls_;
};

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace

Replayer::Replayer(std::chrono::steady_clock::time_point epoch)
    : epoch_(epoch) {}

double Replayer::Now() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

surf::Status Replayer::Load(const std::string& csv_path) {
  return service_.RegisterCsvDataset("bench", csv_path);
}

surf::StatusOr<surf::v2::MineRequest> Replayer::Decode(
    const std::string& body) const {
  auto json = surf::ParseJson(body);
  if (!json.ok()) return json.status();
  auto request = surf::MineRequestV2FromJson(*json);
  if (!request.ok()) return request.status();
  request->execution.cluster = false;
  request->execution.trace = false;
  return request;
}

surf::StatusOr<Replayed> Replayer::Mine(const std::string& body) {
  auto request = Decode(body);
  if (!request.ok()) return request.status();
  Replayed out;
  out.kind = request->query.kind;
  out.response = service_.Mine(*request);
  if (!out.response.status.ok()) return out.response.status;
  out.json = surf::MineResponseV2ToJson(out.response, out.kind);
  return out;
}

surf::StatusOr<SearchFigures> Replayer::ReplaySearch(
    const std::vector<std::string>& bodies, SpanLog* log) {
  SearchFigures figures;
  for (const std::string& body : bodies) {
    auto served = Mine(body);
    if (!served.ok()) return served.status();
    auto decoded = Decode(body);
    if (!decoded.ok()) return decoded.status();
    const surf::MineRequest request = surf::v2::ToLegacy(*decoded);
    auto key = service_.KeyFor(request);
    if (!key.ok()) return key.status();
    const std::shared_ptr<surf::CachedSurrogate> entry =
        service_.cache().Peek(*key);
    if (entry == nullptr) {
      return surf::Status::Internal("replayed surrogate left the cache");
    }
    const surf::SurrogateSnapshot snap = entry->Snapshot();

    // The finder exactly as MiningService::ExecuteJob builds it.
    surf::FinderConfig config = request.finder;
    if (config.auto_scale_gso) {
      config.gso.num_glowworms = std::max(
          config.gso.num_glowworms,
          surf::GsoParams::PaperScaled(snap.surrogate->dims()).num_glowworms);
    }
    surf::SurfFinder finder(snap.surrogate->AsStatisticFn(), snap.space,
                            config);
    std::vector<Call> predicts;
    std::vector<Call> validates;
    const surf::BatchStatisticFn batch = snap.surrogate->AsBatchStatisticFn();
    finder.SetBatchEstimate(
        [&](const std::vector<surf::Region>& regions) {
          const double t0 = Now();
          std::vector<double> y = batch(regions);
          predicts.push_back({t0, Now() - t0, regions.size()});
          return y;
        });
    if (request.use_kde && snap.kde != nullptr) finder.SetKde(snap.kde.get());
    std::unique_ptr<TimedEvaluator> validator;
    if (request.validate && snap.evaluator != nullptr) {
      validator = std::make_unique<TimedEvaluator>(snap.evaluator.get(),
                                                   epoch_, &validates);
      finder.SetValidator(validator.get());
    }
    const double trace_epoch_us = Now();
    surf::TraceContext trace;
    finder.SetTrace(&trace);
    const double find_start = Now();
    surf::MineResponse replayed;
    replayed.result = finder.Find(request.threshold, request.direction);
    const double find_end = Now();

    surf::JsonValue encoded =
        surf::MineResponseToJson(replayed, surf::MineRequest::Mode::kThreshold);
    if (RegionsText(encoded) != RegionsText(served->json)) ++figures.unfaithful;

    double search_start = find_start, search_dur = 0.0;
    double extraction_start = find_end, extraction_dur = 0.0;
    for (const surf::TraceContext::Span& span : trace.Snapshot()) {
      if (span.parent != -1) continue;
      const double start = trace_epoch_us + span.start_ns * 1e-3;
      if (std::strcmp(span.name, "search") == 0) {
        search_start = start;
        search_dur = span.dur_ns * 1e-3;
      } else if (std::strcmp(span.name, "extraction") == 0) {
        extraction_start = start;
        extraction_dur = span.dur_ns * 1e-3;
      }
    }
    const double search_end = search_start + search_dur;

    const uint64_t rid = log->next_request_id++;
    const int64_t root = log->Add(
        {"replay.find", -1, rid, 3, 0, find_start, find_end - find_start});
    const int64_t search_span =
        log->Add({"replay.search", root, rid, 3, 0, search_start, search_dur});
    const int64_t extraction_span = log->Add(
        {"replay.extraction", root, rid, 3, 0, extraction_start, extraction_dur});
    double search_predict_us = 0.0;
    for (const Call& call : predicts) {
      const bool in_search = call.start_us < search_end;
      log->Add({"ml.predict", in_search ? search_span : extraction_span, rid, 3,
                0, call.start_us, call.dur_us});
      if (in_search) {
        search_predict_us += call.dur_us;
        figures.predict_rows += static_cast<double>(call.rows);
      }
    }
    for (const Call& call : validates) {
      log->Add({"stats.validate", extraction_span, rid, 3, 0, call.start_us,
                call.dur_us});
      figures.validate_ms += call.dur_us * 1e-3;
    }
    figures.predict_ms += search_predict_us * 1e-3;
    figures.swarm_ms += (search_dur - search_predict_us) * 1e-3;
    figures.iterations += static_cast<double>(replayed.result.report.iterations);
    figures.objective_evals +=
        static_cast<double>(replayed.result.report.objective_evaluations);
    ++figures.finds;
  }
  if (figures.finds > 0) {
    const double n = static_cast<double>(figures.finds);
    for (double* v : {&figures.predict_ms, &figures.predict_rows,
                      &figures.swarm_ms, &figures.validate_ms,
                      &figures.iterations, &figures.objective_evals}) {
      *v /= n;
    }
  }
  return figures;
}

surf::StatusOr<TrainFigures> Replayer::ReplayTraining(const std::string& body,
                                                      int repeats,
                                                      SpanLog* log) {
  auto decoded = Decode(body);
  if (!decoded.ok()) return decoded.status();
  const surf::MineRequest request = surf::v2::ToLegacy(*decoded);
  const surf::Dataset* data = service_.dataset(request.dataset);
  if (data == nullptr) return surf::Status::NotFound("replay dataset");
  std::vector<double> label_us, fit_ms;
  TrainFigures figures;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t rid = log->next_request_id++;
    const std::unique_ptr<surf::RegionEvaluator> evaluator =
        surf::MakeEvaluator(request.backend, data, request.statistic,
                            request.shards);
    const surf::Bounds domain =
        data->ComputeBounds(request.statistic.region_cols);
    const double t0 = Now();
    const surf::RegionWorkload workload =
        surf::GenerateWorkload(*evaluator, domain, request.workload);
    const double t1 = Now();
    auto surrogate = surf::Surrogate::Train(workload, request.surrogate);
    const double t2 = Now();
    if (!surrogate.ok()) return surrogate.status();
    log->Add({"stats.label", -1, rid, 3, 1, t0, t1 - t0});
    log->Add({"ml.fit", -1, rid, 3, 1, t1, t2 - t1});
    label_us.push_back((t1 - t0) /
                       static_cast<double>(request.workload.num_queries));
    fit_ms.push_back((t2 - t1) * 1e-3);
    figures.fit_trees =
        static_cast<double>(surrogate->metrics().chosen_params.n_estimators);
  }
  figures.label_us_per_query = Median(label_us);
  figures.fit_ms = Median(fit_ms);
  return figures;
}

double Replayer::CodecMicros(const std::vector<std::string>& bodies,
                             const std::vector<Replayed>& responses,
                             int repeats, SpanLog* log) {
  std::vector<double> per_request_us;
  const size_t n = std::min(bodies.size(), responses.size());
  if (n == 0) return 0.0;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t rid = log->next_request_id++;
    const double t0 = Now();
    size_t decoded = 0;
    for (size_t i = 0; i < n; ++i) {
      auto json = surf::ParseJson(bodies[i]);
      if (json.ok() && surf::MineRequestV2FromJson(*json).ok()) ++decoded;
    }
    const double t1 = Now();
    size_t encoded_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      encoded_bytes += surf::WriteJson(surf::MineResponseV2ToJson(
                                           responses[i].response,
                                           responses[i].kind))
                           .size();
    }
    const double t2 = Now();
    if (decoded != n || encoded_bytes == 0) return 0.0;
    log->Add({"net.decode", -1, rid, 3, 2, t0, t1 - t0});
    log->Add({"net.encode", -1, rid, 3, 2, t1, t2 - t1});
    per_request_us.push_back((t2 - t0) / static_cast<double>(n));
  }
  return Median(per_request_us);
}

}  // namespace perfbench
