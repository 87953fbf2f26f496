// In-process replays of a workload's requests: the correctness replay
// through MiningService::Mine, and the per-layer replays that time the
// calls into the ml, opt, stats and net modules from outside.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <chrono>
#include <string>
#include <vector>

#include "api/api_v2.h"
#include "bench.h"
#include "serve/mining_service.h"

namespace perfbench {

/// One request served in process.
struct Replayed {
  surf::v2::MineResponse response;
  surf::v2::QueryKind kind = surf::v2::QueryKind::kThreshold;
  /// The response as surfd would encode it.
  surf::JsonValue json;
};

/// Per-Find averages of the search replay.
struct SearchFigures {
  size_t finds = 0;
  double predict_ms = 0.0;
  double predict_rows = 0.0;
  double swarm_ms = 0.0;
  double validate_ms = 0.0;
  double iterations = 0.0;
  double objective_evals = 0.0;
  /// Finds whose regions differed from MiningService::Mine on the same
  /// request (the replayed finder would then not be the served one).
  size_t unfaithful = 0;
};

/// Medians of the training replay.
struct TrainFigures {
  double label_us_per_query = 0.0;
  double fit_ms = 0.0;
  double fit_trees = 0.0;
};

/// \brief Serves a workload's requests in process over the CSV the
/// servers loaded. Cluster requests run with `execution.cluster` off:
/// the cluster must answer exactly what one node answers.
class Replayer {
 public:
  /// `epoch` is the timeline origin of the spans it records.
  explicit Replayer(std::chrono::steady_clock::time_point epoch);

  /// Loads the CSV and registers it under the benchmark's dataset name.
  surf::Status Load(const std::string& csv_path);

  /// Serves `body` through MiningService::Mine.
  surf::StatusOr<Replayed> Mine(const std::string& body);

  /// Re-runs the search of each body with a SurfFinder built as the
  /// service builds it, its batch estimate and validator wrapped in
  /// timers. Each body's surrogate is trained through Mine first.
  surf::StatusOr<SearchFigures> ReplaySearch(
      const std::vector<std::string>& bodies, SpanLog* log);

  /// Labels (GenerateWorkload over MakeEvaluator) and fits
  /// (Surrogate::Train) the training recipe of `body`, `repeats` times.
  surf::StatusOr<TrainFigures> ReplayTraining(const std::string& body,
                                              int repeats, SpanLog* log);

  /// Microseconds per request of ParseJson + MineRequestV2FromJson on
  /// `bodies` plus MineResponseV2ToJson + WriteJson on their responses.
  double CodecMicros(const std::vector<std::string>& bodies,
                     const std::vector<Replayed>& responses, int repeats,
                     SpanLog* log);

 private:
  surf::StatusOr<surf::v2::MineRequest> Decode(const std::string& body) const;
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  surf::MiningService service_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
