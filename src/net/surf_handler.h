#ifndef SURF_NET_SURF_HANDLER_H_
#define SURF_NET_SURF_HANDLER_H_

/// \file
/// \brief The HTTP router exposing MiningService as a JSON API (`surfd`).
///
/// Endpoints (see docs/api.md for payload examples):
///   GET  /v1/version      API/library version + build info (negotiation)
///   POST /v1/jobs         submit an async mining job (202 + job id)
///   GET  /v1/jobs/{id}    poll a job: progress, or the final response
///   DELETE /v1/jobs/{id}  cancel a job (cooperative; no-op when done)
///   POST /v1/datasets     register a dataset (CSV path or inline rows)
///   POST /v1/mine         serve one MineRequest, blocking (v1 or v2 body)
///   POST /v1/mine:batch   serve many MineRequests over the worker pool
///   POST /v1/evaluations  append observed evaluations (warm-start feed)
///   GET  /v1/cache/stats  surrogate-cache counters
///   GET  /v1/trace/{id}   a retained request trace (Chrome trace-event
///                         JSON — load in Perfetto or chrome://tracing)
///   GET  /healthz         liveness probe
///   GET  /metrics         Prometheus text exposition
///
/// With Options::enable_failpoint_admin (debug/chaos deployments only —
/// the routes do not exist otherwise and answer 404):
///   GET    /v1/failpoints        armed failpoints + seed + known sites
///   POST   /v1/failpoints        arm from {"spec": "site=action,..."}
///                                and/or reseed via {"seed": n}
///   DELETE /v1/failpoints        disarm everything
///   DELETE /v1/failpoints/{site} disarm one site
///
/// Mining bodies may use either request schema: documents with
/// `api_version: 2` use the named-section v2 form, documents without one
/// the v1 flat form (deprecated but supported). Library `Status` codes
/// map onto HTTP statuses via HttpStatusFromStatus (NotFound→404,
/// InvalidArgument→400, AlreadyExists→409, Cancelled→408, ...);
/// transport overload is answered 429 by the HttpServer admission
/// control before a handler ever runs. The blocking /v1/mine threads the
/// transport's per-request deadline into the job's cancel token, so a
/// 408 reclaims the worker's CPU within one GSO iteration and carries
/// the partial results mined so far.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "serve/mining_service.h"
#include "stats/sharded_evaluator.h"

namespace surf {

/// \brief Routes HTTP requests to MiningService calls. Thread-safe: the
/// service, the metrics registry, and the job table are all concurrent;
/// the handler holds no other mutable state.
class SurfHandler {
 public:
  /// \brief Handler configuration.
  struct Options {
    /// Registers the /v1/failpoints admin routes. Off by default: a
    /// production handler has no fault-injection surface at all (the
    /// paths 404 like any unknown route). Enable only for chaos/debug
    /// deployments (`surf_cli serve --enable-failpoints`).
    bool enable_failpoint_admin = false;
    /// Job-table retention (count cap + age cap for finished jobs).
    JobTable::Options job_retention;
    /// Single-flight coalescing for /v1/mine: concurrent requests with
    /// byte-identical bodies share one handler execution (the engine is
    /// deterministic, so the shared response is the response each would
    /// have computed). Requests asking for per-request side effects
    /// (trace capture, evaluation recording) never coalesce.
    bool coalesce_identical_mines = true;
  };

  /// Binds the handler to a service and a metrics registry (both
  /// non-owning; they must outlive the handler).
  SurfHandler(MiningService* service, ServerMetrics* metrics,
              Options options);
  /// Default-configured handler (no failpoint admin surface).
  SurfHandler(MiningService* service, ServerMetrics* metrics)
      : SurfHandler(service, metrics, Options()) {}

  /// Dispatches one request: route match → JSON decode → service call →
  /// JSON encode, recording per-route metrics on every path.
  HttpResponse Handle(const HttpRequest& request);

  /// Adapter for HttpServer's handler slot.
  HttpHandler AsHttpHandler() {
    return [this](const HttpRequest& request) { return Handle(request); };
  }

  /// The job table (exposed for tests).
  JobTable& jobs() { return jobs_; }

  /// Wires live transport counters into /metrics (worker exceptions,
  /// write failures). Optional; unset, those series are omitted.
  void set_transport_stats_provider(
      std::function<HttpServer::Stats()> provider) {
    transport_stats_ = std::move(provider);
  }

 private:
  /// One route-table entry. `prefix` routes match any target beginning
  /// with `path`; the remainder is the path parameter (the job id).
  struct Route {
    std::string method;
    std::string path;
    bool prefix = false;
    HttpResponse (SurfHandler::*fn)(const HttpRequest&,
                                    const std::string& param);
  };

  HttpResponse HandleHealthz(const HttpRequest& request,
                             const std::string& param);
  HttpResponse HandleMetrics(const HttpRequest& request,
                             const std::string& param);
  HttpResponse HandleVersion(const HttpRequest& request,
                             const std::string& param);
  HttpResponse HandleCacheStats(const HttpRequest& request,
                                const std::string& param);
  HttpResponse HandleGetTrace(const HttpRequest& request,
                              const std::string& param);
  HttpResponse HandleRegisterDataset(const HttpRequest& request,
                                     const std::string& param);
  HttpResponse HandleMine(const HttpRequest& request,
                          const std::string& param);
  /// The /v1/mine computation itself (post-coalescing-decision).
  HttpResponse ExecuteMine(const HttpRequest& request,
                           v2::MineRequest decoded);
  HttpResponse HandleMineBatch(const HttpRequest& request,
                               const std::string& param);
  HttpResponse HandleEvaluations(const HttpRequest& request,
                                 const std::string& param);
  HttpResponse HandleShardEvaluate(const HttpRequest& request,
                                   const std::string& param);
  HttpResponse HandleSubmitJob(const HttpRequest& request,
                               const std::string& param);
  HttpResponse HandleGetJob(const HttpRequest& request,
                            const std::string& param);
  HttpResponse HandleCancelJob(const HttpRequest& request,
                               const std::string& param);
  HttpResponse HandleListFailpoints(const HttpRequest& request,
                                    const std::string& param);
  HttpResponse HandleArmFailpoints(const HttpRequest& request,
                                   const std::string& param);
  HttpResponse HandleClearFailpoints(const HttpRequest& request,
                                     const std::string& param);
  HttpResponse HandleClearOneFailpoint(const HttpRequest& request,
                                       const std::string& param);

  /// Column-name → index resolver backed by the service's registry.
  ColumnResolver MakeResolver() const;

  MiningService* service_;
  ServerMetrics* metrics_;
  Options options_;
  JobTable jobs_;
  std::vector<Route> routes_;
  std::function<HttpServer::Stats()> transport_stats_;

  /// Worker-side cache of partitioned shard evaluators, keyed by
  /// (dataset | statistic fingerprint | partition spec) so repeated
  /// scatter batches from the same coordinator reuse one partition.
  /// Evaluators borrow no pool and scan their shards on the request's
  /// own thread: scale-out comes from multiple worker processes.
  mutable std::mutex shard_evaluators_mu_;
  std::map<std::string, std::shared_ptr<const ShardedScanEvaluator>>
      shard_evaluators_;

  /// \brief One in-flight /v1/mine computation shared by every request
  /// carrying a byte-identical body (single-flight coalescing).
  struct MineFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    HttpResponse response;
  };
  /// Request body bytes → the flight computing that body's answer.
  std::mutex mine_flights_mu_;
  std::map<std::string, std::shared_ptr<MineFlight>> mine_flights_;
  /// Requests answered from a shared flight (served via /metrics).
  std::atomic<uint64_t> mine_coalesced_{0};
};

}  // namespace surf

#endif  // SURF_NET_SURF_HANDLER_H_
