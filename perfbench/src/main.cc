// surfbench: the surfd benchmark. Starts `surf_cli serve` on loopback
// (plus two cluster workers for cluster_misses), drives it from this one
// process with seeded inputs, checks every response, replays a sample in
// process, and prints every metric by name with its unit. The last line
// of standard output is the JSON result. See perfbench/README.md.
//
//   surfbench --workload warm_hits --seed 1 --seconds 10 --trace 0
//             --work DIR --out DIR [--commit REV] [--smoke]
//   surfbench --selftest --work DIR --out DIR

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/synthetic.h"
#include "dist/http_client.h"
#include "http.h"
#include "net/json_codec.h"
#include "replay.h"

#ifndef SURFBENCH_SERVER_BIN
#error "SURFBENCH_SERVER_BIN must name the surf_cli binary"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// An open-loop run whose generator woke this late (p99) for its slots
// measured the generator, not the server: it is reported invalid.
constexpr double kMaxGeneratorLagMs = 20.0;
// The client's receive timeout; a failed request is timed at it.
constexpr double kClientTimeoutMs = 60000.0;
// Open-loop rates: about half the closed-loop capacity of a 4-core host
// for warm_hits, and a rate that keeps tenant a's two connections under
// 40 % busy beside the batch trainings.
constexpr double kWarmOpenLoopRate = 150.0;
constexpr double kMixedOpenLoopRate = 75.0;
constexpr const char* kWorkloads[] = {"warm_hits", "cold_misses",
                                      "mixed_tenants", "cluster_misses"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string work_dir;
  std::string out_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--selftest") {
      args->selftest = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      args->trace = v == "1";
    } else if (flag == "--work") {
      if (!value(&args->work_dir)) return false;
    } else if (flag == "--out") {
      if (!value(&args->out_dir)) return false;
    } else if (flag == "--commit") {
      if (!value(&args->commit)) return false;
    } else {
      return false;
    }
  }
  if (args->work_dir.empty() || args->out_dir.empty()) return false;
  if (args->selftest) return true;
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const char* w) { return args->workload == w; });
  return known && args->seconds > 0.0 && args->seconds <= 600.0;
}

// ------------------------------------------------------------------ data

/// The dataset of a workload: planted ground truth plus its CSV.
struct BenchData {
  surf::SyntheticDataset synth;
  std::string csv_path;
  /// Planted-region count relative to the 13,840-row recipe; scales the
  /// request thresholds.
  double threshold_scale = 1.0;
};

/// Writes the dataset with shortest round-trip doubles, so the CSV the
/// servers parse holds exactly the generated values.
bool WriteCsv(const surf::Dataset& data, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string out;
  for (size_t j = 0; j < data.num_cols(); ++j) {
    out += (j ? "," : "") + data.column_names()[j];
  }
  out += '\n';
  char cell[64];
  bool ok = true;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t j = 0; j < data.num_cols(); ++j) {
      if (j) out += ',';
      const auto res = std::to_chars(cell, cell + sizeof(cell), data.Get(r, j));
      out.append(cell, res.ptr);
    }
    out += '\n';
    if (out.size() > (1u << 20)) {
      ok = ok && std::fwrite(out.data(), 1, out.size(), f) == out.size();
      out.clear();
    }
  }
  ok = ok && std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

/// The workload's dataset (`variant` 0), or one more drawn from the seed
/// in the same shape (`variant` > 0).
BenchData MakeData(const Args& args, uint64_t variant = 0) {
  surf::SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 2;
  spec.statistic = surf::SyntheticStatistic::kDensity;
  spec.num_background = 12000;
  spec.seed = args.seed * 7919 + 17 + variant * 104729;
  const size_t base_target = spec.EffectiveGtTargetCount();
  if (args.workload == "cluster_misses") {
    // About 1M rows: scatter-gather labelling dominates a miss, and three
    // server processes holding the data stay near 1.3 GB together. The
    // planted regions keep the small recipe's density contrast.
    spec.num_background = args.smoke ? 90000 : 900000;
    spec.gt_target_count = args.smoke ? 15000 : 150000;
  }
  BenchData data;
  data.synth = surf::SyntheticGenerator::Generate(spec);
  data.threshold_scale = static_cast<double>(spec.EffectiveGtTargetCount()) /
                         static_cast<double>(base_target);
  data.csv_path = args.work_dir + "/" + args.workload +
                  (variant ? "-" + std::to_string(variant) : "") + ".csv";
  return data;
}

// ------------------------------------------------------------ deployment

/// The server processes of one run; servers[0] takes the client traffic
/// (the coordinator when there are workers).
struct Deployment {
  std::vector<std::unique_ptr<ServerProcess>> servers;
  uint16_t port() const { return servers.front()->port(); }
  void Stop() {
    for (auto& s : servers) s->Stop();
  }
};

bool Register(uint16_t port, const std::string& csv_path, std::string* error,
              const std::string& name = "bench") {
  const std::string body = "{\"name\": \"" + surf::JsonEscape(name) +
                           "\", \"path\": \"" + surf::JsonEscape(csv_path) + "\"}";
  auto reply = surf::dist::HttpPost("127.0.0.1", port, "/v1/datasets", body,
                                    120.0, {});
  if (!reply.ok() || reply->status_code != 201) {
    *error = "dataset registration failed: " +
             (reply.ok() ? reply->body : reply.status().ToString());
    return false;
  }
  return true;
}

/// Sends one request outside the timed phases and checks it.
Outcome SendChecked(uint16_t port, const std::string& body, bool expect_hit) {
  KeepAliveClient client;
  int status = 0;
  std::string reply;
  const bool ok = client.Send(port, WireRequest("POST", "/v1/mine", body),
                              &status, &reply);
  return CheckResponse(ok, status, reply, expect_hit);
}

/// Starts the servers, registers the data and warms them up. The warm-up
/// trains the shared surrogate of the warm recipe and runs one miss of
/// the workload's miss recipe, so no timed request pays a first-use cost.
bool Deploy(const Args& args, const BenchData& data, Deployment* deployment,
            std::string* error) {
  const bool cluster = args.workload == "cluster_misses";
  std::vector<std::string> front_args;
  if (cluster) {
    std::string endpoints;
    for (int w = 0; w < 2; ++w) {
      auto worker = std::make_unique<ServerProcess>();
      if (!worker->Start(SURFBENCH_SERVER_BIN, {},
                         args.work_dir + "/worker" + std::to_string(w) + ".log")) {
        *error = "cannot start cluster worker";
        return false;
      }
      endpoints += (w ? "," : "") + std::string("127.0.0.1:") +
                   std::to_string(worker->port());
      deployment->servers.push_back(std::move(worker));
    }
    front_args = {"--workers", endpoints};
  }
  auto front = std::make_unique<ServerProcess>();
  if (!front->Start(SURFBENCH_SERVER_BIN, front_args,
                    args.work_dir + "/surfd.log")) {
    *error = "cannot start surfd";
    return false;
  }
  deployment->servers.insert(deployment->servers.begin(), std::move(front));

  std::vector<std::string> errors(deployment->servers.size());
  std::vector<std::thread> loaders;
  for (size_t i = 0; i < deployment->servers.size(); ++i) {
    loaders.emplace_back([&, i] {
      Register(deployment->servers[i]->port(), data.csv_path, &errors[i]);
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }

  const uint16_t port = deployment->port();
  std::vector<std::pair<std::string, bool>> warmup;
  const uint64_t kWarmupStream = 9;
  if (args.workload == "warm_hits" || args.workload == "mixed_tenants") {
    for (uint64_t i = 0; i < 4; ++i) {
      warmup.emplace_back(MineBody(Recipe::kWarm, args.seed, kWarmupStream, i,
                                   data.threshold_scale, false),
                          i > 0);
    }
  }
  if (args.workload != "warm_hits") {
    const Recipe miss = cluster ? Recipe::kCluster : Recipe::kCold;
    warmup.emplace_back(MineBody(miss, args.seed, kWarmupStream, 100,
                                 data.threshold_scale, false),
                        false);
  }
  for (const auto& [body, expect_hit] : warmup) {
    const Outcome out = SendChecked(port, body, expect_hit);
    if (!out.ok) {
      *error = "warm-up request failed: " + out.reason;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- phases

/// The most connections, each with a thread of its own, that the load
/// generator opens at once: never more than the host has cores.
size_t MaxConnections() {
  const size_t nproc =
      std::max<size_t>(1, static_cast<size_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  return std::min<size_t>(4, nproc);
}

/// One traffic source of a phase.
struct Tenant {
  std::string name;
  Recipe recipe = Recipe::kWarm;
  uint64_t stream = 0;
  bool expect_hit = true;
  size_t connections = 1;
  /// Requests per second of an open loop; 0 makes a closed loop.
  double rate = 0.0;
  std::vector<std::pair<std::string, std::string>> headers;
  /// Whether this tenant's samples define the workload's latency.
  bool primary = false;
};

/// Request indices of round r start at r * kRoundIndexStride.
constexpr uint64_t kRoundIndexStride = 100000;

struct Phase {
  std::vector<Tenant> tenants;
  bool traced = false;
  /// Added to every request index, so phases never repeat a request.
  uint64_t index_offset = 0;
  /// Phase start on the run's timeline, seconds.
  double epoch_s = 0.0;
  std::vector<Sample> samples;
  std::vector<Outcome> outcomes;
  /// Seconds from phase start to each tenant's last completion.
  std::vector<double> elapsed;
};

struct RunContext {
  Args args;
  BenchData data;
  Clock::time_point epoch = Clock::now();
  double Seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch).count();
  }
};

std::string RequestBody(const RunContext& ctx, const Phase& phase,
                        const Tenant& tenant, uint64_t index) {
  return MineBody(tenant.recipe, ctx.args.seed, tenant.stream, index,
                  ctx.data.threshold_scale, phase.traced);
}

void RunPhase(const RunContext& ctx, uint16_t port, double seconds,
              Phase* phase) {
  struct TenantState {
    std::atomic<uint64_t> next{0};
    uint64_t scheduled = 0;
    std::vector<std::string> wires;  // pre-built open-loop requests
  };
  std::vector<std::unique_ptr<TenantState>> states;
  for (const Tenant& tenant : phase->tenants) {
    auto state = std::make_unique<TenantState>();
    if (tenant.rate > 0.0) {
      state->scheduled = static_cast<uint64_t>(std::floor(tenant.rate * seconds));
      for (uint64_t i = 0; i < state->scheduled; ++i) {
        state->wires.push_back(WireRequest(
            "POST", "/v1/mine",
            RequestBody(ctx, *phase, tenant, phase->index_offset + i),
            tenant.headers));
      }
    }
    states.push_back(std::move(state));
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  phase->epoch_s = ctx.Seconds(start);
  auto rel = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };

  std::vector<std::vector<Sample>> per_thread;
  std::vector<std::pair<size_t, size_t>> thread_tenant;  // (tenant, conn)
  for (size_t t = 0; t < phase->tenants.size(); ++t) {
    for (size_t c = 0; c < phase->tenants[t].connections; ++c) {
      thread_tenant.emplace_back(t, c);
    }
  }
  per_thread.resize(thread_tenant.size());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < thread_tenant.size(); ++k) {
    threads.emplace_back([&, k] {
      const size_t t = thread_tenant[k].first;
      const Tenant& tenant = phase->tenants[t];
      TenantState& state = *states[t];
      KeepAliveClient client;
      std::vector<Sample>& out = per_thread[k];
      std::this_thread::sleep_until(start);
      while (true) {
        Sample s;
        s.tenant = t;
        std::string wire;
        if (tenant.rate > 0.0) {
          const uint64_t i = state.next.fetch_add(1);
          if (i >= state.scheduled) break;
          s.index = phase->index_offset + i;
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / tenant.rate));
          s.due = rel(due);
          if (Clock::now() < due) {
            std::this_thread::sleep_until(due);
            s.lag = rel(Clock::now()) - s.due;
          }
          wire = state.wires[i];
        } else {
          if (Clock::now() >= stop) break;
          s.index = phase->index_offset + state.next.fetch_add(1);
          wire = WireRequest("POST", "/v1/mine",
                             RequestBody(ctx, *phase, tenant, s.index),
                             tenant.headers);
        }
        s.start = rel(Clock::now());
        if (tenant.rate <= 0.0) s.due = s.start;
        s.transport_ok = client.Send(port, wire, &s.status, &s.body);
        s.end = rel(Clock::now());
        out.push_back(std::move(s));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  phase->elapsed.assign(phase->tenants.size(), 0.0);
  for (auto& samples : per_thread) {
    for (Sample& s : samples) {
      phase->elapsed[s.tenant] = std::max(phase->elapsed[s.tenant], s.end);
      phase->samples.push_back(std::move(s));
    }
  }
  for (const Sample& s : phase->samples) {
    phase->outcomes.push_back(CheckResponse(
        s.transport_ok, s.status, s.body, phase->tenants[s.tenant].expect_hit));
  }
}

/// The phases of a workload, as rounds that repeat one pattern. Short
/// interleaved rounds spread each kind of load over the whole run, so a
/// slow stretch of the host touches every figure alike. A traced run
/// alternates untraced and traced rounds, so trace.overhead compares like
/// with like.
std::vector<std::pair<Phase, double>> PlanPhases(const Args& args) {
  const size_t conns = MaxConnections();
  const size_t half_conns = std::max<size_t>(1, conns / 2);
  std::vector<std::pair<Phase, double>> round;  // (phase, share of a round)
  double round_seconds = args.seconds;
  if (args.workload == "warm_hits") {
    Tenant t;
    t.name = "warm";
    t.recipe = Recipe::kWarm;
    t.stream = 1;
    t.connections = conns;
    Phase closed;
    closed.tenants = {t};
    t.stream = 2;
    t.rate = kWarmOpenLoopRate;
    t.primary = true;
    Phase open;
    open.tenants = {t};
    round = {{closed, 0.5}, {open, 0.5}};
    round_seconds = 2.0;
  } else if (args.workload == "mixed_tenants") {
    Tenant a;
    a.name = "a";
    a.recipe = Recipe::kWarm;
    a.stream = 2;
    a.rate = kMixedOpenLoopRate;
    a.connections = half_conns;
    a.headers = {{"x-surf-tenant", "a"}};
    a.primary = true;
    Tenant b;
    b.name = "b";
    b.recipe = Recipe::kCold;
    b.stream = 3;
    b.expect_hit = false;
    b.connections = half_conns;
    b.headers = {{"x-surf-tenant", "b"}, {"x-surf-priority", "batch"}};
    Phase mixed;
    mixed.tenants = {a, b};
    round = {{mixed, 1.0}};
    round_seconds = 2.0;
  } else {
    const bool cluster = args.workload == "cluster_misses";
    Tenant t;
    t.name = cluster ? "cluster" : "cold";
    t.recipe = cluster ? Recipe::kCluster : Recipe::kCold;
    t.stream = cluster ? 4 : 3;
    t.expect_hit = false;
    t.primary = true;
    Phase closed;
    closed.tenants = {t};
    round = {{closed, 1.0}};
    round_seconds = 5.0;
  }
  size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::lround(args.seconds / round_seconds)));
  if (args.trace) rounds = std::max<size_t>(2, rounds + rounds % 2);
  const double seconds_per_round = args.seconds / static_cast<double>(rounds);
  std::vector<std::pair<Phase, double>> plan;
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& [phase, share] : round) {
      Phase p = phase;
      p.traced = args.trace && r % 2 == 1;
      p.index_offset = r * kRoundIndexStride;
      plan.emplace_back(p, seconds_per_round * share);
    }
  }
  return plan;
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;
};

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Counters the server processes export, read before and after the timed
/// phases.
struct Counters {
  std::vector<PromSamples> metrics;  // one per server, front first
  surf::JsonValue cache;
};

Counters ReadCounters(const Deployment& deployment) {
  Counters c;
  for (const auto& s : deployment.servers) c.metrics.push_back(ScrapeMetrics(s->port()));
  auto reply = surf::dist::HttpGet("127.0.0.1", deployment.port(),
                                   "/v1/cache/stats", 30.0, {});
  if (reply.ok() && reply->status_code == 200) {
    auto json = surf::ParseJson(reply->body);
    if (json.ok()) c.cache = std::move(json).value();
  }
  return c;
}

double CacheField(const surf::JsonValue& cache, const char* key) {
  const surf::JsonValue* v = cache.is_object() ? cache.Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

/// Delta of a counter summed over every server (or the front one only).
double Delta(const Counters& before, const Counters& after,
             const std::string& metric, const std::string& labels = "",
             bool front_only = false) {
  double d = 0.0;
  const size_t n = front_only ? 1 : after.metrics.size();
  for (size_t i = 0; i < n && i < before.metrics.size(); ++i) {
    d += SumMetric(after.metrics[i], metric, labels) -
         SumMetric(before.metrics[i], metric, labels);
  }
  return d;
}

/// Quantile of the front server's delta of a Prometheus histogram,
/// interpolated within its bucket.
double HistogramQuantileMs(const Counters& before, const Counters& after,
                           const std::string& metric, double q) {
  std::map<double, double> cumulative;  // le → count delta
  auto collect = [&](const PromSamples& samples, double sign) {
    const std::string prefix = metric + "_bucket{";
    for (const auto& [name, value] : samples) {
      if (name.rfind(prefix, 0) != 0) continue;
      const size_t le = name.find("le=\"");
      if (le == std::string::npos) continue;
      const std::string bound = name.substr(le + 4, name.find('"', le + 4) - le - 4);
      const double upper = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(), nullptr);
      cumulative[upper] += sign * value;
    }
  };
  if (before.metrics.empty() || after.metrics.empty()) return 0.0;
  collect(after.metrics[0], 1.0);
  collect(before.metrics[0], -1.0);
  if (cumulative.empty()) return 0.0;
  const double total = cumulative.rbegin()->second;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double prev_bound = 0.0, prev_count = 0.0;
  for (const auto& [bound, count] : cumulative) {
    if (count >= rank) {
      if (std::isinf(bound)) return prev_bound * 1e3;
      const double within = count > prev_count ? (rank - prev_count) / (count - prev_count) : 0.0;
      return (prev_bound + (bound - prev_bound) * within) * 1e3;
    }
    prev_bound = bound;
    prev_count = count;
  }
  return prev_bound * 1e3;
}

// --------------------------------------------------------------- the run

struct ServerSpansSummary {
  /// Per request, for the stages it ran (the p50 metrics).
  std::map<std::string, std::vector<double>> stage_ms;
  /// Sums over the traced primary requests: means add up, so the layer
  /// accounting uses them.
  size_t primary = 0;
  double client_ms = 0.0;
  double net_ms = 0.0;
  /// Service time outside every stage span (the root span's self time).
  double serve_self_ms = 0.0;
  std::map<std::string, double> stage_sum_ms;
};

/// Adds the client span of a traced sample and stitches the server's
/// returned spans under it (the server's root is centred in the client
/// span: the two clocks are not shared). Search and extraction times are
/// summarized over the primary tenant only (the latency-defining load),
/// training stages over every miss.
void StitchTrace(const Phase& phase, const Sample& s, const Outcome& out,
                 size_t thread_lane, SpanLog* log, ServerSpansSummary* summary) {
  const bool primary = phase.tenants[s.tenant].primary;
  const uint64_t rid = log->next_request_id++;
  const double client_start_us = (phase.epoch_s + s.start) * 1e6;
  const double client_us = (s.end - s.start) * 1e6;
  const int64_t client = log->Add({"client.request", -1, rid, 1,
                                   static_cast<int>(thread_lane),
                                   client_start_us, client_us});
  const surf::JsonValue* trace = out.json.Find("trace");
  const surf::JsonValue* spans = trace != nullptr ? trace->Find("spans") : nullptr;
  if (spans == nullptr || !spans->is_array()) return;
  const double server_us = out.total_seconds * 1e6;
  const double shift = client_start_us + std::max(0.0, (client_us - server_us) / 2);
  std::vector<int64_t> index_map;
  // Whether a span lies under a stage span: nested stage spans (the
  // labelling batches inside workload_gen, possibly on several threads)
  // are already inside their ancestor's wall time.
  std::vector<bool> under_stage;
  std::map<std::string, double> request_stage_us;
  double root_us = 0.0, stages_us = 0.0;
  for (const surf::JsonValue& span : spans->array()) {
    const surf::JsonValue* name = span.Find("name");
    const surf::JsonValue* parent = span.Find("parent");
    const surf::JsonValue* start = span.Find("start_us");
    const surf::JsonValue* dur = span.Find("dur_us");
    if (name == nullptr || parent == nullptr || start == nullptr || dur == nullptr) {
      index_map.push_back(-1);
      under_stage.push_back(false);
      continue;
    }
    const int p = static_cast<int>(parent->number_value());
    const bool has_parent = p >= 0 && static_cast<size_t>(p) < index_map.size();
    const int64_t mapped_parent = has_parent ? index_map[p] : client;
    index_map.push_back(log->Add({"server." + name->string_value(), mapped_parent,
                                  rid, 2, static_cast<int>(thread_lane),
                                  shift + start->number_value(),
                                  dur->number_value()}));
    if (p < 0) root_us += dur->number_value();
    const surf::JsonValue* stage = span.Find("stage");
    const bool is_stage = stage != nullptr && stage->is_string();
    const bool nested = has_parent && under_stage[p];
    under_stage.push_back(is_stage || nested);
    if (is_stage && !nested) {
      request_stage_us[stage->string_value()] += dur->number_value();
      stages_us += dur->number_value();
    }
  }
  for (const auto& [stage, us] : request_stage_us) {
    if (primary || (stage != "search" && stage != "extraction")) {
      summary->stage_ms[stage].push_back(us * 1e-3);
    }
  }
  if (primary) {
    summary->primary += 1;
    summary->client_ms += client_us * 1e-3;
    // Against the root span rather than total_seconds, so the layers
    // partition the client's wall time exactly.
    summary->net_ms += (client_us - root_us) * 1e-3;
    summary->serve_self_ms += std::max(0.0, root_us - stages_us) * 1e-3;
    for (const auto& [stage, us] : request_stage_us) {
      summary->stage_sum_ms[stage] += us * 1e-3;
    }
  }
}

/// Whether the in-process replay of `body` reports exactly the regions
/// of the HTTP response `served`.
bool ReplayMatches(Replayer* replayer, const std::string& body,
                   const Outcome& served, Replayed* local_out) {
  auto local = replayer->Mine(body);
  if (!local.ok()) return false;
  const bool same = RegionsText(local->json) == RegionsText(served.json);
  if (local_out != nullptr) *local_out = std::move(local).value();
  return same;
}


int Fail(const std::string& message) {
  std::fprintf(stderr, "surfbench: %s\n", message.c_str());
  return 1;
}

/// What the figures were measured on.
struct HostRecord {
  long nproc = 0;
  std::string accel = "unknown";
  std::string compiler = "unknown";
  std::string commit;
  uint64_t seed = 0;

  std::string Text() const {
    return "nproc=" + std::to_string(nproc) + " accel_backend=" + accel +
           " compiler=" + compiler + " build_type=" + SURFBENCH_BUILD_TYPE +
           " commit=" + commit + " seed=" + std::to_string(seed);
  }
  surf::JsonValue Json() const {
    surf::JsonValue j = surf::JsonValue::Object();
    j.Set("nproc", surf::JsonValue(static_cast<double>(nproc)));
    j.Set("accel_backend", surf::JsonValue(accel));
    j.Set("compiler", surf::JsonValue(compiler));
    j.Set("build_type", surf::JsonValue(SURFBENCH_BUILD_TYPE));
    j.Set("commit", surf::JsonValue(commit));
    j.Set("seed", surf::JsonValue(static_cast<double>(seed)));
    return j;
  }
};

/// The accel backend from /v1/cache/stats and the compiler from
/// /v1/version of the serving process.
HostRecord ReadHost(const Deployment& deployment, const Args& args) {
  HostRecord host;
  host.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  host.commit = args.commit;
  host.seed = args.seed;
  const Counters c = ReadCounters(deployment);
  if (const surf::JsonValue* a = c.cache.is_object() ? c.cache.Find("accel_backend") : nullptr;
      a != nullptr && a->is_string()) {
    host.accel = a->string_value();
  }
  auto reply = surf::dist::HttpGet("127.0.0.1", deployment.port(), "/v1/version", 30.0, {});
  if (reply.ok()) {
    auto json = surf::ParseJson(reply->body);
    const surf::JsonValue* build = json.ok() ? json->Find("build") : nullptr;
    const surf::JsonValue* cc = build != nullptr ? build->Find("compiler") : nullptr;
    if (cc != nullptr && cc->is_string()) host.compiler = cc->string_value();
  }
  return host;
}

/// Prints the layer table of a traced run and writes its spans, the table
/// and the host record as a Chrome trace.
bool WriteTraceOutput(const SpanLog& log, const HostRecord& host, const Args& args) {
  std::printf("layer table (%s, self time over the traced run):\n", args.workload.c_str());
  std::printf("  %-28s %8s %12s %12s\n", "span", "count", "self_ms", "mean_ms");
  surf::JsonValue table = surf::JsonValue::Array();
  for (const LayerRow& row : LayerTable(log)) {
    std::printf("  %-28s %8zu %12.3f %12.4f\n", row.name.c_str(), row.count, row.self_ms,
                row.self_ms / static_cast<double>(std::max<size_t>(1, row.count)));
    surf::JsonValue r = surf::JsonValue::Object();
    r.Set("span", surf::JsonValue(row.name));
    r.Set("count", surf::JsonValue(static_cast<double>(row.count)));
    r.Set("self_ms", surf::JsonValue(row.self_ms));
    table.Append(std::move(r));
  }
  surf::JsonValue extra = surf::JsonValue::Object();
  surf::JsonValue host_json = host.Json();
  host_json.Set("workload", surf::JsonValue(args.workload));
  extra.Set("host", std::move(host_json));
  extra.Set("layers", std::move(table));
  const std::string path = args.out_dir + "/trace_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".json";
  if (!WriteChromeTrace(log, extra, path)) return false;
  std::printf("trace: %zu spans written to %s\n", log.spans.size(), path.c_str());
  return true;
}

/// Requests attempted and failed, with the reasons.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> reasons;

  void Add(const Outcome& o) {
    ++attempted;
    if (!o.ok) AddFailures(o.reason, 1);
  }
  void AddFailures(const std::string& reason, uint64_t n) {
    failed += n;
    reasons[reason] += n;
  }
};

/// Every coalesced request and every shard retry between two counter
/// reads is a failed operation.
void CountCounterFailures(const Counters& before, const Counters& after, Tally* tally) {
  const double coalesced = Delta(before, after, "surf_mine_coalesced_total", "", true);
  const double retries = Delta(before, after, "surf_dist_shard_retries_total", "", true);
  if (coalesced > 0) tally->AddFailures("coalesced", static_cast<uint64_t>(coalesced));
  if (retries > 0) tally->AddFailures("dist_retry", static_cast<uint64_t>(retries));
}

/// Paper-quality figures over the fixed, seeded quality set.
struct Quality {
  /// Requests in the quality set, and how many of them were OK.
  size_t planned = 0;
  size_t requests = 0;
  double iou_sum = 0.0;
  double regions = 0.0;
  double complying = 0.0;
};

/// The quality set is a fixed set of requests of the primary tenant's
/// recipe. Where each request trains its own surrogate, it is the first
/// kPerRound requests of the primary stream in each of the first kRounds
/// untraced rounds: the rounds send most of them, and any a round did not
/// complete (or that falls in a round the run does not have) are sent
/// afterwards, outside the timed phases.
///
/// The warm recipe answers every request from one surrogate, so one
/// training draw on one dataset would decide its figures. Its quality set
/// is sent after the timed phases instead: kQualitySurrogates surrogates
/// of Recipe::kWarmRetrained, spread evenly over the workload's dataset
/// and kQualityDatasets - 1 more drawn from the seed, each answering
/// kThresholds thresholds. A surrogate's first request trains it (a miss)
/// and the rest hit it. Each connection serves whole surrogates, so no
/// more of them are live at once than there are connections, well within
/// the server's cache.
Quality MeasureQuality(const RunContext& ctx, uint16_t port,
                       const std::vector<Phase>& phases, Tally* tally) {
  Quality q;
  auto add = [&q](const Outcome& o, const std::vector<surf::Region>& planted) {
    if (!o.ok) return;
    ++q.requests;
    q.iou_sum += ResponseIoU(o.json, planted);
    for (const surf::JsonValue& r : o.json.Find("result")->Find("regions")->array()) {
      q.regions += 1.0;
      const surf::JsonValue* c = r.Find("complies_true");
      if (c != nullptr && c->is_bool() && c->bool_value()) q.complying += 1.0;
    }
  };
  const Phase* first = nullptr;
  size_t tenant_index = 0;
  for (const Phase& phase : phases) {
    for (size_t t = 0; t < phase.tenants.size() && first == nullptr; ++t) {
      if (phase.tenants[t].primary && !phase.traced) {
        first = &phase;
        tenant_index = t;
      }
    }
  }
  if (first == nullptr) return q;
  const Tenant& tenant = first->tenants[tenant_index];

  if (tenant.recipe != Recipe::kWarm) {
    const uint64_t kRounds = 4;
    const uint64_t kPerRound = ctx.args.smoke ? 1 : 12;
    q.planned = kRounds * kPerRound;
    std::map<uint64_t, const Outcome*> served;
    for (const Phase& phase : phases) {
      for (size_t i = 0; i < phase.samples.size() && !phase.traced; ++i) {
        const Sample& s = phase.samples[i];
        if (phase.tenants[s.tenant].primary) served[s.index] = &phase.outcomes[i];
      }
    }
    for (uint64_t k = 0; k < kRounds; ++k) {
      // A traced run alternates untraced and traced rounds.
      const uint64_t round = ctx.args.trace ? 2 * k : k;
      for (uint64_t j = 0; j < kPerRound; ++j) {
        const uint64_t index = round * kRoundIndexStride + j;
        if (served.count(index)) {
          add(*served[index], ctx.data.synth.gt_regions);
          continue;
        }
        const Outcome late = SendChecked(
            port,
            MineBody(tenant.recipe, ctx.args.seed, tenant.stream, index,
                     ctx.data.threshold_scale, false),
            tenant.expect_hit);
        tally->Add(late);
        add(late, ctx.data.synth.gt_regions);
      }
    }
    return q;
  }

  const size_t kQualityDatasets = 8;
  const size_t kQualitySurrogates = ctx.args.smoke ? kQualityDatasets : 64;
  const size_t kThresholds = ctx.args.smoke ? 1 : 8;
  const uint64_t kQualityStreamBase = 1000;  // clear of the phase streams
  std::vector<BenchData> datasets(kQualityDatasets);
  std::vector<std::string> names(kQualityDatasets, "bench");
  datasets[0] = ctx.data;
  for (size_t k = 1; k < kQualityDatasets; ++k) {
    datasets[k] = MakeData(ctx.args, k);
    names[k] = "quality" + std::to_string(k);
    std::string error;
    if (!WriteCsv(datasets[k].synth.data, datasets[k].csv_path) ||
        !Register(port, datasets[k].csv_path, &error, names[k])) {
      std::printf("quality dataset %s not registered: %s\n", names[k].c_str(),
                  error.c_str());
      return q;  // the quality set stays incomplete, so the run is not correct
    }
  }
  q.planned = kQualitySurrogates * kThresholds;
  std::vector<Outcome> outcomes(q.planned);
  const size_t conns = MaxConnections();
  std::vector<std::thread> senders;
  for (size_t c = 0; c < conns; ++c) {
    senders.emplace_back([&, c] {
      KeepAliveClient client;
      for (size_t s = c; s < kQualitySurrogates; s += conns) {
        const size_t k = s % kQualityDatasets;
        for (size_t t = 0; t < kThresholds; ++t) {
          const std::string body =
              MineBody(Recipe::kWarmRetrained, ctx.args.seed, kQualityStreamBase + s, t,
                       datasets[k].threshold_scale, false, names[k]);
          int status = 0;
          std::string reply;
          const bool ok = client.Send(port, WireRequest("POST", "/v1/mine", body),
                                      &status, &reply);
          outcomes[s * kThresholds + t] = CheckResponse(ok, status, reply, t > 0);
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    tally->Add(outcomes[i]);
    add(outcomes[i], datasets[(i / kThresholds) % kQualityDatasets].synth.gt_regions);
  }
  return q;
}

/// The correctness replay of a seeded sample of the run's OK requests.
struct ReplayCheck {
  size_t replayed = 0;
  size_t mismatches = 0;
  /// Bodies and in-process responses of the matching replays.
  std::vector<std::string> bodies;
  std::vector<Replayed> responses;
};

ReplayCheck CheckByReplay(const RunContext& ctx, const std::vector<Phase>& phases,
                          size_t n, Replayer* replayer) {
  ReplayCheck check;
  std::vector<std::pair<size_t, size_t>> ok_samples;  // (phase, sample)
  for (size_t p = 0; p < phases.size(); ++p) {
    for (size_t i = 0; i < phases[p].samples.size(); ++i) {
      if (phases[p].outcomes[i].ok) ok_samples.emplace_back(p, i);
    }
  }
  std::set<size_t> chosen;
  for (uint64_t k = 0; chosen.size() < std::min(n, ok_samples.size()); ++k) {
    chosen.insert(static_cast<size_t>(Uniform(ctx.args.seed, 77, k) *
                                      static_cast<double>(ok_samples.size())));
  }
  for (size_t c : chosen) {
    const Phase& phase = phases[ok_samples[c].first];
    const Sample& s = phase.samples[ok_samples[c].second];
    const std::string body = RequestBody(ctx, phase, phase.tenants[s.tenant], s.index);
    Replayed local;
    ++check.replayed;
    if (!ReplayMatches(replayer, body, phase.outcomes[ok_samples[c].second], &local)) {
      ++check.mismatches;
      std::printf("replay mismatch: request %llu\n", static_cast<unsigned long long>(s.index));
      continue;
    }
    check.bodies.push_back(body);
    check.responses.push_back(std::move(local));
  }
  return check;
}

int RunWorkload(const Args& args) {
  RunContext ctx;
  ctx.args = args;
  const int reps = args.smoke ? 1 : 5;
  std::vector<double> setup_times;
  Deployment deployment;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) deployment.Stop();
    deployment = Deployment();
    const Clock::time_point t0 = Clock::now();
    ctx.data = MakeData(args);
    if (!WriteCsv(ctx.data.synth.data, ctx.data.csv_path)) {
      return Fail("cannot write " + ctx.data.csv_path);
    }
    std::string error;
    if (!Deploy(args, ctx.data, &deployment, &error)) return Fail(error);
    setup_times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const uint16_t port = deployment.port();

  const HostRecord host = ReadHost(deployment, args);
  std::printf("host: %s\n", host.Text().c_str());
  std::printf("workload: %s, %zu rows, %.0f s timed, trace=%d, %s\n",
              args.workload.c_str(), ctx.data.synth.data.num_rows(),
              args.seconds, args.trace ? 1 : 0,
              args.smoke ? "smoke-sized" : "full-sized");
  std::fflush(stdout);

  // Timed phases.
  const Counters before = ReadCounters(deployment);
  std::vector<Phase> phases;
  for (auto& [phase, seconds] : PlanPhases(args)) {
    RunPhase(ctx, port, seconds, &phase);
    phases.push_back(std::move(phase));
  }
  const Counters after = ReadCounters(deployment);
  double peak_rss = 0.0;
  for (const auto& s : deployment.servers) peak_rss += s->PeakRssMb();

  Tally tally;
  for (const Phase& phase : phases) {
    for (const Outcome& o : phase.outcomes) tally.Add(o);
  }
  const Quality quality = MeasureQuality(ctx, port, phases, &tally);

  Replayer replayer(ctx.epoch);
  if (auto st = replayer.Load(ctx.data.csv_path); !st.ok()) {
    return Fail("replay load: " + st.ToString());
  }
  const size_t replay_n =
      args.smoke ? 2 : (args.workload == "cluster_misses" ? 2 : args.workload == "warm_hits" ? 8 : 4);
  const ReplayCheck replay = CheckByReplay(ctx, phases, replay_n, &replayer);
  if (replay.mismatches > 0) tally.AddFailures("replay_mismatch", replay.mismatches);
  CountCounterFailures(before, after, &tally);
  const double coalesced = Delta(before, after, "surf_mine_coalesced_total", "", true);
  const double retries = Delta(before, after, "surf_dist_shard_retries_total", "", true);

  // Latency of the primary tenant from each request's due time, one
  // vector per round. A failed request counts at the client timeout, so
  // it misses every latency limit.
  auto primary_rounds = [&](bool traced) {
    std::vector<std::vector<double>> rounds;
    for (const Phase& phase : phases) {
      if (phase.traced != traced) continue;
      std::vector<double> ms;
      for (size_t i = 0; i < phase.samples.size(); ++i) {
        const Sample& s = phase.samples[i];
        if (!phase.tenants[s.tenant].primary) continue;
        ms.push_back(phase.outcomes[i].ok ? (s.end - s.due) * 1e3 : kClientTimeoutMs);
      }
      if (!ms.empty()) rounds.push_back(std::move(ms));
    }
    return rounds;
  };
  // Each percentile is the median over rounds of the round's percentile:
  // a slow stretch of a shared host moves one round, not the figure.
  auto round_quantile = [](const std::vector<std::vector<double>>& rounds, double q) {
    std::vector<double> per_round;
    for (const std::vector<double>& r : rounds) per_round.push_back(Quantile(r, q));
    return Quantile(per_round, 0.5);
  };
  const std::vector<std::vector<double>> lat_rounds = primary_rounds(false);
  std::vector<double> lat;
  for (const auto& r : lat_rounds) lat.insert(lat.end(), r.begin(), r.end());
  const bool is_warm = args.workload == "warm_hits";
  // Rates are medians over the untraced rounds.
  std::vector<double> tput_rounds, batch_rounds;
  uint64_t tput_ok = 0, tput_sent = 0;
  std::vector<double> lags_ms;
  for (const Phase& phase : phases) {
    if (phase.traced) continue;
    for (size_t t = 0; t < phase.tenants.size(); ++t) {
      const Tenant& tenant = phase.tenants[t];
      uint64_t ok = 0, sent = 0;
      for (size_t i = 0; i < phase.samples.size(); ++i) {
        if (phase.samples[i].tenant != t) continue;
        ++sent;
        ok += phase.outcomes[i].ok ? 1 : 0;
        if (phase.samples[i].lag >= 0) lags_ms.push_back(phase.samples[i].lag * 1e3);
      }
      const double rps = phase.elapsed[t] > 0 ? static_cast<double>(ok) / phase.elapsed[t] : 0.0;
      // warm_hits: throughput is the closed-loop phase; elsewhere the
      // primary tenant's completions.
      const bool tput_source = is_warm ? tenant.rate <= 0.0 : tenant.primary;
      if (tput_source) {
        tput_rounds.push_back(rps);
        tput_ok += ok;
        tput_sent += sent;
      } else if (tenant.name == "b") {
        batch_rounds.push_back(rps);
      }
    }
  }
  const double throughput = Quantile(tput_rounds, 0.5);
  const double batch_throughput = Quantile(batch_rounds, 0.5);
  const double lag_p99 = Quantile(lags_ms, 0.99);
  const bool generator_behind = !lags_ms.empty() && lag_p99 > kMaxGeneratorLagMs;

  std::vector<Metric> metrics;
  uint64_t lat_ok = 0;
  for (double v : lat) lat_ok += v < kClientTimeoutMs ? 1 : 0;
  const std::string lat_detail =
      "n=" + std::to_string(lat.size()) + " sent=" + std::to_string(lat.size()) +
      " ok=" + std::to_string(lat_ok) + " failed=" + std::to_string(lat.size() - lat_ok) +
      " rounds=" + std::to_string(lat_rounds.size()) +
      (is_warm || args.workload == "mixed_tenants" ? " open-loop, from due time"
                                                    : " closed-loop");
  metrics.push_back({"throughput_rps", throughput, "1/s",
                     "median of " + std::to_string(tput_rounds.size()) + " rounds, sent=" +
                         std::to_string(tput_sent) + " ok=" + std::to_string(tput_ok) +
                         " failed=" + std::to_string(tput_sent - tput_ok)});
  // The gated latency is the mean: per-request latencies on a shared host
  // can mix a fast and a slow mode, and the median jumps between them
  // from run to run while the mean moves smoothly.
  double lat_sum = 0.0;
  for (double v : lat) lat_sum += v;
  metrics.push_back({"latency_mean_ms", lat.empty() ? 0.0 : lat_sum / lat.size(), "ms",
                     lat_detail});
  metrics.push_back({"iou_mean", quality.requests ? quality.iou_sum / quality.requests : 0.0,
                     "ratio", "fixed set of " + std::to_string(quality.requests) + " requests"});
  metrics.push_back({"compliance_rate",
                     quality.regions > 0 ? quality.complying / quality.regions : 0.0, "ratio",
                     Fmt("%.0f regions", quality.regions)});
  metrics.push_back({"setup_s", Quantile(setup_times, 0.5), "s",
                     "median of " + std::to_string(setup_times.size()) + " set-ups"});
  metrics.push_back({"peak_rss_mb", peak_rss, "MiB",
                     std::to_string(deployment.servers.size()) + " server processes"});

  // Per-layer figures.
  SpanLog log;
  ServerSpansSummary server_spans;
  std::vector<double> overhead_ms, service_ms;
  for (const Phase& phase : phases) {
    for (size_t i = 0; i < phase.samples.size(); ++i) {
      const Sample& s = phase.samples[i];
      const Outcome& o = phase.outcomes[i];
      if (!o.ok) continue;
      if (phase.tenants[s.tenant].primary) {
        overhead_ms.push_back((s.end - s.start - o.total_seconds) * 1e3);
        service_ms.push_back(o.total_seconds * 1e3);
      }
      if (phase.traced) {
        StitchTrace(phase, s, o, s.tenant * 8 + (i % 8), &log, &server_spans);
      }
    }
  }
  auto stage_ms = [&](const char* stage) {
    auto it = server_spans.stage_ms.find(stage);
    return it == server_spans.stage_ms.end() ? 0.0 : Quantile(it->second, 0.5);
  };
  SearchFigures search;
  TrainFigures train;
  double codec_us = 0.0;
  if (args.trace) {
    std::vector<std::string> search_bodies;
    const bool warm_search = args.workload == "warm_hits" || args.workload == "mixed_tenants";
    if (warm_search) {
      Phase p;
      Tenant t;
      t.recipe = Recipe::kWarm;
      t.stream = 2;
      for (uint64_t i = 0; i < (args.smoke ? 4u : 32u); ++i) {
        search_bodies.push_back(RequestBody(ctx, p, t, i));
      }
    } else {
      search_bodies = replay.bodies;
    }
    auto s = replayer.ReplaySearch(search_bodies, &log);
    if (!s.ok()) return Fail("search replay: " + s.status().ToString());
    search = *s;
    // Training recipe: the workload's misses, or the shared warm entry.
    std::string train_body;
    for (const std::string& b : replay.bodies) {
      if (b.find("\"num_queries\":2000") == std::string::npos) train_body = b;
    }
    if (train_body.empty()) train_body = search_bodies.front();
    auto tr = replayer.ReplayTraining(
        train_body, args.smoke || args.workload == "cluster_misses" ? 1 : 3, &log);
    if (!tr.ok()) return Fail("training replay: " + tr.status().ToString());
    train = *tr;
    codec_us = replayer.CodecMicros(replay.bodies, replay.responses, 20, &log);
  }
  // Layer accounting over the traced primary requests (means): the
  // client's wall time minus every layer's self time, with the search
  // stage split into its ml (prediction) and opt (swarm) layers.
  const double n_primary = static_cast<double>(std::max<size_t>(1, server_spans.primary));
  auto mean_stage = [&](const char* stage) {
    auto it = server_spans.stage_sum_ms.find(stage);
    return it == server_spans.stage_sum_ms.end() ? 0.0 : it->second / n_primary;
  };
  const double client_mean = server_spans.client_ms / n_primary;
  const double unattributed =
      server_spans.primary == 0
          ? 0.0
          : client_mean - (server_spans.net_ms / n_primary +
                           server_spans.serve_self_ms / n_primary +
                           mean_stage("workload_gen") + mean_stage("training") +
                           search.predict_ms + search.swarm_ms +
                           mean_stage("extraction"));
  const double unattributed_share = client_mean > 0 ? unattributed / client_mean : 0.0;
  const double traced_p50 = round_quantile(primary_rounds(true), 0.5);
  const double untraced_p50 = round_quantile(lat_rounds, 0.5);
  const double lookups = CacheField(after.cache, "hits") + CacheField(after.cache, "misses") -
                         CacheField(before.cache, "hits") - CacheField(before.cache, "misses");
  const double hits = CacheField(after.cache, "hits") - CacheField(before.cache, "hits");
  // Latency percentiles are reported with the layers: on a shared host
  // their run-to-run spread can exceed any bound an end-to-end metric may
  // have.
  std::vector<Metric> layers = {
      {"latency_p50_ms", round_quantile(lat_rounds, 0.50), "ms", lat_detail},
      {"latency_p90_ms", round_quantile(lat_rounds, 0.90), "ms", lat_detail},
      {"latency_p99_ms", round_quantile(lat_rounds, 0.99), "ms", lat_detail},
      {"net.overhead_p50_ms", Quantile(overhead_ms, 0.5), "ms",
       "client latency - total_seconds, n=" + std::to_string(overhead_ms.size())},
      {"net.overhead_p99_ms", Quantile(overhead_ms, 0.99), "ms",
       "n=" + std::to_string(overhead_ms.size())},
      {"net.codec_us", codec_us, "us", "decode+encode per request, in process"},
      {"sched.shed", Delta(before, after, "surf_http_requests_shed_total", "", true), "count", ""},
      {"sched.throttled", Delta(before, after, "surf_http_tenant_throttled_total", "", true), "count", ""},
      {"sched.over_quota", Delta(before, after, "surf_http_tenant_over_quota_total", "", true), "count", ""},
      {"sched.batch_served", Delta(before, after, "surf_http_batch_served_total", "", true), "count", ""},
      {"serve.hits", hits, "count", ""},
      {"serve.misses", lookups - hits, "count", ""},
      {"serve.lookups", lookups, "count", "base of serve.hit_ratio"},
      {"serve.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
       Fmt("of %.0f lookups", lookups)},
      {"serve.coalesced", coalesced, "count", "must be 0"},
      {"serve.service_ms", Quantile(service_ms, 0.5), "ms", "p50 of total_seconds"},
      {"core.labelling_ms", stage_ms("workload_gen"), "ms",
       "p50 over traced misses (workload generation + labelling)"},
      {"core.training_ms", stage_ms("training"), "ms", "p50 over traced misses"},
      {"core.search_ms", stage_ms("search"), "ms", "p50 over traced primary requests"},
      {"core.extraction_ms", stage_ms("extraction"), "ms", "p50 over traced primary requests"},
      {"ml.predict_ms", search.predict_ms, "ms", "per Find, inside search"},
      {"ml.predict_rows", search.predict_rows, "count", "per Find"},
      {"ml.fit_ms", train.fit_ms, "ms", "Surrogate::Train"},
      {"ml.fit_trees", train.fit_trees, "count", ""},
      {"opt.swarm_ms", search.swarm_ms, "ms", "search - ml.predict_ms, per Find"},
      {"opt.iterations", search.iterations, "count", "per Find"},
      {"opt.objective_evals", search.objective_evals, "count", "per Find"},
      {"stats.label_us_per_query", train.label_us_per_query, "us", "GenerateWorkload"},
      {"stats.validate_ms", search.validate_ms, "ms", "per Find"},
      {"stats.shard_pruned", Delta(before, after, "surf_shard_scan_total", "action=\"pruned\""), "count", ""},
      {"stats.shard_blocked", Delta(before, after, "surf_shard_scan_total", "action=\"block_merged\""), "count", ""},
      {"stats.shard_scanned", Delta(before, after, "surf_shard_scan_total", "action=\"scanned\""), "count", ""},
      {"dist.rpcs", Delta(before, after, "surf_dist_worker_request_seconds_count", "", true), "count", ""},
      {"dist.rpc_p50_ms", HistogramQuantileMs(before, after, "surf_dist_worker_request_seconds", 0.5), "ms", ""},
      {"dist.retries", retries, "count", "must be 0"},
      {"gen.lag_p99_ms", lag_p99, "ms", "n=" + std::to_string(lags_ms.size())},
      {"trace.unattributed_ms", unattributed, "ms",
       Fmt("share of mean client wall %.4f", unattributed_share)},
      {"trace.overhead", untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0,
       "ratio", "traced p50 / untraced p50"},
      {"error_rate", tally.attempted ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
       "ratio", std::to_string(tally.failed) + " of " + std::to_string(tally.attempted)},
      {"batch_throughput_rps", batch_throughput, "1/s", "tenant b completions"},
  };

  // Human-readable report.
  for (const Metric& m : metrics) {
    std::printf("metric %-24s = %.6g %s  [%s]\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("layer  %-24s = %.6g %s%s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.empty() ? "" : "  [", m.detail.c_str(), m.detail.empty() ? "" : "]");
  }
  std::printf("requests: attempted=%llu failed=%llu replayed=%zu mismatches=%zu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), replay.replayed,
              replay.mismatches);
  for (const auto& [reason, count] : tally.reasons) {
    std::printf("failure %s: %llu\n", reason.c_str(), static_cast<unsigned long long>(count));
  }
  if (args.trace) {
    const double core_search = mean_stage("search");
    const double gap = client_mean > 0
                           ? std::fabs(search.predict_ms + search.swarm_ms - core_search) / client_mean
                           : 0.0;
    std::printf("search accounting (means): ml.predict_ms + opt.swarm_ms = %.4g ms vs "
                "core.search_ms = %.4g ms; gap %.4f of client wall %.4g ms, "
                "unattributed share %.4f -> %s\n",
                search.predict_ms + search.swarm_ms, core_search, gap, client_mean,
                unattributed_share,
                gap <= std::fabs(unattributed_share) + 1e-6 ? "within" : "NOT within");
    if (search.unfaithful > 0) {
      std::printf("warning: %zu replayed Finds differ from MiningService::Mine\n",
                  search.unfaithful);
    }
    if (!WriteTraceOutput(log, host, args)) return Fail("cannot write the trace");
  }
  if (generator_behind) {
    std::printf("INVALID run: the load generator fell behind its schedule "
                "(gen.lag_p99_ms %.3f > %.1f)\n", lag_p99, kMaxGeneratorLagMs);
  }
  deployment.Stop();

  const bool correct = tally.failed == 0 && !generator_behind && replay.replayed > 0 &&
                       quality.planned > 0 && quality.requests == quality.planned;
  surf::JsonValue result = surf::JsonValue::Object();
  result.Set("correct", surf::JsonValue(correct));
  result.Set("attempted", surf::JsonValue(static_cast<double>(tally.attempted)));
  result.Set("failed", surf::JsonValue(static_cast<double>(tally.failed)));
  surf::JsonValue out_metrics = surf::JsonValue::Object();
  const std::vector<Metric>& reported = args.trace ? layers : metrics;
  for (const Metric& m : reported) {
    surf::JsonValue entry = surf::JsonValue::Object();
    entry.Set("value", surf::JsonValue(m.value));
    entry.Set("unit", surf::JsonValue(m.unit));
    out_metrics.Set(m.name, std::move(entry));
  }
  result.Set("metrics", std::move(out_metrics));
  std::printf("%s\n", surf::WriteJson(result).c_str());
  return 0;
}

/// Checks that the benchmark's correctness checks fire: on a response
/// whose regions were corrupted, on a truncated response, and on a
/// repeated identical body that the server coalesces.
int RunSelftest(Args args) {
  args.workload = "warm_hits";
  args.smoke = true;
  RunContext ctx;
  ctx.args = args;
  ctx.data = MakeData(args);
  if (!WriteCsv(ctx.data.synth.data, ctx.data.csv_path)) return Fail("cannot write csv");
  Deployment deployment;
  std::string error;
  if (!Deploy(args, ctx.data, &deployment, &error)) return Fail(error);
  const uint16_t port = deployment.port();
  Replayer replayer(ctx.epoch);
  if (auto st = replayer.Load(ctx.data.csv_path); !st.ok()) return Fail(st.ToString());

  const std::string body = MineBody(Recipe::kWarm, args.seed, 5, 0, 1.0, false);
  KeepAliveClient client;
  int status = 0;
  std::string reply;
  const bool sent = client.Send(port, WireRequest("POST", "/v1/mine", body), &status, &reply);
  const Outcome served = CheckResponse(sent, status, reply, true);
  const bool clean_passes = served.ok && ReplayMatches(&replayer, body, served, nullptr);

  // Corrupt the first region's first centre coordinate.
  std::string corrupted = reply;
  const size_t at = corrupted.find("\"center\":[");
  bool corrupted_flagged = false;
  if (at != std::string::npos) {
    size_t digit = corrupted.find_first_of("123456789", at + 10);
    corrupted[digit] = corrupted[digit] == '9' ? '8' : static_cast<char>(corrupted[digit] + 1);
    const Outcome bad = CheckResponse(true, 200, corrupted, true);
    corrupted_flagged = !bad.ok || !ReplayMatches(&replayer, body, bad, nullptr);
  }
  const bool truncated_flagged =
      !CheckResponse(true, 200, reply.substr(0, reply.size() / 2), true).ok;

  // The same body on every connection at once, several times over.
  const Counters before = ReadCounters(deployment);
  const std::string repeat = MineBody(Recipe::kWarm, args.seed, 5, 1, 1.0, false);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread> threads;
    for (int c = 0; c < 4; ++c) {
      threads.emplace_back([&] { SendChecked(port, repeat, true); });
    }
    for (std::thread& t : threads) t.join();
  }
  const Counters after = ReadCounters(deployment);
  Tally tally;
  CountCounterFailures(before, after, &tally);
  const bool coalesced_flagged = tally.reasons.count("coalesced") > 0;
  const double coalesced = Delta(before, after, "surf_mine_coalesced_total", "", true);
  deployment.Stop();

  std::printf("selftest clean_response_passes: %s\n", clean_passes ? "yes" : "no");
  std::printf("selftest corrupted_response_flagged: %s\n", corrupted_flagged ? "yes" : "no");
  std::printf("selftest truncated_response_flagged: %s\n", truncated_flagged ? "yes" : "no");
  std::printf("selftest coalesced_repeat_flagged: %s (%.0f coalesced)\n",
              coalesced_flagged ? "yes" : "no", coalesced);
  return clean_passes && corrupted_flagged && truncated_flagged && coalesced_flagged ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: surfbench --workload warm_hits|cold_misses|mixed_tenants|"
                 "cluster_misses --seed N --seconds S --trace 0|1 --work DIR --out DIR "
                 "[--commit REV] [--smoke]\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  ::mkdir(args.out_dir.c_str(), 0755);
  return args.selftest ? perfbench::RunSelftest(args) : perfbench::RunWorkload(args);
}
