// Extension: distributed scatter-gather labelling (ISSUE 9 acceptance).
//
// Spawns real worker surfd processes (fork + HttpServer on ephemeral
// loopback ports, each holding the 2M-row dataset) and measures
// workload labelling through the coordinator-side ClusterEvaluator
// against the in-process single-node `shards = N` evaluator:
//
//  - cluster labels must be BIT-IDENTICAL to single-node at every fleet
//    size (the coordinator replays the exact in-process merge fold);
//  - 2 workers must deliver >= 1.6x labelling speedup over 1 worker
//    (the scan work halves; wire codec overhead must not eat it).
//    Worker processes can only overlap where cores exist, so on a
//    single-core host this gate degrades to an overhead bound: 2
//    workers may cost at most 1.35x the 1-worker wall clock;
//  - after SIGKILLing one worker mid-fleet, a re-run must still
//    complete with bit-identical labels via shard-group re-homing,
//    reported degraded.
//
// Workers are forked BEFORE any thread exists in the parent, and
// inherit the dataset by copy-on-write — identical bytes by
// construction. Writes BENCH_dist.json (override with
// SURF_BENCH_DIST_JSON).

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "data/sharded.h"
#include "dist/cluster_evaluator.h"
#include "dist/worker_pool.h"
#include "net/http_server.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/fingerprint.h"
#include "serve/mining_service.h"
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

/// Child body: one worker surfd serving the forked dataset until killed.
/// Never returns.
[[noreturn]] void RunWorker(const Dataset& ds, int port_fd) {
  MiningService service;
  if (!service.RegisterDataset("bench", ds).ok()) _exit(2);
  ServerMetrics metrics;
  SurfHandler handler(&service, &metrics);
  HttpServer::Options options;
  options.port = 0;
  HttpServer server(options, handler.AsHttpHandler());
  if (!server.Start().ok()) _exit(3);
  const uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(4);
  ::close(port_fd);
  while (true) ::pause();  // serve until SIGKILLed by the parent
}

struct WorkerProc {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port);
  }
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t rows =
      static_cast<size_t>(flags.GetInt("rows", 20000000));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 48));
  const size_t num_shards =
      static_cast<size_t>(flags.GetInt("shards", 8));

  std::printf(
      "== distributed scatter-gather labelling (%zu rows, %zu queries, "
      "%zu shards) ==\n",
      rows, queries, num_shards);
  const Dataset ds = MakeData(rows, 2026);
  const uint64_t fingerprint = FingerprintDataset(ds);

  // Fork the worker fleet before any thread exists in this process.
  std::fflush(stdout);
  std::vector<WorkerProc> workers(2);
  for (WorkerProc& worker : workers) {
    int pipe_fd[2];
    if (::pipe(pipe_fd) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::close(pipe_fd[0]);
      RunWorker(ds, pipe_fd[1]);
    }
    ::close(pipe_fd[1]);
    worker.pid = pid;
    if (::read(pipe_fd[0], &worker.port, sizeof(worker.port)) !=
        sizeof(worker.port)) {
      std::fprintf(stderr, "worker %d never reported a port\n", pid);
      return 1;
    }
    ::close(pipe_fd[0]);
    std::printf("worker pid %d on %s\n", pid, worker.endpoint().c_str());
  }
  const auto kill_fleet = [&workers] {
    for (WorkerProc& worker : workers) {
      if (worker.pid > 0) {
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, nullptr, 0);
        worker.pid = -1;
      }
    }
  };

  // Count keeps wire partials tiny (one accumulator, no sketch), so at
  // this row count the scatter is scan-dominated — the regime where
  // adding workers pays.
  const Statistic stat = Statistic::Count({0, 1});
  const Bounds domain = ds.ComputeBounds(stat.region_cols);
  WorkloadParams params;
  params.num_queries = queries;
  params.seed = 11;

  // --- single-node reference: the exact evaluator MakeEvaluator builds
  // for shards = N (range partition on the first box column), one
  // thread — the same fold the coordinator must replay bit for bit.
  double single_seconds = 0.0;
  std::vector<double> single_targets;
  {
    ShardingOptions options;
    options.num_shards = num_shards;
    options.order_by = 0;
    options.columns = {0, 1};
    ShardedScanEvaluator single(ShardedDataset::Partition(ds, options),
                                stat);
    Stopwatch timer;
    single_targets = GenerateWorkload(single, domain, params).targets;
    single_seconds = timer.ElapsedSeconds();
  }
  std::printf("single-node: %.3fs (%.1f labels/s)\n", single_seconds,
              queries / single_seconds);

  // --- cluster arms at 1 and 2 workers over the same partition.
  struct Arm {
    size_t fleet = 0;
    double seconds = 0.0;
    bool bit_identical = false;
  };
  std::vector<Arm> arms;
  std::vector<std::unique_ptr<dist::WorkerPool>> pools;
  // The shard groups' RPCs overlap on this pool, one thread per worker.
  ThreadPool scatter(2);
  for (size_t fleet : {size_t{1}, size_t{2}}) {
    std::vector<std::string> endpoints;
    for (size_t i = 0; i < fleet; ++i) {
      endpoints.push_back(workers[i].endpoint());
    }
    pools.push_back(std::make_unique<dist::WorkerPool>(endpoints));
    dist::ClusterEvaluator::Options options;
    options.dataset = "bench";
    options.fingerprint = fingerprint;
    options.num_shards = num_shards;
    dist::ClusterEvaluator cluster(pools.back().get(), stat, options,
                                   &scatter);

    // Warm the worker-side partition caches so arm timing measures
    // labelling, not one-time partition builds (identical across arms).
    WorkloadParams warm = params;
    warm.num_queries = 2;
    (void)GenerateWorkload(cluster, domain, warm);

    Stopwatch timer;
    const std::vector<double> targets =
        GenerateWorkload(cluster, domain, params).targets;
    Arm arm;
    arm.fleet = fleet;
    arm.seconds = timer.ElapsedSeconds();
    arm.bit_identical = BitIdentical(single_targets, targets);
    if (cluster.degraded()) {
      std::fprintf(stderr, "FAIL: clean fleet degraded: %s\n",
                   cluster.degraded_reason().c_str());
      kill_fleet();
      return 1;
    }
    std::printf("workers=%zu  : %.3fs (%.2fx vs single-node) | "
                "identical: %s\n",
                fleet, arm.seconds, single_seconds / arm.seconds,
                arm.bit_identical ? "yes" : "NO");
    arms.push_back(arm);
  }
  const double speedup_2_workers = arms[0].seconds / arms[1].seconds;
  std::printf("2-worker scaling: %.2fx over 1 worker\n", speedup_2_workers);

  // --- fault tolerance: SIGKILL one worker, re-run on the 2-worker
  // pool. The dead worker's shard groups must re-home onto the
  // survivor: same bits, degraded provenance, no hang.
  ::kill(workers[1].pid, SIGKILL);
  ::waitpid(workers[1].pid, nullptr, 0);
  workers[1].pid = -1;
  std::printf("killed worker on %s\n", workers[1].endpoint().c_str());

  double killed_seconds = 0.0;
  bool killed_identical = false;
  std::string killed_reason;
  {
    dist::ClusterEvaluator::Options options;
    options.dataset = "bench";
    options.fingerprint = fingerprint;
    options.num_shards = num_shards;
    dist::ClusterEvaluator cluster(pools[1].get(), stat, options,
                                   &scatter);
    Stopwatch timer;
    const std::vector<double> targets =
        GenerateWorkload(cluster, domain, params).targets;
    killed_seconds = timer.ElapsedSeconds();
    killed_identical = BitIdentical(single_targets, targets);
    killed_reason = cluster.degraded_reason();
    if (!cluster.degraded()) {
      std::fprintf(stderr, "FAIL: killed-worker run was not degraded\n");
      kill_fleet();
      return 1;
    }
  }
  std::printf("killed-worker run: %.3fs | identical: %s | %s\n",
              killed_seconds, killed_identical ? "yes" : "NO",
              killed_reason.c_str());
  kill_fleet();

  const char* json_env = std::getenv("SURF_BENCH_DIST_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_dist.json";
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"rows\": %zu,\n"
                 "  \"queries\": %zu,\n"
                 "  \"num_shards\": %zu,\n"
                 "  \"single_node_seconds\": %.4f,\n"
                 "  \"arms\": [\n",
                 rows, queries, num_shards, single_seconds);
    for (size_t i = 0; i < arms.size(); ++i) {
      std::fprintf(f,
                   "    {\"workers\": %zu, \"seconds\": %.4f, "
                   "\"bit_identical\": %s}%s\n",
                   arms[i].fleet, arms[i].seconds,
                   arms[i].bit_identical ? "true" : "false",
                   i + 1 < arms.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"hardware_cores\": %u,\n"
                 "  \"speedup_2_workers\": %.2f,\n"
                 "  \"killed_worker_seconds\": %.4f,\n"
                 "  \"killed_worker_bit_identical\": %s,\n"
                 "  \"killed_worker_degraded_reason\": \"%s\"\n"
                 "}\n",
                 std::thread::hardware_concurrency(), speedup_2_workers,
                 killed_seconds, killed_identical ? "true" : "false",
                 killed_reason.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }

  // Acceptance gates: red CI instead of a silently regressed report.
  bool ok = true;
  for (const Arm& arm : arms) {
    if (!arm.bit_identical) {
      std::fprintf(stderr,
                   "FAIL: %zu-worker cluster labels diverged from "
                   "single-node\n",
                   arm.fleet);
      ok = false;
    }
  }
  if (!killed_identical) {
    std::fprintf(stderr,
                 "FAIL: killed-worker run diverged from single-node\n");
    ok = false;
  }
  constexpr double kMinSpeedup = 1.6;
  constexpr double kMaxSingleCoreOverhead = 1.35;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 2) {
    if (speedup_2_workers < kMinSpeedup) {
      std::fprintf(stderr,
                   "FAIL: 2-worker labelling speedup %.2fx below %.1fx "
                   "floor\n",
                   speedup_2_workers, kMinSpeedup);
      ok = false;
    }
  } else {
    // Two CPU-bound processes cannot overlap on one core; hold the
    // distribution overhead instead of the parallel speedup.
    std::printf("single core: %.1fx speedup gate waived, holding "
                "2-worker overhead under %.2fx\n",
                kMinSpeedup, kMaxSingleCoreOverhead);
    if (arms[1].seconds > kMaxSingleCoreOverhead * arms[0].seconds) {
      std::fprintf(stderr,
                   "FAIL: 2-worker run cost %.2fx the 1-worker run on a "
                   "single core (max %.2fx)\n",
                   arms[1].seconds / arms[0].seconds,
                   kMaxSingleCoreOverhead);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
