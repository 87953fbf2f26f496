// Tests for the distributed scatter-gather subsystem (src/dist): the
// ISSUE 9 acceptance contract. Real worker surfd instances (in-process
// HttpServer + SurfHandler on loopback ports) serve POST
// /v1/shards:evaluate; a coordinator-side ClusterEvaluator scatters
// shard groups at 1/2/4 workers and must label every statistic kind
// bit-identically to the in-process single-node `shards = N` evaluator.
// Fault paths covered here: worker death mid-fleet (shard-group
// re-homing, degraded provenance), dataset fingerprint mismatch (412,
// non-retriable), and mid-scatter cancellation (empty-prefix contract,
// connections released for the next batch).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/sharded.h"
#include "dist/cluster_evaluator.h"
#include "dist/http_client.h"
#include "dist/worker_pool.h"
#include "dist/wire.h"
#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/fingerprint.h"
#include "serve/mining_service.h"
#include "stats/sharded_evaluator.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace surf {
namespace {

/// Random dataset over [0,1]^d with a Gaussian value column and a binary
/// label. Values are deliberately non-integer: floating-point addition is
/// then non-associative, so bit-identity across the cluster only holds if
/// the coordinator's gather replays the exact in-process merge fold.
Dataset MakeData(size_t n, size_t d, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < d; ++j) names.push_back("a" + std::to_string(j));
  names.push_back("v");
  names.push_back("label");
  Dataset ds(names);
  Rng rng(seed);
  std::vector<double> row(d + 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    row[d] = rng.Gaussian(1.0, 2.0);
    row[d + 1] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    ds.AddRow(row);
  }
  return ds;
}

Statistic MakeStatistic(int kind, size_t d) {
  std::vector<size_t> cols;
  for (size_t j = 0; j < d; ++j) cols.push_back(j);
  switch (kind) {
    case 0: return Statistic::Count(cols);
    case 1: return Statistic::Average(cols, d);
    case 2: return Statistic::Sum(cols, d);
    case 3: return Statistic::MedianOf(cols, d);
    case 4: return Statistic::VarianceOf(cols, d);
    default: return Statistic::LabelRatio(cols, d + 1, 1.0);
  }
}

std::vector<Region> RandomQueries(size_t count, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Region> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.05, 0.45);
    }
    queries.emplace_back(center, half);
  }
  return queries;
}

/// Bitwise double equality with NaN == NaN.
void ExpectSameBits(double expected, double actual, const std::string& what) {
  uint64_t eb, ab;
  std::memcpy(&eb, &expected, sizeof(eb));
  std::memcpy(&ab, &actual, sizeof(ab));
  EXPECT_EQ(eb, ab) << what << ": " << expected << " vs " << actual;
}

/// One in-process worker: MiningService + SurfHandler + HttpServer on an
/// ephemeral loopback port, with the shared dataset registered.
struct Worker {
  explicit Worker(const Dataset& data) {
    service = std::make_unique<MiningService>();
    EXPECT_TRUE(service->RegisterDataset("trips", data).ok());
    metrics = std::make_unique<ServerMetrics>();
    handler = std::make_unique<SurfHandler>(service.get(), metrics.get());
    HttpServer::Options options;
    options.port = 0;
    server = std::make_unique<HttpServer>(options, handler->AsHttpHandler());
    EXPECT_TRUE(server->Start().ok());
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  std::unique_ptr<MiningService> service;
  std::unique_ptr<ServerMetrics> metrics;
  std::unique_ptr<SurfHandler> handler;
  std::unique_ptr<HttpServer> server;
};

/// A fleet of `n` workers over one dataset, plus the coordinator pool
/// and the thread pool its scatters overlap on.
struct Fleet {
  Fleet(const Dataset& data, size_t n) : scatter(n) {
    for (size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>(data));
    }
    std::vector<std::string> endpoints;
    for (const auto& w : workers) endpoints.push_back(w->endpoint());
    pool = std::make_unique<dist::WorkerPool>(endpoints,
                                              /*rpc_timeout_seconds=*/30.0);
    EXPECT_TRUE(pool->status().ok()) << pool->status().ToString();
  }

  std::vector<std::unique_ptr<Worker>> workers;
  std::unique_ptr<dist::WorkerPool> pool;
  ThreadPool scatter;
};

/// The single-node reference: the exact evaluator MakeEvaluator builds
/// for `backend = sharded, shards = N` (range-partitioned on the first
/// box column, single-threaded merge fold).
ShardedScanEvaluator SingleNodeReference(const Dataset& data,
                                         const Statistic& stat,
                                         size_t num_shards) {
  ShardingOptions options;
  options.num_shards = num_shards;
  options.order_by = static_cast<int>(stat.region_cols.front());
  options.columns = stat.region_cols;
  if (stat.needs_value_column()) {
    options.columns.push_back(static_cast<size_t>(stat.value_col));
  }
  return ShardedScanEvaluator(ShardedDataset::Partition(data, options), stat);
}

// ----------------------------------------------------------- bit identity

TEST(ClusterEvaluatorTest, MatchesSingleNodeBitIdenticallyAcrossFleetSizes) {
  const size_t d = 2;
  const Dataset data = MakeData(4000, d, 11);
  const uint64_t fingerprint = FingerprintDataset(data);
  const std::vector<Region> queries = RandomQueries(12, d, 21);
  const size_t num_shards = 8;

  for (size_t fleet_size : {1u, 2u, 4u}) {
    Fleet fleet(data, fleet_size);
    for (int kind = 0; kind < 6; ++kind) {
      const Statistic stat = MakeStatistic(kind, d);
      dist::ClusterEvaluator::Options options;
      options.dataset = "trips";
      options.fingerprint = fingerprint;
      options.num_shards = num_shards;
      dist::ClusterEvaluator cluster(fleet.pool.get(), stat, options,
                                     &fleet.scatter);
      const ShardedScanEvaluator reference =
          SingleNodeReference(data, stat, num_shards);

      const std::vector<double> expected =
          reference.EvaluateBatch(queries, CancelToken());
      const std::vector<double> actual =
          cluster.EvaluateBatch(queries, CancelToken());

      ASSERT_EQ(actual.size(), expected.size());
      for (size_t q = 0; q < expected.size(); ++q) {
        ExpectSameBits(expected[q], actual[q],
                       StatisticKindName(stat.kind) + " @ " +
                           std::to_string(fleet_size) + " workers, query " +
                           std::to_string(q));
      }
      EXPECT_FALSE(cluster.degraded())
          << "clean fleet must not degrade: " << cluster.degraded_reason();
    }
    EXPECT_EQ(fleet.pool->shard_retries(), 0u);
  }
}

TEST(ClusterEvaluatorTest, DefaultShardCountIsOneSlabPerWorker) {
  const size_t d = 2;
  const Dataset data = MakeData(1500, d, 5);
  Fleet fleet(data, 3);
  const Statistic stat = MakeStatistic(1, d);
  dist::ClusterEvaluator::Options options;
  options.dataset = "trips";
  options.num_shards = 0;  // default: one shard per worker
  dist::ClusterEvaluator cluster(fleet.pool.get(), stat, options,
                                 &fleet.scatter);
  EXPECT_EQ(cluster.num_shards(), 3u);

  const std::vector<Region> queries = RandomQueries(6, d, 6);
  const ShardedScanEvaluator reference = SingleNodeReference(data, stat, 3);
  const std::vector<double> expected =
      reference.EvaluateBatch(queries, CancelToken());
  const std::vector<double> actual =
      cluster.EvaluateBatch(queries, CancelToken());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ExpectSameBits(expected[q], actual[q], "query " + std::to_string(q));
  }
}

TEST(ShardEvaluateEndpointTest, NaturalOrderPartitionMatchesSingleNode) {
  // The wire supports order_by = -1 (natural row order). Drive the
  // worker endpoint directly with a natural-order spec and fold the
  // returned partials ascending: the result must be bit-identical to the
  // in-process natural-order sharded evaluator.
  const size_t d = 2;
  const Dataset data = MakeData(2000, d, 17);
  Worker worker(data);
  const std::vector<Region> queries = RandomQueries(8, d, 18);
  const size_t num_shards = 4;

  for (int kind = 0; kind < 6; ++kind) {
    const Statistic stat = MakeStatistic(kind, d);
    dist::ShardEvaluateRequest request;
    request.dataset = "trips";
    request.statistic = stat;
    request.num_shards = num_shards;
    request.order_by = -1;  // natural
    request.columns = stat.region_cols;
    if (stat.needs_value_column()) {
      request.columns.push_back(static_cast<size_t>(stat.value_col));
    }
    for (size_t s = 0; s < num_shards; ++s) request.shards.push_back(s);
    request.queries = queries;

    auto reply = dist::HttpPost(
        "127.0.0.1", worker.server->port(), "/v1/shards:evaluate",
        WriteJson(ShardEvaluateRequestToJson(request)), 30.0, CancelToken());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->status_code, 200) << reply->body;
    auto doc = ParseJson(reply->body);
    ASSERT_TRUE(doc.ok());
    auto response = ShardEvaluateResponseFromJson(*doc, stat);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->partials.size(), queries.size());

    ShardingOptions options;
    options.num_shards = num_shards;
    options.order_by = -1;
    options.columns = request.columns;
    const ShardedScanEvaluator reference(
        ShardedDataset::Partition(data, options), stat);
    const std::vector<double> expected =
        reference.EvaluateBatch(queries, CancelToken());

    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(response->partials[q].size(), num_shards);
      StatisticAccumulator merged = response->partials[q][0];
      for (size_t s = 1; s < num_shards; ++s) {
        merged.Merge(response->partials[q][s]);
      }
      ExpectSameBits(expected[q], merged.Finalize(),
                     StatisticKindName(stat.kind) + " natural query " +
                         std::to_string(q));
    }
  }
}

// -------------------------------------------------------- fault tolerance

TEST(ClusterEvaluatorTest, ReHomesShardGroupsWhenAWorkerDies) {
  const size_t d = 2;
  const Dataset data = MakeData(2500, d, 33);
  Fleet fleet(data, 2);
  const Statistic stat = MakeStatistic(4, d);  // variance: float-sensitive
  dist::ClusterEvaluator::Options options;
  options.dataset = "trips";
  options.num_shards = 4;
  dist::ClusterEvaluator cluster(fleet.pool.get(), stat, options,
                                 &fleet.scatter);
  const std::vector<Region> queries = RandomQueries(8, d, 34);
  const ShardedScanEvaluator reference = SingleNodeReference(data, stat, 4);
  const std::vector<double> expected =
      reference.EvaluateBatch(queries, CancelToken());

  // Kill worker 1 (its port stays dark: connection refused).
  fleet.workers[1]->server->Shutdown();

  const std::vector<double> actual =
      cluster.EvaluateBatch(queries, CancelToken());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ExpectSameBits(expected[q], actual[q],
                   "re-homed query " + std::to_string(q));
  }
  // The re-home degraded the evaluation but changed no bits.
  EXPECT_TRUE(cluster.degraded());
  EXPECT_NE(cluster.degraded_reason().find("re-homed"), std::string::npos)
      << cluster.degraded_reason();
  EXPECT_GE(fleet.pool->shard_retries(), 1u);
  EXPECT_FALSE(fleet.pool->healthy(1));
  EXPECT_TRUE(fleet.pool->healthy(0));
}

TEST(ClusterEvaluatorTest, FingerprintMismatchYieldsNaNWithoutRetryStorm) {
  // A worker holding a same-named but different dataset answers 412
  // (FailedPrecondition) — non-retriable, so the group fails cleanly to
  // NaN labels instead of hammering the worker.
  const size_t d = 2;
  const Dataset data = MakeData(800, d, 44);
  Fleet fleet(data, 1);
  const Statistic stat = MakeStatistic(0, d);
  dist::ClusterEvaluator::Options options;
  options.dataset = "trips";
  options.fingerprint = 0x1234;  // wrong on purpose
  dist::ClusterEvaluator cluster(fleet.pool.get(), stat, options,
                                 &fleet.scatter);

  const std::vector<Region> queries = RandomQueries(3, d, 45);
  const std::vector<double> labels =
      cluster.EvaluateBatch(queries, CancelToken());
  ASSERT_EQ(labels.size(), queries.size());
  for (double label : labels) EXPECT_TRUE(std::isnan(label));
  EXPECT_TRUE(cluster.degraded());
  EXPECT_EQ(fleet.pool->shard_retries(), 0u)
      << "FailedPrecondition must not be retried";
}

TEST(ClusterEvaluatorTest, MidScatterCancellationReleasesWorkers) {
  const size_t d = 2;
  const Dataset data = MakeData(2000, d, 55);
  Fleet fleet(data, 2);
  const Statistic stat = MakeStatistic(2, d);
  dist::ClusterEvaluator::Options options;
  options.dataset = "trips";
  options.num_shards = 4;
  dist::ClusterEvaluator cluster(fleet.pool.get(), stat, options,
                                 &fleet.scatter);
  const std::vector<Region> queries = RandomQueries(8, d, 56);

  // Stall every group's RPC long enough for the deadline to fire while
  // the scatter is in flight.
  ASSERT_TRUE(
      FailpointRegistry::Global().Set("dist.shard_rpc", "delay:300").ok());
  CancelSource source;
  source.SetDeadline(0.1);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<double> cancelled =
      cluster.EvaluateBatch(queries, source.token());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  FailpointRegistry::Global().Clear("dist.shard_rpc");

  // Empty-prefix contract: no label survives a fired token.
  EXPECT_TRUE(cancelled.empty());
  // The cancel unwound promptly — no socket or retry-backoff hang.
  EXPECT_LT(elapsed, 5.0);

  // Connections were released: the very next batch (fresh token) labels
  // every query, bit-identical to single-node.
  const ShardedScanEvaluator reference = SingleNodeReference(data, stat, 4);
  const std::vector<double> expected =
      reference.EvaluateBatch(queries, CancelToken());
  const std::vector<double> actual =
      cluster.EvaluateBatch(queries, CancelToken());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ExpectSameBits(expected[q], actual[q],
                   "post-cancel query " + std::to_string(q));
  }
}

TEST(ShardEvaluateEndpointTest, RejectsUnknownDatasetAndBadShards) {
  const size_t d = 2;
  const Dataset data = MakeData(300, d, 66);
  Worker worker(data);
  const Statistic stat = MakeStatistic(0, d);

  dist::ShardEvaluateRequest request;
  request.dataset = "nope";
  request.statistic = stat;
  request.num_shards = 2;
  request.order_by = 0;
  request.columns = stat.region_cols;
  request.shards = {0, 1};
  request.queries = RandomQueries(1, d, 67);
  auto missing = dist::HttpPost(
      "127.0.0.1", worker.server->port(), "/v1/shards:evaluate",
      WriteJson(ShardEvaluateRequestToJson(request)), 10.0, CancelToken());
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->status_code, 404);

  request.dataset = "trips";
  request.columns = {0, 1, 99};  // column out of range
  auto bad_col = dist::HttpPost(
      "127.0.0.1", worker.server->port(), "/v1/shards:evaluate",
      WriteJson(ShardEvaluateRequestToJson(request)), 10.0, CancelToken());
  ASSERT_TRUE(bad_col.ok()) << bad_col.status().ToString();
  EXPECT_EQ(bad_col->status_code, 400);
}

}  // namespace
}  // namespace surf
