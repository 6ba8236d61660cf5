// Tests for the multi-process serving layer: the RemoteShardSet coordinator
// over loopback shard-worker processes (each a ShardedEngine owning a slice
// of the partition behind a NetServer) answers sums and top-k BIT-IDENTICALLY
// to a single-process ShardedEngine over the full partition, for shards
// {2, 4} × workers {1, 2} on the NYF preset; top-k also for workers
// {1, 2, 4} × k from 1 to |F| against the exhaustive ranking, within one
// kBound wave plus at most one refinement wave; updates fan out and keep the
// identity; a worker killed before a query, or failing its refinement wave
// mid-protocol, degrades answers to StatusCode::kUnavailable without hanging;
// and the new wire frame types (kRegister, kHeartbeat, kBound, kStatus)
// round-trip losslessly.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/topk.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"
#include "runtime/trace.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "test_util.h"
#include "tqtree/tq_tree.h"

namespace tq {
namespace {

using net::MessageType;
using net::NetClient;
using net::NetRequest;
using net::NetResponse;
using net::NetServer;
using net::NetServerOptions;
using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::RemoteShardSet;
using runtime::RemoteShardSetOptions;
using runtime::ServingEngine;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::UpdateBatch;

ShardedEngineOptions EngineOptions(size_t shards) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 2;
  so.cache_capacity = 1024;
  so.tree.beta = 16;
  // Integer-valued model: cross-process sums must match bit for bit.
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  return so;
}

/// One in-process "shard-worker process": a slice-owning engine behind the
/// TCP front-end on an ephemeral loopback port.
struct Worker {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<NetServer> server;
  uint16_t port() const { return server->port(); }
};

Worker MakeWorker(const TrajectorySet& users, const TrajectorySet& fac,
                  size_t shards, uint32_t lo, uint32_t hi) {
  ShardedEngineOptions so = EngineOptions(shards);
  so.owned_begin = lo;
  so.owned_end = hi;
  Worker w;
  w.engine = std::make_unique<ShardedEngine>(users, fac, so);
  w.server = std::make_unique<NetServer>(w.engine.get(), NetServerOptions{});
  EXPECT_TRUE(w.server->Start().ok());
  return w;
}

std::vector<Worker> MakeWorkers(const TrajectorySet& users,
                                const TrajectorySet& fac, size_t shards,
                                size_t num_workers) {
  std::vector<Worker> workers;
  const uint32_t per =
      static_cast<uint32_t>(shards) / static_cast<uint32_t>(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    const auto lo = static_cast<uint32_t>(i) * per;
    const uint32_t hi = i + 1 == num_workers
                            ? static_cast<uint32_t>(shards)
                            : lo + per;
    workers.push_back(MakeWorker(users, fac, shards, lo, hi));
  }
  return workers;
}

RemoteShardSetOptions CoordOptions(const std::vector<Worker>& workers) {
  RemoteShardSetOptions ro;
  for (const Worker& w : workers) {
    ro.workers.emplace_back("127.0.0.1", w.port());
  }
  ro.num_threads = 2;
  return ro;
}

/// Synchronous query through any ServingEngine, optionally traced.
QueryResponse RunQuery(ServingEngine& engine, QueryRequest request,
                       runtime::TraceContextPtr trace = nullptr) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  engine.SubmitAsync(
      std::move(request), std::move(trace),
      [&promise](QueryResponse r) { promise.set_value(std::move(r)); }, 0);
  return future.get();
}

void ExpectIdenticalAnswers(ServingEngine& reference, ServingEngine& coord,
                            size_t num_facilities) {
  for (FacilityId f = 0; f < num_facilities; ++f) {
    const QueryResponse want = RunQuery(reference, QueryRequest::ServiceValue(f));
    const QueryResponse got = RunQuery(coord, QueryRequest::ServiceValue(f));
    ASSERT_TRUE(want.status.ok());
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(want.value, got.value) << "facility " << f;
  }
  for (const size_t k : {size_t{1}, size_t{3}, size_t{8}, num_facilities}) {
    const QueryResponse want = RunQuery(reference, QueryRequest::TopK(k));
    const QueryResponse got = RunQuery(coord, QueryRequest::TopK(k));
    ASSERT_TRUE(want.status.ok());
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_EQ(want.ranked.size(), got.ranked.size()) << "k=" << k;
    for (size_t i = 0; i < want.ranked.size(); ++i) {
      EXPECT_EQ(want.ranked[i].id, got.ranked[i].id) << "k=" << k;
      EXPECT_EQ(want.ranked[i].value, got.ranked[i].value) << "k=" << k;
    }
  }
}

// ------------------------------------------------- bit-identity matrix

TEST(Distributed, CoordinatorMatchesSingleProcessMatrixNyf) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet fac = presets::NyBusRoutes(24, 12);
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    ShardedEngine reference(users, fac, EngineOptions(shards));
    for (const size_t num_workers : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(num_workers));
      std::vector<Worker> workers =
          MakeWorkers(users, fac, shards, num_workers);
      RemoteShardSet coord(CoordOptions(workers));
      ASSERT_TRUE(coord.Connect().ok());
      const runtime::EngineInfo info = coord.info();
      EXPECT_EQ(info.num_shards, shards);
      EXPECT_EQ(info.num_facilities, fac.size());
      EXPECT_EQ(info.users_total, users.size());
      ExpectIdenticalAnswers(reference, coord, fac.size());
    }
  }
}

// One protocol from k = 1 up to k = |F|, for 1, 2 and 4 workers: the answer
// equals the single-process engine and the library's exhaustive ranking on
// one tree over all users, bit for bit. Without failures a top-k costs one
// kBound wave plus at most one refinement wave.
TEST(Distributed, TopKProtocolAgreesFromSmallToFullK) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet fac = presets::NyBusRoutes(16, 10);
  const ShardedEngineOptions so = EngineOptions(4);
  ShardedEngine reference(users, fac, so);
  TQTree tree(&users, so.tree);
  const ServiceEvaluator eval(&users, so.tree.model);
  const FacilityCatalog catalog(&fac, so.tree.model.psi);
  for (const size_t num_workers : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<Worker> workers = MakeWorkers(users, fac, 4, num_workers);
    RemoteShardSet coord(CoordOptions(workers));
    ASSERT_TRUE(coord.Connect().ok());
    for (const size_t k : {size_t{1}, size_t{2}, size_t{5}, fac.size() - 1,
                           fac.size()}) {
      SCOPED_TRACE("workers=" + std::to_string(num_workers) +
                   " k=" + std::to_string(k));
      const uint64_t rpcs0 = coord.mutable_metrics()->Read().coord_rpcs;
      auto trace = std::make_shared<runtime::TraceContext>("topk", k);
      const QueryResponse got = RunQuery(coord, QueryRequest::TopK(k), trace);
      const uint64_t rpcs = coord.mutable_metrics()->Read().coord_rpcs - rpcs0;
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_LE(rpcs, 2 * num_workers);
      size_t refine_waves = 0;
      for (size_t i = 0; i < trace->num_spans(); ++i) {
        if (std::string(trace->span(i).name) == "rpc_round2") ++refine_waves;
      }
      EXPECT_LE(refine_waves, 1u);
      const QueryResponse want = RunQuery(reference, QueryRequest::TopK(k));
      const std::vector<RankedFacility> exhaustive =
          TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k).ranked;
      ASSERT_EQ(want.ranked.size(), k);
      ASSERT_EQ(exhaustive.size(), k);
      ASSERT_EQ(got.ranked.size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(want.ranked[i].id, got.ranked[i].id) << "rank " << i;
        EXPECT_EQ(want.ranked[i].value, got.ranked[i].value) << "rank " << i;
        EXPECT_EQ(exhaustive[i].id, got.ranked[i].id) << "rank " << i;
        EXPECT_EQ(exhaustive[i].value, got.ranked[i].value) << "rank " << i;
      }
    }
  }
}

// ------------------------------------------------------ update fan-out

TEST(Distributed, UpdateFanOutKeepsBitIdentity) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet fac = presets::NyBusRoutes(12, 10);
  ShardedEngine reference(users, fac, EngineOptions(4));
  std::vector<Worker> workers = MakeWorkers(users, fac, 4, 2);
  RemoteShardSet coord(CoordOptions(workers));
  ASSERT_TRUE(coord.Connect().ok());

  UpdateBatch batch;
  for (uint32_t id = 0; id < 5; ++id) {
    const auto pts = users.points(id);
    batch.inserts.emplace_back(pts.begin(), pts.end());
    batch.removes.push_back(id);
  }
  const std::vector<uint32_t> want_ids = reference.ApplyUpdates(batch);
  const std::vector<uint32_t> got_ids = coord.ApplyUpdates(batch);
  EXPECT_EQ(want_ids, got_ids);
  EXPECT_EQ(coord.info().users_total, users.size() + batch.inserts.size());
  EXPECT_GE(coord.snapshot_version(), 2u);
  ExpectIdenticalAnswers(reference, coord, fac.size());
}

// ------------------------------------------------------- failure paths

TEST(Distributed, WorkerDeathDegradesWithoutHanging) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet fac = presets::NyBusRoutes(12, 10);
  std::vector<Worker> workers = MakeWorkers(users, fac, 4, 2);
  RemoteShardSet coord(CoordOptions(workers));
  ASSERT_TRUE(coord.Connect().ok());
  ASSERT_TRUE(RunQuery(coord, QueryRequest::ServiceValue(0)).status.ok());

  workers[1].server->Stop();  // the "SIGKILL": every socket drops

  // Queries keep answering from the survivor, marked partial. The surviving
  // worker owns shards [0, 2) of 4, so the partial value is exactly its
  // local engine's answer.
  const QueryResponse sum = RunQuery(coord, QueryRequest::ServiceValue(3));
  EXPECT_EQ(sum.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sum.value,
            RunQuery(*workers[0].engine, QueryRequest::ServiceValue(3)).value);

  const QueryResponse topk = RunQuery(coord, QueryRequest::TopK(5));
  EXPECT_EQ(topk.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(topk.ranked.size(), 5u);

  const auto m = coord.mutable_metrics()->Read();
  EXPECT_EQ(m.worker_failures, 1u);
  EXPECT_GE(m.coord_partial, 2u);

  const auto status = coord.Workers();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].state, 1u);  // alive
  EXPECT_EQ(status[1].state, 2u);  // dead
}

/// A shard worker that answers the kBound sweep normally but fails every
/// sum query: seen from the coordinator it dies in the middle of a top-k,
/// at the refinement wave. Everything else is forwarded to `inner`.
class FailingSumsEngine : public ServingEngine {
 public:
  explicit FailingSumsEngine(ShardedEngine* inner) : inner_(inner) {}

  runtime::MetricsRegistry* mutable_metrics() override {
    return inner_->mutable_metrics();
  }
  const runtime::Tracer& tracer() const override { return inner_->tracer(); }
  runtime::Tracer* mutable_tracer() override {
    return inner_->mutable_tracer();
  }
  double psi() const override { return inner_->psi(); }
  uint64_t snapshot_version() const override {
    return inner_->snapshot_version();
  }
  std::vector<uint64_t> shard_generations() const override {
    return inner_->shard_generations();
  }
  runtime::EngineInfo info() const override { return inner_->info(); }
  void SubmitAsync(QueryRequest request, runtime::TraceContextPtr trace,
                   ResponseCallback done, uint64_t start_ns) override {
    if (request.kind == runtime::QueryKind::kServiceValue) {
      QueryResponse failed;
      failed.status = Status::Internal("injected sum failure");
      done(std::move(failed));
      return;
    }
    inner_->SubmitAsync(std::move(request), std::move(trace), std::move(done),
                        start_ns);
  }
  std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) override {
    return inner_->ApplyUpdates(batch);
  }
  void TopKBoundSweepAsync(size_t k, BoundSweepCallback done) override {
    inner_->TopKBoundSweepAsync(k, std::move(done));
  }

 private:
  ShardedEngine* inner_;
};

// A worker that answers round 1 and then fails its refinement kSum is
// dropped mid-protocol: the next pass runs over the survivor alone, so the
// partial answer is exactly the survivor's own top-k.
TEST(Distributed, WorkerDeathMidRefinementDegradesToSurvivor) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet fac = presets::NyBusRoutes(16, 10);
  Worker healthy = MakeWorker(users, fac, 4, 0, 2);
  ShardedEngineOptions so = EngineOptions(4);
  so.owned_begin = 2;
  so.owned_end = 4;
  ShardedEngine inner(users, fac, so);
  FailingSumsEngine failing(&inner);
  NetServer failing_server(&failing, NetServerOptions{});
  ASSERT_TRUE(failing_server.Start().ok());

  RemoteShardSetOptions ro;
  ro.workers.emplace_back("127.0.0.1", healthy.port());
  ro.workers.emplace_back("127.0.0.1", failing_server.port());
  ro.num_threads = 2;
  RemoteShardSet coord(ro);
  ASSERT_TRUE(coord.Connect().ok());

  const size_t k = 5;
  const QueryResponse got = RunQuery(coord, QueryRequest::TopK(k));
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable);
  const QueryResponse want = RunQuery(*healthy.engine, QueryRequest::TopK(k));
  ASSERT_TRUE(want.status.ok());
  ASSERT_EQ(got.ranked.size(), k);
  ASSERT_EQ(want.ranked.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(want.ranked[i].id, got.ranked[i].id) << "rank " << i;
    EXPECT_EQ(want.ranked[i].value, got.ranked[i].value) << "rank " << i;
  }
  // The failure came from the refinement wave: round 1 reached both.
  EXPECT_EQ(coord.mutable_metrics()->Read().worker_failures, 1u);
  const auto status = coord.Workers();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].state, 1u);  // alive
  EXPECT_EQ(status[1].state, 2u);  // dead
}

TEST(Distributed, ConnectRejectsBadGeometry) {
  const TrajectorySet users = presets::NyfCheckins(300);
  const TrajectorySet fac = presets::NyBusRoutes(8, 8);
  // Workers from DIFFERENT partitions (4-way vs 2-way) must not compose.
  Worker a = MakeWorker(users, fac, 4, 0, 2);
  Worker b = MakeWorker(users, fac, 2, 1, 2);
  {
    RemoteShardSetOptions ro;
    ro.workers.emplace_back("127.0.0.1", a.port());
    ro.workers.emplace_back("127.0.0.1", b.port());
    RemoteShardSet coord(ro);
    EXPECT_FALSE(coord.Connect().ok());
  }
  // A gap in the tiling ([0,2) + [3,4)) must be refused too.
  Worker c = MakeWorker(users, fac, 4, 3, 4);
  {
    RemoteShardSetOptions ro;
    ro.workers.emplace_back("127.0.0.1", a.port());
    ro.workers.emplace_back("127.0.0.1", c.port());
    RemoteShardSet coord(ro);
    EXPECT_FALSE(coord.Connect().ok());
  }
}

// -------------------------------------------------- wire frame round-trips

TEST(DistributedProtocol, NewRequestTypesRoundTrip) {
  for (const NetRequest& original :
       {NetRequest::Register(), NetRequest::Heartbeat(77),
        NetRequest::Bound(9), NetRequest::ClusterStatus()}) {
    std::string wire;
    EncodeRequest(original, &wire);
    NetRequest decoded;
    ASSERT_TRUE(
        DecodeRequest(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.bound_k, original.bound_k);
    EXPECT_EQ(decoded.heartbeat_seq, original.heartbeat_seq);
  }
}

TEST(DistributedProtocol, StatusAndBoundResponsesRoundTrip) {
  NetResponse status;
  status.type = MessageType::kStatus;
  status.snapshot_version = 7;
  status.worker_info = {4, 0, 4, 200.0, 32, 2000};
  net::WireWorkerStatus row;
  row.address = "127.0.0.1:7102";
  row.state = 1;
  row.owned_begin = 0;
  row.owned_end = 2;
  row.heartbeats = 12;
  row.failures = 1;
  row.age_ms = 450;
  row.rtt_count = 99;
  row.rtt_p50_ns = 120'000;
  row.rtt_p99_ns = 4'000'000;
  status.workers.push_back(row);
  std::string wire;
  EncodeResponse(status, &wire);
  NetResponse decoded;
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kStatus);
  EXPECT_EQ(decoded.worker_info.num_shards, 4u);
  EXPECT_EQ(decoded.worker_info.users_total, 2000u);
  ASSERT_EQ(decoded.workers.size(), 1u);
  EXPECT_EQ(decoded.workers[0].address, row.address);
  EXPECT_EQ(decoded.workers[0].state, row.state);
  EXPECT_EQ(decoded.workers[0].heartbeats, row.heartbeats);
  EXPECT_EQ(decoded.workers[0].rtt_p99_ns, row.rtt_p99_ns);

  NetResponse bound;
  bound.type = MessageType::kBound;
  bound.snapshot_version = 3;
  bound.bounds = {1.5, 0.0, 2.25};
  bound.bound_exacts = {{1, 0.0}, {2, 2.0}};
  wire.clear();
  EncodeResponse(bound, &wire);
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kBound);
  EXPECT_EQ(decoded.bounds, bound.bounds);
  EXPECT_EQ(decoded.bound_exacts, bound.bound_exacts);
}

// A live worker answers kRegister / kHeartbeat / kBound / kStatus frames
// consistently with its engine.
TEST(DistributedProtocol, WorkerServesIdentityFrames) {
  const TrajectorySet users = presets::NyfCheckins(400);
  const TrajectorySet fac = presets::NyBusRoutes(8, 8);
  Worker w = MakeWorker(users, fac, 4, 1, 3);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", w.port()).ok());

  NetResponse reg;
  ASSERT_TRUE(client.Register(&reg).ok());
  ASSERT_TRUE(reg.status.ok());
  EXPECT_EQ(reg.worker_info.num_shards, 4u);
  EXPECT_EQ(reg.worker_info.owned_begin, 1u);
  EXPECT_EQ(reg.worker_info.owned_end, 3u);
  EXPECT_EQ(reg.worker_info.num_facilities, fac.size());
  EXPECT_EQ(reg.worker_info.users_total, users.size());

  NetResponse hb;
  ASSERT_TRUE(client.Heartbeat(4242, &hb).ok());
  ASSERT_TRUE(hb.status.ok());
  EXPECT_EQ(hb.heartbeat_seq, 4242u);

  NetResponse bound;
  ASSERT_TRUE(client.Bound(3, &bound).ok());
  ASSERT_TRUE(bound.status.ok());
  ASSERT_EQ(bound.bounds.size(), fac.size());
  // Every settled exact must respect its own bound.
  for (const auto& [f, exact] : bound.bound_exacts) {
    ASSERT_LT(f, fac.size());
    EXPECT_LE(exact, bound.bounds[f]);
  }

  NetResponse status;
  ASSERT_TRUE(client.ClusterStatus(&status).ok());
  ASSERT_TRUE(status.status.ok());
  EXPECT_EQ(status.worker_info.owned_begin, 1u);
  EXPECT_TRUE(status.workers.empty());  // workers have no table
}

}  // namespace
}  // namespace tq
