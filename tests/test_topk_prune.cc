// Tests for bound-and-prune distributed top-k (src/runtime/sharded_engine
// bound sweep + best-first slot refinement, src/tqtree TQTree::UpperBound):
//   * the raster bound is sound — never below the exact service value —
//     for every tree mode and service model tested;
//   * top-k answers agree bit-for-bit with the library's exhaustive ranking
//     (TopKFacilitiesExhaustiveTQ on one tree over all users) and with the
//     brute-force ranked oracle on NYF for k ∈ {1, 5, 64} ×
//     shards ∈ {1, 2, 4, 8}, including tie-heavy value distributions, and
//     at large k (|F|/2 and |F|) × shards {1, 4, 8};
//   * the protocol actually prunes: facilities_evaluated stays below the
//     facilities × shards exhaustive-sweep count (and below the replaced
//     two-round protocol's count), with the skipped slots accounted in
//     facilities_pruned and one pool task per evaluated slot;
//   * a traced top-k keeps its span count inside the trace budget.
// Runs under ASan+UBSan and TSan in CI (slot tasks hop pool threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "runtime/sharded_engine.h"
#include "service/facility_index.h"
#include "test_util.h"
#include "tqtree/tq_tree.h"

namespace tq {
namespace {

using runtime::MetricsView;
using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;

ShardedEngineOptions Options(size_t shards, const ServiceModel& model,
                             size_t cache_capacity = 0) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 4;
  so.cache_capacity = cache_capacity;
  so.tree.beta = 16;
  so.tree.model = model;
  return so;
}

// The library's exhaustive ranking on one tree over ALL users, with the
// engine's tree parameters: every facility evaluated exactly, then sorted.
// For the integer-valued models used here every per-shard partial sum is
// exact, so the engine's gathered values must equal these bit for bit.
std::vector<RankedFacility> ExhaustiveRanking(const TrajectorySet& users,
                                              const TrajectorySet& facs,
                                              const ShardedEngineOptions& so,
                                              size_t k) {
  TQTree tree(&users, so.tree);
  const ServiceEvaluator eval(&users, so.tree.model);
  const FacilityCatalog catalog(&facs, so.tree.model.psi);
  return TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k).ranked;
}

// Brute-force ranked oracle: every facility's SO over the raw user set,
// ordered by the library's (value desc, id asc) rule.
std::vector<RankedFacility> OracleRanking(const TrajectorySet& users,
                                          const TrajectorySet& facs,
                                          const ServiceModel& model,
                                          size_t k) {
  std::vector<RankedFacility> all(facs.size());
  for (uint32_t f = 0; f < facs.size(); ++f) {
    all[f] = RankedFacility{
        f, testing::BruteForceSO(users, facs.points(f), model)};
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

// ------------------------------------------------------ TQTree::UpperBound

// Soundness: the raster bound may be loose but must never fall below the
// exact value, or pruning would drop answers.
TEST(TQTreeUpperBound, NeverBelowExactServiceValue) {
  Rng rng(97);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 24, 8, w);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    for (const ServiceModel& model :
         {ServiceModel::PointCount(300.0, Normalization::kNone),
          ServiceModel::Endpoints(300.0), ServiceModel::PointCount(150.0)}) {
      TQTreeOptions options;
      options.beta = 16;
      options.mode = mode;
      options.model = model;
      TQTree tree(&users, options);
      const ServiceEvaluator eval(&users, model);
      const FacilityCatalog catalog(&facs, model.psi);
      for (uint32_t f = 0; f < facs.size(); ++f) {
        const double exact =
            EvaluateServiceTQ(&tree, eval, catalog.grid(f), nullptr);
        EXPECT_GE(tree.UpperBound(catalog.grid(f)), exact)
            << "mode=" << static_cast<int>(mode) << " facility=" << f;
      }
    }
  }
}

TEST(TQTreeUpperBound, ZeroBoundForUnreachableFacility) {
  Rng rng(101);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 50, 2, 4, w);
  // A facility whose ψ-disks cannot touch any user point.
  TrajectorySet facs;
  facs.Add(std::vector<Point>{Point{50000, 50000}, Point{50100, 50100}});
  const ServiceModel model = ServiceModel::PointCount(10.0);
  TQTreeOptions options;
  options.model = model;
  TQTree tree(&users, options);
  const FacilityCatalog catalog(&facs, model.psi);
  EXPECT_EQ(tree.UpperBound(catalog.grid(0)), 0.0);
}

// --------------------------------------------------- pruned top-k answers

// The acceptance sweep: on the NYF preset, the pruned protocol must
// reproduce the brute-force ranked oracle (ids, and values to float
// tolerance) and the exhaustive ranking (values bit for bit) at every
// (k, shards) combination.
TEST(TopKPrune, NyfExactAgreementWithBruteForceRanking) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  for (const size_t k : {1u, 5u, 64u}) {
    const std::vector<RankedFacility> oracle =
        OracleRanking(users, routes, model, k);
    const std::vector<RankedFacility> want =
        ExhaustiveRanking(users, routes, Options(1, model), k);
    for (const size_t shards : {1u, 2u, 4u, 8u}) {
      ShardedEngine pruned(users, routes, Options(shards, model));
      const QueryResponse got =
          pruned.Submit(QueryRequest::TopK(k)).get();
      ASSERT_EQ(got.ranked.size(), oracle.size())
          << "k=" << k << " shards=" << shards;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(got.ranked[i].id, oracle[i].id)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        EXPECT_NEAR(got.ranked[i].value, oracle[i].value, 1e-9)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        // Bit-identical to the exhaustive ranking.
        EXPECT_EQ(got.ranked[i].id, want[i].id);
        EXPECT_EQ(got.ranked[i].value, want[i].value);
      }
    }
  }
}

// Tie-heavy distribution: three exact copies of every facility force large
// groups of exactly equal values; pruning near the k-th threshold must not
// disturb the ascending-id tie order, even when k cuts through a tie group.
TEST(TopKPrune, TieHeavyValuesKeepAscendingIdOrder) {
  Rng rng(31);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 5, w);
  const TrajectorySet base = testing::RandomFacilities(&rng, 6, 8, w);
  TrajectorySet facs;
  for (int copy = 0; copy < 3; ++copy) {
    for (uint32_t f = 0; f < base.size(); ++f) facs.Add(base.points(f));
  }
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  // k = 8 lands inside the third tie group (each group has 3 members).
  for (const size_t k : {3u, 8u, 18u}) {
    const std::vector<RankedFacility> oracle =
        OracleRanking(users, facs, model, k);
    for (const size_t shards : {2u, 4u}) {
      ShardedEngine pruned(users, facs, Options(shards, model));
      const QueryResponse got =
          pruned.Submit(QueryRequest::TopK(k)).get();
      ASSERT_EQ(got.ranked.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(got.ranked[i].id, oracle[i].id)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        EXPECT_NEAR(got.ranked[i].value, oracle[i].value, 1e-9);
      }
      for (size_t i = 0; i + 1 < got.ranked.size(); ++i) {
        if (got.ranked[i].value == got.ranked[i + 1].value) {
          EXPECT_LT(got.ranked[i].id, got.ranked[i + 1].id);
        }
      }
    }
  }
}

// ------------------------------------------------------- prune accounting

// The point of the protocol: strictly fewer exact evaluations than the
// exhaustive facilities × shards sweep, with the skipped slots accounted.
TEST(TopKPrune, EvaluatesStrictlyFewerFacilitiesThanExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  constexpr size_t kShards = 4;
  ShardedEngine engine(users, routes, Options(kShards, model));
  (void)engine.Submit(QueryRequest::TopK(10)).get();

  const MetricsView m = engine.metrics().Read();
  const uint64_t slots = static_cast<uint64_t>(routes.size()) * kShards;
  EXPECT_GT(m.facilities_pruned, 0u) << "no facility was ever pruned";
  EXPECT_LT(m.facilities_evaluated, slots)
      << "pruned top-k regressed to the exhaustive sweep";
  EXPECT_EQ(m.facilities_evaluated + m.facilities_pruned, slots);
  // One bound-sweep task per shard, then one task per evaluated slot: no
  // pool task ever runs more than a single exact evaluation, which is what
  // bounds how long a concurrent query's shard tasks can queue behind it.
  EXPECT_EQ(m.shard_tasks, kShards + m.facilities_evaluated);
  // The two-round protocol this replaced evaluated 104 slots on this input;
  // global best-first order must never need more.
  EXPECT_LE(m.facilities_evaluated, 104u);
  // Rounds count the sweep plus the longest chain of dependent slot tasks.
  EXPECT_GE(m.prune_rounds, 2u);
  EXPECT_LE(m.prune_rounds, 1u + m.facilities_evaluated);

  // A degenerate k = 0 request runs no protocol and leaves the prune
  // counters untouched.
  ShardedEngine idle(users, routes, Options(kShards, model));
  (void)idle.Submit(QueryRequest::TopK(0)).get();
  const MetricsView mi = idle.metrics().Read();
  EXPECT_EQ(mi.facilities_evaluated, 0u);
  EXPECT_EQ(mi.facilities_pruned, 0u);
  EXPECT_EQ(mi.prune_rounds, 0u);
}

// A traced pruned top-8 emits a bounded span set — the sweep's queue wait
// and sweep per shard, one coordinate span, at most one refine span per
// shard and the merge — however many slots it evaluated, so it fits in one
// TraceContext without dropping spans.
TEST(TopKPrune, TracedTopKFitsTheSpanBudget) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  constexpr size_t kShards = 8;
  ShardedEngine engine(users, routes, Options(kShards, model));
  auto trace = std::make_shared<runtime::TraceContext>("topk", 8);
  std::promise<QueryResponse> promise;
  engine.SubmitAsync(QueryRequest::TopK(8), trace,
                     [&promise](QueryResponse response) {
                       promise.set_value(std::move(response));
                     });
  const QueryResponse got = promise.get_future().get();
  ASSERT_EQ(got.ranked.size(), 8u);

  const MetricsView m = engine.metrics().Read();
  EXPECT_GT(m.facilities_evaluated, runtime::TraceContext::kMaxSpans)
      << "too few slots to show that a span per slot would overflow";
  EXPECT_EQ(trace->dropped_spans(), 0u);
  size_t sweeps = 0;
  size_t refines = 0;
  for (size_t i = 0; i < trace->num_spans(); ++i) {
    const std::string name = trace->span(i).name;
    sweeps += name == "shard_sweep";
    refines += name == "shard_refine";
  }
  EXPECT_EQ(sweeps, kShards);
  EXPECT_GE(refines, 1u);
  EXPECT_LE(refines, kShards);
}

// Memoised answers and invalidation are protocol-independent: a repeated
// top-k hits the cache without re-running the rounds, and a write batch
// that republishes a contributing shard forces a fresh (still exact) run.
TEST(TopKPrune, CachedAnswerSurvivesAndInvalidatesAcrossWrites) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes,
                       Options(4, model, /*cache_capacity=*/2048));

  const QueryResponse first = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(first.cache_hit);
  const uint64_t evaluated_after_first =
      engine.metrics().Read().facilities_evaluated;
  const QueryResponse second = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_TRUE(second.cache_hit);
  // A memoised hit never re-enters the rounds.
  EXPECT_EQ(engine.metrics().Read().facilities_evaluated,
            evaluated_after_first);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].id, first.ranked[i].id);
    EXPECT_EQ(second.ranked[i].value, first.ranked[i].value);
  }

  runtime::UpdateBatch batch;
  batch.removes = {0};
  engine.ApplyUpdates(batch);
  const QueryResponse third = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(third.cache_hit);

  // Fresh answer agrees with the post-write brute-force oracle.
  TrajectorySet active;
  for (uint32_t u = 1; u < users.size(); ++u) active.Add(users.points(u));
  const std::vector<RankedFacility> oracle =
      OracleRanking(active, routes, model, 5);
  ASSERT_EQ(third.ranked.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(third.ranked[i].id, oracle[i].id) << "rank " << i;
    EXPECT_NEAR(third.ranked[i].value, oracle[i].value, 1e-9);
  }
}

// ------------------------------------------------------------- edge cases

TEST(TopKPrune, DegenerateRequestsStayExact) {
  Rng rng(71);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 5, 6, w);
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  ShardedEngine engine(users, facs, Options(8, model));

  // k = 0: empty answer, no crash.
  EXPECT_TRUE(engine.Submit(QueryRequest::TopK(0)).get().ranked.empty());
  // k > facilities: clamped to the full exact ranking.
  const QueryResponse all = engine.Submit(QueryRequest::TopK(99)).get();
  const std::vector<RankedFacility> oracle =
      OracleRanking(users, facs, model, facs.size());
  ASSERT_EQ(all.ranked.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(all.ranked[i].id, oracle[i].id);
    EXPECT_NEAR(all.ranked[i].value, oracle[i].value, 1e-9);
  }

  // More shards than users (some shards empty) with a tiny k.
  const TrajectorySet few = testing::RandomUsers(&rng, 3, 2, 4, w);
  ShardedEngine sparse(few, facs, Options(8, model));
  const QueryResponse top =
      sparse.Submit(QueryRequest::TopK(2)).get();
  const std::vector<RankedFacility> sparse_oracle =
      OracleRanking(few, facs, model, 2);
  ASSERT_EQ(top.ranked.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(top.ranked[i].id, sparse_oracle[i].id);
    EXPECT_NEAR(top.ranked[i].value, sparse_oracle[i].value, 1e-9);
  }
}

// Segmented trees route top-k through the accumulator-dedup path; the bound
// protocol must stay sound there too (per-unit bounds over-count a
// trajectory that spans many nodes, which only loosens the bound).
TEST(TopKPrune, SegmentedModeAgreesWithExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(24, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngineOptions eo = Options(1, model);
  eo.tree.mode = TrajMode::kSegmented;
  const std::vector<RankedFacility> want =
      ExhaustiveRanking(users, routes, eo, 6);
  for (const size_t shards : {1u, 4u}) {
    ShardedEngineOptions po = Options(shards, model);
    po.tree.mode = TrajMode::kSegmented;
    ShardedEngine pruned(users, routes, po);
    const QueryResponse got = pruned.Submit(QueryRequest::TopK(6)).get();
    ASSERT_EQ(got.ranked.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.ranked[i].id, want[i].id)
          << "shards=" << shards << " rank=" << i;
      EXPECT_EQ(got.ranked[i].value, want[i].value);
    }
  }
}

// ------------------------------------------------------------- large k

// Large k has no protocol of its own: at k = |F|/2 and k = |F| the
// coordinator runs (prune_rounds ≥ 1) and simply settles more facilities,
// and the answer stays bit-identical to the brute-force ranking.
TEST(TopKPrune, LargeKRunsTheCoordinatorAndMatchesBruteForce) {
  const TrajectorySet users = presets::NyfCheckins(900);
  const TrajectorySet routes = presets::NyBusRoutes(32, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  for (const size_t k : {routes.size() / 2, routes.size()}) {
    const std::vector<RankedFacility> oracle =
        OracleRanking(users, routes, model, k);
    for (const size_t shards : {1u, 4u, 8u}) {
      ShardedEngine engine(users, routes, Options(shards, model));
      const QueryResponse got = engine.Submit(QueryRequest::TopK(k)).get();
      EXPECT_GE(engine.metrics().Read().prune_rounds, 1u)
          << "k=" << k << " shards=" << shards;
      ASSERT_EQ(got.ranked.size(), oracle.size())
          << "k=" << k << " shards=" << shards;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(got.ranked[i].id, oracle[i].id)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        EXPECT_EQ(got.ranked[i].value, oracle[i].value)
            << "k=" << k << " shards=" << shards << " rank=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace tq
