// Persistent path-copying snapshot tests (tqtree page store + runtime
// integration):
//   * publish cost — a single-trajectory ApplyUpdates on a 1-shard engine
//     over the NYF preset must path-copy, not clone: < 5% of tree nodes duplicated (the
//     acceptance bar), most pages still shared with the old snapshot;
//   * snapshot immutability — after K random write batches, every retained
//     older snapshot still answers a fixed query set byte-identically to
//     its recorded answers, and the newest snapshot matches a from-scratch
//     TQTree oracle bit-for-bit (integer-valued model); a frozen tree's
//     top-k bounds survive a fork's writes bit for bit (raster
//     copy-on-write);
//   * sharded equivalence — N-shard forked publishes stay bit-identical to
//     an unsharded from-scratch build for N ∈ {1, 2, 4, 8};
//   * the top-k section of ResultCache: memoisation keyed by (k, ψ,
//     generation vector), per-shard invalidation, engine integration.
// Run under -fsanitize=address and -fsanitize=thread in CI: page sharing
// across snapshots is exactly where lifetime and data-race bugs would live.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "runtime/result_cache.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ResultCache;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::UpdateBatch;

// ------------------------------------------------------------ publish cost

// The acceptance criterion: publishing a single-trajectory update on the
// NYF preset copies < 5% of the tree's nodes. A full clone would copy 100%.
// Segmented mode is the write-heavy configuration: NYF's multipoint
// check-ins have city-wide MBRs that pile up as shallow inter-node lists
// when stored whole, while per-segment units build the deep tree the paper's
// dynamic-update section (§III-C) targets.
TEST(ForkPublishCost, SingleTrajectoryNyfPublishCopiesUnder5PercentOfNodes) {
  const TrajectorySet users = presets::NyfCheckins(20000);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.tree.beta = 16;
  options.tree.mode = TrajMode::kSegmented;
  options.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes, options);

  const size_t total_nodes = engine.snapshot()->shards[0]->tree->num_nodes();
  ASSERT_GT(total_nodes, 500u) << "preset too small to be meaningful";

  const std::vector<Point> traj{
      Point{1000.0, 1000.0}, Point{1200.0, 1150.0}, Point{1400.0, 1300.0}};
  UpdateBatch batch;
  batch.inserts.push_back(traj);
  engine.ApplyUpdates(batch);

  const runtime::MetricsView m = engine.metrics().Read();
  EXPECT_GT(m.nodes_copied, 0u);
  EXPECT_LT(m.nodes_copied, total_nodes / 20)
      << "single-trajectory publish copied " << m.nodes_copied << " of "
      << total_nodes << " nodes — copy-on-write regressed toward full clone";
  EXPECT_GT(m.pages_shared, 0u);
  EXPECT_GT(m.publish_ns, 0u);

  // The published fork answers like a from-scratch build over the extended
  // set (integer-valued model: bit-identical).
  TrajectorySet extended = users;
  extended.Add(traj);
  TQTree oracle(&extended, options.tree);
  const ServiceEvaluator eval(&extended, options.tree.model);
  const FacilityCatalog catalog(&routes, options.tree.model.psi);
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const QueryResponse r =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_EQ(r.value, EvaluateServiceTQ(&oracle, eval, catalog.grid(f)))
        << "facility " << f;
  }
}

// ------------------------------------------------------- immutability

// Property test: K random ApplyUpdates batches; every retained snapshot
// must keep answering the fixed query set byte-identically to the answers
// recorded when it was current, and the newest snapshot must match a fresh
// from-scratch TQTree oracle bit-for-bit.
TEST(SnapshotImmutability, RetainedSnapshotsAnswerByteIdenticallyAfterKBatches) {
  constexpr size_t kBatches = 8;
  Rng rng(1234);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 400, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 4;
  options.tree.beta = 16;
  options.tree.model = ServiceModel::PointCount(300.0, Normalization::kNone);
  ShardedEngine engine(base, facs, options);

  // One shard: its state is the whole user set, and global ids are its
  // local ids.
  struct Recorded {
    runtime::ShardedSnapshotPtr snap;
    std::vector<double> values;              // per facility
    std::vector<RankedFacility> topk;
  };
  const auto record = [&](const runtime::ShardedSnapshotPtr& snap) {
    Recorded r;
    r.snap = snap;
    const runtime::ShardState& shard = *snap->shards[0];
    for (uint32_t f = 0; f < snap->catalog->size(); ++f) {
      r.values.push_back(EvaluateServiceTQ(shard.tree.get(), *shard.eval,
                                           snap->catalog->grid(f)));
    }
    r.topk =
        TopKFacilitiesTQ(shard.tree.get(), *snap->catalog, *shard.eval, 5)
            .ranked;
    return r;
  };

  std::vector<Recorded> retained;
  retained.push_back(record(engine.snapshot()));
  std::vector<bool> active(base.size(), true);  // by global id
  size_t total_users = base.size();
  for (size_t b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    const size_t num_inserts = 1 + rng.NextBelow(12);
    const TrajectorySet extra =
        testing::RandomUsers(&rng, num_inserts, 2, 6, w);
    for (uint32_t t = 0; t < extra.size(); ++t) {
      const auto pts = extra.points(t);
      batch.inserts.emplace_back(pts.begin(), pts.end());
    }
    for (int attempts = 0; attempts < 3; ++attempts) {
      const auto victim =
          static_cast<uint32_t>(rng.NextBelow(total_users));
      if (active[victim]) {
        active[victim] = false;
        batch.removes.push_back(victim);
      }
    }
    engine.ApplyUpdates(batch);
    total_users += num_inserts;
    active.resize(total_users, true);
    retained.push_back(record(engine.snapshot()));
  }

  // Every retained snapshot — including ones forked from many times —
  // re-answers exactly. == on doubles: byte-identical modulo ±0, which
  // cannot arise from non-negative sums.
  for (size_t i = 0; i < retained.size(); ++i) {
    const Recorded& r = retained[i];
    const runtime::ShardState& shard = *r.snap->shards[0];
    EXPECT_EQ(r.snap->version, i + 1);
    for (uint32_t f = 0; f < r.snap->catalog->size(); ++f) {
      EXPECT_EQ(EvaluateServiceTQ(shard.tree.get(), *shard.eval,
                                  r.snap->catalog->grid(f)),
                r.values[f])
          << "version " << r.snap->version << " facility " << f;
    }
    const std::vector<RankedFacility> again =
        TopKFacilitiesTQ(shard.tree.get(), *r.snap->catalog, *shard.eval, 5)
            .ranked;
    ASSERT_EQ(again.size(), r.topk.size());
    for (size_t j = 0; j < again.size(); ++j) {
      EXPECT_EQ(again[j].id, r.topk[j].id);
      EXPECT_EQ(again[j].value, r.topk[j].value);
    }
  }

  // Newest snapshot vs from-scratch oracle over the surviving users
  // (integer-valued model ⇒ the different summation order cannot matter).
  const runtime::ShardedSnapshotPtr newest = engine.snapshot();
  const runtime::ShardState& newest_shard = *newest->shards[0];
  TrajectorySet survivors;
  for (uint32_t u = 0; u < total_users; ++u) {
    if (active[u]) survivors.Add(newest_shard.users->points(u));
  }
  TQTree oracle(&survivors, options.tree);
  const ServiceEvaluator oracle_eval(&survivors, options.tree.model);
  for (uint32_t f = 0; f < newest->catalog->size(); ++f) {
    EXPECT_EQ(EvaluateServiceTQ(newest_shard.tree.get(), *newest_shard.eval,
                                newest->catalog->grid(f)),
              EvaluateServiceTQ(&oracle, oracle_eval,
                                newest->catalog->grid(f)))
        << "facility " << f;
  }
}

// A retained snapshot's bound raster is copy-on-write across Fork(): the
// fork's removes, inserts and refreeze must leave every bound of the frozen
// parent bit-identical to what it answered before the fork, or a retained
// snapshot's top-k would prune against mass it no longer holds.
TEST(SnapshotImmutability, RetainedTreeBoundsUnchangedByForkWrites) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(16, 16);
  TQTreeOptions opt;
  opt.beta = 16;
  opt.model = ServiceModel::PointCount(300.0, Normalization::kNone);
  TQTree parent(&users, opt);
  parent.BuildAllZIndexes();
  const FacilityCatalog catalog(&routes, opt.model.psi);
  std::vector<uint64_t> before;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    before.push_back(
        std::bit_cast<uint64_t>(parent.UpperBound(catalog.grid(f))));
  }

  std::unique_ptr<TQTree> fork = parent.Fork(&users);
  for (uint32_t u = 0; u < 200; ++u) ASSERT_TRUE(fork->Remove(u));
  for (uint32_t u = 0; u < 50; ++u) fork->Insert(u);
  fork->BuildAllZIndexes();

  size_t fork_moved = 0;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    EXPECT_EQ(std::bit_cast<uint64_t>(parent.UpperBound(catalog.grid(f))),
              before[f])
        << "facility " << f;
    if (std::bit_cast<uint64_t>(fork->UpperBound(catalog.grid(f))) !=
        before[f]) {
      ++fork_moved;
    }
  }
  // The writes reached the fork's own bounds, so the check above is not
  // vacuous.
  EXPECT_GT(fork_moved, 0u);
}

// --------------------------------------------------- sharded equivalence

// Acceptance: after forked (path-copying) publishes, an N-shard engine's
// gathered answers stay bit-identical to an unsharded from-scratch build
// over the same surviving user set, for N ∈ {1, 2, 4, 8}.
TEST(ShardedForkedPublish, BitIdenticalToFromScratchBuildAtEveryShardCount) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);

  // Deterministic batches, pre-generated so every shard count sees the
  // exact same update stream.
  Rng rng(77);
  const Rect extent = users.BoundingBox();
  std::vector<TrajectorySet> inserts;
  std::vector<std::vector<uint32_t>> removes;
  size_t total = users.size();
  std::vector<bool> active(users.size(), true);
  for (int b = 0; b < 3; ++b) {
    inserts.push_back(testing::RandomUsers(&rng, 15, 2, 5, extent));
    std::vector<uint32_t> rm;
    for (int attempts = 0; attempts < 5; ++attempts) {
      const auto victim = static_cast<uint32_t>(rng.NextBelow(total));
      if (victim < active.size() && active[victim]) {
        active[victim] = false;
        rm.push_back(victim);
      }
    }
    removes.push_back(rm);
    total += inserts.back().size();
    active.resize(total, true);
  }

  // From-scratch oracle over the final surviving users.
  TrajectorySet survivors;
  {
    TrajectorySet all = users;
    for (const TrajectorySet& ins : inserts) {
      for (uint32_t t = 0; t < ins.size(); ++t) all.Add(ins.points(t));
    }
    for (uint32_t u = 0; u < all.size(); ++u) {
      if (active[u]) survivors.Add(all.points(u));
    }
  }
  TQTreeOptions topt;
  topt.beta = 16;
  topt.model = model;
  TQTree oracle(&survivors, topt);
  const ServiceEvaluator oracle_eval(&survivors, model);
  const FacilityCatalog catalog(&routes, model.psi);
  std::vector<double> expected;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    expected.push_back(
        EvaluateServiceTQ(&oracle, oracle_eval, catalog.grid(f)));
  }
  const TopKResult expected_topk =
      TopKFacilitiesTQ(&oracle, catalog, oracle_eval, 5);

  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedEngineOptions so;
    so.num_shards = shards;
    so.num_threads = 4;
    so.tree.beta = 16;
    so.tree.model = model;
    ShardedEngine engine(users, routes, so);
    for (size_t b = 0; b < inserts.size(); ++b) {
      UpdateBatch batch;
      for (uint32_t t = 0; t < inserts[b].size(); ++t) {
        const auto pts = inserts[b].points(t);
        batch.inserts.emplace_back(pts.begin(), pts.end());
      }
      batch.removes = removes[b];
      engine.ApplyUpdates(batch);
    }
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      const QueryResponse r =
          engine.Submit(QueryRequest::ServiceValue(f)).get();
      EXPECT_EQ(r.value, expected[f])
          << "shards=" << shards << " facility=" << f;
    }
    const QueryResponse topk = engine.Submit(QueryRequest::TopK(5)).get();
    ASSERT_EQ(topk.ranked.size(), expected_topk.ranked.size())
        << "shards=" << shards;
    for (size_t i = 0; i < expected_topk.ranked.size(); ++i) {
      EXPECT_EQ(topk.ranked[i].id, expected_topk.ranked[i].id)
          << "shards=" << shards << " rank=" << i;
      EXPECT_EQ(topk.ranked[i].value, expected_topk.ranked[i].value)
          << "shards=" << shards << " rank=" << i;
    }
  }
}

// ------------------------------------------------------ top-k result cache

TEST(ResultCacheTopK, MemoisesByGenerationVectorAndInvalidatesPerShard) {
  ResultCache cache(/*capacity=*/1024, /*num_shards=*/4);
  const std::vector<RankedFacility> answer{{3, 9.0}, {1, 7.0}};
  const ResultCache::TopKKey key{5, 0, {2, 1, 1}};
  std::vector<RankedFacility> got;
  EXPECT_FALSE(cache.GetTopK(key, &got));
  cache.PutTopK(key, answer);
  ASSERT_TRUE(cache.GetTopK(key, &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_EQ(got[1].value, 7.0);

  // A different k or generation vector is a different answer.
  EXPECT_FALSE(cache.GetTopK(ResultCache::TopKKey{4, 0, {2, 1, 1}}, &got));
  EXPECT_FALSE(cache.GetTopK(ResultCache::TopKKey{5, 0, {2, 1, 2}}, &got));

  // Republishing shard 2 at generation 2 kills it (it contributed gen 1);
  // republishing shard 0 at generation 2 would not (it contributed gen 2).
  EXPECT_EQ(cache.InvalidateShardsBefore({0}, 2), 0u);
  ASSERT_TRUE(cache.GetTopK(key, &got));
  EXPECT_EQ(cache.InvalidateShardsBefore({2}, 2), 1u);
  EXPECT_FALSE(cache.GetTopK(key, &got));
}

TEST(SingleShardEngine, TopKMemoisedUntilPublishThenRecomputed) {
  Rng rng(55);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 8, w);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.tree.beta = 16;
  options.tree.model = ServiceModel::PointCount(300.0);
  ShardedEngine engine(users, facs, options);

  const QueryResponse first = engine.Submit(QueryRequest::TopK(4)).get();
  EXPECT_FALSE(first.cache_hit);
  const QueryResponse second = engine.Submit(QueryRequest::TopK(4)).get();
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].id, first.ranked[i].id);
    EXPECT_EQ(second.ranked[i].value, first.ranked[i].value);
  }
  // A different k misses.
  EXPECT_FALSE(engine.Submit(QueryRequest::TopK(3)).get().cache_hit);

  // A publish invalidates; the recomputed answer reflects the new snapshot.
  UpdateBatch batch;
  batch.removes = {first.ranked.empty() ? 0u : 1u};
  engine.ApplyUpdates(batch);
  const QueryResponse after = engine.Submit(QueryRequest::TopK(4)).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.snapshot_version, 2u);
}

TEST(ShardedEngine, TopKMemoisedAcrossUntouchedShardsOnly) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 4;
  so.tree.beta = 16;
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes, so);

  const QueryResponse first = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(first.cache_hit);
  const QueryResponse second = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].id, first.ranked[i].id);
    EXPECT_EQ(second.ranked[i].value, first.ranked[i].value);
  }

  // Touch ONE shard: the memoised gathered answer must die (its generation
  // vector has a stale component) and the recomputed one must agree with
  // the updated engine state.
  UpdateBatch batch;
  batch.removes = {0};
  engine.ApplyUpdates(batch);
  const QueryResponse after = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.snapshot_version, 2u);
}

}  // namespace
}  // namespace tq
