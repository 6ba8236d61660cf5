#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "geom/distance.h"
#include "service/accumulator.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "service/models.h"
#include "service/stop_grid.h"
#include "test_util.h"
#include "tqtree/tq_tree.h"
#include "tqtree/zindex.h"

namespace tq {
namespace {

TEST(ServiceModel, UpperBoundsPickTightestValidComponent) {
  const ServiceAggregates agg{10.0, 55.0, 1234.5};
  EXPECT_DOUBLE_EQ(ServiceModel::Endpoints(100).UpperBound(agg), 10.0);
  EXPECT_DOUBLE_EQ(
      ServiceModel::PointCount(100, Normalization::kPerUser).UpperBound(agg),
      10.0);
  EXPECT_DOUBLE_EQ(
      ServiceModel::PointCount(100, Normalization::kNone).UpperBound(agg),
      55.0);
  EXPECT_DOUBLE_EQ(
      ServiceModel::Length(100, Normalization::kPerUser).UpperBound(agg),
      10.0);
  EXPECT_DOUBLE_EQ(
      ServiceModel::Length(100, Normalization::kNone).UpperBound(agg),
      1234.5);
}

TEST(ServiceModel, ToStringMentionsScenario) {
  EXPECT_NE(ServiceModel::Endpoints(50).ToString().find("endpoints"),
            std::string::npos);
  EXPECT_NE(ServiceModel::Length(50).ToString().find("length"),
            std::string::npos);
}

TEST(StopGrid, ServesMatchesLinearScan) {
  Rng rng(201);
  std::vector<Point> stops;
  for (int i = 0; i < 60; ++i) {
    stops.push_back({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
  }
  for (const double psi : {40.0, 150.0, 600.0}) {
    const StopGrid grid(stops, psi);
    for (int i = 0; i < 2000; ++i) {
      const Point p{rng.NextUniform(-100, 5100), rng.NextUniform(-100, 5100)};
      EXPECT_EQ(grid.Serves(p), WithinPsiOfAny(p, stops, psi))
          << "psi " << psi << " probe " << p.x << "," << p.y;
    }
  }
}

TEST(StopGrid, EmbrIsMbrExpandedByPsi) {
  const std::vector<Point> stops = {{10, 20}, {30, 40}};
  const StopGrid grid(stops, 5.0);
  EXPECT_EQ(grid.mbr(), Rect::Of(10, 20, 30, 40));
  EXPECT_EQ(grid.embr(), Rect::Of(5, 15, 35, 45));
}

TEST(StopGrid, NearbyStopDistance) {
  const std::vector<Point> stops = {{0, 0}};
  const StopGrid grid(stops, 10.0);
  EXPECT_NEAR(grid.NearbyStopDistance({3, 4}), 5.0, 1e-12);
}

TEST(FacilityCatalog, BuildsOneGridPerFacility) {
  TrajectorySet facilities;
  const Point f0[] = {{0, 0}, {100, 0}};
  const Point f1[] = {{500, 500}, {600, 600}, {700, 700}};
  facilities.Add(f0);
  facilities.Add(f1);
  const FacilityCatalog catalog(&facilities, 50.0);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.grid(0).stops().size(), 2u);
  EXPECT_EQ(catalog.grid(1).stops().size(), 3u);
  EXPECT_DOUBLE_EQ(catalog.psi(), 50.0);
}

class EvaluatorScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // User 0: both endpoints near stops. User 1: only source near.
    // User 2: 4-point trajectory, middle two points near stops.
    const Point u0[] = {{0, 0}, {100, 0}};
    const Point u1[] = {{0, 5}, {500, 500}};
    const Point u2[] = {{400, 400}, {10, 0}, {95, 5}, {300, 300}};
    users_.Add(u0);
    users_.Add(u1);
    users_.Add(u2);
    const Point stops[] = {{0, 10}, {100, 10}};
    facilities_.Add(stops);
  }

  TrajectorySet users_;
  TrajectorySet facilities_;
};

TEST_F(EvaluatorScenarioTest, Scenario1Binary) {
  const ServiceEvaluator eval(&users_, ServiceModel::Endpoints(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(1, grid), 0.0);  // destination unserved
  EXPECT_DOUBLE_EQ(eval.Evaluate(2, grid), 0.0);  // endpoints far
  EXPECT_TRUE(eval.EndpointsServed(0, grid));
  EXPECT_FALSE(eval.EndpointsServed(2, grid));
}

TEST_F(EvaluatorScenarioTest, Scenario2PointCount) {
  const ServiceEvaluator eval(&users_, ServiceModel::PointCount(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);        // 2/2
  EXPECT_DOUBLE_EQ(eval.Evaluate(1, grid), 0.5);        // 1/2
  EXPECT_DOUBLE_EQ(eval.Evaluate(2, grid), 0.5);        // 2/4
  const ServiceEvaluator raw(
      &users_, ServiceModel::PointCount(20.0, Normalization::kNone));
  EXPECT_DOUBLE_EQ(raw.Evaluate(2, grid), 2.0);
}

TEST_F(EvaluatorScenarioTest, Scenario3Length) {
  const ServiceEvaluator eval(&users_, ServiceModel::Length(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  // User 0: the whole (only) segment served → fraction 1.
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);
  // User 2: only interior segment (10,0)→(95,5) has both ends served.
  const double seg = Distance({10, 0}, {95, 5});
  EXPECT_NEAR(eval.Evaluate(2, grid), seg / users_.length(2), 1e-12);
}

TEST_F(EvaluatorScenarioTest, DetailMaskConsistentWithEvaluate) {
  Rng rng(207);
  const Rect w = Rect::Of(0, 0, 2000, 2000);
  const TrajectorySet users = testing::RandomUsers(&rng, 80, 2, 7, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 5, 12, w);
  for (const ServiceModel& model : testing::AllModels(120.0)) {
    const ServiceEvaluator eval(&users, model);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), model.psi);
      for (uint32_t u = 0; u < users.size(); ++u) {
        const ServeDetail d = eval.EvaluateDetail(u, grid);
        EXPECT_NEAR(eval.ValueOfMask(u, d.mask), eval.Evaluate(u, grid),
                    1e-12)
            << model.ToString() << " user " << u;
      }
    }
  }
}

TEST_F(EvaluatorScenarioTest, MaskSizeLayout) {
  const ServiceEvaluator pts(&users_, ServiceModel::PointCount(20.0));
  const ServiceEvaluator len(&users_, ServiceModel::Length(20.0));
  EXPECT_EQ(pts.MaskSize(2), 4u);  // points
  EXPECT_EQ(len.MaskSize(2), 3u);  // segments
}

TEST(Accumulator, IncrementalTotalsMatchValueOfMask) {
  Rng rng(209);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 40, 2, 6, w);
  for (const ServiceModel& model : testing::AllModels(100.0)) {
    const ServiceEvaluator eval(&users, model);
    ServiceAccumulator acc(&eval);
    // Random marks, with duplicates, across users.
    std::vector<std::pair<uint32_t, DynamicBitset>> shadow;
    for (int i = 0; i < 300; ++i) {
      const auto u = static_cast<uint32_t>(rng.NextBelow(users.size()));
      const size_t msize = eval.MaskSize(u);
      if (msize == 0) continue;
      const auto bit = static_cast<uint32_t>(rng.NextBelow(msize));
      if (model.scenario == Scenario::kLength) {
        acc.MarkSegment(u, bit);
      } else {
        acc.MarkPoint(u, bit);
      }
      auto it = std::find_if(shadow.begin(), shadow.end(),
                             [&](const auto& p) { return p.first == u; });
      if (it == shadow.end()) {
        shadow.emplace_back(u, DynamicBitset(msize));
        it = shadow.end() - 1;
      }
      it->second.Set(bit);
    }
    double expected = 0.0;
    for (const auto& [u, mask] : shadow) {
      expected += eval.ValueOfMask(u, mask);
    }
    EXPECT_NEAR(acc.Total(), expected, 1e-9) << model.ToString();
    acc.Clear();
    EXPECT_DOUBLE_EQ(acc.Total(), 0.0);
    EXPECT_EQ(acc.TouchedUsers(), 0u);
  }
}

// ------------------------------------------------------- service kernels
// The exact-evaluation and bound-sweep kernels, each held to an oracle that
// shares no code with it: the brute-force §II-A definitions of test_util.h,
// a test-local squared-form reach scan, and hand-derived ψ-threshold cases.

#define EXPECT_BIT_EQ(a, b)                        \
  EXPECT_EQ(std::bit_cast<uint64_t>(double{(a)}),  \
            std::bit_cast<uint64_t>(double{(b)}))  \
      << "values: " << (a) << " vs " << (b)

// Users with deliberately awkward shapes: 1 point (MaskSize 0 under
// kLength), 2 points, a few dozen, exactly 64, 65 (mask spills into a second
// word), and 130 (tail bits past 64-alignment in the third word).
TrajectorySet EdgeShapeUsers(uint64_t seed) {
  Rng rng(seed);
  TrajectorySet users;
  for (const size_t n : {1u, 2u, 3u, 5u, 31u, 64u, 65u, 130u}) {
    std::vector<Point> pts;
    Point p{rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)};
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(p);
      p.x += rng.NextUniform(-120, 120);
      p.y += rng.NextUniform(-120, 120);
    }
    users.Add(pts);
  }
  return users;
}

std::vector<Point> RandomStops(Rng& rng, size_t n) {
  std::vector<Point> stops;
  for (size_t i = 0; i < n; ++i) {
    stops.push_back({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
  }
  return stops;
}

TEST(ServiceKernels, ServesExactThresholdPoint) {
  // A probe exactly ψ from the only stop: the 3-4-5 triangle makes d² = 25
  // exactly, and ψ² = 25 is exactly representable, so <= sits precisely on
  // the boundary; one ulp further out must flip the answer.
  const std::vector<Point> stops = {{1000.0, 1000.0}};
  const StopGrid grid(stops, 5.0);
  EXPECT_TRUE(grid.Serves({1003.0, 1004.0}));
  EXPECT_FALSE(grid.Serves({std::nextafter(1003.0, 1004.0), 1004.0}));
  EXPECT_TRUE(grid.Serves({1003.0, std::nextafter(1004.0, 1000.0)}));
  EXPECT_TRUE(grid.Serves({1000.0, 1000.0}));
}

TEST(ServiceKernels, CorridorReachesExactThreshold) {
  // A stop exactly ψ = 5 from the rect corner (0, 0): reached under <=, not
  // reached one ulp further out or with ψ one ulp smaller.
  const Rect r = Rect::Of(0.0, 0.0, 10.0, 10.0);
  const auto reaches = [&r](Point stop, double psi) {
    const std::vector<Point> stops = {stop};
    return ZIndex::Corridor{stops, psi, Rect::Of(0, 0, 1, 1)}.Reaches(r);
  };
  EXPECT_TRUE(reaches({-3.0, -4.0}, 5.0));
  EXPECT_FALSE(reaches({std::nextafter(-3.0, -4.0), -4.0}, 5.0));
  EXPECT_FALSE(reaches({-3.0, -4.0}, std::nextafter(5.0, 0.0)));
  EXPECT_TRUE(reaches({-3.0, 4.0}, 3.0));  // beside an edge: d = 3
  EXPECT_TRUE(reaches({5.0, 5.0}, 1e-9));  // inside the rect
}

TEST(ServiceKernels, EvaluateMatchesBruteForceAcrossModels) {
  const TrajectorySet users = EdgeShapeUsers(23);
  Rng rng(29);
  for (const double psi : {60.0, 200.0}) {
    const std::vector<Point> stops = RandomStops(rng, 50);
    const StopGrid grid(stops, psi);
    for (const ServiceModel& model : testing::AllModels(psi)) {
      const ServiceEvaluator eval(&users, model);
      for (uint32_t u = 0; u < users.size(); ++u) {
        // Same serve predicate, same ascending accumulation: bit-equal.
        EXPECT_BIT_EQ(eval.Evaluate(u, grid),
                      testing::BruteForceService(users, u, stops, model))
            << "user " << u << " model " << model.ToString();
      }
    }
  }
}

TEST(ServiceKernels, EvaluateDetailMasksMatchBruteForce) {
  const TrajectorySet users = EdgeShapeUsers(31);
  Rng rng(37);
  for (const double psi : {60.0, 200.0}) {
    const std::vector<Point> stops = RandomStops(rng, 50);
    const StopGrid grid(stops, psi);
    for (const ServiceModel& model : testing::AllModels(psi)) {
      const ServiceEvaluator eval(&users, model);
      for (uint32_t u = 0; u < users.size(); ++u) {
        const ServeDetail d = eval.EvaluateDetail(u, grid);
        ASSERT_EQ(d.mask.size(), eval.MaskSize(u));
        const auto pts = users.points(u);
        for (size_t i = 0; i < d.mask.size(); ++i) {
          const bool served =
              model.scenario == Scenario::kLength
                  ? WithinPsiOfAny(pts[i], stops, psi) &&
                        WithinPsiOfAny(pts[i + 1], stops, psi)
                  : WithinPsiOfAny(pts[i], stops, psi);
          EXPECT_EQ(d.mask.Test(i), served)
              << "user " << u << " bit " << i << " model "
              << model.ToString();
        }
        // The mask must reproduce the direct evaluation exactly.
        EXPECT_BIT_EQ(eval.ValueOfMask(u, d.mask), eval.Evaluate(u, grid))
            << "user " << u << " model " << model.ToString();
      }
    }
  }
}

// Test-local reach oracle: ψ-disk of some stop meets `r`, in squared form.
bool ReachesByLinearScan(std::span<const Point> stops, double psi,
                         const Rect& r) {
  for (const Point& s : stops) {
    const double dx = std::max({r.min_x - s.x, s.x - r.max_x, 0.0});
    const double dy = std::max({r.min_y - s.y, s.y - r.max_y, 0.0});
    if (dx * dx + dy * dy <= psi * psi) return true;
  }
  return false;
}

TEST(ServiceKernels, CorridorReachesMatchesLinearScan) {
  Rng rng(41);
  for (const size_t num_stops : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 40u}) {
    const std::vector<Point> stops = RandomStops(rng, num_stops);
    const ZIndex::Corridor corridor{stops, 120.0, Rect::Of(0, 0, 1, 1)};
    for (int trial = 0; trial < 300; ++trial) {
      const double min_x = rng.NextUniform(-500, 5000);
      const double min_y = rng.NextUniform(-500, 5000);
      const Rect r = Rect::Of(min_x, min_y, min_x + rng.NextUniform(0, 800),
                              min_y + rng.NextUniform(0, 800));
      EXPECT_EQ(corridor.Reaches(r), ReachesByLinearScan(stops, 120.0, r))
          << num_stops << " stops, trial " << trial;
    }
  }
}

// SO(U', f) by brute force over the indexed users U' only.
double BruteForceIndexedSO(const TrajectorySet& users,
                           const std::vector<bool>& indexed,
                           std::span<const Point> stops,
                           const ServiceModel& model) {
  double so = 0.0;
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (indexed[u]) so += testing::BruteForceService(users, u, stops, model);
  }
  return so;
}

// The bound sums per-point caps cell by cell, the oracle values in user
// order; allow the rounding that reordering a sum of non-negative terms can
// cost.
void ExpectBoundCovers(double bound, double so, const std::string& what) {
  EXPECT_GE(bound, so - 1e-9 * std::max(1.0, so)) << what;
}

TEST(ServiceKernels, TreeUpperBoundNeverBelowBruteForceSO) {
  const TrajectorySet users = presets::NyfCheckins(400);
  const TrajectorySet routes = presets::NyBusRoutes(12, 24);
  const std::vector<bool> all(users.size(), true);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    for (const ServiceModel& model : testing::AllModels(400.0)) {
      TQTreeOptions opt;
      opt.beta = 16;
      opt.mode = mode;
      opt.model = model;
      TQTree tree(&users, opt);
      tree.BuildAllZIndexes();
      for (uint32_t f = 0; f < routes.size(); ++f) {
        const StopGrid grid(routes.points(f), model.psi);
        ExpectBoundCovers(
            tree.UpperBound(grid),
            BruteForceIndexedSO(users, all, routes.points(f), model),
            "facility " + std::to_string(f) + " model " + model.ToString());
      }
    }
  }
}

TEST(ServiceKernels, TreeUpperBoundCoversAfterMutationAndRefreeze) {
  const TrajectorySet users = presets::NyfCheckins(300);
  const TrajectorySet routes = presets::NyBusRoutes(6, 20);
  const ServiceModel model = ServiceModel::PointCount(400.0);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    TQTreeOptions opt;
    opt.beta = 16;
    opt.mode = mode;
    opt.model = model;
    TQTree tree(&users, opt);
    tree.BuildAllZIndexes();
    std::vector<bool> indexed(users.size(), true);
    const auto check = [&](const char* stage) {
      for (uint32_t f = 0; f < routes.size(); ++f) {
        const StopGrid grid(routes.points(f), model.psi);
        ExpectBoundCovers(
            tree.UpperBound(grid),
            BruteForceIndexedSO(users, indexed, routes.points(f), model),
            std::string(stage) + " facility " + std::to_string(f) +
                " mode " + std::to_string(static_cast<int>(mode)));
      }
    };
    check("built");
    // Removing and re-inserting leaves dirty z-indexes behind; the bound
    // must stay sound on the unfrozen tree and after the refreeze.
    for (uint32_t u = 0; u < 20; ++u) {
      ASSERT_TRUE(tree.Remove(u));
      indexed[u] = false;
    }
    check("removed");
    for (uint32_t u = 0; u < 10; ++u) {
      tree.Insert(u);
      indexed[u] = true;
    }
    check("reinserted");
    tree.BuildAllZIndexes();
    check("refrozen");
  }
}

TEST(ServiceKernels, AccumulatorArenaMatchesMapReference) {
  const TrajectorySet users = EdgeShapeUsers(47);
  Rng rng(53);
  for (const ServiceModel& model : testing::AllModels(150.0)) {
    const ServiceEvaluator eval(&users, model);
    ServiceAccumulator acc(&eval);
    // Shadow with the exact semantics of the old map-of-bitsets
    // implementation, applied in the same mark order; totals must agree to
    // the bit since the same doubles are added in the same sequence.
    std::unordered_map<uint32_t, DynamicBitset> shadow;
    double shadow_total = 0.0;
    const bool segmented = model.scenario == Scenario::kLength;
    for (int round = 0; round < 2; ++round) {
      acc.Clear();
      shadow.clear();
      shadow_total = 0.0;
      for (int i = 0; i < 3000; ++i) {
        const auto user = static_cast<uint32_t>(rng.NextBelow(users.size()));
        const size_t mask_size = eval.MaskSize(user);
        if (mask_size == 0) continue;
        const auto index = static_cast<uint32_t>(rng.NextBelow(mask_size));
        auto it = shadow.find(user);
        if (it == shadow.end()) {
          it = shadow.emplace(user, DynamicBitset(mask_size)).first;
        }
        DynamicBitset& mask = it->second;
        if (segmented) {
          acc.MarkSegment(user, index);
          if (!mask.Test(index)) {
            mask.Set(index);
            const auto pts = users.points(user);
            const double seg_len = Distance(pts[index], pts[index + 1]);
            if (model.normalization == Normalization::kPerUser) {
              const double total_len = users.length(user);
              shadow_total += total_len > 0.0 ? seg_len / total_len : 0.0;
            } else {
              shadow_total += seg_len;
            }
          }
        } else {
          acc.MarkPoint(user, index);
          if (!mask.Test(index)) {
            mask.Set(index);
            const size_t n = users.NumPoints(user);
            if (model.scenario == Scenario::kEndpoints) {
              if ((index == 0 || index == n - 1) && mask.Test(0) &&
                  mask.Test(n - 1)) {
                shadow_total += 1.0;
              }
            } else {
              shadow_total += model.normalization == Normalization::kPerUser
                                  ? 1.0 / static_cast<double>(n)
                                  : 1.0;
            }
          }
        }
        EXPECT_BIT_EQ(acc.Total(), shadow_total);
      }
      EXPECT_EQ(acc.TouchedUsers(), shadow.size());
    }
    acc.Clear();
    EXPECT_EQ(acc.TouchedUsers(), 0u);
    EXPECT_BIT_EQ(acc.Total(), 0.0);
  }
}

// Read-only concurrency over the shared frozen structures — the shape the
// sharded engine runs the kernels in. TSan runs this suite in CI; any hidden
// shared mutable state in the grid, evaluator or bound sweep trips it.
TEST(ServiceKernels, ConcurrentReadersAgree) {
  const TrajectorySet users = presets::NyfCheckins(200);
  const TrajectorySet routes = presets::NyBusRoutes(4, 16);
  const ServiceModel model = ServiceModel::PointCount(400.0);
  const ServiceEvaluator eval(&users, model);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&users, opt);
  tree.BuildAllZIndexes();
  std::vector<StopGrid> grids;
  for (uint32_t f = 0; f < routes.size(); ++f) {
    grids.emplace_back(routes.points(f), model.psi);
  }
  // Single-threaded answers first; every reader thread must reproduce them.
  std::vector<double> bounds;
  std::vector<double> values;
  for (const StopGrid& grid : grids) {
    bounds.push_back(tree.UpperBound(grid));
    for (uint32_t u = 0; u < users.size(); ++u) {
      values.push_back(eval.Evaluate(u, grid));
    }
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      size_t vi = 0;
      for (size_t g = 0; g < grids.size(); ++g) {
        if (std::bit_cast<uint64_t>(tree.UpperBound(grids[g])) !=
            std::bit_cast<uint64_t>(bounds[g])) {
          failures[t]++;
        }
        for (uint32_t u = 0; u < users.size(); ++u, ++vi) {
          if (std::bit_cast<uint64_t>(eval.Evaluate(u, grids[g])) !=
              std::bit_cast<uint64_t>(values[vi])) {
            failures[t]++;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace tq
