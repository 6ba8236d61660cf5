// Broad randomized property sweeps (TEST_P) across index configurations —
// the "fuzz" layer on top of the targeted unit tests.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/baseline.h"
#include "query/topk.h"
#include "test_util.h"

namespace tq {
namespace {

struct SweepParam {
  size_t beta;
  double psi;
  int model_index;
  size_t num_users;
  bool segmented = false;
  bool multipoint = false;
};

class IndexSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IndexSweepTest, ServiceValuesMatchOracleForAllFacilities) {
  const SweepParam p = GetParam();
  Rng rng(2001 + p.beta * 7 + static_cast<uint64_t>(p.psi) +
          static_cast<uint64_t>(p.model_index) * 131 + p.num_users +
          (p.segmented ? 17 : 0) + (p.multipoint ? 23 : 0));
  const Rect w = Rect::Of(0, 0, 25000, 25000);
  const TrajectorySet users = testing::RandomUsers(
      &rng, p.num_users, 2, p.multipoint ? 7 : 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 12, w);
  const ServiceModel model =
      testing::AllModels(p.psi)[static_cast<size_t>(p.model_index)];
  const ServiceEvaluator eval(&users, model);

  TQTreeOptions opt;
  opt.beta = p.beta;
  opt.mode = p.segmented ? TrajMode::kSegmented : TrajMode::kWhole;
  opt.model = model;
  TQTree tree(&users, opt);

  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), model.psi);
    EXPECT_NEAR(EvaluateServiceTQ(&tree, eval, grid),
                testing::BruteForceSO(users, facs.points(f), model), 1e-6)
        << "beta=" << p.beta << " psi=" << p.psi
        << " model=" << p.model_index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BetaPsiModelSweep, IndexSweepTest,
    ::testing::Values(
        SweepParam{1, 150.0, 0, 300}, SweepParam{4, 150.0, 0, 300},
        SweepParam{64, 150.0, 0, 300}, SweepParam{4, 30.0, 0, 300},
        SweepParam{4, 600.0, 0, 300}, SweepParam{4, 1500.0, 0, 300},
        SweepParam{8, 200.0, 1, 300}, SweepParam{8, 200.0, 2, 300},
        SweepParam{8, 200.0, 3, 300}, SweepParam{8, 200.0, 4, 300},
        SweepParam{16, 300.0, 0, 1200}, SweepParam{16, 300.0, 1, 1200},
        // Segmented trees across betas and ψ extremes (multipoint data).
        SweepParam{1, 150.0, 1, 200, true, true},
        SweepParam{8, 30.0, 1, 200, true, true},
        SweepParam{8, 900.0, 2, 200, true, true},
        SweepParam{8, 200.0, 3, 200, true, true},
        SweepParam{64, 200.0, 4, 200, true, true},
        SweepParam{8, 200.0, 0, 200, true, true},
        // Whole-mode multipoint (F-TQ) under interior-point models.
        SweepParam{8, 200.0, 1, 200, false, true},
        SweepParam{8, 200.0, 4, 200, false, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const SweepParam& p = info.param;
      return std::string(p.segmented ? "seg_" : "whole_") +
             (p.multipoint ? "multi_" : "pair_") + "beta" +
             std::to_string(p.beta) + "_psi" +
             std::to_string(static_cast<int>(p.psi)) + "_m" +
             std::to_string(p.model_index) + "_u" +
             std::to_string(p.num_users);
    });

class TopKSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKSweepTest, BestFirstValueEqualsExhaustiveForEveryK) {
  const size_t k = GetParam();
  Rng rng(2101 + k);
  const Rect w = Rect::Of(0, 0, 25000, 25000);
  const TrajectorySet users = testing::RandomUsers(&rng, 500, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 32, 10, w);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  TQTreeOptions opt;
  opt.beta = 16;
  opt.model = model;
  TQTree tree(&users, opt);
  const TopKResult bf = TopKFacilitiesTQ(&tree, catalog, eval, k);
  const TopKResult ex = TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k);
  ASSERT_EQ(bf.ranked.size(), std::min(k, facs.size()));
  for (size_t i = 0; i < bf.ranked.size(); ++i) {
    EXPECT_NEAR(bf.ranked[i].value, ex.ranked[i].value, 1e-9) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, TopKSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16, 31, 32),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

class MultipointSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultipointSweepTest, SegmentedAndWholeAgreeWithOracle) {
  const auto [mode_index, model_index] = GetParam();
  const TrajMode mode =
      mode_index == 0 ? TrajMode::kSegmented : TrajMode::kWhole;
  Rng rng(2201 + static_cast<uint64_t>(mode_index) * 17 +
          static_cast<uint64_t>(model_index));
  const Rect w = Rect::Of(0, 0, 25000, 25000);
  const TrajectorySet users = testing::RandomUsers(&rng, 200, 3, 9, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  const ServiceModel model =
      testing::AllModels(250.0)[static_cast<size_t>(model_index)];
  const ServiceEvaluator eval(&users, model);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.mode = mode;
  opt.model = model;
  TQTree tree(&users, opt);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), model.psi);
    EXPECT_NEAR(EvaluateServiceTQ(&tree, eval, grid),
                testing::BruteForceSO(users, facs.points(f), model), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesTimesModels, MultipointSweepTest,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "segmented"
                                                      : "whole") +
             "_m" + std::to_string(std::get<1>(info.param));
    });

TEST(Properties, DegenerateWorkloads) {
  const ServiceModel model = ServiceModel::Endpoints(50.0);
  // All users identical and coincident with the facility.
  TrajectorySet users;
  for (int i = 0; i < 100; ++i) {
    const Point t[] = {{500, 500}, {500, 500}};
    users.Add(t);
  }
  TQTreeOptions opt;
  opt.beta = 4;
  opt.model = model;
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, model);
  const std::vector<Point> stops = {{500, 500}};
  const StopGrid grid(stops, model.psi);
  EXPECT_DOUBLE_EQ(EvaluateServiceTQ(&tree, eval, grid), 100.0);
}

TEST(Properties, SingleUserSinglePointFacility) {
  TrajectorySet users;
  const Point t[] = {{0, 0}, {100, 100}};
  users.Add(t);
  TQTreeOptions opt;
  opt.model = ServiceModel::Endpoints(150.0);
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, opt.model);
  const std::vector<Point> stops = {{50, 50}};
  const StopGrid grid(stops, opt.model.psi);
  // (0,0) and (100,100) are both ~70.7 from (50,50): within ψ = 150.
  EXPECT_DOUBLE_EQ(EvaluateServiceTQ(&tree, eval, grid), 1.0);
}

TEST(Properties, PsiMonotonicity) {
  // Growing ψ can only grow every facility's service value.
  Rng rng(2301);
  const Rect w = Rect::Of(0, 0, 25000, 25000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 6, 10, w);
  double prev_total = -1.0;
  for (const double psi : {50.0, 150.0, 400.0, 1000.0}) {
    const ServiceModel model = ServiceModel::Endpoints(psi);
    TQTreeOptions opt;
    opt.model = model;
    TQTree tree(&users, opt);
    const ServiceEvaluator eval(&users, model);
    double total = 0.0;
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), psi);
      total += EvaluateServiceTQ(&tree, eval, grid);
    }
    EXPECT_GE(total, prev_total) << "psi=" << psi;
    prev_total = total;
  }
}

}  // namespace
}  // namespace tq
