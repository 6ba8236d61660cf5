// The data set, the engine configuration, and the answer oracle.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "datagen/bus_routes.h"
#include "datagen/checkins.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "tqtree/tq_tree.h"

namespace perfbench {

namespace {

// Distinct generator streams of the data seed, so users and routes never
// share random draws.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

}  // namespace

Inputs GenerateInputs(double scale) {
  const tq::CityModel city = tq::presets::NewYork();
  const size_t num_users = std::max<size_t>(
      64, static_cast<size_t>(std::lround(kFullUsers * scale)));
  tq::CheckinOptions checkins;
  checkins.num_trajectories = num_users + kInsertPool;
  checkins.seed = SubSeed(kDataSeed, 1);
  tq::BusRouteOptions routes;
  routes.num_routes = std::max<size_t>(
      16, static_cast<size_t>(std::lround(kFullRoutes * scale)));
  routes.stops_per_route = kFullStops;
  routes.seed = SubSeed(kDataSeed, 2);

  Inputs in;
  const tq::TrajectorySet all = tq::GenerateCheckins(city, checkins);
  for (uint32_t id = 0; id < all.size(); ++id) {
    (id < num_users ? in.users : in.insert_pool).Add(all.points(id));
  }
  in.routes = tq::GenerateBusRoutes(city, routes);
  return in;
}

tq::TQTreeOptions TreeOptions() {
  tq::TQTreeOptions tree;
  tree.beta = kBeta;
  tree.model = tq::ServiceModel::PointCount(kPsi, tq::Normalization::kNone);
  return tree;
}

tq::runtime::ShardedEngineOptions EngineOptions(size_t cache_capacity) {
  tq::runtime::ShardedEngineOptions opt;
  opt.num_shards = kShards;
  opt.num_threads = kPoolThreads;
  opt.cache_capacity = cache_capacity;
  opt.tree = TreeOptions();
  return opt;
}

Oracle::Oracle(const tq::TrajectorySet& users,
               const tq::TrajectorySet& routes) {
  const tq::TQTreeOptions options = TreeOptions();
  tq::TQTree tree(&users, options);
  tree.BuildAllZIndexes();
  const tq::ServiceEvaluator eval(&users, options.model);
  const tq::FacilityCatalog catalog(&routes, options.model.psi);
  sums_.resize(routes.size());
  for (tq::FacilityId f = 0; f < routes.size(); ++f) {
    sums_[f] = tq::EvaluateServiceTQ(&tree, eval, catalog.grid(f));
  }
  topk_ = tq::TopKFacilitiesTQ(&tree, catalog, eval, kTopK).ranked;
}

bool Oracle::CheckSum(tq::FacilityId f, double got) {
  checks_.fetch_add(1);
  if (corrupt_.exchange(false)) got += 1.0;
  if (f >= sums_.size()) {
    Mismatch("sum of unknown facility " + std::to_string(f));
    return false;
  }
  if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(sums_[f])) {
    return true;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "sum(facility %u) = %.17g, oracle %.17g",
                f, got, sums_[f]);
  Mismatch(buf);
  return false;
}

bool Oracle::CheckTopK(const std::vector<tq::RankedFacility>& got) {
  checks_.fetch_add(1);
  std::vector<tq::RankedFacility> ranked = got;
  if (corrupt_.exchange(false) && !ranked.empty()) ranked[0].value += 1.0;
  bool same = ranked.size() == topk_.size();
  for (size_t i = 0; same && i < ranked.size(); ++i) {
    same = ranked[i].id == topk_[i].id &&
           std::bit_cast<uint64_t>(ranked[i].value) ==
               std::bit_cast<uint64_t>(topk_[i].value);
  }
  if (same) return true;
  std::string what = "top-" + std::to_string(kTopK) + " differs:";
  for (size_t i = 0; i < std::max(ranked.size(), topk_.size()); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " [%zu] got %d/%.17g oracle %d/%.17g", i,
                  i < ranked.size() ? static_cast<int>(ranked[i].id) : -1,
                  i < ranked.size() ? ranked[i].value : -1.0,
                  i < topk_.size() ? static_cast<int>(topk_[i].id) : -1,
                  i < topk_.size() ? topk_[i].value : -1.0);
    what += buf;
  }
  Mismatch(what);
  return false;
}

void Oracle::Mismatch(std::string what) {
  if (mismatches_.fetch_add(1) != 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  first_ = std::move(what);
}

std::string Oracle::first_mismatch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

}  // namespace perfbench
