#include "service/evaluator.h"

#include "common/check.h"

namespace tq {

ServiceEvaluator::ServiceEvaluator(const TrajectorySet* users,
                                   ServiceModel model)
    : users_(users), model_(model) {
  TQ_CHECK(users != nullptr);
}

bool ServiceEvaluator::EndpointsServed(uint32_t user,
                                       const StopGrid& grid) const {
  const auto pts = users_->points(user);
  return grid.Serves(pts.front()) && grid.Serves(pts.back());
}

double ServiceEvaluator::Evaluate(uint32_t user, const StopGrid& grid) const {
  const auto pts = users_->points(user);
  switch (model_.scenario) {
    case Scenario::kEndpoints:
      return EndpointsServed(user, grid) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      size_t served = 0;
      for (const Point& p : pts) {
        if (grid.Serves(p)) ++served;
      }
      if (model_.normalization == Normalization::kPerUser) {
        return static_cast<double>(served) / static_cast<double>(pts.size());
      }
      return static_cast<double>(served);
    }
    case Scenario::kLength: {
      if (pts.size() < 2) return 0.0;
      double served_len = 0.0;
      bool prev_served = grid.Serves(pts[0]);
      for (size_t i = 1; i < pts.size(); ++i) {
        const bool cur_served = grid.Serves(pts[i]);
        if (prev_served && cur_served) {
          served_len += Distance(pts[i - 1], pts[i]);
        }
        prev_served = cur_served;
      }
      if (model_.normalization == Normalization::kPerUser) {
        const double total = users_->length(user);
        return total > 0.0 ? served_len / total : 0.0;
      }
      return served_len;
    }
  }
  return 0.0;
}

size_t ServiceEvaluator::MaskSize(uint32_t user) const {
  const size_t n = users_->NumPoints(user);
  if (model_.scenario == Scenario::kLength) return n > 0 ? n - 1 : 0;
  return n;
}

ServeDetail ServiceEvaluator::EvaluateDetail(uint32_t user,
                                             const StopGrid& grid) const {
  const auto pts = users_->points(user);
  ServeDetail d;
  d.mask = DynamicBitset(MaskSize(user));
  if (model_.scenario == Scenario::kLength) {
    bool prev_served = !pts.empty() && grid.Serves(pts[0]);
    for (size_t i = 1; i < pts.size(); ++i) {
      const bool cur_served = grid.Serves(pts[i]);
      if (prev_served && cur_served) d.mask.Set(i - 1);
      prev_served = cur_served;
    }
  } else {
    for (size_t i = 0; i < pts.size(); ++i) {
      if (grid.Serves(pts[i])) d.mask.Set(i);
    }
  }
  return d;
}

double ServiceEvaluator::ValueOfMask(uint32_t user,
                                     const DynamicBitset& mask) const {
  const auto pts = users_->points(user);
  switch (model_.scenario) {
    case Scenario::kEndpoints:
      return (mask.Test(0) && mask.Test(pts.size() - 1)) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      const auto served = static_cast<double>(mask.Count());
      if (model_.normalization == Normalization::kPerUser) {
        return served / static_cast<double>(pts.size());
      }
      return served;
    }
    case Scenario::kLength: {
      double served_len = 0.0;
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (mask.Test(i)) served_len += Distance(pts[i], pts[i + 1]);
      }
      if (model_.normalization == Normalization::kPerUser) {
        const double total = users_->length(user);
        return total > 0.0 ? served_len / total : 0.0;
      }
      return served_len;
    }
  }
  return 0.0;
}

}  // namespace tq
