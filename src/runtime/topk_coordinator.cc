#include "runtime/topk_coordinator.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"

namespace tq::runtime {
namespace {

/// Heap order of the candidate queue: the front is the largest cur(f),
/// ties to the smaller facility id.
bool CandidateBelow(const std::pair<double, uint32_t>& a,
                    const std::pair<double, uint32_t>& b) {
  if (a.first != b.first) return a.first < b.first;
  return a.second > b.second;
}

}  // namespace

TopKCoordinator::TopKCoordinator(
    const std::vector<std::vector<double>>& bounds, size_t k,
    size_t max_in_flight)
    : num_parts_(bounds.size()), k_(k), max_in_flight_(max_in_flight) {
  TQ_CHECK(num_parts_ >= 1 && max_in_flight_ >= 1);
  const size_t num_fac = bounds[0].size();
  TQ_CHECK(k_ >= 1 && k_ <= num_fac);
  for (const auto& row : bounds) TQ_CHECK(row.size() == num_fac);

  const size_t slots = num_fac * num_parts_;
  bound_.resize(slots);
  exact_.assign(slots, 0.0);
  state_.assign(slots, kUnrequested);
  order_.reserve(slots);
  order_begin_.reserve(num_fac + 1);
  next_.resize(num_fac);
  missing_.resize(num_fac);
  cur_.resize(num_fac);
  best_.reserve(k_);
  for (uint32_t f = 0; f < num_fac; ++f) {
    const auto begin = static_cast<uint32_t>(order_.size());
    order_begin_.push_back(begin);
    for (uint32_t p = 0; p < num_parts_; ++p) {
      const double ub = bounds[p][f];
      bound_[At(f, p)] = ub;
      if (ub <= 0.0) {
        state_[At(f, p)] = kKnown;  // 0 ≤ SO_p(f) ≤ UB_p(f) = 0
      } else {
        order_.push_back(p);
      }
    }
    std::sort(order_.begin() + begin, order_.end(),
              [this, f](uint32_t a, uint32_t b) {
                const double ba = bound_[At(f, a)];
                const double bb = bound_[At(f, b)];
                if (ba != bb) return ba > bb;
                return a < b;
              });
    next_[f] = begin;
    missing_[f] = static_cast<uint32_t>(order_.size()) - begin;
    Recompute(f);
    if (missing_[f] == 0) {
      AddComplete(cur_[f]);
    } else {
      candidates_.emplace_back(cur_[f], f);
    }
  }
  order_begin_.push_back(static_cast<uint32_t>(order_.size()));
  std::make_heap(candidates_.begin(), candidates_.end(), CandidateBelow);
}

TopKCoordinator::Step TopKCoordinator::Next(Slot* slot) {
  if (in_flight_ >= max_in_flight_) return Step::kWait;
  while (!candidates_.empty()) {
    const auto [c, f] = candidates_.front();
    if (c != cur_[f]) {
      // Stale: exact values arrived since the push and lowered cur(f).
      std::pop_heap(candidates_.begin(), candidates_.end(), CandidateBelow);
      candidates_.back().first = cur_[f];
      std::push_heap(candidates_.begin(), candidates_.end(), CandidateBelow);
      continue;
    }
    // The front is the true maximum: every other entry over-states its
    // facility's cur. Below τ it — and so everything — is pruned for good
    // (cur only falls, τ only rises).
    if (c < Tau()) break;
    const uint32_t p = order_[next_[f]++];
    if (next_[f] == order_begin_[f + 1]) {
      // Every slot of f is requested; it completes when they return.
      std::pop_heap(candidates_.begin(), candidates_.end(), CandidateBelow);
      candidates_.pop_back();
    }
    state_[At(f, p)] = kInFlight;
    ++in_flight_;
    ++requested_;
    *slot = Slot{f, p};
    return Step::kEvaluate;
  }
  return in_flight_ == 0 ? Step::kDone : Step::kWait;
}

void TopKCoordinator::Complete(Slot slot, double value) {
  const size_t i = At(slot.facility, slot.part);
  TQ_CHECK(state_[i] == kInFlight);
  state_[i] = kKnown;
  exact_[i] = value;
  --in_flight_;
  Recompute(slot.facility);
  if (--missing_[slot.facility] == 0) AddComplete(cur_[slot.facility]);
}

std::vector<RankedFacility> TopKCoordinator::Settled() const {
  std::vector<RankedFacility> settled;
  for (uint32_t f = 0; f < cur_.size(); ++f) {
    if (missing_[f] == 0) settled.push_back(RankedFacility{f, cur_[f]});
  }
  return settled;
}

void TopKCoordinator::Recompute(uint32_t f) {
  // Always re-summed in part order, never patched incrementally: a complete
  // facility's cur must be the exhaustive gather's sum bit for bit.
  double sum = 0.0;
  for (uint32_t p = 0; p < num_parts_; ++p) {
    const size_t i = At(f, p);
    sum += state_[i] == kKnown ? exact_[i] : bound_[i];
  }
  cur_[f] = sum;
}

void TopKCoordinator::AddComplete(double value) {
  if (best_.size() < k_) {
    best_.push_back(value);
    std::push_heap(best_.begin(), best_.end(), std::greater<double>());
  } else if (value > best_.front()) {
    std::pop_heap(best_.begin(), best_.end(), std::greater<double>());
    best_.back() = value;
    std::push_heap(best_.begin(), best_.end(), std::greater<double>());
  }
}

double TopKCoordinator::Tau() const {
  return best_.size() < k_ ? -std::numeric_limits<double>::infinity()
                           : best_.front();
}

}  // namespace tq::runtime
