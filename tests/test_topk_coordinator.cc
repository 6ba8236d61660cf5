// Tests for the pure best-first top-k coordinator (src/runtime/
// topk_coordinator.h), driven without any engine:
//   * property: on random per-part bounds ≥ exact values — heavy ties, zero
//     bounds, k ∈ {1, 3, |F|−1, |F|}, parts ∈ {1, 2, 4, 8}, in-flight caps
//     1–8 and random completion orders — the settled facilities ranked by
//     RankedBefore equal the exhaustive sort bit for bit, no slot is
//     requested twice, no zero-bound slot is requested, the cap holds, and
//     kDone arrives exactly once with nothing in flight; and in the
//     drain mode (cap = every slot, pre-known slots completed inline, the
//     rest after kWait) the same ranking comes out of one batch, with kDone
//     the very next step;
//   * scheduling: one slot at a time follows the documented best-first
//     order (largest cur(f), highest-UB part first) and stops at τ.
// Runs under TSan in CI beside test_topk_prune.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/topk.h"
#include "runtime/topk_coordinator.h"

namespace tq {
namespace {

using runtime::TopKCoordinator;
using Step = TopKCoordinator::Step;

struct Instance {
  std::vector<std::vector<double>> exact;   // [part][facility]
  std::vector<std::vector<double>> bounds;  // [part][facility]
};

// Exact values drawn from a small set (many equal totals); the grain is
// either 1 (integer sums) or 0.1 (sums that round). Bounds add a random,
// often zero, slack; a zero exact value gets a zero bound half the time.
Instance RandomInstance(Rng* rng, size_t parts, size_t facilities,
                        double grain) {
  Instance in;
  in.exact.assign(parts, std::vector<double>(facilities, 0.0));
  in.bounds.assign(parts, std::vector<double>(facilities, 0.0));
  for (size_t p = 0; p < parts; ++p) {
    for (size_t f = 0; f < facilities; ++f) {
      const double e = static_cast<double>(rng->NextBelow(4)) * grain;
      in.exact[p][f] = e;
      if (e == 0.0 && rng->NextBernoulli(0.5)) continue;  // zero bound
      const double slack =
          rng->NextBernoulli(0.4) ? 0.0
                                  : static_cast<double>(rng->NextBelow(5)) *
                                        grain;
      in.bounds[p][f] = e + slack;
      if (in.bounds[p][f] == 0.0) in.bounds[p][f] = grain;  // keep UB > 0
    }
  }
  return in;
}

// The answer by exhaustive evaluation: every total summed in part order.
std::vector<RankedFacility> ExhaustiveTopK(const Instance& in, size_t k) {
  const size_t facilities = in.exact[0].size();
  std::vector<RankedFacility> all(facilities);
  for (uint32_t f = 0; f < facilities; ++f) {
    double sum = 0.0;
    for (const auto& part : in.exact) sum += part[f];
    all[f] = RankedFacility{f, sum};
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(k);
  return all;
}

// The settled facilities ranked by RankedBefore must be the exhaustive
// top-k bit for bit.
void ExpectExhaustiveRanking(const TopKCoordinator& coord, const Instance& in,
                             size_t k, const std::string& label) {
  std::vector<RankedFacility> got = coord.Settled();
  ASSERT_GE(got.size(), k) << label;
  std::sort(got.begin(), got.end(), RankedBefore);
  got.resize(k);
  const std::vector<RankedFacility> want = ExhaustiveTopK(in, k);
  for (size_t r = 0; r < k; ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << label << " rank " << r;
    EXPECT_EQ(got[r].value, want[r].value) << label << " rank " << r;
  }
}

// Drives one coordinator to kDone, completing a random in-flight slot at
// each step, and checks the protocol invariants along the way.
void DriveAndCheck(const Instance& in, size_t k, size_t cap, Rng* rng,
                   const std::string& label) {
  const size_t parts = in.bounds.size();
  const size_t facilities = in.bounds[0].size();
  TopKCoordinator coord(in.bounds, k, cap);
  std::set<std::pair<uint32_t, uint32_t>> requested;
  std::vector<TopKCoordinator::Slot> in_flight;
  size_t done_seen = 0;

  auto pull = [&]() {
    TopKCoordinator::Slot slot;
    Step step;
    while ((step = coord.Next(&slot)) == Step::kEvaluate) {
      ASSERT_LT(slot.facility, facilities) << label;
      ASSERT_LT(slot.part, parts) << label;
      EXPECT_GT(in.bounds[slot.part][slot.facility], 0.0)
          << label << " requested a zero-bound slot";
      EXPECT_TRUE(requested.emplace(slot.facility, slot.part).second)
          << label << " requested slot (" << slot.facility << ", "
          << slot.part << ") twice";
      in_flight.push_back(slot);
      EXPECT_LE(in_flight.size(), cap) << label << " exceeded the cap";
    }
    if (step == Step::kDone) {
      EXPECT_TRUE(in_flight.empty()) << label << " done with slots in flight";
      ++done_seen;
    } else {
      EXPECT_FALSE(in_flight.empty()) << label << " waits on nothing";
    }
  };

  pull();
  while (!in_flight.empty()) {
    const size_t i = rng->NextBelow(in_flight.size());
    const TopKCoordinator::Slot slot = in_flight[i];
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
    coord.Complete(slot, in.exact[slot.part][slot.facility]);
    pull();
  }
  EXPECT_EQ(done_seen, 1u) << label;
  EXPECT_LE(requested.size(), parts * facilities) << label;
  EXPECT_EQ(coord.requested(), requested.size()) << label;
  EXPECT_EQ(coord.num_slots(), parts * facilities) << label;

  ExpectExhaustiveRanking(coord, in, k, label);
}

// The pattern of a caller that already knows some exact values (the remote
// coordinator's round-1 results): with the cap at every slot, one drain
// completes the pre-known slots inline as Next() hands them out and leaves
// the rest in flight; once those complete, the very next Next() is kDone —
// one batch of evaluations settles the answer.
void DrainOnceAndCheck(const Instance& in, size_t k, Rng* rng,
                       const std::string& label) {
  const size_t parts = in.bounds.size();
  const size_t facilities = in.bounds[0].size();
  TopKCoordinator coord(in.bounds, k, parts * facilities);
  std::vector<uint8_t> preknown(parts * facilities);
  for (uint8_t& known : preknown) known = rng->NextBernoulli(0.5) ? 1 : 0;
  std::vector<TopKCoordinator::Slot> deferred;
  TopKCoordinator::Slot slot;
  Step step;
  while ((step = coord.Next(&slot)) == Step::kEvaluate) {
    if (preknown[slot.facility * parts + slot.part] != 0) {
      coord.Complete(slot, in.exact[slot.part][slot.facility]);
    } else {
      deferred.push_back(slot);
    }
  }
  EXPECT_EQ(step, deferred.empty() ? Step::kDone : Step::kWait) << label;
  for (const TopKCoordinator::Slot& s : deferred) {
    coord.Complete(s, in.exact[s.part][s.facility]);
  }
  EXPECT_EQ(coord.Next(&slot), Step::kDone) << label;
  ExpectExhaustiveRanking(coord, in, k, label);
}

TEST(TopKCoordinator, RandomInstancesMatchExhaustiveRanking) {
  Rng rng(20240611);
  // Own stream for the drain mode, so the capped mode's draws (instances,
  // caps, completion orders) stay what they were before the mode existed.
  Rng drain_rng(20240612);
  for (const size_t parts : {1u, 2u, 4u, 8u}) {
    for (int trial = 0; trial < 150; ++trial) {
      const size_t facilities = 2 + rng.NextBelow(14);
      const double grain = trial % 2 == 0 ? 1.0 : 0.1;
      const Instance in = RandomInstance(&rng, parts, facilities, grain);
      for (const size_t k : {size_t{1}, size_t{3}, facilities - 1,
                             facilities}) {
        if (k < 1 || k > facilities) continue;
        const std::string label = "parts=" + std::to_string(parts) +
                                  " trial=" + std::to_string(trial) +
                                  " k=" + std::to_string(k);
        const size_t cap = 1 + rng.NextBelow(8);
        DriveAndCheck(in, k, cap, &rng, label + " cap=" + std::to_string(cap));
        DrainOnceAndCheck(in, k, &drain_rng, label + " drain");
      }
    }
  }
}

// Every bound zero: the answer is settled before any slot is requested.
TEST(TopKCoordinator, AllZeroBoundsSettleWithoutRequests) {
  const std::vector<std::vector<double>> bounds(3,
                                                std::vector<double>(5, 0.0));
  TopKCoordinator coord(bounds, 2, 4);
  TopKCoordinator::Slot slot;
  EXPECT_EQ(coord.Next(&slot), Step::kDone);
  EXPECT_EQ(coord.requested(), 0u);
  std::vector<RankedFacility> settled = coord.Settled();
  ASSERT_EQ(settled.size(), 5u);
  std::sort(settled.begin(), settled.end(), RankedBefore);
  EXPECT_EQ(settled[0].id, 0u);
  EXPECT_EQ(settled[1].id, 1u);
}

// One slot at a time, the order is the documented best-first one and the
// search stops as soon as no incomplete facility can reach τ.
TEST(TopKCoordinator, SequentialOrderIsBestFirst) {
  // Two parts, three facilities. cur: f0 = 10, f1 = 9, f2 = 4.
  const std::vector<std::vector<double>> bounds = {{4, 5, 2}, {6, 4, 2}};
  const std::vector<std::vector<double>> exact = {{4, 1, 2}, {5, 1, 2}};
  TopKCoordinator coord(bounds, 1, 1);
  std::vector<std::pair<uint32_t, uint32_t>> order;
  TopKCoordinator::Slot slot;
  Step step;
  while ((step = coord.Next(&slot)) == Step::kEvaluate) {
    order.emplace_back(slot.facility, slot.part);
    coord.Complete(slot, exact[slot.part][slot.facility]);
  }
  EXPECT_EQ(step, Step::kDone);
  // f0 (cur 10) goes first, part 1 (UB 6) before part 0. After part 1,
  // cur(f0) = 4 + 5 = 9 ties cur(f1) = 9; the tie goes to the smaller id,
  // so f0 completes at 9 = τ. f1 (cur 9 == τ) must still be refined, part 0
  // (UB 5) first, which drops cur(f1) to 1 + 4 = 5 < τ. f2 (cur 4) is never
  // touched.
  const std::vector<std::pair<uint32_t, uint32_t>> want = {
      {0, 1}, {0, 0}, {1, 0}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(coord.requested(), 3u);
  const std::vector<RankedFacility> settled = coord.Settled();
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_EQ(settled[0].id, 0u);
  EXPECT_EQ(settled[0].value, 9.0);
}

}  // namespace
}  // namespace tq
