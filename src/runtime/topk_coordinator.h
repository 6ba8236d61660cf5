// Global best-first coordination of a pruned top-k over additive parts.
//
// The value of facility f is a sum over disjoint parts (shards, or workers
// owning shard ranges): SO(f) = Σ_p SO_p(f). Each (facility, part) pair is a
// SLOT. The caller supplies a cheap upper bound UB_p(f) ≥ SO_p(f) ≥ 0 for
// every slot, then evaluates slots exactly as the coordinator asks for them.
// This is the paper's best-first kMaxRRST search lifted to the slot level:
//
//   cur(f)  = Σ_p (exact SO_p(f) if known, else UB_p(f)), summed in part
//             order — an upper bound on SO(f) that only ever falls;
//   τ       = the k-th largest value among COMPLETE facilities (every slot
//             known), or −∞ while fewer than k are complete — it only rises;
//   next    = a not-yet-requested slot of the incomplete facility with the
//             largest cur(f) (ties by ascending id), its highest-UB part
//             first (ties by ascending part);
//   stop    = nothing in flight and every incomplete facility has
//             cur(f) < τ.
//
// Zero-bound slots are settled as exact 0 up front (0 ≤ SO_p(f) ≤ 0) and
// never requested. At the stop, every incomplete facility has
// SO(f) ≤ cur(f) < τ — strictly below k complete facilities even on exact
// ties — so ranking the complete facilities by (value desc, id asc) gives
// the exact answer. cur(f) == τ stays a candidate for that reason. A
// complete facility's cur(f) IS its exact total, summed in ascending part
// order exactly like an exhaustive gather, so answers are bit-identical.
// Soundness of cur(f) as a bound under rounding: IEEE-754 addition is
// monotone, so a sequential sum of terms each ≥ the exact term is ≥ the
// exact sequential sum.
//
// The class is pure bookkeeping — no threads, no locks, no engine types.
// Callers serialize access and keep at most `max_in_flight` slots running;
// ShardedEngine drives it from pool threads under a per-query mutex.
#ifndef TQCOVER_RUNTIME_TOPK_COORDINATOR_H_
#define TQCOVER_RUNTIME_TOPK_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "query/topk.h"

namespace tq::runtime {

class TopKCoordinator {
 public:
  struct Slot {
    uint32_t facility = 0;
    uint32_t part = 0;
  };

  /// What the caller should do next (see Next()).
  enum class Step {
    kEvaluate,  // evaluate the returned slot, then Complete() it
    kWait,      // nothing to start until an in-flight slot completes
    kDone,      // nothing in flight and nothing left to refine: Settled()
                // now holds the answer
  };

  /// `bounds[p][f]` = UB_p(f) ≥ SO_p(f) ≥ 0; every row has one entry per
  /// facility. Requires 1 ≤ k ≤ #facilities and max_in_flight ≥ 1.
  TopKCoordinator(const std::vector<std::vector<double>>& bounds, size_t k,
                  size_t max_in_flight);

  /// Hands out the next slot to evaluate (kEvaluate, written to `*slot`),
  /// or says why there is none. kDone is final: once returned, every later
  /// call returns it too. A caller that calls Next() only up front and after
  /// each Complete() therefore sees kDone once — right after the last
  /// in-flight slot completes, or on the first call if the bounds alone
  /// settle the answer.
  Step Next(Slot* slot);

  /// Records the exact value of a slot Next() handed out.
  void Complete(Slot slot, double value);

  /// Every complete facility with its exact total — a superset of the
  /// top-k once Next() returned kDone; ranking these by RankedBefore and
  /// truncating to k is the answer.
  std::vector<RankedFacility> Settled() const;

  size_t num_slots() const { return cur_.size() * num_parts_; }
  /// Slots handed out by Next() so far (zero-bound slots are never counted).
  size_t requested() const { return requested_; }

 private:
  enum SlotState : uint8_t { kUnrequested, kInFlight, kKnown };
  /// Max-heap entry: cur(f) as of the push. cur(f) only falls, so an entry
  /// whose value differs from cur_[f] is stale and is refreshed lazily.
  using Entry = std::pair<double, uint32_t>;

  size_t At(uint32_t f, uint32_t p) const { return f * num_parts_ + p; }
  void Recompute(uint32_t f);
  void AddComplete(double value);
  double Tau() const;

  size_t num_parts_;
  size_t k_;
  size_t max_in_flight_;
  // Per-slot arrays, facility-major (index At(f, p)).
  std::vector<double> bound_;
  std::vector<double> exact_;
  std::vector<uint8_t> state_;
  /// Positive-bound parts of each facility in request order (UB desc, part
  /// asc); `order_begin_[f]` .. `order_begin_[f + 1]` delimits f's run.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> order_begin_;
  std::vector<uint32_t> next_;     // per facility: cursor into its run
  std::vector<uint32_t> missing_;  // per facility: slots not yet known
  std::vector<double> cur_;        // per facility
  /// Facilities with unrequested slots, by (cur desc, id asc).
  std::vector<Entry> candidates_;
  /// Min-heap of the k largest complete totals; its top is τ once full.
  std::vector<double> best_;
  size_t in_flight_ = 0;
  size_t requested_ = 0;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_TOPK_COORDINATOR_H_
