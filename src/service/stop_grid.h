// Uniform hash grid over one facility's stop points.
//
// Answers "is this user point within ψ of any stop of the facility?" in O(1)
// expected time. Every query method — BL, TQ(B) and TQ(Z) — funnels its
// final exact check through this structure, so the methods can only differ
// in *which* candidates they inspect, never in the service value they
// assign. This also realises the paper's MakeUnion merge step: clipped
// facility components re-unify here because the grid always holds the full
// facility.
//
// Layout: cells are ψ×ψ, and the table stores the DILATED occupancy — every
// cell whose 3×3 neighborhood contains a stop gets an entry listing all the
// stops of that neighborhood. A stop within ψ of a probe point is always in
// the probe cell's 3×3 window (cell size = ψ), so one open-addressed find
// returns every candidate stop and a probe costs one hash lookup + one SoA
// distance scan — not the nine per-neighbor lookups of the classic 3×3
// probe, which dominate the profile (the seed's unordered_map version spent
// 21% of SO evaluation in hashtable find alone). Each stop appears in at
// most 9 neighborhood lists, so memory stays O(9 · stops).
//
// Neighborhood runs live in SoA coordinate arrays, so a probe's ψ² check is
// one scalar loop over its cell's run with an early exit on the first hit.
#ifndef TQCOVER_SERVICE_STOP_GRID_H_
#define TQCOVER_SERVICE_STOP_GRID_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace tq {

/// Immutable ψ-cell hash grid over a facility's stops.
class StopGrid {
 public:
  StopGrid(std::span<const Point> stops, double psi);

  double psi() const { return psi_; }
  std::span<const Point> stops() const { return stops_; }

  /// MBR of the stops.
  const Rect& mbr() const { return mbr_; }

  /// ψ-extended MBR — the paper's EMBR enclosing the serving area (§IV-A).
  const Rect& embr() const { return embr_; }

  /// True iff `p` is within ψ of at least one stop.
  bool Serves(const Point& p) const;

  /// Distance from `p` to the nearest stop within the 3×3 probe window;
  /// +inf when no stop is that close. Used by diagnostics and tests.
  double NearbyStopDistance(const Point& p) const;

 private:
  // Open-addressed table slot for one dilated cell. `n == 0` marks an empty
  // slot; every real entry lists at least one neighborhood stop.
  struct Cell {
    int64_t key = 0;
    uint32_t begin = 0;  // offset into bucket_x_/bucket_y_
    uint32_t n = 0;      // neighborhood stop count
  };

  int64_t CellKey(double x, double y) const;
  const Cell* FindCell(int64_t key) const;

  std::vector<Point> stops_;
  double psi_;
  double psi2_;  // fl(psi * psi), hoisted out of every probe
  double inv_cell_;
  Rect mbr_;
  Rect embr_;
  std::vector<Cell> table_;  // power-of-two open-addressed cell table
  uint64_t table_mask_ = 0;
  // SoA stop coordinates grouped by dilated cell. bucket_idx_ maps slots to
  // stop ids.
  std::vector<double> bucket_x_;
  std::vector<double> bucket_y_;
  std::vector<uint32_t> bucket_idx_;
};

}  // namespace tq

#endif  // TQCOVER_SERVICE_STOP_GRID_H_
