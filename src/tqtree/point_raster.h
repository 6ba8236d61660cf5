// Point-mass raster: the TQ-tree's density aggregate behind the cheap
// per-facility service upper bound (TQTree::UpperBound), which drives the
// serving top-k sweep.
//
// Node-granularity aggregates (sub / local_ub) cannot discriminate
// facilities on workloads where units roam: a check-in trajectory spanning
// half the city parks in an upper node whose list bound charges EVERY
// facility the unit's full value. The raster forgets units entirely and
// aggregates the per-POINT value caps on a fixed R×R grid over the tree's
// world:
//
//   * every indexed trajectory deposits, into the cell of each of its
//     points, the largest service value that point alone can unlock under
//     the tree's model (Scenario 1: 1 on the source point — a served user
//     needs its source within ψ; Scenario 2: the point's own count weight,
//     1 or 1/|u|; Scenario 3: the outgoing segment's length share — a
//     served segment needs its start within ψ);
//   * a facility can only be served by points within ψ of its stops, so
//     SO(U, f) ≤ the summed mass of all cells intersecting the stops'
//     ψ-squares (each covered cell counted once, however many stop squares
//     overlap it).
//
// Cell coordinates clamp monotonically at the world border, so points and
// stops beyond it still land in consistent border cells and the bound stays
// sound. Cost per facility is O(stops × cells-per-ψ-square) — independent
// of both the number of users and the tree shape.
//
// The raster is shared across TQTree::Fork() like node pages are: forks
// alias it read-only and the first Insert/Remove on either side copies it
// (one R×R memcpy per writing publish), so retained snapshots keep the
// exact mass their answers were bounded with.
#ifndef TQCOVER_TQTREE_POINT_RASTER_H_
#define TQCOVER_TQTREE_POINT_RASTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "service/models.h"

namespace tq {

/// Fixed-resolution grid of per-cell service-value caps. Copyable (that is
/// the fork copy-on-write path); not thread-safe for writes.
class PointRaster {
 public:
  /// Cells per axis (R). Fixed: the TQT2 snapshot header records it, and
  /// the reader refuses any other value.
  static constexpr size_t kResolution = 256;

  /// `world` must be non-empty.
  explicit PointRaster(const Rect& world);

  const Rect& world() const { return world_; }

  /// Deposits (`sign` = +1) or withdraws (`sign` = -1) one trajectory's
  /// per-point value caps under `model`. Add/remove must use the same
  /// point sequence and model to cancel.
  void AddTrajectory(std::span<const Point> points, const ServiceModel& model,
                     double sign);

  /// Upper bound on the service value reachable from `stops` with radius
  /// `psi`: summed mass of every cell intersecting a stop's ψ-square, each
  /// cell counted once. Includes a small multiplicative inflation so
  /// floating-point drift from long add/remove histories can never push
  /// the bound below the true remaining mass (an inflated bound is still a
  /// bound; a deflated one would prune real answers).
  double MassNearStops(std::span<const Point> stops, double psi) const;

 private:
  size_t ColOf(double x) const;
  size_t RowOf(double y) const;

  Rect world_;
  double inv_cell_w_ = 0.0;
  double inv_cell_h_ = 0.0;
  std::vector<double> mass_;  // row-major kResolution × kResolution
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_POINT_RASTER_H_
