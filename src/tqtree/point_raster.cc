#include "tqtree/point_raster.h"

#include <algorithm>

#include "common/check.h"
#include "geom/distance.h"

namespace tq {

namespace {

/// Covers floating-point drift of cell masses accumulated over long
/// add/remove histories (each cycle can leave ~ulp residue): the bound is
/// inflated by this factor, which dwarfs the relative drift of any
/// realistic churn volume while leaving the bound's ~small-multiple
/// looseness unchanged. Zero mass stays exactly zero.
constexpr double kDriftInflation = 1.0 + 1e-6;

}  // namespace

PointRaster::PointRaster(const Rect& world) : world_(world) {
  TQ_CHECK(!world.IsEmpty());
  const double r = static_cast<double>(kResolution);
  inv_cell_w_ = world_.Width() > 0 ? r / world_.Width() : 0.0;
  inv_cell_h_ = world_.Height() > 0 ? r / world_.Height() : 0.0;
  mass_.assign(kResolution * kResolution, 0.0);
}

size_t PointRaster::ColOf(double x) const {
  // Monotone clamped mapping: out-of-world coordinates share the border
  // column, so a point and a stop beyond the world still meet in it.
  const double c = (x - world_.min_x) * inv_cell_w_;
  if (c <= 0.0) return 0;
  const auto col = static_cast<size_t>(c);
  return std::min(col, kResolution - 1);
}

size_t PointRaster::RowOf(double y) const {
  const double r = (y - world_.min_y) * inv_cell_h_;
  if (r <= 0.0) return 0;
  const auto row = static_cast<size_t>(r);
  return std::min(row, kResolution - 1);
}

void PointRaster::AddTrajectory(std::span<const Point> points,
                                const ServiceModel& model, double sign) {
  if (points.empty()) return;
  switch (model.scenario) {
    case Scenario::kEndpoints:
      // S(u,f) = 1 requires the source within ψ of a stop; cap the whole
      // user's value on its source point alone (destination would double
      // the deposited mass for no extra soundness).
      mass_[RowOf(points.front().y) * kResolution +
            ColOf(points.front().x)] += sign;
      break;
    case Scenario::kPointCount: {
      const double w = model.normalization == Normalization::kPerUser
                           ? 1.0 / static_cast<double>(points.size())
                           : 1.0;
      for (const Point& p : points) {
        mass_[RowOf(p.y) * kResolution + ColOf(p.x)] += sign * w;
      }
      break;
    }
    case Scenario::kLength: {
      // A served segment needs BOTH endpoints within ψ, so charging each
      // segment's length to its start point is a cap.
      const double total = PolylineLength(points);
      const double norm = model.normalization == Normalization::kPerUser
                              ? (total > 0.0 ? 1.0 / total : 0.0)
                              : 1.0;
      for (size_t i = 0; i + 1 < points.size(); ++i) {
        mass_[RowOf(points[i].y) * kResolution + ColOf(points[i].x)] +=
            sign * Distance(points[i], points[i + 1]) * norm;
      }
      break;
    }
  }
}

double PointRaster::MassNearStops(std::span<const Point> stops,
                                  double psi) const {
  // Dedupe covered cells first: consecutive stops of one route overlap
  // heavily at ψ scale, and double-counting would inflate the bound by the
  // overlap factor. thread_local scratch: this runs once per (facility,
  // shard) inside the bound sweep, so per-call allocation would churn
  // (same pattern as the ZKeyRanges scratch in zindex.cc).
  static thread_local std::vector<uint32_t> cells;
  cells.clear();
  for (const Point& s : stops) {
    const size_t c0 = ColOf(s.x - psi);
    const size_t c1 = ColOf(s.x + psi);
    const size_t r0 = RowOf(s.y - psi);
    const size_t r1 = RowOf(s.y + psi);
    for (size_t r = r0; r <= r1; ++r) {
      for (size_t c = c0; c <= c1; ++c) {
        cells.push_back(static_cast<uint32_t>(r * kResolution + c));
      }
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  double sum = 0.0;
  // max(0): a cell whose deposits all cancelled may hold a tiny negative
  // residue; it must not subtract from other cells' real mass.
  for (const uint32_t cell : cells) sum += std::max(0.0, mass_[cell]);
  return sum * kDriftInflation;
}

}  // namespace tq
