#include "service/stop_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace tq {
namespace {

// splitmix64 finalizer — mixes the packed cell key into table slots. The
// packed key's low 32 bits are the y cell, which cluster badly without this.
inline uint64_t MixKey(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Serve predicate in squared form; expression shape matches Point
// DistanceSquared (dx*dx + dy*dy), so the grid and a linear scan agree.
inline bool WithinPsi2(double sx, double sy, double px, double py,
                       double psi2) {
  const double dx = px - sx;
  const double dy = py - sy;
  return dx * dx + dy * dy <= psi2;
}

inline uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

StopGrid::StopGrid(std::span<const Point> stops, double psi)
    : stops_(stops.begin(), stops.end()),
      psi_(psi),
      psi2_(psi * psi),
      inv_cell_(1.0 / psi) {
  TQ_CHECK_MSG(psi > 0.0, "psi must be positive");
  TQ_CHECK_MSG(!stops_.empty(), "facility must have at least one stop");
  mbr_ = Rect::BoundingBox(stops_);
  embr_ = mbr_.Expanded(psi_);

  // Dilated occupancy: stop i contributes itself to the neighborhood list of
  // each of the 9 cells around its own, so a probe later needs only its own
  // cell's list. Two passes: insert keys + count list sizes, then assign
  // ranges and scatter (counting-sort style, stable — stops appear in each
  // list in stop order).
  const uint32_t num_stops = static_cast<uint32_t>(stops_.size());
  std::vector<int64_t> keys(num_stops * 9);
  for (uint32_t i = 0; i < num_stops; ++i) {
    const auto cx = static_cast<int64_t>(std::floor(stops_[i].x * inv_cell_));
    const auto cy = static_cast<int64_t>(std::floor(stops_[i].y * inv_cell_));
    int64_t* k = &keys[i * 9];
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        *k++ = ((cx + dx) << 32) ^ ((cy + dy) & 0xFFFFFFFFLL);
      }
    }
  }

  // First pass inserts unique keys into the table and counts per-cell sizes.
  // Capacity 2 × the 9·stops insertions bounds the load factor at 1/2 even
  // if every neighborhood key were unique, so probe chains stay short.
  table_.assign(NextPow2(std::max<uint64_t>(8, uint64_t{num_stops} * 9 * 2)),
                Cell{});
  table_mask_ = table_.size() - 1;
  for (const int64_t key : keys) {
    uint64_t slot = MixKey(key) & table_mask_;
    while (table_[slot].n != 0 && table_[slot].key != key) {
      slot = (slot + 1) & table_mask_;
    }
    table_[slot].key = key;
    ++table_[slot].n;
  }

  // Assign [begin, begin+n) ranges per cell.
  uint32_t offset = 0;
  for (Cell& c : table_) {
    if (c.n == 0) continue;
    c.begin = offset;
    offset += c.n;
  }
  bucket_x_.assign(offset, 0.0);
  bucket_y_.assign(offset, 0.0);
  bucket_idx_.assign(offset, 0);

  // Second pass scatters stops into their neighborhood runs.
  std::vector<uint32_t> fill(table_.size(), 0);
  for (uint32_t i = 0; i < num_stops; ++i) {
    for (int j = 0; j < 9; ++j) {
      const int64_t key = keys[i * 9 + j];
      uint64_t slot = MixKey(key) & table_mask_;
      while (table_[slot].key != key || table_[slot].n == 0) {
        slot = (slot + 1) & table_mask_;
      }
      const uint32_t at = table_[slot].begin + fill[slot]++;
      bucket_x_[at] = stops_[i].x;
      bucket_y_[at] = stops_[i].y;
      bucket_idx_[at] = i;
    }
  }
}

int64_t StopGrid::CellKey(double x, double y) const {
  const auto cx = static_cast<int64_t>(std::floor(x * inv_cell_));
  const auto cy = static_cast<int64_t>(std::floor(y * inv_cell_));
  // Pack two 32-bit cell coordinates; city extents are far below 2^31 cells.
  return (cx << 32) ^ (cy & 0xFFFFFFFFLL);
}

const StopGrid::Cell* StopGrid::FindCell(int64_t key) const {
  uint64_t slot = MixKey(key) & table_mask_;
  while (true) {
    const Cell& c = table_[slot];
    if (c.n == 0) return nullptr;
    if (c.key == key) return &c;
    slot = (slot + 1) & table_mask_;
  }
}

bool StopGrid::Serves(const Point& p) const {
  if (!embr_.Contains(p)) return false;
  const Cell* c = FindCell(CellKey(p.x, p.y));
  if (c == nullptr) return false;
  const double* xs = bucket_x_.data() + c->begin;
  const double* ys = bucket_y_.data() + c->begin;
  for (uint32_t k = 0; k < c->n; ++k) {
    if (WithinPsi2(xs[k], ys[k], p.x, p.y, psi2_)) return true;
  }
  return false;
}

double StopGrid::NearbyStopDistance(const Point& p) const {
  // The probe cell's neighborhood list IS the 3×3 stop set.
  double best = std::numeric_limits<double>::infinity();
  const Cell* c = FindCell(CellKey(p.x, p.y));
  if (c == nullptr) return best;
  for (uint32_t k = 0; k < c->n; ++k) {
    const uint32_t si = bucket_idx_[c->begin + k];
    best = std::min(best, DistanceSquared(p, stops_[si]));
  }
  return std::sqrt(best);
}

}  // namespace tq
