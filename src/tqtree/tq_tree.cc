#include "tqtree/tq_tree.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/check.h"
#include "geom/distance.h"
#include "service/stop_grid.h"
#include "tqtree/aggregates.h"
#include "tqtree/point_raster.h"

namespace tq {

namespace {

/// Globally unique page-ownership tags. A page is writable in place only by
/// the tree whose epoch matches; Fork() hands BOTH trees fresh epochs so all
/// previously created pages become copy-on-write for either side.
uint64_t NewEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points) {
  if (mode == TrajMode::kSegmented) {
    // A segment unit exposes exactly its two endpoints. Scenario 3 serves a
    // segment only when both ends are within ψ (AND filter exact); Scenarios
    // 1/2 credit single points, so either covered end makes it a candidate.
    return model.scenario == Scenario::kLength ? ZPruneMode::kStartEnd
                                               : ZPruneMode::kStartOrEnd;
  }
  if (model.EndpointsOnly()) return ZPruneMode::kStartEnd;
  if (max_points <= 2) {
    return model.scenario == Scenario::kLength ? ZPruneMode::kStartEnd
                                               : ZPruneMode::kStartOrEnd;
  }
  return ZPruneMode::kMbr;
}

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options,
               DeserializeTag)
    : users_(users), options_(options), epoch_(NewEpoch()) {
  TQ_CHECK(users != nullptr);
  for (uint32_t u = 0; u < users_->size(); ++u) {
    max_points_ = std::max(max_points_, users_->NumPoints(u));
  }
  prune_mode_ = DerivePruneMode(options_.mode, options_.model, max_points_);
}

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options)
    : users_(users), options_(options), epoch_(NewEpoch()) {
  TQ_CHECK(users != nullptr);
  TQ_CHECK(options_.beta > 0);
  TQ_CHECK(options_.max_depth >= 1 && options_.max_depth <= 32);
  Rect box = users_->empty() ? Rect::Of(0, 0, 1, 1) : users_->BoundingBox();
  // Expand slightly so boundary points sit strictly inside and top splits
  // cannot degenerate.
  const double pad =
      0.001 * std::max({box.Width(), box.Height(), 1.0});
  world_ = box.Expanded(pad);

  for (uint32_t u = 0; u < users_->size(); ++u) {
    max_points_ = std::max(max_points_, users_->NumPoints(u));
  }
  prune_mode_ = DerivePruneMode(options_.mode, options_.model, max_points_);

  const int32_t root_id = AppendNode();
  TQNode& root = MutableNode(root_id);
  root.rect = world_;
  root.depth = 0;
  BulkBuild();
  if (options_.variant == IndexVariant::kZOrder) BuildAllZIndexes();
}

// ---------------------------------------------------------- page storage

void TQTree::CopyPage(size_t page_index) {
  const std::shared_ptr<NodePage>& old = pages_[page_index];
  pages_[page_index] = std::make_shared<NodePage>(*old, epoch_);
  cow_stats_.pages_copied++;
  // Count the live nodes physically duplicated (the last page may be
  // partially filled).
  const size_t first = page_index << kNodePageShift;
  cow_stats_.nodes_copied +=
      std::min(kNodePageSize, num_nodes_ - first);
}

int32_t TQTree::AppendNode() {
  const size_t slot = num_nodes_ & kNodePageMask;
  if (slot == 0) {
    // Fresh page: owned by construction, no copy.
    pages_.push_back(std::make_shared<NodePage>());
    pages_.back()->epoch = epoch_;
  } else if (pages_[num_nodes_ >> kNodePageShift]->epoch != epoch_) {
    // Appending into a shared page (fork whose last page has free slots):
    // copy it first so the parent never sees the new node.
    CopyPage(num_nodes_ >> kNodePageShift);
  }
  const auto id = static_cast<int32_t>(num_nodes_);
  ++num_nodes_;
  pages_[static_cast<size_t>(id) >> kNodePageShift]
      ->nodes[static_cast<size_t>(id) & kNodePageMask] = TQNode{};
  return id;
}

void TQTree::ResizeNodes(size_t n) {
  TQ_CHECK(pages_.empty() && num_nodes_ == 0);
  const size_t num_pages = (n + kNodePageSize - 1) / kNodePageSize;
  pages_.reserve(num_pages);
  for (size_t p = 0; p < num_pages; ++p) {
    pages_.push_back(std::make_shared<NodePage>());
    pages_.back()->epoch = epoch_;
  }
  num_nodes_ = n;
}

void TQTree::MarkAllZIndexesDirty() {
  for (size_t i = 0; i < num_nodes_; ++i) {
    TQNode& n = MutableNode(static_cast<int32_t>(i));
    n.zindex.reset();
    n.zindex_dirty = true;
  }
}

std::unique_ptr<TQTree> TQTree::Fork(const TrajectorySet* users) {
  TQ_CHECK(users != nullptr);
  // Every entry references a trajectory id of the original set; a superset
  // keeps them all valid (ids are stable — TrajectorySet is append-only).
  TQ_CHECK(users->size() >= users_->size());
  auto fork = std::unique_ptr<TQTree>(
      new TQTree(users, options_, DeserializeTag{}));
  fork->world_ = world_;
  fork->num_units_ = num_units_;
  fork->num_nodes_ = num_nodes_;
  fork->pages_ = pages_;  // structural sharing: O(num_pages) pointer copies
  fork->cow_stats_ = CowStats{};
  fork->cow_stats_.pages_at_fork = pages_.size();
  // Re-tag BOTH trees: every existing page now belongs to neither, so the
  // first write on either side copies the page instead of mutating shared
  // state. Readers of this (frozen, published) tree never look at epochs.
  epoch_ = NewEpoch();
  fork->epoch_ = NewEpoch();
  // The point-mass raster is shared the same way: neither side owns it
  // after the fork, so the first Insert/Remove on either copies it and
  // retained snapshots keep the mass their bounds were computed from.
  fork->raster_ = raster_;
  fork->raster_owned_ = false;
  raster_owned_ = false;
  if (fork->prune_mode_ != prune_mode_) {
    // The extended user set changed the soundness-preserving prune mode
    // (e.g. a longer trajectory appeared); every shared z-index was built
    // for the old mode and must be rebuilt. Degenerates to full-clone cost,
    // but stays correct. Rare: mode depends only on max_points crossing 2.
    fork->MarkAllZIndexesDirty();
  }
  return fork;
}

// ------------------------------------------------------------ build paths

void TQTree::BulkBuild() {
  for (uint32_t u = 0; u < users_->size(); ++u) Insert(u);
}

void TQTree::Insert(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  RasterApply(traj_id, 1.0);
  if (options_.mode == TrajMode::kWhole) {
    InsertEntry(MakeWholeEntry(*users_, traj_id, options_.model));
  } else {
    const size_t n = users_->NumPoints(traj_id);
    if (n < 2) {
      // A single-point trajectory degenerates to a zero-length segment so
      // it still participates in point-count service.
      InsertEntry(MakeWholeEntry(*users_, traj_id, options_.model));
      return;
    }
    for (uint32_t s = 0; s + 1 < n; ++s) {
      InsertEntry(MakeSegmentEntry(*users_, traj_id, s, options_.model));
    }
  }
}

int32_t TQTree::ChildContaining(int32_t idx, const Rect& mbr) const {
  const TQNode& n = node(idx);
  TQ_DCHECK(!n.IsLeaf());
  // The candidate child is the quadrant holding the MBR centre; containment
  // of the whole MBR still has to be verified.
  const int q = n.rect.QuadrantOf(mbr.Center());
  const int32_t child = n.first_child + q;
  if (node(child).rect.ContainsRect(mbr)) return child;
  return -1;
}

void TQTree::InsertEntry(const TrajEntry& e) {
  // Copy-on-write descent: only the root-to-store path is made writable
  // (aggregate repair happens along this copied spine), so a fork touches
  // O(depth) pages per inserted unit.
  int32_t idx = 0;
  for (;;) {
    TQNode& n = MutableNode(idx);
    n.sub += e.ub;
    n.sub_agg.Add(e.agg);
    if (n.IsLeaf()) {
      StoreAt(idx, e);
      MaybeSplit(idx);
      return;
    }
    const int32_t child = ChildContaining(idx, e.mbr);
    if (child < 0) {
      StoreAt(idx, e);  // inter-node unit
      return;
    }
    idx = child;
  }
}

void TQTree::StoreAt(int32_t idx, const TrajEntry& e) {
  TQNode& n = MutableNode(idx);
  n.entries.push_back(e);
  n.local_ub += e.ub;
  n.local_agg.Add(e.agg);
  n.zindex.reset();
  n.zindex_dirty = true;
  ++num_units_;
}

void TQTree::MaybeSplit(int32_t idx) {
  {
    const TQNode& n = node(idx);
    if (!n.IsLeaf()) return;
    if (n.entries.size() <= options_.beta) return;
    if (n.depth >= options_.max_depth) return;
    // Retry a failed split only after the list doubles.
    if (n.split_failed_at != 0 && n.entries.size() < 2 * n.split_failed_at) {
      return;
    }
    // Split only if at least one unit would move down (the paper partitions
    // while intra-node units remain; a split that leaves everything as
    // inter-node units is pure overhead).
    bool any_movable = false;
    for (const TrajEntry& e : n.entries) {
      const int q = n.rect.QuadrantOf(e.mbr.Center());
      if (n.rect.Quadrant(q).ContainsRect(e.mbr)) {
        any_movable = true;
        break;
      }
    }
    if (!any_movable) {
      const auto list_size = static_cast<uint32_t>(n.entries.size());
      MutableNode(idx).split_failed_at = list_size;  // may invalidate n
      return;
    }
  }

  // Allocate children. Appends never move existing nodes (pages are stable),
  // but AppendNode may copy-own the trailing page, so re-fetch references
  // after allocation anyway.
  const auto first = AppendNode();
  {
    const Rect rect = node(idx).rect;
    const auto depth = static_cast<int16_t>(node(idx).depth + 1);
    MutableNode(first).rect = rect.Quadrant(0);
    MutableNode(first).depth = depth;
    for (int q = 1; q < 4; ++q) {
      const int32_t child = AppendNode();
      TQ_CHECK(child == first + q);  // children contiguous in id space
      TQNode& c = MutableNode(child);
      c.rect = rect.Quadrant(q);
      c.depth = depth;
    }
    MutableNode(idx).first_child = first;
  }

  // Redistribute: units fitting a child sink; the rest stay as the
  // inter-node list of this (now internal) node.
  std::vector<TrajEntry> keep;
  std::vector<TrajEntry> moved;
  moved.reserve(node(idx).entries.size());
  {
    TQNode& n = MutableNode(idx);
    for (TrajEntry& e : n.entries) {
      const int q = n.rect.QuadrantOf(e.mbr.Center());
      if (n.rect.Quadrant(q).ContainsRect(e.mbr)) {
        moved.push_back(e);
      } else {
        keep.push_back(e);
      }
    }
    n.entries.swap(keep);
    n.zindex.reset();
    n.zindex_dirty = true;
    // Recompute local bookkeeping for the kept list.
    n.local_ub = 0.0;
    n.local_agg = ServiceAggregates{};
    for (const TrajEntry& e : n.entries) {
      n.local_ub += e.ub;
      n.local_agg.Add(e.agg);
    }
  }
  for (const TrajEntry& e : moved) {
    const int q = node(idx).rect.QuadrantOf(e.mbr.Center());
    const int32_t child = first + q;
    TQNode& c = MutableNode(child);
    c.sub += e.ub;
    c.sub_agg.Add(e.agg);
    c.entries.push_back(e);
    c.local_ub += e.ub;
    c.local_agg.Add(e.agg);
    c.zindex.reset();
    c.zindex_dirty = true;
  }
  for (int q = 0; q < 4; ++q) MaybeSplit(first + q);
}

int32_t TQTree::ContainingNode(const Rect& r) const {
  int32_t idx = 0;
  for (;;) {
    const TQNode& n = node(idx);
    if (n.IsLeaf()) return idx;
    const int32_t child = ChildContaining(idx, r);
    if (child < 0) return idx;
    idx = child;
  }
}

double TQTree::UpperBound(const StopGrid& grid) const {
  TQ_CHECK_MSG(raster_ != nullptr,
               "UpperBound needs a frozen tree (BuildAllZIndexes)");
  return raster_->MassNearStops(grid.stops(), grid.psi());
}

std::vector<int32_t> TQTree::PathTo(int32_t idx) const {
  // Rebuild the path by re-descending toward idx's rectangle centre.
  std::vector<int32_t> path;
  const Rect target = node(idx).rect;
  int32_t cur = 0;
  path.push_back(cur);
  while (cur != idx) {
    const TQNode& n = node(cur);
    TQ_CHECK_MSG(!n.IsLeaf(), "PathTo: idx not reachable from root");
    cur = n.first_child + n.rect.QuadrantOf(target.Center());
    path.push_back(cur);
  }
  return path;
}

const ZIndex* TQTree::zindex(int32_t idx) {
  if (options_.variant != IndexVariant::kZOrder) return nullptr;
  // Const pre-checks first: an up-to-date (possibly shared) index must not
  // trigger a page copy, or forks would duplicate every queried page.
  const TQNode& cn = node(idx);
  if (cn.entries.empty()) return nullptr;
  if (!cn.zindex_dirty) return cn.zindex.get();
  TQNode& n = MutableNode(idx);
  n.zindex = std::make_shared<const ZIndex>(n.rect, n.entries, options_.beta,
                                            prune_mode_);
  n.zindex_dirty = false;
  return n.zindex.get();
}

void TQTree::BuildAllZIndexes() {
  for (size_t i = 0; i < num_nodes_; ++i) {
    (void)zindex(static_cast<int32_t>(i));
  }
  // Freezing also materialises the point-mass raster (first freeze, or a
  // deserialised tree): forks inherit it, so steady-state publishes only
  // pay the copy-on-write path in RasterApply.
  if (raster_ == nullptr) BuildRaster();
}

void TQTree::BuildRaster() {
  raster_ = std::make_shared<PointRaster>(world_);
  raster_owned_ = true;
  // The indexed trajectory set is whatever the node lists currently hold
  // (bulk build indexes every user; Remove de-indexes): walk the entries,
  // depositing each trajectory once however many segments it spread into.
  std::vector<uint8_t> seen(users_->size(), 0);
  for (size_t i = 0; i < num_nodes_; ++i) {
    for (const TrajEntry& e : node(static_cast<int32_t>(i)).entries) {
      if (seen[e.traj_id]) continue;
      seen[e.traj_id] = 1;
      raster_->AddTrajectory(users_->points(e.traj_id), options_.model, 1.0);
    }
  }
}

void TQTree::RasterApply(uint32_t traj_id, double sign) {
  if (raster_ == nullptr) return;
  if (!raster_owned_) {
    // Copy-on-write: the raster is shared with a forked snapshot whose
    // bounds must stay frozen.
    raster_ = std::make_shared<PointRaster>(*raster_);
    raster_owned_ = true;
  }
  raster_->AddTrajectory(users_->points(traj_id), options_.model, sign);
}

bool TQTree::Remove(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  if (options_.mode == TrajMode::kWhole || users_->NumPoints(traj_id) < 2) {
    const TrajEntry e = MakeWholeEntry(*users_, traj_id, options_.model);
    if (!RemoveUnit(traj_id, e.seg_index, e.mbr, e.ub, e.agg)) return false;
    RasterApply(traj_id, -1.0);
    return true;
  }
  bool all = true;
  const size_t n = users_->NumPoints(traj_id);
  for (uint32_t s = 0; s + 1 < n; ++s) {
    const TrajEntry e = MakeSegmentEntry(*users_, traj_id, s, options_.model);
    all = RemoveUnit(traj_id, s, e.mbr, e.ub, e.agg) && all;
  }
  // Withdraw the raster mass only on a complete removal: leftover segments
  // keep their deposits, which can only overstate (never understate) the
  // bound.
  if (all) RasterApply(traj_id, -1.0);
  return all;
}

bool TQTree::RemoveUnit(uint32_t traj_id, uint32_t seg_index,
                        const Rect& unit_mbr, double ub,
                        const ServiceAggregates& agg) {
  // Locate the storing node by re-descending with the unit's MBR. Read-only:
  // pages are copied only once the unit is found (a miss costs nothing).
  std::vector<int32_t> path;
  int32_t idx = 0;
  int32_t store = -1;
  for (;;) {
    path.push_back(idx);
    const TQNode& n = node(idx);
    if (n.IsLeaf()) {
      store = idx;
      break;
    }
    const int32_t child = ChildContaining(idx, unit_mbr);
    if (child < 0) {
      store = idx;
      break;
    }
    idx = child;
  }
  std::ptrdiff_t pos = -1;
  {
    const TQNode& n = node(store);
    const auto it = std::find_if(n.entries.begin(), n.entries.end(),
                                 [&](const TrajEntry& e) {
                                   return e.traj_id == traj_id &&
                                          e.seg_index == seg_index;
                                 });
    if (it == n.entries.end()) return false;
    pos = it - n.entries.begin();
  }
  // A page copy preserves entry order, so the offset found on the shared
  // page stays valid on the writable copy.
  TQNode& n = MutableNode(store);
  n.entries.erase(n.entries.begin() + pos);
  n.local_ub -= ub;
  n.local_agg.Subtract(agg);
  n.zindex.reset();
  n.zindex_dirty = true;
  // Aggregate repair along the copied spine only.
  for (const int32_t p : path) {
    TQNode& pn = MutableNode(p);
    pn.sub -= ub;
    pn.sub_agg.Subtract(agg);
  }
  --num_units_;
  return true;
}

TQTreeStats TQTree::ComputeStats() const {
  TQTreeStats s;
  s.num_nodes = num_nodes_;
  for (size_t i = 0; i < num_nodes_; ++i) {
    const TQNode& n = node(static_cast<int32_t>(i));
    if (n.IsLeaf()) ++s.num_leaves;
    s.num_entries += n.entries.size();
    s.max_depth = std::max(s.max_depth, static_cast<size_t>(n.depth));
    s.max_list_len = std::max(s.max_list_len, n.entries.size());
  }
  s.avg_list_len = s.num_nodes == 0
                       ? 0.0
                       : static_cast<double>(s.num_entries) /
                             static_cast<double>(s.num_nodes);
  return s;
}

std::string TQTreeStats::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "nodes=%zu leaves=%zu entries=%zu max_depth=%zu "
                "max_list=%zu avg_list=%.2f",
                num_nodes, num_leaves, num_entries, max_depth, max_list_len,
                avg_list_len);
  return buf;
}

}  // namespace tq
