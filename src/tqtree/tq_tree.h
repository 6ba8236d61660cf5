// The Trajectory Quadtree (TQ-tree) — the paper's core contribution (§III).
//
// Two-level index over user trajectories:
//   level 1: a quadtree whose node E stores, in UL(E), the trajectories (or
//            segments) that span E's children (internal nodes) or fit inside
//            E (leaves), so longer units live higher in the tree;
//   level 2: per node, a z-order bucket list (ZIndex) grouping co-located,
//            similarly-oriented units — the structure zReduce prunes.
//
// Variants (all from the paper's evaluation):
//   * IndexVariant::kBasic  — TQ(B): flat per-node lists, no z-ordering.
//   * IndexVariant::kZOrder — TQ(Z): z-ordered buckets per node.
//   * TrajMode::kWhole      — trajectories stored whole: the two-point index
//                             of §III and the full-trajectory index of §III-A.
//   * TrajMode::kSegmented  — every consecutive point pair stored as its own
//                             unit (the segmented index of §III-A).
//
// Persistent storage (the serving runtime's snapshot substrate): nodes live
// in immutable, reference-counted pages (NodePage, node.h) addressed through
// a per-tree page table, id -> pages_[id >> kNodePageShift]. Fork() produces
// a new tree sharing EVERY page with its parent in O(num_pages) pointer
// copies; a subsequent Insert/Remove on either tree path-copies only the
// pages its root-to-leaf paths (and split allocations) touch, re-tagging
// them with the writing tree's epoch. Untouched pages — including their
// already-built z-indexes — stay shared, so publishing a small write batch
// costs O(batch × depth) node copies instead of a full-tree clone.
#ifndef TQCOVER_TQTREE_TQ_TREE_H_
#define TQCOVER_TQTREE_TQ_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "service/models.h"
#include "tqtree/node.h"
#include "traj/dataset.h"

namespace tq {

class PointRaster;  // tqtree/point_raster.h
class StopGrid;     // service/stop_grid.h

/// Which second-level organisation a tree uses.
enum class IndexVariant { kBasic, kZOrder };

/// Whether trajectories are stored whole or as independent segments.
enum class TrajMode { kWhole, kSegmented };

/// Construction parameters.
struct TQTreeOptions {
  /// Node capacity and z-bucket size — the paper's β ("size of a memory
  /// block").
  size_t beta = 64;
  /// Maximum quadtree depth.
  int max_depth = 20;
  IndexVariant variant = IndexVariant::kZOrder;
  TrajMode mode = TrajMode::kWhole;
  /// Service model the per-node upper bounds are computed for.
  ServiceModel model;
  /// Ablation: give TQ(B)'s linear scan a per-entry MBR pre-check.
  bool basic_entry_mbr_precheck = false;
};

/// Structural statistics (index size accounting of §III-B).
struct TQTreeStats {
  size_t num_nodes = 0;
  size_t num_leaves = 0;
  size_t num_entries = 0;
  size_t max_depth = 0;
  size_t max_list_len = 0;
  double avg_list_len = 0.0;

  std::string ToString() const;
};

/// Copy-on-write accounting since this tree was forked (all zero for trees
/// built from scratch or loaded from disk). `nodes_copied` counts the nodes
/// living in pages this tree had to duplicate before writing — the physical
/// publish cost a write batch pays; `pages_shared` is how many of the
/// fork-time pages are still shared with the parent snapshot.
struct CowStats {
  uint64_t pages_copied = 0;
  uint64_t nodes_copied = 0;
  uint64_t pages_at_fork = 0;

  uint64_t pages_shared() const {
    return pages_at_fork > pages_copied ? pages_at_fork - pages_copied : 0;
  }
};

/// The TQ-tree. Bulk-built over a TrajectorySet (not owned; must outlive the
/// tree); supports dynamic Insert/Remove (§III-C). Not thread-safe: z-index
/// rebuilds after updates are lazy and mutate internal state on first query.
class TQTree {
 public:
  TQTree(const TrajectorySet* users, TQTreeOptions options);

  // A plain copy would share pages AND the ownership epoch — both sides
  // would then write shared pages in place. Fork() is the only sanctioned
  // way to duplicate a tree.
  TQTree(const TQTree&) = delete;
  TQTree& operator=(const TQTree&) = delete;

  const TQTreeOptions& options() const { return options_; }
  const TrajectorySet& users() const { return *users_; }
  const Rect& world() const { return world_; }
  ZPruneMode prune_mode() const { return prune_mode_; }

  /// True when every stored unit is a two-point unit (segments, or whole
  /// trajectories of a source-destination dataset). Then a unit's stored MBR
  /// is exactly its endpoint MBR, so a unit with both endpoints inside a
  /// facility's EMBR lies wholly inside it — combined with kStartEnd pruning
  /// (no partial credit), top-k may skip the inter-node lists of
  /// ContainingNode's ancestors (see TopKFacilitiesTQ).
  bool two_point_units() const {
    return options_.mode == TrajMode::kSegmented || max_points_ <= 2;
  }

  int32_t root() const { return 0; }
  const TQNode& node(int32_t idx) const {
    return pages_[static_cast<size_t>(idx) >> kNodePageShift]
        ->nodes[static_cast<size_t>(idx) & kNodePageMask];
  }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_pages() const { return pages_.size(); }
  size_t num_units() const { return num_units_; }

  /// Structurally-shared copy: the fork shares every node page (and every
  /// built z-index) with this tree; both sides then copy pages on first
  /// write, so neither can disturb the other. `users` must be the same
  /// trajectory set or an append-only extension of it (ids are stable), and
  /// must outlive the fork. Cost: O(num_pages) shared_ptr copies — this is
  /// the snapshot-publish primitive of the concurrent runtime.
  ///
  /// After the fork, the PARENT also copies on write (it no longer owns any
  /// page), so retained older snapshots stay bit-identical no matter which
  /// side is written next.
  ///
  /// Rare slow path: if the extended user set flips the tree's
  /// soundness-preserving z-prune mode (a longer trajectory appears and
  /// EndpointsOnly no longer holds), the shared z-indexes are invalid for
  /// the fork and every node is marked dirty — the publish then costs a
  /// rebuild, like the old full clone, but never answers wrongly.
  std::unique_ptr<TQTree> Fork(const TrajectorySet* users);

  /// Copy-on-write accounting since the last Fork() that created this tree.
  const CowStats& cow_stats() const { return cow_stats_; }

  /// Smallest node whose rectangle contains `r` (the paper's
  /// containingQNode); the root when nothing smaller contains it.
  int32_t ContainingNode(const Rect& r) const;

  /// Cheap, sound upper bound on SO(U, f) for the facility behind `grid`:
  /// the point-mass raster's summed value caps over every cell a stop's
  /// ψ-square touches (PointRaster::MassNearStops). No node is walked and
  /// no entry scanned, which is what makes the sharded engine's
  /// bound-and-prune top-k sweep cheap. Never smaller than
  /// EvaluateServiceTQ's exact value. Requires a frozen tree (the raster
  /// is built by the first BuildAllZIndexes()); thread-safe once frozen.
  double UpperBound(const StopGrid& grid) const;

  /// Nodes on the path root → `idx`, inclusive.
  std::vector<int32_t> PathTo(int32_t idx) const;

  /// Z-index over `idx`'s list, rebuilding if dirty. Returns nullptr for
  /// kBasic trees and for empty lists.
  const ZIndex* zindex(int32_t idx);

  /// Rebuilds every dirty z-index now (no-op for kBasic trees). After this,
  /// queries are read-only until the next Insert/Remove — the freezing step
  /// the concurrent runtime performs before publishing a tree snapshot. On a
  /// fork, only nodes the write batch touched are dirty, so this rebuilds
  /// O(batch × depth) z-indexes, not the whole tree's.
  void BuildAllZIndexes();

  /// Inserts trajectory `traj_id` of the user set (as a whole unit or as all
  /// of its segments, per the tree mode). O(h) descent per unit (§III-C).
  void Insert(uint32_t traj_id);

  /// De-indexes trajectory `traj_id`. Returns false if it was not indexed.
  /// (The TrajectorySet itself is append-only; removal affects the index
  /// only.)
  bool Remove(uint32_t traj_id);

  TQTreeStats ComputeStats() const;

  /// Total of all per-node `sub` consistency: root sub must equal the sum of
  /// every stored unit's upper bound. Used by tests / TQ_DCHECK audits.
  double RootUpperBound() const { return node(0).sub; }

 private:
  friend class TQTreeBuilderAccess;  // test hook
  friend class TQTreeSerializer;     // serialize.cc: raw node access

  /// Deserialisation constructor: sets up members without bulk-building.
  struct DeserializeTag {};
  TQTree(const TrajectorySet* users, TQTreeOptions options, DeserializeTag);

  /// Writable reference to node `idx`: copies its page first if the page is
  /// shared with (or still owned by) another tree instance. References stay
  /// valid until another CopyPage of the SAME page — appends never move
  /// existing nodes, unlike the old contiguous node array.
  TQNode& MutableNode(int32_t idx) {
    const auto p = static_cast<size_t>(idx) >> kNodePageShift;
    if (pages_[p]->epoch != epoch_) CopyPage(p);
    return pages_[p]->nodes[static_cast<size_t>(idx) & kNodePageMask];
  }
  void CopyPage(size_t page_index);
  /// Rebuilds the point-mass raster from the currently indexed
  /// trajectories (first freeze, and deserialised trees).
  void BuildRaster();
  /// Deposits (+1) / withdraws (-1) `traj_id`'s point weights, copying a
  /// raster shared with forks first (raster copy-on-write).
  void RasterApply(uint32_t traj_id, double sign);
  /// Appends a default node, growing (and if needed copy-owning) the last
  /// page; returns its id.
  int32_t AppendNode();
  /// Allocates `count` owned pages holding exactly `n` default nodes (load
  /// path; no sharing, no copy accounting).
  void ResizeNodes(size_t n);
  void MarkAllZIndexesDirty();

  void BulkBuild();
  void InsertEntry(const TrajEntry& e);
  void StoreAt(int32_t idx, const TrajEntry& e);
  void MaybeSplit(int32_t idx);
  bool RemoveUnit(uint32_t traj_id, uint32_t seg_index, const Rect& unit_mbr,
                  double ub, const ServiceAggregates& agg);
  /// Child of `idx` whose rect contains `mbr`, or -1.
  int32_t ChildContaining(int32_t idx, const Rect& mbr) const;

  const TrajectorySet* users_;
  TQTreeOptions options_;
  Rect world_;
  ZPruneMode prune_mode_;
  /// Page-table storage: node id -> pages_[id >> shift]->nodes[id & mask].
  /// Pages are shared across forked trees; epoch_ tags the pages this
  /// instance may write in place.
  std::vector<std::shared_ptr<NodePage>> pages_;
  size_t num_nodes_ = 0;
  uint64_t epoch_ = 0;
  CowStats cow_stats_;
  size_t num_units_ = 0;
  size_t max_points_ = 0;
  /// Point-mass raster for UpperBound(); built on first freeze, shared
  /// with forks until either side writes (raster_owned_ gates in-place
  /// mutation, mirroring the page epochs). Null until frozen.
  std::shared_ptr<PointRaster> raster_;
  bool raster_owned_ = false;
};

/// Derives the soundness-preserving prune mode for a tree configuration (see
/// ZPruneMode). `max_points` is the maximum trajectory point count.
ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points);

}  // namespace tq

#endif  // TQCOVER_TQTREE_TQ_TREE_H_
