// GridIndex: the shared access structure at the heart of the framework.
//
// "We use a simple grid structure that divides the space evenly into N x N
// equal sized grid cells. We utilize one grid structure that holds both
// objects and queries." (paper, Section 3.1)
//
// - Stationary and moving objects are mapped to the single cell containing
//   their location.
// - Predictive objects are clipped to every cell their trajectory footprint
//   passes through.
// - Queries (all kinds) are clipped to every cell overlapping their region
//   (for k-NN queries, the bounding box of the answer circle).
//
// Adaptive refinement: a base cell may be refined to level L (via
// SetCellLevel), replacing its single id list with a 2^L x 2^L array of
// *leaf* subcells addressed through the CellResolver seam. All insertion,
// removal, and visitation paths operate on *slots* — the base cell at
// level 0, one leaf otherwise — using the identical floor+clamp mapping at
// both granularities, so refinement changes only how candidates are
// enumerated, never which exact matches exist. The update stream is
// byte-identical at every refinement configuration; only the GridRefiner
// (core/grid_refiner.*) may change a cell's resolution.
//
// The grid stores only ids; object/query payloads live in ObjectStore /
// QueryStore. Visitation over a rectangle enumerates *candidates* (slot
// granularity); exact containment is the caller's job.
//
// Thread-compatible: external synchronization required for concurrent
// mutation. All const member functions are pure reads — no lazy caches,
// no mutable members — so any number of threads may call them
// concurrently as long as no thread mutates (audited for the parallel
// tick's matching phase and the k-NN searches, which shard const reads
// of one grid across a ThreadPool; see DESIGN.md, "Threading model").

#ifndef STQ_GRID_GRID_INDEX_H_
#define STQ_GRID_GRID_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stq/common/check.h"
#include "stq/common/ids.h"
#include "stq/common/small_vector.h"
#include "stq/common/status.h"
#include "stq/geo/rect.h"
#include "stq/geo/segment.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

// Integer cell coordinates, 0 <= x < cells_x, 0 <= y < cells_y.
struct CellCoord {
  int x = 0;
  int y = 0;

  friend bool operator==(const CellCoord& a, const CellCoord& b) {
    return a.x == b.x && a.y == b.y;
  }
};

struct GridStats {
  size_t num_object_entries = 0;  // object-in-slot entries (incl. clones)
  size_t num_query_entries = 0;   // query stubs across all slots
  size_t max_objects_in_cell = 0;  // per base cell, summed over leaves
  size_t max_queries_in_cell = 0;
  size_t num_refined_cells = 0;   // base cells at refinement level >= 1
};

class GridIndex {
 public:
  static constexpr int kMaxRefinementLevel = CellResolver::kMaxLevel;

  // The geometry a re-bucketed object id maps back into the grid with:
  // the sampled location, or the trajectory footprint for predictive
  // objects. Supplied by the caller of SetCellLevel — the grid stores
  // only ids.
  struct ObjectPlacement {
    bool predictive = false;
    Point loc;
    Segment footprint;
  };

  // `bounds` must be non-empty and `cells_per_side` >= 1. Locations
  // outside `bounds` are clamped into the nearest border cell.
  GridIndex(const Rect& bounds, int cells_per_side)
      : GridIndex(bounds, cells_per_side, cells_per_side) {}

  // Anisotropic grid: `cells_x` columns by `cells_y` rows. A per-shard
  // engine covering a non-square sub-rect of the universe uses this to
  // keep its cell geometry identical to the global single-grid layout
  // (same cell width AND height), so per-cell candidate density — and
  // hence total matching work — does not inflate with the shard count.
  GridIndex(const Rect& bounds, int cells_x, int cells_y);

  GridIndex(const GridIndex&) = delete;
  GridIndex& operator=(const GridIndex&) = delete;

  int cells_x() const { return nx_; }
  int cells_y() const { return ny_; }
  const Rect& bounds() const { return bounds_; }

  // --- Point objects -----------------------------------------------------

  void InsertObject(ObjectId id, const Point& p);
  void RemoveObject(ObjectId id, const Point& p);
  void MoveObject(ObjectId id, const Point& from, const Point& to);

  // --- Predictive-object footprints --------------------------------------
  // The footprint segment is clipped to every overlapping slot; the same id
  // appears in each such slot.

  void InsertObjectFootprint(ObjectId id, const Segment& s);
  void RemoveObjectFootprint(ObjectId id, const Segment& s);

  // --- Query stubs --------------------------------------------------------

  void InsertQuery(QueryId id, const Rect& region);
  void RemoveQuery(QueryId id, const Rect& region);

  // --- Adaptive refinement -------------------------------------------------

  // Refinement level of one base cell (0 = unrefined).
  int CellLevel(const CellCoord& c) const {
    const Cell& base = CellAt(c);
    return base.refined < 0 ? 0 : refined_[base.refined].level;
  }

  size_t num_refined_cells() const { return num_refined_; }

  // Re-buckets one base cell to `level`. Every id currently stored under
  // the cell (base list or leaves) is redistributed into the new slots
  // using the caller-supplied geometry: `object_geometry(ObjectId)` must
  // return the id's ObjectPlacement, `query_geometry(QueryId)` the rect
  // currently clipped into the grid for that query. Entries of the same
  // ids in *other* base cells are untouched, so footprints and query
  // stubs spanning several base cells stay consistent.
  //
  // Only the adaptive layer (core/grid_refiner.*) may call this — a
  // stq-lint rule enforces it. The update stream is invariant under any
  // sequence of SetCellLevel calls.
  template <typename ObjGeom, typename QryGeom>
  void SetCellLevel(const CellCoord& c, int level, ObjGeom&& object_geometry,
                    QryGeom&& query_geometry) {
    STQ_CHECK(level >= 0 && level <= kMaxRefinementLevel)
        << "refinement level " << level << " out of range";
    if (CellLevel(c) == level) return;
    // Gather the unique ids bucketed under this base cell (a footprint or
    // query rect can span several leaves of the same cell).
    std::vector<ObjectId> objects;
    std::vector<QueryId> queries;
    ForEachObjectInCell(c, [&](ObjectId id) { objects.push_back(id); });
    ForEachQueryInCell(c, [&](QueryId id) { queries.push_back(id); });
    std::sort(objects.begin(), objects.end());
    objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
    InstallLevel(c, level);
    // Redistribute through the same global slot enumerators the normal
    // insert paths use, restricted to this cell — guaranteeing that a
    // later removal (which enumerates globally) finds exactly these
    // entries.
    for (const ObjectId id : objects) {
      const ObjectPlacement placement = object_geometry(id);
      if (placement.predictive) {
        ForEachLeafSlotOnSegment(placement.footprint,
                                 [&](const CellCoord& sc, int leaf) {
                                   if (!(sc == c)) return;
                                   SlotAt(sc, leaf).objects.push_back(id);
                                 });
      } else {
        CellCoord pc;
        int leaf;
        LeafSlotOfPoint(placement.loc, &pc, &leaf);
        STQ_CHECK(pc == c) << "object " << id << " re-bucketed into cell ("
                           << pc.x << "," << pc.y << ") but was stored in ("
                           << c.x << "," << c.y << ")";
        SlotAt(pc, leaf).objects.push_back(id);
      }
    }
    for (const QueryId id : queries) {
      ForEachLeafSlotInRect(query_geometry(id),
                            [&](const CellCoord& sc, int leaf) {
                              if (!(sc == c)) return;
                              SlotAt(sc, leaf).queries.push_back(id);
                            });
    }
  }

  // Structural invariants of the refinement tree: refined-slot indices
  // valid and uniquely referenced, leaf arrays sized 4^level, base lists
  // empty while refined, leaves exactly tiling their parent cell, free
  // list consistent. OK when nothing is refined.
  Status CheckRefinement() const;

  // --- Visitation ---------------------------------------------------------
  // The visitors are templates (not std::function) so hot-path lambdas
  // inline without a per-call closure allocation.

  // Visits every object id stored in a slot overlapping `r`. Ids of
  // footprint objects clipped into several overlapping slots are visited
  // once per such slot; callers needing set semantics deduplicate (see
  // CollectObjectsInRect).
  template <typename Fn>
  void ForEachObjectCandidate(const Rect& r, Fn&& fn) const {
    ForEachLeafSlotInRect(r, [&](const CellCoord& c, int leaf) {
      for (ObjectId id : SlotAt(c, leaf).objects) fn(id);
    });
  }

  // Visits every query id stubbed into the slot containing `p`.
  template <typename Fn>
  void ForEachQueryAt(const Point& p, Fn&& fn) const {
    CellCoord c;
    int leaf;
    LeafSlotOfPoint(p, &c, &leaf);
    for (QueryId id : SlotAt(c, leaf).queries) fn(id);
  }

  // Visits every query id stubbed into a slot overlapping `r` (with
  // per-slot duplicates, as above).
  template <typename Fn>
  void ForEachQueryCandidate(const Rect& r, Fn&& fn) const {
    ForEachLeafSlotInRect(r, [&](const CellCoord& c, int leaf) {
      for (QueryId id : SlotAt(c, leaf).queries) fn(id);
    });
  }

  // Deduplicated candidate collection. Output vectors are cleared first
  // and returned sorted.
  void CollectObjectsInRect(const Rect& r, std::vector<ObjectId>* out) const;
  void CollectQueriesInRect(const Rect& r, std::vector<QueryId>* out) const;

  // --- Cell geometry (used by the k-NN ring search) -----------------------

  CellCoord CellOf(const Point& p) const;
  Rect CellBounds(const CellCoord& c) const;
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }

  // Visits the cells at Chebyshev distance exactly `ring` from `center`
  // (ring 0 = the center cell itself), skipping cells outside the grid.
  // Returns false when the entire ring was out of bounds. Ring geometry
  // stays at base-cell granularity regardless of refinement; per-cell
  // distance pruning against CellBounds is a lower bound for every leaf.
  template <typename Fn>
  bool ForEachCellInRing(const CellCoord& center, int ring, Fn&& fn) const {
    STQ_DCHECK(ring >= 0);
    bool any = false;
    auto visit = [&](int cx, int cy) {
      if (cx < 0 || cy < 0 || cx >= nx_ || cy >= ny_) return;
      any = true;
      fn(CellCoord{cx, cy});
    };
    if (ring == 0) {
      visit(center.x, center.y);
      return any;
    }
    const int x0 = center.x - ring;
    const int x1 = center.x + ring;
    const int y0 = center.y - ring;
    const int y1 = center.y + ring;
    for (int cx = x0; cx <= x1; ++cx) {
      visit(cx, y0);
      visit(cx, y1);
    }
    for (int cy = y0 + 1; cy <= y1 - 1; ++cy) {
      visit(x0, cy);
      visit(x1, cy);
    }
    return any;
  }

  // Visits each object slot of one base cell as fn(slot_bounds, ids), with
  // `ids` a std::span<const ObjectId>: the cell itself when unrefined,
  // else each of its leaves, starting with the leaf that holds `first`
  // (clamped into the cell, so the leaf nearest to it). A footprint
  // clipped into several leaves appears in each. The bounds let a
  // distance-bounded search (the k-NN ring search) skip a slot before it
  // reads the slot's ids.
  template <typename Fn>
  void ForEachObjectSlotInCell(const CellCoord& c, const Point& first,
                               Fn&& fn) const {
    STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
    const Cell& base = CellAt(c);
    if (base.refined < 0) {
      fn(CellBounds(c), std::span<const ObjectId>(base.objects.data(),
                                                  base.objects.size()));
      return;
    }
    const RefinedCell& rc = refined_[base.refined];
    const CellResolver res(CellBounds(c), rc.level);
    auto visit = [&](int leaf) {
      const SmallVector<ObjectId, 4>& ids = rc.leaves[leaf].objects;
      fn(res.LeafBounds(leaf), std::span<const ObjectId>(ids.data(),
                                                         ids.size()));
    };
    const int head = res.LeafOf(first);
    visit(head);
    for (int leaf = 0; leaf < res.leaf_count(); ++leaf) {
      if (leaf != head) visit(leaf);
    }
  }

  // Objects stored anywhere under one base cell (the whole leaf subtree
  // when refined). A footprint clipped into several leaves of the same
  // cell is visited once per leaf; set-semantics callers deduplicate.
  template <typename Fn>
  void ForEachObjectInCell(const CellCoord& c, Fn&& fn) const {
    STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
    const Cell& base = CellAt(c);
    if (base.refined < 0) {
      for (ObjectId id : base.objects) fn(id);
      return;
    }
    for (const Cell& leaf : refined_[base.refined].leaves) {
      for (ObjectId id : leaf.objects) fn(id);
    }
  }

  // Query stubs anywhere under one base cell (per-leaf duplicates, as
  // above).
  template <typename Fn>
  void ForEachQueryInCell(const CellCoord& c, Fn&& fn) const {
    STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
    const Cell& base = CellAt(c);
    if (base.refined < 0) {
      for (QueryId id : base.queries) fn(id);
      return;
    }
    for (const Cell& leaf : refined_[base.refined].leaves) {
      for (QueryId id : leaf.queries) fn(id);
    }
  }

  // Number of distinct object ids stored under one base cell. For a
  // refined cell, a footprint spanning several leaves counts once — the
  // DensityMonitor's "objects in this region" semantics must not change
  // when a cell splits.
  size_t ObjectCountInCell(const CellCoord& c) const;

  // Largest per-slot object entry count under one base cell (the base
  // list itself at level 0). This is the GridRefiner's split signal: it
  // bounds the candidate-scan cost of the densest slot.
  size_t MaxLeafObjectEntries(const CellCoord& c) const;

  // --- Slot enumerators (audit + internal bucketing) ----------------------
  // A *slot* is the id list a geometry maps into: (cell, 0) for an
  // unrefined base cell, (cell, leaf) for a refined one. These are the
  // single source of truth for where ids live — the insert/remove paths
  // and the InvariantAuditor's expected-entry reconstruction both call
  // them, so grid state and audit model cannot drift apart.

  // Slot containing a point.
  void LeafSlotOfPoint(const Point& p, CellCoord* c, int* leaf) const {
    *c = CellOf(p);
    const Cell& base = CellAt(*c);
    if (base.refined < 0) {
      *leaf = 0;
      return;
    }
    const RefinedCell& rc = refined_[base.refined];
    *leaf = CellResolver(CellBounds(*c), rc.level).LeafOf(p);
  }

  // Dense key of the slot containing `p`: (base-cell index << 16) | leaf.
  // Two points share a key iff LeafSlotOfPoint maps them into the same
  // slot (a cell has at most 4^kMaxRefinementLevel = 4096 leaves, well
  // under 2^16). The batch object pass groups sampled movers by this key
  // so one kernel invocation serves every candidate query of the slot.
  uint64_t SlotKeyOfPoint(const Point& p) const {
    CellCoord c;
    int leaf;
    LeafSlotOfPoint(p, &c, &leaf);
    return (static_cast<uint64_t>(CellIndex(c.x, c.y)) << 16) |
           static_cast<uint64_t>(leaf);
  }

  // Every slot a footprint segment is clipped into.
  template <typename Fn>
  void ForEachLeafSlotOnSegment(const Segment& s, Fn&& fn) const {
    const Rect box = s.BoundingBox();
    int x0, y0, x1, y1;
    if (!CellRange(box, &x0, &y0, &x1, &y1)) {
      // Segment fully outside: clamp both endpoints into the border
      // slot(s).
      CellCoord ca, cb;
      int la, lb;
      LeafSlotOfPoint(s.a, &ca, &la);
      LeafSlotOfPoint(s.b, &cb, &lb);
      fn(ca, la);
      if (!(ca == cb && la == lb)) fn(cb, lb);
      return;
    }
    const bool whole_box = (x0 == x1 && y0 == y1);
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        const CellCoord c{cx, cy};
        if (!whole_box && !SegmentIntersectsRect(s, CellBounds(c))) continue;
        const Cell& base = CellAt(c);
        if (base.refined < 0) {
          fn(c, 0);
          continue;
        }
        const CellResolver res(CellBounds(c), refined_[base.refined].level);
        int lx0, ly0, lx1, ly1;
        res.LeafRange(box, &lx0, &ly0, &lx1, &ly1);
        if (lx0 == lx1 && ly0 == ly1) {
          // The box maps into a single leaf: the segment's in-cell part
          // lies inside it (monotone corner mapping); keep unconditionally
          // — this also protects zero-length footprints, mirroring the
          // single-cell (whole_box) case above.
          fn(c, res.LeafIndex(lx0, ly0));
          continue;
        }
        for (int ly = ly0; ly <= ly1; ++ly) {
          for (int lx = lx0; lx <= lx1; ++lx) {
            const int leaf = res.LeafIndex(lx, ly);
            if (SegmentIntersectsRect(s, res.LeafBounds(leaf))) fn(c, leaf);
          }
        }
      }
    }
  }

  // Every slot a rectangle is clipped into (query stubs) or visited as a
  // candidate range.
  template <typename Fn>
  void ForEachLeafSlotInRect(const Rect& r, Fn&& fn) const {
    int x0, y0, x1, y1;
    if (!CellRange(r, &x0, &y0, &x1, &y1)) return;
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        const CellCoord c{cx, cy};
        const Cell& base = CellAt(c);
        if (base.refined < 0) {
          fn(c, 0);
          continue;
        }
        const CellResolver res(CellBounds(c), refined_[base.refined].level);
        int lx0, ly0, lx1, ly1;
        res.LeafRange(r, &lx0, &ly0, &lx1, &ly1);
        for (int ly = ly0; ly <= ly1; ++ly) {
          for (int lx = lx0; lx <= lx1; ++lx) {
            fn(c, res.LeafIndex(lx, ly));
          }
        }
      }
    }
  }

  // Raw per-slot contents (the InvariantAuditor's "actual" side).
  template <typename Fn>  // fn(const CellCoord&, int leaf, ObjectId)
  void ForEachObjectEntry(Fn&& fn) const {
    ForEachSlot([&](const CellCoord& c, int leaf, const Cell& slot) {
      for (ObjectId id : slot.objects) fn(c, leaf, id);
    });
  }
  template <typename Fn>  // fn(const CellCoord&, int leaf, QueryId)
  void ForEachQueryEntry(Fn&& fn) const {
    ForEachSlot([&](const CellCoord& c, int leaf, const Cell& slot) {
      for (QueryId id : slot.queries) fn(c, leaf, id);
    });
  }

  GridStats ComputeStats() const;

 private:
  // Typical cells hold a handful of entries at paper-scale grids, so the
  // lists start inline in the cell array; dense cells spill to the heap
  // once and keep their capacity (EraseOne never shrinks). `refined` is
  // -1 at level 0, else an index into refined_ (and the id lists here are
  // empty — entries live in the leaves).
  struct Cell {
    SmallVector<ObjectId, 4> objects;
    SmallVector<QueryId, 4> queries;
    int32_t refined = -1;
  };

  struct RefinedCell {
    int level = 0;
    std::vector<Cell> leaves;
  };

  size_t CellIndex(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(nx_) +
           static_cast<size_t>(cx);
  }
  Cell& CellAt(const CellCoord& c) { return cells_[CellIndex(c.x, c.y)]; }
  const Cell& CellAt(const CellCoord& c) const {
    return cells_[CellIndex(c.x, c.y)];
  }

  Cell& SlotAt(const CellCoord& c, int leaf) {
    Cell& base = CellAt(c);
    return base.refined < 0 ? base : refined_[base.refined].leaves[leaf];
  }
  const Cell& SlotAt(const CellCoord& c, int leaf) const {
    const Cell& base = CellAt(c);
    return base.refined < 0 ? base : refined_[base.refined].leaves[leaf];
  }

  // Rebinds cell `c` to `level` with empty slot lists (recycling refined
  // storage through the free list); defined in grid_index.cc.
  void InstallLevel(const CellCoord& c, int level);

  template <typename Fn>  // fn(const CellCoord&, int leaf, const Cell&)
  void ForEachSlot(Fn&& fn) const {
    for (int cy = 0; cy < ny_; ++cy) {
      for (int cx = 0; cx < nx_; ++cx) {
        const CellCoord c{cx, cy};
        const Cell& base = CellAt(c);
        if (base.refined < 0) {
          fn(c, 0, base);
          continue;
        }
        const RefinedCell& rc = refined_[base.refined];
        for (size_t leaf = 0; leaf < rc.leaves.size(); ++leaf) {
          fn(c, static_cast<int>(leaf), rc.leaves[leaf]);
        }
      }
    }
  }

  // Inclusive integer ranges of cells overlapping `r`, clamped to the
  // grid. Returns false when `r` misses the grid entirely.
  bool CellRange(const Rect& r, int* x0, int* y0, int* x1, int* y1) const;

  Rect bounds_;
  int nx_;
  int ny_;
  double cell_w_;
  double cell_h_;
  std::vector<Cell> cells_;
  std::vector<RefinedCell> refined_;
  SmallVector<int32_t, 4> free_refined_;
  size_t num_refined_ = 0;
};

}  // namespace stq

#endif  // STQ_GRID_GRID_INDEX_H_
