#include "stq/grid/grid_index.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "stq/common/check.h"

namespace stq {

namespace {

// Removes one occurrence of `v` from `vec` (swap-with-back). Returns true
// when found.
template <typename Vec, typename T>
bool EraseOne(Vec* vec, T v) {
  for (size_t i = 0; i < vec->size(); ++i) {
    if ((*vec)[i] == v) {
      (*vec)[i] = vec->back();
      vec->pop_back();
      return true;
    }
  }
  return false;
}

// Distinct-id count of a slot-granular id multiset, without heap scratch
// in the common (small) case.
template <typename IdT, typename CellVisitor>
size_t CountUnique(const CellVisitor& visit) {
  SmallVector<IdT, 32> ids;
  visit([&](IdT id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  size_t unique = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 0 || !(ids[i] == ids[i - 1])) ++unique;
  }
  return unique;
}

}  // namespace

GridIndex::GridIndex(const Rect& bounds, int cells_x, int cells_y)
    : bounds_(bounds), nx_(cells_x), ny_(cells_y) {
  STQ_CHECK(!bounds.IsEmpty()) << "grid bounds must be non-empty";
  STQ_CHECK(cells_x >= 1 && cells_y >= 1) << "cell counts must be >= 1";
  cell_w_ = bounds_.Width() / nx_;
  cell_h_ = bounds_.Height() / ny_;
  cells_.resize(static_cast<size_t>(nx_) * static_cast<size_t>(ny_));
}

CellCoord GridIndex::CellOf(const Point& p) const {
  return CellCoord{ClampedFloor((p.x - bounds_.min_x) / cell_w_, nx_),
                   ClampedFloor((p.y - bounds_.min_y) / cell_h_, ny_)};
}

Rect GridIndex::CellBounds(const CellCoord& c) const {
  return Rect{bounds_.min_x + c.x * cell_w_, bounds_.min_y + c.y * cell_h_,
              bounds_.min_x + (c.x + 1) * cell_w_,
              bounds_.min_y + (c.y + 1) * cell_h_};
}

bool GridIndex::CellRange(const Rect& r, int* x0, int* y0, int* x1,
                          int* y1) const {
  if (r.IsEmpty() || !r.Intersects(bounds_)) return false;
  const CellCoord lo = CellOf(Point{r.min_x, r.min_y});
  const CellCoord hi = CellOf(Point{r.max_x, r.max_y});
  *x0 = lo.x;
  *y0 = lo.y;
  *x1 = hi.x;
  *y1 = hi.y;
  return true;
}

void GridIndex::InsertObject(ObjectId id, const Point& p) {
  CellCoord c;
  int leaf;
  LeafSlotOfPoint(p, &c, &leaf);
  SlotAt(c, leaf).objects.push_back(id);
}

void GridIndex::RemoveObject(ObjectId id, const Point& p) {
  CellCoord c;
  int leaf;
  LeafSlotOfPoint(p, &c, &leaf);
  const bool found = EraseOne(&SlotAt(c, leaf).objects, id);
  STQ_CHECK(found) << "object " << id << " not present in its cell";
}

void GridIndex::MoveObject(ObjectId id, const Point& from, const Point& to) {
  // Compare at slot granularity: two points in the same *base* cell can
  // land in different leaves once the cell is refined.
  CellCoord cf, ct;
  int lf, lt;
  LeafSlotOfPoint(from, &cf, &lf);
  LeafSlotOfPoint(to, &ct, &lt);
  if (cf == ct && lf == lt) return;
  const bool found = EraseOne(&SlotAt(cf, lf).objects, id);
  STQ_CHECK(found) << "object " << id << " not present in its cell";
  SlotAt(ct, lt).objects.push_back(id);
}

void GridIndex::InsertObjectFootprint(ObjectId id, const Segment& s) {
  ForEachLeafSlotOnSegment(s, [&](const CellCoord& c, int leaf) {
    SlotAt(c, leaf).objects.push_back(id);
  });
}

void GridIndex::RemoveObjectFootprint(ObjectId id, const Segment& s) {
  ForEachLeafSlotOnSegment(s, [&](const CellCoord& c, int leaf) {
    const bool found = EraseOne(&SlotAt(c, leaf).objects, id);
    STQ_CHECK(found) << "footprint of object " << id
                     << " missing from a cell it was clipped to";
  });
}

void GridIndex::InsertQuery(QueryId id, const Rect& region) {
  ForEachLeafSlotInRect(region, [&](const CellCoord& c, int leaf) {
    SlotAt(c, leaf).queries.push_back(id);
  });
}

void GridIndex::RemoveQuery(QueryId id, const Rect& region) {
  ForEachLeafSlotInRect(region, [&](const CellCoord& c, int leaf) {
    const bool found = EraseOne(&SlotAt(c, leaf).queries, id);
    STQ_CHECK(found) << "query " << id
                     << " missing from a cell it was clipped to";
  });
}

void GridIndex::CollectObjectsInRect(const Rect& r,
                                     std::vector<ObjectId>* out) const {
  out->clear();
  ForEachObjectCandidate(r, [&](ObjectId id) { out->push_back(id); });
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void GridIndex::CollectQueriesInRect(const Rect& r,
                                     std::vector<QueryId>* out) const {
  out->clear();
  ForEachQueryCandidate(r, [&](QueryId id) { out->push_back(id); });
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

size_t GridIndex::ObjectCountInCell(const CellCoord& c) const {
  STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
  const Cell& base = CellAt(c);
  if (base.refined < 0) return base.objects.size();
  // A footprint clipped into several leaves of this cell must still count
  // as one object — the DensityMonitor's per-region population estimate
  // is defined over distinct objects, not slot entries.
  return CountUnique<ObjectId>(
      [&](auto&& fn) { ForEachObjectInCell(c, fn); });
}

size_t GridIndex::QueryCountInCell(const CellCoord& c) const {
  STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
  const Cell& base = CellAt(c);
  if (base.refined < 0) return base.queries.size();
  return CountUnique<QueryId>([&](auto&& fn) { ForEachQueryInCell(c, fn); });
}

size_t GridIndex::MaxLeafObjectEntries(const CellCoord& c) const {
  STQ_DCHECK(c.x >= 0 && c.x < nx_ && c.y >= 0 && c.y < ny_);
  const Cell& base = CellAt(c);
  if (base.refined < 0) return base.objects.size();
  size_t max_entries = 0;
  for (const Cell& leaf : refined_[base.refined].leaves) {
    max_entries = std::max(max_entries, leaf.objects.size());
  }
  return max_entries;
}

bool GridIndex::CellRangeOf(const Rect& r, CellCoord* lo, CellCoord* hi) const {
  int x0, y0, x1, y1;
  if (!CellRange(r, &x0, &y0, &x1, &y1)) return false;
  *lo = CellCoord{x0, y0};
  *hi = CellCoord{x1, y1};
  return true;
}

void GridIndex::InstallLevel(const CellCoord& c, int level) {
  Cell& base = CellAt(c);
  if (base.refined >= 0) {
    // Recycle the refined slot through the free list; slots are reused
    // LIFO so a given transition sequence is deterministic.
    RefinedCell& rc = refined_[base.refined];
    rc.level = 0;
    rc.leaves.clear();
    free_refined_.push_back(base.refined);
    base.refined = -1;
    --num_refined_;
  }
  base.objects.clear();
  base.queries.clear();
  if (level == 0) return;
  int32_t slot;
  if (!free_refined_.empty()) {
    slot = free_refined_.back();
    free_refined_.pop_back();
  } else {
    slot = static_cast<int32_t>(refined_.size());
    refined_.emplace_back();
  }
  RefinedCell& rc = refined_[slot];
  rc.level = level;
  rc.leaves.clear();
  rc.leaves.resize(static_cast<size_t>(1) << (2 * level));
  base.refined = slot;
  ++num_refined_;
}

Status GridIndex::CheckRefinement() const {
  std::vector<char> used(refined_.size(), 0);
  size_t refined_cells = 0;
  for (int cy = 0; cy < ny_; ++cy) {
    for (int cx = 0; cx < nx_; ++cx) {
      const CellCoord c{cx, cy};
      const Cell& base = CellAt(c);
      if (base.refined < 0) continue;
      ++refined_cells;
      const std::string where =
          "cell (" + std::to_string(cx) + "," + std::to_string(cy) + ")";
      if (base.refined >= static_cast<int32_t>(refined_.size())) {
        return Status::Corruption(where + ": refined index out of range");
      }
      if (used[base.refined]) {
        return Status::Corruption(where + ": refined slot shared");
      }
      used[base.refined] = 1;
      if (!base.objects.empty() || !base.queries.empty()) {
        return Status::Corruption(where +
                                  ": refined base cell still holds entries");
      }
      const RefinedCell& rc = refined_[base.refined];
      if (rc.level < 1 || rc.level > kMaxRefinementLevel) {
        return Status::Corruption(where + ": refinement level " +
                                  std::to_string(rc.level) + " out of range");
      }
      const size_t want = static_cast<size_t>(1) << (2 * rc.level);
      if (rc.leaves.size() != want) {
        return Status::Corruption(
            where + ": expected " + std::to_string(want) + " leaves, found " +
            std::to_string(rc.leaves.size()));
      }
      // Children exactly tile the parent: consecutive leaves share edges
      // and the outer edges coincide with the base cell's bounds.
      const Rect cell = CellBounds(c);
      const CellResolver res(cell, rc.level);
      for (int ly = 0; ly < res.side(); ++ly) {
        for (int lx = 0; lx < res.side(); ++lx) {
          const Rect leaf = res.LeafBounds(res.LeafIndex(lx, ly));
          if (leaf.IsEmpty()) {
            return Status::Corruption(where + ": empty leaf rect");
          }
          const Rect right = lx + 1 < res.side()
                                 ? res.LeafBounds(res.LeafIndex(lx + 1, ly))
                                 : Rect{};
          const Rect up = ly + 1 < res.side()
                              ? res.LeafBounds(res.LeafIndex(lx, ly + 1))
                              : Rect{};
          const bool tiles =
              (lx == 0 ? leaf.min_x == cell.min_x : true) &&
              (ly == 0 ? leaf.min_y == cell.min_y : true) &&
              (lx + 1 == res.side() ? leaf.max_x == cell.max_x
                                    : leaf.max_x == right.min_x) &&
              (ly + 1 == res.side() ? leaf.max_y == cell.max_y
                                    : leaf.max_y == up.min_y);
          if (!tiles) {
            return Status::Corruption(where + ": leaves do not tile parent");
          }
        }
      }
    }
  }
  if (refined_cells != num_refined_) {
    return Status::Corruption("num_refined_ out of sync: counted " +
                              std::to_string(refined_cells) + ", recorded " +
                              std::to_string(num_refined_));
  }
  // Every refined_ slot is either referenced by exactly one base cell or
  // parked (empty, level 0) on the free list.
  size_t free_count = 0;
  for (const int32_t slot : free_refined_) {
    if (slot < 0 || slot >= static_cast<int32_t>(refined_.size())) {
      return Status::Corruption("free-list index out of range");
    }
    if (used[slot]) {
      return Status::Corruption("refined slot both referenced and free");
    }
    if (refined_[slot].level != 0 || !refined_[slot].leaves.empty()) {
      return Status::Corruption("free refined slot not empty");
    }
    used[slot] = 1;
    ++free_count;
  }
  if (refined_cells + free_count != refined_.size()) {
    return Status::Corruption("orphaned refined slot (neither used nor free)");
  }
  return Status::OK();
}

GridStats GridIndex::ComputeStats() const {
  GridStats stats;
  stats.num_refined_cells = num_refined_;
  for (int cy = 0; cy < ny_; ++cy) {
    for (int cx = 0; cx < nx_; ++cx) {
      const CellCoord c{cx, cy};
      size_t objects = 0;
      size_t queries = 0;
      ForEachObjectInCell(c, [&](ObjectId) { ++objects; });
      ForEachQueryInCell(c, [&](QueryId) { ++queries; });
      stats.num_object_entries += objects;
      stats.num_query_entries += queries;
      stats.max_objects_in_cell = std::max(stats.max_objects_in_cell, objects);
      stats.max_queries_in_cell = std::max(stats.max_queries_in_cell, queries);
    }
  }
  return stats;
}

}  // namespace stq
