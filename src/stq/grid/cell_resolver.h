// CellResolver: leaf-addressing math inside one (possibly refined) grid
// cell — the seam through which every resolution-dependent computation of
// the adaptive grid flows.
//
// An adaptive GridIndex refines a hot base cell into a 2^L x 2^L array of
// *leaf* subcells (L = the cell's refinement level). Point -> leaf,
// rect -> leaf range, and leaf -> bounds all funnel through this one
// class, so the insert, remove, move, visitation, and audit paths of
// GridIndex share a single definition of the leaf geometry. The mapping
// deliberately mirrors the base grid (floor + clamp of coordinates, high
// edges snapped to the cell border): every candidate-superset argument
// that holds for base cells holds verbatim for leaves, which is what
// keeps adaptive and uniform update streams byte-identical.

#ifndef STQ_GRID_CELL_RESOLVER_H_
#define STQ_GRID_CELL_RESOLVER_H_

#include <algorithm>
#include <cmath>

#include "stq/common/check.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

// floor(v) clamped into [0, n - 1]: the slot index of offset v in units of
// one slot width. The clamp runs in floating point before the int
// conversion, so a huge or non-finite v saturates (NaN maps to 0) instead
// of reaching an out-of-range float-to-int cast, which is undefined.
// Every grid, leaf and shard slab index goes through here.
inline int ClampedFloor(double v, int n) {
  const double f = std::floor(v);
  if (!(f > 0.0)) return 0;
  if (f >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int>(f);
}

class CellResolver {
 public:
  // Maximum refinement depth any grid supports: 2^6 x 2^6 = 4096 leaves
  // per base cell is already far past the useful range.
  static constexpr int kMaxLevel = 6;

  CellResolver(const Rect& cell_bounds, int level)
      : bounds_(cell_bounds), side_(1 << level) {
    STQ_DCHECK(level >= 0 && level <= kMaxLevel);
    leaf_w_ = bounds_.Width() / side_;
    leaf_h_ = bounds_.Height() / side_;
  }

  int side() const { return side_; }
  int leaf_count() const { return side_ * side_; }

  int LeafIndex(int lx, int ly) const { return ly * side_ + lx; }
  int LeafX(int leaf) const { return leaf % side_; }
  int LeafY(int leaf) const { return leaf / side_; }

  // Leaf containing `p`, clamped into the cell — the same recipe
  // GridIndex::CellOf uses to clamp out-of-bounds locations into the
  // border cells of the grid.
  int LeafOf(const Point& p) const {
    return LeafIndex(ClampX(p.x), ClampY(p.y));
  }

  // Bounds of one leaf. High-edge leaves snap to the cell border so the
  // leaves tile the parent cell exactly (no float gap on the high edges);
  // the refinement audit relies on this exact-tiling property.
  Rect LeafBounds(int leaf) const {
    const int lx = LeafX(leaf);
    const int ly = LeafY(leaf);
    return Rect{
        bounds_.min_x + lx * leaf_w_, bounds_.min_y + ly * leaf_h_,
        lx + 1 == side_ ? bounds_.max_x : bounds_.min_x + (lx + 1) * leaf_w_,
        ly + 1 == side_ ? bounds_.max_y : bounds_.min_y + (ly + 1) * leaf_h_};
  }

  // Inclusive leaf range overlapping `r`, clamped into the cell; mirrors
  // GridIndex::CellRange (floor + clamp of the two corners). `r` must be
  // non-empty; callers reach a cell only after the base-level range test
  // has already accepted it.
  void LeafRange(const Rect& r, int* x0, int* y0, int* x1, int* y1) const {
    STQ_DCHECK(!r.IsEmpty());
    *x0 = ClampX(r.min_x);
    *y0 = ClampY(r.min_y);
    *x1 = ClampX(r.max_x);
    *y1 = ClampY(r.max_y);
  }

 private:
  int ClampX(double x) const {
    return ClampedFloor((x - bounds_.min_x) / leaf_w_, side_);
  }
  int ClampY(double y) const {
    return ClampedFloor((y - bounds_.min_y) / leaf_h_, side_);
  }

  Rect bounds_;
  int side_;
  double leaf_w_;
  double leaf_h_;
};

}  // namespace stq

#endif  // STQ_GRID_CELL_RESOLVER_H_
