// Bulk spatial join between a set of points (objects) and a set of
// rectangles (queries).
//
// "Basically the bulk processing is reduced to a spatial join between a
// set of objects and a set of queries. Since we are utilizing a grid
// structure, we use a spatial join algorithm similar to the one proposed
// in [Patel & DeWitt, Partition Based Spatial-Merge Join]." (paper,
// Section 3.1)
//
// The incremental engine performs this join implicitly against its live
// grid; this standalone form is the batch primitive — useful for initial
// answer computation, offline re-evaluation, and as the subject of the
// join-strategy ablation bench.

#ifndef STQ_GRID_SPATIAL_JOIN_H_
#define STQ_GRID_SPATIAL_JOIN_H_

#include <cstddef>
#include <vector>

#include "stq/common/ids.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

struct JoinPoint {
  ObjectId id = 0;
  Point loc;
};

struct JoinRect {
  QueryId id = 0;
  Rect region;
};

// One (query, object) containment pair.
struct JoinPair {
  QueryId query = 0;
  ObjectId object = 0;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.query == b.query && a.object == b.object;
  }
  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    if (a.query != b.query) return a.query < b.query;
    return a.object < b.object;
  }
};

// Partition-based spatial-merge join: hashes points into an N x N grid
// over `bounds`, clips each rectangle to its overlapping partitions, and
// tests containment only within partitions. Output is sorted and
// duplicate-free. Points outside `bounds` never match (the bounded space
// is the universe). `cells_per_side` >= 1. `bounds` must be non-empty
// but may be degenerate (zero width/height or non-finite extents), in
// which case the join falls back to a bounds-clipped nested loop with
// identical semantics.
std::vector<JoinPair> GridPartitionJoin(const std::vector<JoinPoint>& points,
                                        const std::vector<JoinRect>& rects,
                                        const Rect& bounds,
                                        int cells_per_side);

// Reference nested-loop join (exact, O(|points| x |rects|)). Oracle for
// tests and the baseline in the join-strategy bench.
std::vector<JoinPair> NestedLoopJoin(const std::vector<JoinPoint>& points,
                                     const std::vector<JoinRect>& rects);

}  // namespace stq

#endif  // STQ_GRID_SPATIAL_JOIN_H_
