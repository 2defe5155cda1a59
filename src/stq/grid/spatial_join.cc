#include "stq/grid/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stq/common/check.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

namespace {

// Fallback for universes the grid math cannot hash into cells: a
// zero-width/zero-height (yet non-empty) bounds rectangle would yield
// cell_w == 0 and NaN cell indices, and non-finite extents would poison
// the index arithmetic before the int casts. Semantics match the grid
// path exactly: rectangles are clipped to `bounds`, so points outside
// the universe never match.
std::vector<JoinPair> BoundedNestedLoopJoin(
    const std::vector<JoinPoint>& points, const std::vector<JoinRect>& rects,
    const Rect& bounds) {
  std::vector<JoinPair> out;
  for (const JoinRect& r : rects) {
    const Rect region = r.region.Intersection(bounds);
    if (region.IsEmpty()) continue;
    for (const JoinPoint& p : points) {
      if (region.Contains(p.loc)) out.push_back(JoinPair{r.id, p.id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<JoinPair> GridPartitionJoin(const std::vector<JoinPoint>& points,
                                        const std::vector<JoinRect>& rects,
                                        const Rect& bounds,
                                        int cells_per_side,
                                        ThreadPool* pool) {
  STQ_CHECK(!bounds.IsEmpty());
  STQ_CHECK(cells_per_side >= 1);
  if (!(bounds.Width() > 0.0) || !(bounds.Height() > 0.0) ||
      !std::isfinite(bounds.Width()) || !std::isfinite(bounds.Height())) {
    return BoundedNestedLoopJoin(points, rects, bounds);
  }
  const int n = cells_per_side;
  const double cell_w = bounds.Width() / n;
  const double cell_h = bounds.Height() / n;
  const size_t num_cells = static_cast<size_t>(n) * n;
  const bool parallel = pool != nullptr && pool->num_workers() > 1;

  // Partition phase: compute each point's cell (data-parallel — the
  // slot writes are disjoint), then bucket indices serially in input
  // order, which keeps per-bucket order identical to a serial run.
  constexpr size_t kOutside = std::numeric_limits<size_t>::max();
  std::vector<size_t> cell_of(points.size(), kOutside);
  auto hash_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Point& p = points[i].loc;
      if (!bounds.Contains(p)) continue;  // outside the universe
      const int cx = ClampedFloor((p.x - bounds.min_x) / cell_w, n);
      const int cy = ClampedFloor((p.y - bounds.min_y) / cell_h, n);
      cell_of[i] = static_cast<size_t>(cy) * n + cx;
    }
  };
  if (parallel) {
    pool->RunShards(points.size(), [&](int /*shard*/, size_t begin,
                                       size_t end) {
      hash_range(begin, end);
    });
  } else {
    hash_range(0, points.size());
  }
  // Flat bucket layout (counting sort): bucket_start[c]..bucket_start[c+1]
  // spans cell c's point indices in `bucketed`, in input order. One flat
  // array instead of a heap vector per cell keeps the probe phase's reads
  // contiguous.
  std::vector<size_t> bucket_start(num_cells + 1, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    if (cell_of[i] != kOutside) ++bucket_start[cell_of[i] + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) {
    bucket_start[c + 1] += bucket_start[c];
  }
  std::vector<size_t> bucketed(bucket_start[num_cells]);
  std::vector<size_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
  for (size_t i = 0; i < points.size(); ++i) {
    if (cell_of[i] != kOutside) bucketed[cursor[cell_of[i]]++] = i;
  }

  // Probe phase: clip each rectangle to its partitions and test only the
  // points bucketed there. A point lies in exactly one bucket, so no
  // output deduplication is needed. Rect shards emit into private
  // vectors; the final sort makes the merged output order canonical.
  auto probe_range = [&](size_t begin, size_t end,
                         std::vector<JoinPair>* out) {
    for (size_t ri = begin; ri < end; ++ri) {
      const JoinRect& r = rects[ri];
      const Rect region = r.region.Intersection(bounds);
      if (region.IsEmpty()) continue;
      const int x0 = ClampedFloor((region.min_x - bounds.min_x) / cell_w, n);
      const int y0 = ClampedFloor((region.min_y - bounds.min_y) / cell_h, n);
      const int x1 = ClampedFloor((region.max_x - bounds.min_x) / cell_w, n);
      const int y1 = ClampedFloor((region.max_y - bounds.min_y) / cell_h, n);
      for (int cy = y0; cy <= y1; ++cy) {
        for (int cx = x0; cx <= x1; ++cx) {
          const size_t c = static_cast<size_t>(cy) * n + cx;
          for (size_t bi = bucket_start[c]; bi < bucket_start[c + 1]; ++bi) {
            const size_t i = bucketed[bi];
            if (region.Contains(points[i].loc)) {
              out->push_back(JoinPair{r.id, points[i].id});
            }
          }
        }
      }
    }
  };
  std::vector<JoinPair> out;
  if (parallel) {
    std::vector<std::vector<JoinPair>> shard_out(
        static_cast<size_t>(pool->num_workers()));
    pool->RunShards(rects.size(), [&](int shard, size_t begin, size_t end) {
      probe_range(begin, end, &shard_out[static_cast<size_t>(shard)]);
    });
    size_t total = 0;
    for (const auto& s : shard_out) total += s.size();
    out.reserve(total);
    for (const auto& s : shard_out) out.insert(out.end(), s.begin(), s.end());
  } else {
    probe_range(0, rects.size(), &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<JoinPair> NestedLoopJoin(const std::vector<JoinPoint>& points,
                                     const std::vector<JoinRect>& rects) {
  std::vector<JoinPair> out;
  for (const JoinRect& r : rects) {
    for (const JoinPoint& p : points) {
      if (r.region.Contains(p.loc)) out.push_back(JoinPair{r.id, p.id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace stq
