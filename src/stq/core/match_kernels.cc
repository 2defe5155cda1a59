#include "stq/core/match_kernels.h"

#include <algorithm>

#include "stq/geo/geometry.h"

namespace stq {

namespace {

// Writes the n-candidate bitmap one 64-candidate word at a time:
// `test(i)` is candidate i's predicate. The word is accumulated in a
// register and stored once, rather than or-ing each result into
// bits[i / 64], which chains every candidate through a store and a
// reload of the same word. Every word is written, so no zeroing pass.
template <typename Test>
inline void FillBits(size_t n, uint64_t* bits, Test test) {
  for (size_t base = 0; base < n; base += 64) {
    const size_t m = std::min<size_t>(64, n - base);
    uint64_t word = 0;
    for (size_t j = 0; j < m; ++j) {
      word |= static_cast<uint64_t>(test(base + j)) << j;
    }
    bits[base / 64] = word;
  }
}

}  // namespace

void PointsInRect(const double* x, const double* y, size_t n, const Rect& r,
                  uint64_t* bits) {
  // Bitwise & (not &&) keeps the tests branch-free. An empty rect
  // (max < min on some axis) fails one of that axis's two tests for
  // every candidate, so it matches nothing without a special case.
  const double min_x = r.min_x, max_x = r.max_x;
  const double min_y = r.min_y, max_y = r.max_y;
  FillBits(n, bits, [&](size_t i) {
    return (x[i] >= min_x) & (x[i] <= max_x) & (y[i] >= min_y) &
           (y[i] <= max_y);
  });
}

void PointsInCircle(const double* x, const double* y, size_t n,
                    const Point& c, double r2, uint64_t* bits) {
  const double cx = c.x, cy = c.y;
  FillBits(n, bits, [&](size_t i) {
    const double dx = cx - x[i];
    const double dy = cy - y[i];
    return dx * dx + dy * dy <= r2;
  });
}

void PointsInRectWindow(const double* x, const double* y, const double* t,
                        size_t n, const Rect& r, double t_from, double t_to,
                        double horizon, uint64_t* bits) {
  const double min_x = r.min_x, max_x = r.max_x;
  const double min_y = r.min_y, max_y = r.max_y;
  FillBits(n, bits, [&](size_t i) {
    const double wf = t[i] > t_from ? t[i] : t_from;  // max(t_from, t)
    const double reach = t[i] + horizon;
    const double wt = reach < t_to ? reach : t_to;  // min(t_to, t+h)
    return (wt >= wf) & (x[i] >= min_x) & (x[i] <= max_x) &
           (y[i] >= min_y) & (y[i] <= max_y);
  });
}

void TrajectoriesIntersectRectWindow(const double* x, const double* y,
                                     const double* vx, const double* vy,
                                     const double* t, size_t n, const Rect& r,
                                     double t_from, double t_to,
                                     double horizon, uint64_t* bits) {
  FillBits(n, bits, [&](size_t i) {
    const double wf = t[i] > t_from ? t[i] : t_from;
    const double reach = t[i] + horizon;
    const double wt = reach < t_to ? reach : t_to;
    if (wt < wf) return false;
    const Trajectory traj{Point{x[i], y[i]}, Velocity{vx[i], vy[i]}, t[i]};
    return TrajectoryIntersectsRect(traj, r, wf, wt, /*t_hit=*/nullptr);
  });
}

}  // namespace stq
