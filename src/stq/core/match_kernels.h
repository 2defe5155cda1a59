// Branch-light predicate kernels for the batch evaluation pass (see
// DESIGN.md, "Batch evaluation"). Each kernel tests a structure-of-arrays
// batch of candidates against ONE query geometry and writes a match
// bitmap: bit i of bits[i / 64] is set iff candidate i satisfies the
// predicate. Callers size `bits` with MatchBitmapWords(n); tail bits past
// n are zero.
//
// Contract: every kernel computes the *exact* same predicate as the
// corresponding scalar evaluator (RangeEvaluator/CircleEvaluator/
// PredictiveEvaluator::Satisfies) — same IEEE operations, no
// reassociation, no FMA contraction — so the batch pass and
// EvaluateFromScratch agree bit for bit. The loops are plain portable C++
// (no intrinsics; see DESIGN.md, "Why one path").

#ifndef STQ_CORE_MATCH_KERNELS_H_
#define STQ_CORE_MATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

// Words needed for an n-candidate match bitmap.
inline constexpr size_t MatchBitmapWords(size_t n) { return (n + 63) / 64; }

// Rect containment: Rect::Contains(x[i], y[i]) — closed bounds, empty
// rect matches nothing.
void PointsInRect(const double* x, const double* y, size_t n, const Rect& r,
                  uint64_t* bits);

// Squared-distance threshold: (x[i]-c.x)^2 + (y[i]-c.y)^2 <= r2. With
// r2 = radius * radius this is Circle::Contains.
void PointsInCircle(const double* x, const double* y, size_t n,
                    const Point& c, double r2, uint64_t* bits);

// Predictive membership for stationary candidates (vel == 0, the whole
// sampled population): rect containment AND a non-empty effective window
// min(t_to, t[i] + horizon) >= max(t_from, t[i]) — exactly what
// PredictiveEvaluator::Satisfies reduces to for a zero-velocity
// trajectory.
void PointsInRectWindow(const double* x, const double* y, const double* t,
                        size_t n, const Rect& r, double t_from, double t_to,
                        double horizon, uint64_t* bits);

// Full predictive membership for moving candidates: the exact
// trajectory-vs-rect clip of PredictiveEvaluator::Satisfies over SoA
// position/velocity/timestamp arrays. The segment clip runs per element;
// the batch win here is the gather.
void TrajectoriesIntersectRectWindow(const double* x, const double* y,
                                     const double* vx, const double* vy,
                                     const double* t, size_t n, const Rect& r,
                                     double t_from, double t_to,
                                     double horizon, uint64_t* bits);

}  // namespace stq

#endif  // STQ_CORE_MATCH_KERNELS_H_
