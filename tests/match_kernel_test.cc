// Differential battery for the batch predicate kernels: every kernel vs
// a straight-line oracle built from the geometry types. Covers sizes that
// cross bitmap word boundaries (0, 1, 3, 4, 5, 63, 64, 65, 100, 128,
// 257), empty rects, boundary-equal coordinates, and the predictive
// window reduction.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "stq/core/match_kernels.h"
#include "stq/geo/circle.h"
#include "stq/geo/geometry.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {
namespace {

constexpr size_t kSizes[] = {0, 1, 3, 4, 5, 63, 64, 65, 100, 128, 257};

struct Batch {
  std::vector<double> x, y, t, vx, vy;
};

Batch RandomBatch(size_t n, uint64_t seed, bool zero_velocity) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(-10.0, 110.0);
  std::uniform_real_distribution<double> vel(-3.0, 3.0);
  std::uniform_real_distribution<double> time(0.0, 50.0);
  std::bernoulli_distribution stationary(0.5);
  Batch b;
  for (size_t i = 0; i < n; ++i) {
    b.x.push_back(coord(rng));
    b.y.push_back(coord(rng));
    b.t.push_back(time(rng));
    if (zero_velocity || stationary(rng)) {
      b.vx.push_back(0.0);
      b.vy.push_back(0.0);
    } else {
      b.vx.push_back(vel(rng));
      b.vy.push_back(vel(rng));
    }
  }
  return b;
}

std::vector<uint64_t> Bits(size_t n) {
  return std::vector<uint64_t>(MatchBitmapWords(n), 0);
}

bool BitAt(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

TEST(MatchKernelTest, RectMatchesGeometryOracle) {
  const Rect r{20.0, 25.0, 80.0, 75.0};
  for (size_t n : kSizes) {
    Batch b = RandomBatch(n, 7001 + n, true);
    auto bits = Bits(n);
    PointsInRect(b.x.data(), b.y.data(), n, r, bits.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(BitAt(bits, i), r.Contains(Point{b.x[i], b.y[i]}))
          << "i=" << i << " n=" << n;
    }
    // Tail bits past n must be zero.
    for (size_t i = n; i < bits.size() * 64; ++i) {
      EXPECT_FALSE(BitAt(bits, i)) << "tail i=" << i;
    }
  }
}

TEST(MatchKernelTest, EmptyRectMatchesNothing) {
  const Rect empty{50.0, 50.0, 40.0, 60.0};  // max_x < min_x
  ASSERT_TRUE(empty.IsEmpty());
  const size_t n = 129;
  Batch b = RandomBatch(n, 11, true);
  auto bits = Bits(n);
  PointsInRect(b.x.data(), b.y.data(), n, empty, bits.data());
  for (uint64_t w : bits) EXPECT_EQ(w, 0u);
}

TEST(MatchKernelTest, CircleMatchesGeometryOracle) {
  const Point c{50.0, 50.0};
  const double radius = 22.5;
  const Circle circle{c, radius};
  for (size_t n : kSizes) {
    Batch b = RandomBatch(n, 9001 + n, true);
    auto bits = Bits(n);
    PointsInCircle(b.x.data(), b.y.data(), n, c, radius * radius,
                         bits.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(BitAt(bits, i), circle.Contains(Point{b.x[i], b.y[i]}))
          << "i=" << i << " n=" << n;
    }
  }
}

TEST(MatchKernelTest, BoundaryEqualCoordinates) {
  // Points exactly on rect edges and exactly at the circle radius: the
  // kernels must agree with the closed-bound geometry predicates.
  const Rect r{10.0, 10.0, 20.0, 20.0};
  const std::vector<double> xs = {10.0, 20.0, 15.0, 9.999999999, 20.000000001};
  const std::vector<double> ys = {10.0, 20.0, 20.0, 15.0, 15.0};
  const size_t n = xs.size();
  auto bits = Bits(n);
  PointsInRect(xs.data(), ys.data(), n, r, bits.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(BitAt(bits, i), r.Contains(Point{xs[i], ys[i]})) << "i=" << i;
  }
  // Distance exactly r: 3-4-5 triangle, radius 5 from the origin.
  const Point c{0.0, 0.0};
  const std::vector<double> cx = {3.0, 3.0, 5.0, 0.0};
  const std::vector<double> cy = {4.0, 4.000001, 0.0, -5.0};
  auto cbits = Bits(cx.size());
  PointsInCircle(cx.data(), cy.data(), cx.size(), c, 25.0,
                               cbits.data());
  EXPECT_EQ(cbits[0] & 0xF, 0b1101u);  // the nudged point is outside
}

TEST(MatchKernelTest, RectWindowMatchesPredictiveReduction) {
  const Rect r{20.0, 25.0, 80.0, 75.0};
  const double t_from = 10.0, t_to = 30.0, horizon = 5.0;
  for (size_t n : kSizes) {
    Batch b = RandomBatch(n, 13001 + n, true);
    // Sprinkle window-boundary timestamps: t + horizon == t_from exactly.
    for (size_t i = 0; i < n; i += 7) b.t[i] = t_from - horizon;
    auto bits = Bits(n);
    PointsInRectWindow(b.x.data(), b.y.data(), b.t.data(), n, r, t_from,
                             t_to, horizon, bits.data());
    for (size_t i = 0; i < n; ++i) {
      const double wf = std::max(t_from, b.t[i]);
      const double wt = std::min(t_to, b.t[i] + horizon);
      const bool want = wt >= wf && r.Contains(Point{b.x[i], b.y[i]});
      EXPECT_EQ(BitAt(bits, i), want) << "i=" << i << " n=" << n;
    }
  }
}

TEST(MatchKernelTest, TrajectoriesMatchScalarClip) {
  const Rect r{30.0, 30.0, 70.0, 70.0};
  const double t_from = 5.0, t_to = 40.0, horizon = 8.0;
  for (size_t n : kSizes) {
    Batch b = RandomBatch(n, 17001 + n, false);
    auto bits = Bits(n);
    TrajectoriesIntersectRectWindow(
        b.x.data(), b.y.data(), b.vx.data(), b.vy.data(), b.t.data(), n, r,
        t_from, t_to, horizon, bits.data());
    for (size_t i = 0; i < n; ++i) {
      const double wf = std::max(t_from, b.t[i]);
      const double wt = std::min(t_to, b.t[i] + horizon);
      const Trajectory traj{Point{b.x[i], b.y[i]},
                            Velocity{b.vx[i], b.vy[i]}, b.t[i]};
      const bool want =
          wt >= wf &&
          TrajectoryIntersectsRect(traj, r, wf, wt, /*t_hit=*/nullptr);
      EXPECT_EQ(BitAt(bits, i), want) << "i=" << i << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace stq
