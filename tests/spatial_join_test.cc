// Tests for the standalone grid-partition spatial join (the paper's bulk
// processing primitive) against the nested-loop oracle.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/grid/spatial_join.h"

namespace stq {
namespace {

const Rect kUnit{0.0, 0.0, 1.0, 1.0};

TEST(SpatialJoinTest, EmptyInputs) {
  EXPECT_TRUE(GridPartitionJoin({}, {}, kUnit, 8).empty());
  EXPECT_TRUE(GridPartitionJoin({{1, Point{0.5, 0.5}}}, {}, kUnit, 8).empty());
  EXPECT_TRUE(
      GridPartitionJoin({}, {{1, Rect{0, 0, 1, 1}}}, kUnit, 8).empty());
}

TEST(SpatialJoinTest, BasicContainment) {
  const std::vector<JoinPoint> points = {
      {1, Point{0.25, 0.25}}, {2, Point{0.75, 0.75}}, {3, Point{0.5, 0.5}}};
  const std::vector<JoinRect> rects = {
      {10, Rect{0.0, 0.0, 0.4, 0.4}},   // contains p1
      {20, Rect{0.4, 0.4, 1.0, 1.0}},   // contains p2, p3
      {30, Rect{0.9, 0.0, 1.0, 0.1}}};  // empty
  const std::vector<JoinPair> expected = {{10, 1}, {20, 2}, {20, 3}};
  EXPECT_EQ(GridPartitionJoin(points, rects, kUnit, 4), expected);
  EXPECT_EQ(NestedLoopJoin(points, rects), expected);
}

TEST(SpatialJoinTest, BoundaryPointsAreClosed) {
  const std::vector<JoinPoint> points = {{1, Point{0.5, 0.5}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.5, 0.5, 0.6, 0.6}},
                                       {20, Rect{0.4, 0.4, 0.5, 0.5}}};
  const std::vector<JoinPair> expected = {{10, 1}, {20, 1}};
  EXPECT_EQ(GridPartitionJoin(points, rects, kUnit, 7), expected);
}

TEST(SpatialJoinTest, OutOfBoundsPointsNeverMatch) {
  const std::vector<JoinPoint> points = {{1, Point{1.5, 0.5}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.9, 0.0, 2.0, 1.0}}};
  // The universe rule: the point is outside the bounded space.
  EXPECT_TRUE(GridPartitionJoin(points, rects, kUnit, 8).empty());
}

TEST(SpatialJoinTest, SingleCellDegeneratesToNestedLoop) {
  Xorshift128Plus rng(3);
  std::vector<JoinPoint> points;
  std::vector<JoinRect> rects;
  for (ObjectId id = 1; id <= 50; ++id) {
    points.push_back({id, Point{rng.NextDouble(), rng.NextDouble()}});
  }
  for (QueryId qid = 1; qid <= 20; ++qid) {
    rects.push_back({qid, Rect::CenteredSquare(
                              Point{rng.NextDouble(), rng.NextDouble()}, 0.3)
                              .Intersection(kUnit)});
  }
  EXPECT_EQ(GridPartitionJoin(points, rects, kUnit, 1),
            NestedLoopJoin(points, rects));
}

// Property: the partition join equals the oracle across resolutions.
TEST(SpatialJoinTest, RandomizedEquivalenceAcrossResolutions) {
  Xorshift128Plus rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<JoinPoint> points;
    std::vector<JoinRect> rects;
    const size_t num_points = 100 + rng.NextUint64(300);
    const size_t num_rects = 20 + rng.NextUint64(80);
    for (size_t i = 0; i < num_points; ++i) {
      points.push_back(
          {i + 1, Point{rng.NextDouble(), rng.NextDouble()}});
    }
    for (size_t i = 0; i < num_rects; ++i) {
      rects.push_back(
          {i + 1, Rect::CenteredSquare(Point{rng.NextDouble(), rng.NextDouble()},
                                       rng.NextDouble(0.01, 0.5))
                      .Intersection(kUnit)});
    }
    const std::vector<JoinPair> oracle = NestedLoopJoin(points, rects);
    for (int n : {2, 9, 32}) {
      EXPECT_EQ(GridPartitionJoin(points, rects, kUnit, n), oracle)
          << "trial " << trial << " n " << n;
    }
  }
}

TEST(SpatialJoinTest, DuplicateIdsActIndependently) {
  const std::vector<JoinPoint> points = {{1, Point{0.1, 0.1}},
                                         {1, Point{0.9, 0.9}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.0, 0.0, 1.0, 1.0}}};
  const std::vector<JoinPair> pairs =
      GridPartitionJoin(points, rects, kUnit, 4);
  ASSERT_EQ(pairs.size(), 2u);  // both instances matched
}

TEST(SpatialJoinTest, DegenerateZeroAreaBoundsFallBackSafely) {
  // Regression: zero-width / zero-height bounds used to divide by a zero
  // cell extent, producing NaN cell indices and UB in the int cast. The
  // join now falls back to a bounds-clipped nested loop.
  const std::vector<JoinPoint> points = {{1, Point{0.5, 0.5}},
                                         {2, Point{0.5, 0.7}},
                                         {3, Point{0.6, 0.5}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.0, 0.0, 1.0, 1.0}}};

  // Vertical-line universe: only points with x == 0.5 are inside it.
  const Rect vline{0.5, 0.0, 0.5, 1.0};
  const std::vector<JoinPair> expect_vline = {{10, 1}, {10, 2}};
  EXPECT_EQ(GridPartitionJoin(points, rects, vline, 8), expect_vline);

  // Horizontal-line universe.
  const Rect hline{0.0, 0.5, 1.0, 0.5};
  const std::vector<JoinPair> expect_hline = {{10, 1}, {10, 3}};
  EXPECT_EQ(GridPartitionJoin(points, rects, hline, 8), expect_hline);

  // Point universe: exactly one location is in-bounds.
  const Rect dot{0.5, 0.5, 0.5, 0.5};
  const std::vector<JoinPair> expect_dot = {{10, 1}};
  EXPECT_EQ(GridPartitionJoin(points, rects, dot, 8), expect_dot);
}

TEST(SpatialJoinTest, DegenerateBoundsStillEnforceUniverseRule) {
  // A rect reaching outside the degenerate universe must not match
  // points that lie outside it.
  const std::vector<JoinPoint> points = {{1, Point{0.5, 0.2}},
                                         {2, Point{0.4, 0.2}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.0, 0.0, 1.0, 1.0}}};
  const Rect vline{0.5, 0.0, 0.5, 1.0};
  const std::vector<JoinPair> expected = {{10, 1}};  // p2 is off the line
  EXPECT_EQ(GridPartitionJoin(points, rects, vline, 4), expected);
}

TEST(SpatialJoinTest, NonFiniteBoundsFallBackWithoutUb) {
  const std::vector<JoinPoint> points = {{1, Point{0.5, 0.5}}};
  const std::vector<JoinRect> rects = {{10, Rect{0.0, 0.0, 1.0, 1.0}}};
  const double inf = std::numeric_limits<double>::infinity();
  // Infinite-extent universe: cell width would be inf; must not crash.
  const Rect unbounded{-inf, 0.0, inf, 1.0};
  const std::vector<JoinPair> expected = {{10, 1}};
  EXPECT_EQ(GridPartitionJoin(points, rects, unbounded, 8), expected);
}

}  // namespace
}  // namespace stq
