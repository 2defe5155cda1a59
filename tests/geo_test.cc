// Unit and property tests for the geometry module: points, rectangles,
// circles, segment clipping, trajectories, and the rectangle-difference
// decomposition that powers incremental range evaluation.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/geo/circle.h"
#include "stq/geo/geometry.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"
#include "stq/geo/segment.h"

namespace stq {
namespace {

// --- Point / Velocity ---------------------------------------------------------

TEST(PointTest, DistanceAndSquaredDistance) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
}

TEST(PointTest, AdvanceFollowsLinearMotion) {
  const Point p{1.0, 2.0};
  const Velocity v{0.5, -1.0};
  const Point q = Advance(p, v, 4.0);
  EXPECT_DOUBLE_EQ(q.x, 3.0);
  EXPECT_DOUBLE_EQ(q.y, -2.0);
}

TEST(PointTest, ZeroVelocityDetected) {
  EXPECT_TRUE((Velocity{0.0, 0.0}).IsZero());
  EXPECT_FALSE((Velocity{0.0, 0.1}).IsZero());
}

// --- Rect -----------------------------------------------------------------------

TEST(RectTest, DefaultIsEmpty) {
  Rect r;
  EXPECT_TRUE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  EXPECT_FALSE(r.Contains(Point{0.0, 0.0}));
}

TEST(RectTest, ConstructionHelpers) {
  const Rect a = Rect::FromCorner(1.0, 2.0, 3.0, 4.0);
  EXPECT_EQ(a, (Rect{1.0, 2.0, 4.0, 6.0}));
  const Rect b = Rect::CenteredSquare(Point{0.5, 0.5}, 0.2);
  EXPECT_NEAR(b.min_x, 0.4, 1e-12);
  EXPECT_NEAR(b.max_y, 0.6, 1e-12);
  const Rect c = Rect::FromCorners(Point{5.0, 1.0}, Point{2.0, 3.0});
  EXPECT_EQ(c, (Rect{2.0, 1.0, 5.0, 3.0}));
}

TEST(RectTest, ContainsIsClosed) {
  const Rect r{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(r.Contains(Point{0.0, 0.0}));
  EXPECT_TRUE(r.Contains(Point{1.0, 1.0}));
  EXPECT_TRUE(r.Contains(Point{0.5, 1.0}));
  EXPECT_FALSE(r.Contains(Point{1.0000001, 0.5}));
}

TEST(RectTest, IntersectsSharedEdgeAndCorner) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(a.Intersects(Rect{1.0, 0.0, 2.0, 1.0}));  // shared edge
  EXPECT_TRUE(a.Intersects(Rect{1.0, 1.0, 2.0, 2.0}));  // shared corner
  EXPECT_FALSE(a.Intersects(Rect{1.1, 0.0, 2.0, 1.0}));
}

TEST(RectTest, IntersectionAndUnion) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  const Rect b{1.0, 1.0, 3.0, 3.0};
  EXPECT_EQ(a.Intersection(b), (Rect{1.0, 1.0, 2.0, 2.0}));
  EXPECT_EQ(a.Union(b), (Rect{0.0, 0.0, 3.0, 3.0}));
  EXPECT_TRUE(a.Intersection(Rect{5.0, 5.0, 6.0, 6.0}).IsEmpty());
  EXPECT_EQ(a.Union(Rect::Empty()), a);
  EXPECT_EQ(Rect::Empty().Union(a), a);
}

TEST(RectTest, ContainsRect) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  EXPECT_TRUE(a.ContainsRect(Rect{0.5, 0.5, 1.5, 1.5}));
  EXPECT_TRUE(a.ContainsRect(a));
  EXPECT_TRUE(a.ContainsRect(Rect::Empty()));
  EXPECT_FALSE(a.ContainsRect(Rect{0.5, 0.5, 2.5, 1.5}));
  EXPECT_FALSE(Rect::Empty().ContainsRect(a));
}

TEST(RectTest, SquaredDistanceToPoint) {
  const Rect r{0.0, 0.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo(Point{0.5, 0.5}), 0.0);   // inside
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo(Point{2.0, 0.5}), 1.0);   // right
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo(Point{0.5, -2.0}), 4.0);  // below
  EXPECT_DOUBLE_EQ(r.SquaredDistanceTo(Point{4.0, 5.0}), 25.0);  // corner
  EXPECT_TRUE(std::isinf(Rect::Empty().SquaredDistanceTo(Point{0.0, 0.0})));
}

TEST(RectTest, ExpandedGrowsAllSides) {
  const Rect r = Rect{1.0, 1.0, 2.0, 2.0}.Expanded(0.5);
  EXPECT_EQ(r, (Rect{0.5, 0.5, 2.5, 2.5}));
}

TEST(RectTest, DebugStringMentionsCoordinates) {
  EXPECT_NE((Rect{0, 0, 1, 1}).DebugString().find("Rect["),
            std::string::npos);
  EXPECT_EQ(Rect::Empty().DebugString(), "Rect(empty)");
}

// --- RectDifference ------------------------------------------------------------------

TEST(RectDifferenceTest, DisjointKeepsWhole) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  const Rect b{2.0, 2.0, 3.0, 3.0};
  const std::vector<Rect> diff = RectDifference(a, b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], a);
}

TEST(RectDifferenceTest, FullyCoveredIsEmpty) {
  const Rect a{0.2, 0.2, 0.8, 0.8};
  const Rect b{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(RectDifference(a, b).empty());
}

TEST(RectDifferenceTest, CenterHoleYieldsFourPieces) {
  const Rect a{0.0, 0.0, 3.0, 3.0};
  const Rect b{1.0, 1.0, 2.0, 2.0};
  const std::vector<Rect> diff = RectDifference(a, b);
  EXPECT_EQ(diff.size(), 4u);
  double area = 0.0;
  for (const Rect& r : diff) area += r.Area();
  EXPECT_DOUBLE_EQ(area, 8.0);  // 9 - 1
}

TEST(RectDifferenceTest, EmptyMinuendYieldsNothing) {
  EXPECT_TRUE(RectDifference(Rect::Empty(), Rect{0, 0, 1, 1}).empty());
}

TEST(RectDifferenceTest, EmptySubtrahendKeepsWhole) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  const std::vector<Rect> diff = RectDifference(a, Rect::Empty());
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], a);
}

// Property: for random rectangle pairs, the decomposition (a) stays inside
// `a`, (b) avoids the interior of `b`, (c) together with b covers every
// sample of `a`, and (d) pieces are interior-disjoint (area adds up).
TEST(RectDifferenceTest, RandomizedPartitionProperty) {
  Xorshift128Plus rng(424242);
  for (int iter = 0; iter < 200; ++iter) {
    const Rect a = Rect::FromCorners(
        Point{rng.NextDouble(), rng.NextDouble()},
        Point{rng.NextDouble(), rng.NextDouble()});
    const Rect b = Rect::FromCorners(
        Point{rng.NextDouble(), rng.NextDouble()},
        Point{rng.NextDouble(), rng.NextDouble()});
    const std::vector<Rect> diff = RectDifference(a, b);

    EXPECT_LE(diff.size(), 4u);
    double pieces_area = 0.0;
    for (const Rect& piece : diff) {
      pieces_area += piece.Area();
      EXPECT_TRUE(a.ContainsRect(piece));
    }
    const double expected = a.Area() - a.Intersection(b).Area();
    EXPECT_NEAR(pieces_area, expected, 1e-9);

    // Point-sampling coverage check.
    for (int s = 0; s < 50; ++s) {
      const Point p{rng.NextDouble(a.min_x, a.max_x),
                    rng.NextDouble(a.min_y, a.max_y)};
      bool in_pieces = false;
      for (const Rect& piece : diff) in_pieces |= piece.Contains(p);
      if (!b.Contains(p)) {
        EXPECT_TRUE(in_pieces) << "uncovered point of a - b";
      }
      if (in_pieces) {
        EXPECT_TRUE(a.Contains(p));
      }
    }
  }
}

// --- Circle ---------------------------------------------------------------------------

TEST(CircleTest, ContainsIsClosed) {
  const Circle c{Point{0.0, 0.0}, 1.0};
  EXPECT_TRUE(c.Contains(Point{1.0, 0.0}));
  EXPECT_TRUE(c.Contains(Point{0.0, 0.0}));
  EXPECT_FALSE(c.Contains(Point{1.0, 0.1}));
}

TEST(CircleTest, BoundingBox) {
  const Circle c{Point{0.5, 0.5}, 0.25};
  EXPECT_EQ(c.BoundingBox(), (Rect{0.25, 0.25, 0.75, 0.75}));
}

// --- Segment clipping ----------------------------------------------------------------------

TEST(SegmentTest, BoundingBoxAndAt) {
  const Segment s{Point{0.0, 0.0}, Point{2.0, 4.0}};
  EXPECT_EQ(s.BoundingBox(), (Rect{0.0, 0.0, 2.0, 4.0}));
  const Point mid = s.At(0.5);
  EXPECT_DOUBLE_EQ(mid.x, 1.0);
  EXPECT_DOUBLE_EQ(mid.y, 2.0);
  EXPECT_DOUBLE_EQ(s.Length(), std::sqrt(20.0));
}

TEST(SegmentClipTest, CrossingSegment) {
  const Segment s{Point{-1.0, 0.5}, Point{2.0, 0.5}};
  const Rect r{0.0, 0.0, 1.0, 1.0};
  double t0 = 0.0, t1 = 0.0;
  ASSERT_TRUE(ClipSegmentToRect(s, r, &t0, &t1));
  EXPECT_NEAR(t0, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t1, 2.0 / 3.0, 1e-12);
}

TEST(SegmentClipTest, FullyInside) {
  const Segment s{Point{0.2, 0.2}, Point{0.8, 0.8}};
  double t0 = -1.0, t1 = -1.0;
  ASSERT_TRUE(ClipSegmentToRect(s, Rect{0, 0, 1, 1}, &t0, &t1));
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 1.0);
}

TEST(SegmentClipTest, FullyOutsideMisses) {
  const Segment s{Point{2.0, 2.0}, Point{3.0, 3.0}};
  EXPECT_FALSE(SegmentIntersectsRect(s, Rect{0, 0, 1, 1}));
}

TEST(SegmentClipTest, MissesDiagonally) {
  // Crosses the bounding box of the rect's corner region but not the rect.
  const Segment s{Point{1.5, -0.5}, Point{2.5, 0.5}};
  EXPECT_FALSE(SegmentIntersectsRect(s, Rect{0, 0, 1, 1}));
}

TEST(SegmentClipTest, DegeneratePointSegment) {
  const Segment inside{Point{0.5, 0.5}, Point{0.5, 0.5}};
  EXPECT_TRUE(SegmentIntersectsRect(inside, Rect{0, 0, 1, 1}));
  const Segment outside{Point{1.5, 0.5}, Point{1.5, 0.5}};
  EXPECT_FALSE(SegmentIntersectsRect(outside, Rect{0, 0, 1, 1}));
}

TEST(SegmentClipTest, TouchesBoundaryOnly) {
  const Segment s{Point{1.0, -1.0}, Point{1.0, 2.0}};  // runs along x=1 edge
  EXPECT_TRUE(SegmentIntersectsRect(s, Rect{0, 0, 1, 1}));
}

TEST(SegmentClipTest, EmptyRectNeverHit) {
  const Segment s{Point{0.0, 0.0}, Point{1.0, 1.0}};
  EXPECT_FALSE(SegmentIntersectsRect(s, Rect::Empty()));
}

TEST(SegmentClipTest, NullOutputsAllowed) {
  const Segment s{Point{-1.0, 0.5}, Point{2.0, 0.5}};
  EXPECT_TRUE(ClipSegmentToRect(s, Rect{0, 0, 1, 1}, nullptr, nullptr));
}

// Property: clip parameters really bound the inside portion.
TEST(SegmentClipTest, RandomizedClipConsistency) {
  Xorshift128Plus rng(777);
  const Rect r{0.25, 0.25, 0.75, 0.75};
  for (int iter = 0; iter < 500; ++iter) {
    const Segment s{Point{rng.NextDouble(), rng.NextDouble()},
                    Point{rng.NextDouble(), rng.NextDouble()}};
    double t0 = 0.0, t1 = 0.0;
    const bool hit = ClipSegmentToRect(s, r, &t0, &t1);
    // Sample points along the segment and compare membership with [t0,t1].
    for (int k = 0; k <= 20; ++k) {
      const double t = k / 20.0;
      const bool inside = r.Contains(s.At(t));
      if (inside) {
        ASSERT_TRUE(hit);
        EXPECT_GE(t, t0 - 1e-9);
        EXPECT_LE(t, t1 + 1e-9);
      }
      if (hit && t > t0 + 1e-9 && t < t1 - 1e-9) {
        EXPECT_TRUE(inside);
      }
    }
  }
}

// --- Trajectory -----------------------------------------------------------------------------

TEST(TrajectoryTest, PositionAt) {
  const Trajectory traj{Point{0.0, 0.0}, Velocity{1.0, 2.0}, 10.0};
  const Point p = traj.PositionAt(12.0);
  EXPECT_DOUBLE_EQ(p.x, 2.0);
  EXPECT_DOUBLE_EQ(p.y, 4.0);
}

TEST(TrajectoryTest, FootprintClampsToStartTime) {
  const Trajectory traj{Point{0.0, 0.0}, Velocity{1.0, 0.0}, 10.0};
  // Window starting before t0 is clamped: the object's past is unknown.
  const Segment footprint = traj.FootprintBetween(5.0, 12.0);
  EXPECT_DOUBLE_EQ(footprint.a.x, 0.0);
  EXPECT_DOUBLE_EQ(footprint.b.x, 2.0);
}

TEST(TrajectoryIntersectsRectTest, MovingObjectEntersRegion) {
  const Trajectory traj{Point{0.0, 0.5}, Velocity{0.1, 0.0}, 0.0};
  const Rect region{0.5, 0.4, 0.7, 0.6};
  double t_hit = -1.0;
  ASSERT_TRUE(TrajectoryIntersectsRect(traj, region, 0.0, 10.0, &t_hit));
  EXPECT_NEAR(t_hit, 5.0, 1e-9);
}

TEST(TrajectoryIntersectsRectTest, WindowExcludesHit) {
  const Trajectory traj{Point{0.0, 0.5}, Velocity{0.1, 0.0}, 0.0};
  const Rect region{0.5, 0.4, 0.7, 0.6};
  // The object reaches the region at t=5; window [0,4] misses it, and so
  // does [8, 10] (it has left by t=7).
  EXPECT_FALSE(TrajectoryIntersectsRect(traj, region, 0.0, 4.0, nullptr));
  EXPECT_FALSE(TrajectoryIntersectsRect(traj, region, 8.0, 10.0, nullptr));
  EXPECT_TRUE(TrajectoryIntersectsRect(traj, region, 6.0, 6.5, nullptr));
}

TEST(TrajectoryIntersectsRectTest, StationaryObject) {
  const Trajectory inside{Point{0.5, 0.5}, Velocity{}, 0.0};
  const Trajectory outside{Point{2.0, 2.0}, Velocity{}, 0.0};
  const Rect region{0.0, 0.0, 1.0, 1.0};
  double t_hit = -1.0;
  EXPECT_TRUE(TrajectoryIntersectsRect(inside, region, 3.0, 5.0, &t_hit));
  EXPECT_DOUBLE_EQ(t_hit, 3.0);
  EXPECT_FALSE(TrajectoryIntersectsRect(outside, region, 3.0, 5.0, nullptr));
}

TEST(TrajectoryIntersectsRectTest, WindowBeforeReportTimeIsUnknown) {
  const Trajectory traj{Point{0.5, 0.5}, Velocity{}, 10.0};
  // The report is from t=10; a window entirely before that matches
  // nothing.
  EXPECT_FALSE(
      TrajectoryIntersectsRect(traj, Rect{0, 0, 1, 1}, 0.0, 9.0, nullptr));
}

TEST(TrajectoryIntersectsRectTest, InvalidWindowRejected) {
  const Trajectory traj{Point{0.5, 0.5}, Velocity{}, 0.0};
  EXPECT_FALSE(
      TrajectoryIntersectsRect(traj, Rect{0, 0, 1, 1}, 5.0, 3.0, nullptr));
}

// --- PointSegmentDistance ----------------------------------------------------------------------

TEST(PointSegmentDistanceTest, ProjectionCases) {
  const Segment s{Point{0.0, 0.0}, Point{2.0, 0.0}};
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{1.0, 1.0}, s), 1.0);  // middle
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{-3.0, 4.0}, s), 5.0);  // before a
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{5.0, 4.0}, s), 5.0);   // after b
}

TEST(PointSegmentDistanceTest, DegenerateSegment) {
  const Segment s{Point{1.0, 1.0}, Point{1.0, 1.0}};
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{4.0, 5.0}, s), 5.0);
}

}  // namespace
}  // namespace stq
