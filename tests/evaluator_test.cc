// Direct unit tests for the three evaluators, below the QueryProcessor
// API: exact predicates, the rectangle-difference incremental path, the
// grid ring search, and their edge cases.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/predictive_evaluator.h"
#include "stq/core/range_evaluator.h"

namespace stq {
namespace {

const Rect kUnit{0.0, 0.0, 1.0, 1.0};

// A minimal engine harness owning the pieces an evaluator needs.
struct Harness {
  explicit Harness(int grid_cells = 8)
      : grid(kUnit, grid_cells) {
    options.grid_cells_per_side = grid_cells;
  }

  EngineState state() {
    return EngineState{&grid, &objects, &queries, &options};
  }

  ObjectRecord* AddObject(ObjectId id, const Point& loc) {
    ObjectRecord rec;
    rec.id = id;
    rec.loc = loc;
    ObjectRecord* stored = objects.Insert(std::move(rec));
    grid.InsertObject(id, loc);
    return stored;
  }

  ObjectRecord* AddPredictiveObject(ObjectId id, const Point& loc,
                                    const Velocity& vel, double t) {
    ObjectRecord rec;
    rec.id = id;
    rec.loc = loc;
    rec.vel = vel;
    rec.t = t;
    rec.predictive = true;
    rec.footprint = rec.trajectory().FootprintBetween(
        t, t + options.prediction_horizon);
    ObjectRecord* stored = objects.Insert(std::move(rec));
    grid.InsertObjectFootprint(id, stored->footprint);
    return stored;
  }

  QueryRecord* AddRangeQuery(QueryId id, const Rect& region) {
    QueryRecord rec;
    rec.id = id;
    rec.kind = QueryKind::kRange;
    rec.region = region;
    rec.grid_footprint = region;
    QueryRecord* stored = queries.Insert(std::move(rec));
    grid.InsertQuery(id, region);
    return stored;
  }

  QueryProcessorOptions options;
  GridIndex grid;
  ObjectStore objects;
  QueryStore queries;
};

// --- RangeEvaluator ------------------------------------------------------------

TEST(RangeEvaluatorTest, SatisfiesIsClosedContainment) {
  ObjectRecord o;
  o.loc = Point{0.5, 0.5};
  QueryRecord q;
  q.region = Rect{0.5, 0.5, 0.6, 0.6};
  EXPECT_TRUE(RangeEvaluator::Satisfies(o, q));
  o.loc = Point{0.49999, 0.5};
  EXPECT_FALSE(RangeEvaluator::Satisfies(o, q));
}

TEST(RangeEvaluatorTest, NewQueryScansWholeRegion) {
  Harness h;
  h.AddObject(1, Point{0.2, 0.2});
  h.AddObject(2, Point{0.8, 0.8});
  QueryRecord* q = h.AddRangeQuery(1, Rect{0.1, 0.1, 0.9, 0.9});
  RangeEvaluator evaluator(h.state());
  std::vector<Update> out;
  evaluator.OnQueryRegionChanged(q, Rect::Empty(), &out);
  CanonicalizeUpdates(&out);
  const std::vector<Update> expected = {Update::Positive(1, 1),
                                        Update::Positive(1, 2)};
  EXPECT_EQ(out, expected);
  EXPECT_TRUE(q->answer.contains(1));
  EXPECT_TRUE(ObjectStore::HasQuery(*h.objects.Find(1), 1));
}

TEST(RangeEvaluatorTest, MoveEvaluatesOnlyTheDifference) {
  Harness h;
  // One object deep inside the overlap, one in the abandoned strip, one
  // in the newly covered strip.
  h.AddObject(1, Point{0.45, 0.5});  // overlap
  h.AddObject(2, Point{0.15, 0.5});  // old-only
  h.AddObject(3, Point{0.75, 0.5});  // new-only
  QueryRecord* q = h.AddRangeQuery(1, Rect{0.1, 0.1, 0.6, 0.9});
  RangeEvaluator evaluator(h.state());
  std::vector<Update> out;
  evaluator.OnQueryRegionChanged(q, Rect::Empty(), &out);
  out.clear();

  // Slide right. Re-clip the grid the way the processor would.
  const Rect old_region = q->region;
  q->region = Rect{0.3, 0.1, 0.8, 0.9};
  h.grid.RemoveQuery(1, q->grid_footprint);
  h.grid.InsertQuery(1, q->region);
  q->grid_footprint = q->region;
  evaluator.OnQueryRegionChanged(q, old_region, &out);
  CanonicalizeUpdates(&out);

  const std::vector<Update> expected = {Update::Negative(1, 2),
                                        Update::Positive(1, 3)};
  EXPECT_EQ(out, expected);  // object 1 is never re-reported
  EXPECT_EQ(q->SortedAnswer(), (std::vector<ObjectId>{1, 3}));
}

TEST(RangeEvaluatorTest, MoveToDisjointRegionSwapsAnswer) {
  Harness h;
  h.AddObject(1, Point{0.2, 0.2});
  h.AddObject(2, Point{0.8, 0.8});
  QueryRecord* q = h.AddRangeQuery(1, Rect{0.1, 0.1, 0.3, 0.3});
  RangeEvaluator evaluator(h.state());
  std::vector<Update> out;
  evaluator.OnQueryRegionChanged(q, Rect::Empty(), &out);
  out.clear();

  const Rect old_region = q->region;
  q->region = Rect{0.7, 0.7, 0.9, 0.9};
  h.grid.RemoveQuery(1, q->grid_footprint);
  h.grid.InsertQuery(1, q->region);
  q->grid_footprint = q->region;
  evaluator.OnQueryRegionChanged(q, old_region, &out);
  CanonicalizeUpdates(&out);
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(1, 2)};
  EXPECT_EQ(out, expected);
}

// --- KnnEvaluator ----------------------------------------------------------------

TEST(KnnEvaluatorTest, SearchOnEmptyStore) {
  Harness h;
  KnnEvaluator knn(h.state());
  EXPECT_TRUE(knn.Search(Point{0.5, 0.5}, 3).empty());
  EXPECT_TRUE(knn.Search(Point{0.5, 0.5}, 0).empty());
}

TEST(KnnEvaluatorTest, SearchReturnsAllWhenKExceedsPopulation) {
  Harness h;
  h.AddObject(1, Point{0.1, 0.1});
  h.AddObject(2, Point{0.9, 0.9});
  KnnEvaluator knn(h.state());
  const auto result = knn.Search(Point{0.5, 0.5}, 10);
  EXPECT_EQ(result.size(), 2u);
}

TEST(KnnEvaluatorTest, SearchOrdersByDistanceThenId) {
  Harness h;
  // Offsets of 0.125 / 0.25 are exactly representable, so the tie between
  // objects 1 and 2 is exact in floating point.
  h.AddObject(3, Point{0.5, 0.625});  // d = 0.125
  h.AddObject(1, Point{0.5, 0.75});   // d = 0.25
  h.AddObject(2, Point{0.5, 0.25});   // d = 0.25 (tie with 1)
  KnnEvaluator knn(h.state());
  const auto result = knn.Search(Point{0.5, 0.5}, 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 3u);
  EXPECT_EQ(result[1].id, 1u);  // tie broken by id
  EXPECT_EQ(result[2].id, 2u);
}

TEST(KnnEvaluatorTest, SearchFromOutsideBounds) {
  Harness h;
  h.AddObject(1, Point{0.1, 0.5});
  h.AddObject(2, Point{0.9, 0.5});
  KnnEvaluator knn(h.state());
  // Focal point far outside the grid: clamping must not break the search.
  const auto result = knn.Search(Point{-5.0, 0.5}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1u);
}

// Randomized equivalence of the ring search with brute force across grid
// resolutions (the pruning bounds are the risky part).
TEST(KnnEvaluatorTest, RandomizedSearchMatchesBruteForce) {
  Xorshift128Plus rng(808);
  for (int grid_cells : {1, 3, 8, 32}) {
    Harness h(grid_cells);
    std::vector<std::pair<ObjectId, Point>> population;
    for (ObjectId id = 1; id <= 200; ++id) {
      const Point loc{rng.NextDouble(), rng.NextDouble()};
      h.AddObject(id, loc);
      population.emplace_back(id, loc);
    }
    KnnEvaluator knn(h.state());
    for (int trial = 0; trial < 40; ++trial) {
      const Point center{rng.NextDouble(), rng.NextDouble()};
      const int k = rng.NextInt(1, 12);
      const auto result = knn.Search(center, k);

      std::vector<KnnEvaluator::Neighbor> brute;
      for (const auto& [id, loc] : population) {
        brute.push_back(
            KnnEvaluator::Neighbor{SquaredDistance(center, loc), id});
      }
      std::sort(brute.begin(), brute.end());
      brute.resize(k);
      ASSERT_EQ(result.size(), brute.size());
      for (size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(result[i].id, brute[i].id)
            << "grid=" << grid_cells << " trial=" << trial << " i=" << i;
      }
    }
  }
}

TEST(KnnMonitorTest, RegistrationRefreshAndAnswerCircle) {
  Harness h;
  for (ObjectId id = 1; id <= 5; ++id) {
    h.AddObject(id, Point{0.1 * static_cast<double>(id), 0.5});
  }
  const KnnEvaluator knn(h.state());
  auto search = [&](const Point& center, KnnEvaluator::KBest* best) {
    knn.Search(center, best);
  };
  auto engine_has = [](QueryId) { return false; };

  KnnMonitor monitor;
  ReportBatch batch;
  PendingQueryChange reg;
  reg.kind = QueryChangeKind::kRegisterKnn;
  reg.id = 1;
  reg.center = Point{0.1, 0.5};
  reg.k = 2;
  batch.query_changes.push_back(reg);
  std::vector<Update> out;
  TickStats stats;
  monitor.TakeChanges(&batch, engine_has, &out, &stats);
  EXPECT_TRUE(batch.query_changes.empty());  // the monitor's, not the grid's
  monitor.Refresh(batch, h.objects.size(), nullptr, search, &out, &stats);
  CanonicalizeUpdates(&out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.knn_reevaluations, 1u);
  const KnnMonitor::Query* q = monitor.Find(1);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->answer, (std::vector<ObjectId>{1, 2}));
  EXPECT_NEAR(std::sqrt(q->dist2), 0.1, 1e-9);

  // A move of a query the monitor does not hold stays in the batch, and
  // a tick that disturbs no k-NN query re-evaluates none.
  batch.clear();
  PendingQueryChange move;
  move.kind = QueryChangeKind::kMove;
  move.id = 99;
  batch.query_changes.push_back(move);
  out.clear();
  stats = TickStats{};
  monitor.TakeChanges(&batch, engine_has, &out, &stats);
  EXPECT_EQ(batch.query_changes.size(), 1u);
  monitor.Refresh(batch, h.objects.size(), nullptr, search, &out, &stats);
  EXPECT_EQ(stats.knn_reevaluations, 0u);
  EXPECT_TRUE(out.empty());
}

// --- PredictiveEvaluator -------------------------------------------------------------

QueryRecord MakePredictiveQuery(const Rect& region, double t_from,
                                double t_to) {
  QueryRecord q;
  q.kind = QueryKind::kPredictiveRange;
  q.region = region;
  q.t_from = t_from;
  q.t_to = t_to;
  return q;
}

TEST(PredictiveEvaluatorTest, SatisfiesRespectsWindowAndHorizon) {
  QueryProcessorOptions options;
  options.prediction_horizon = 10.0;

  ObjectRecord o;
  o.loc = Point{0.0, 0.5};
  o.vel = Velocity{0.1, 0.0};
  o.t = 0.0;
  o.predictive = true;

  // Reaches x=0.5 at t=5 — inside horizon and window.
  QueryRecord q = MakePredictiveQuery(Rect{0.45, 0.45, 0.55, 0.55}, 4.0, 6.0);
  EXPECT_TRUE(PredictiveEvaluator::Satisfies(o, q, options));

  // Window after the horizon (t=15 > 0+10): unknowable.
  q = MakePredictiveQuery(Rect{0.45, 0.45, 0.55, 0.55}, 14.0, 16.0);
  EXPECT_FALSE(PredictiveEvaluator::Satisfies(o, q, options));

  // Window straddling the horizon: only the knowable part counts, and the
  // object is at x=1.0 at the horizon — outside this region.
  q = MakePredictiveQuery(Rect{0.45, 0.45, 0.55, 0.55}, 9.0, 16.0);
  EXPECT_FALSE(PredictiveEvaluator::Satisfies(o, q, options));
  // ...but a region on the path before the horizon matches.
  q = MakePredictiveQuery(Rect{0.85, 0.45, 0.95, 0.55}, 9.0, 16.0);
  EXPECT_TRUE(PredictiveEvaluator::Satisfies(o, q, options));
}

TEST(PredictiveEvaluatorTest, SatisfiesForSampledObjects) {
  QueryProcessorOptions options;
  ObjectRecord o;
  o.loc = Point{0.5, 0.5};
  o.t = 0.0;
  QueryRecord q = MakePredictiveQuery(Rect{0.4, 0.4, 0.6, 0.6}, 5.0, 8.0);
  EXPECT_TRUE(PredictiveEvaluator::Satisfies(o, q, options));
  // Window entirely before the report: the past is not predicted.
  o.t = 10.0;
  EXPECT_FALSE(PredictiveEvaluator::Satisfies(o, q, options));
}

TEST(PredictiveEvaluatorTest, QueryMoveEmitsExactDeltas) {
  Harness h;
  h.options.prediction_horizon = 100.0;
  // Two eastbound corridors.
  h.AddPredictiveObject(1, Point{0.0, 0.25}, Velocity{0.05, 0.0}, 0.0);
  h.AddPredictiveObject(2, Point{0.0, 0.75}, Velocity{0.05, 0.0}, 0.0);

  QueryRecord rec = MakePredictiveQuery(Rect{0.4, 0.2, 0.6, 0.3}, 8.0, 12.0);
  rec.id = 1;
  rec.grid_footprint = rec.region;
  QueryRecord* q = h.queries.Insert(std::move(rec));
  h.grid.InsertQuery(1, q->region);

  PredictiveEvaluator evaluator(h.state());
  std::vector<Update> out;
  evaluator.OnQueryRegionChanged(q, Rect::Empty(), &out);
  EXPECT_EQ(out, std::vector<Update>{Update::Positive(1, 1)});
  out.clear();

  // Slide to the northern corridor.
  const Rect old_region = q->region;
  q->region = Rect{0.4, 0.7, 0.6, 0.8};
  h.grid.RemoveQuery(1, q->grid_footprint);
  h.grid.InsertQuery(1, q->region);
  q->grid_footprint = q->region;
  evaluator.OnQueryRegionChanged(q, old_region, &out);
  CanonicalizeUpdates(&out);
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(1, 2)};
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace stq
