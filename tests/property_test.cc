// Property tests: the heart of the correctness argument.
//
// For randomized workloads (moving objects and queries, insertions,
// removals, mixed query kinds) the answers maintained incrementally by the
// QueryProcessor — and the answers a thin Client reconstructs purely from
// the +/- update stream — must equal a from-scratch evaluation after every
// tick. Parameterized over grid resolutions, population sizes, update
// rates, and seeds.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/client.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

struct PropertyParams {
  uint64_t seed = 1;
  int grid = 16;
  size_t num_objects = 120;
  size_t num_queries = 25;
  double update_fraction = 0.5;  // objects reporting per tick
  double query_move_fraction = 0.5;
  double query_side = 0.15;
  int ticks = 10;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParams>& info) {
  const PropertyParams& p = info.param;
  return "seed" + std::to_string(p.seed) + "_grid" + std::to_string(p.grid) +
         "_o" + std::to_string(p.num_objects) + "_q" +
         std::to_string(p.num_queries) + "_u" +
         std::to_string(static_cast<int>(p.update_fraction * 100));
}

Point RandomPoint(Xorshift128Plus* rng) {
  return Point{rng->NextDouble(), rng->NextDouble()};
}

// Verifies, for every registered query, that the stored incremental
// answer, the client's mirrored answer, and a from-scratch evaluation all
// agree.
void ExpectConsistent(const QueryProcessor& qp, const Client& client,
                      const std::vector<QueryId>& queries, int tick) {
  for (QueryId qid : queries) {
    Result<std::vector<ObjectId>> incremental = qp.CurrentAnswer(qid);
    ASSERT_TRUE(incremental.ok());
    Result<std::vector<ObjectId>> truth = qp.EvaluateFromScratch(qid);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(*incremental, *truth)
        << "incremental answer diverged for query " << qid << " at tick "
        << tick;
    EXPECT_EQ(client.SortedAnswerOf(qid), *truth)
        << "client mirror diverged for query " << qid << " at tick " << tick;
  }
}

// --- Range queries -------------------------------------------------------------

class RangeProperty : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(RangeProperty, IncrementalMatchesFromScratch) {
  const PropertyParams p = GetParam();
  QueryProcessorOptions options;
  options.grid_cells_per_side = p.grid;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(p.seed);

  std::vector<Point> locs(p.num_objects);
  for (size_t i = 0; i < p.num_objects; ++i) {
    locs[i] = RandomPoint(&rng);
    ASSERT_TRUE(qp.UpsertObject(i + 1, locs[i], 0.0).ok());
  }
  std::vector<QueryId> queries;
  for (size_t i = 0; i < p.num_queries; ++i) {
    const QueryId qid = i + 1;
    ASSERT_TRUE(
        qp.RegisterRangeQuery(
              qid, Rect::CenteredSquare(RandomPoint(&rng), p.query_side))
            .ok());
    queries.push_back(qid);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);
  ExpectConsistent(qp, client, queries, 0);

  for (int tick = 1; tick <= p.ticks; ++tick) {
    const double now = static_cast<double>(tick);
    for (size_t i = 0; i < p.num_objects; ++i) {
      if (!rng.NextBool(p.update_fraction)) continue;
      locs[i] = RandomPoint(&rng);
      ASSERT_TRUE(qp.UpsertObject(i + 1, locs[i], now).ok());
    }
    for (QueryId qid : queries) {
      if (!rng.NextBool(p.query_move_fraction)) continue;
      ASSERT_TRUE(
          qp.MoveRangeQuery(
                qid, Rect::CenteredSquare(RandomPoint(&rng), p.query_side))
              .ok());
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    ExpectConsistent(qp, client, queries, tick);
  }
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeProperty,
    ::testing::Values(
        PropertyParams{.seed = 1},
        PropertyParams{.seed = 2, .grid = 1},   // degenerate single cell
        PropertyParams{.seed = 3, .grid = 64},  // cells smaller than queries
        PropertyParams{.seed = 4, .update_fraction = 0.05},
        PropertyParams{.seed = 5, .update_fraction = 1.0,
                       .query_move_fraction = 1.0},
        PropertyParams{.seed = 6, .num_objects = 400, .num_queries = 60,
                       .query_side = 0.03},
        PropertyParams{.seed = 7, .num_objects = 10, .num_queries = 40,
                       .query_side = 0.5},
        PropertyParams{.seed = 8, .query_move_fraction = 0.0},
        PropertyParams{.seed = 9, .update_fraction = 0.0,
                       .query_move_fraction = 1.0}),
    ParamName);

// --- Range queries with churn (insertions, removals, unregistrations) -------------

class ChurnProperty : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(ChurnProperty, SurvivesPopulationChurn) {
  const PropertyParams p = GetParam();
  QueryProcessorOptions options;
  options.grid_cells_per_side = p.grid;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(p.seed * 7919);

  std::vector<ObjectId> live_objects;
  ObjectId next_object = 1;
  std::vector<QueryId> live_queries;
  QueryId next_query = 1;

  for (size_t i = 0; i < p.num_objects; ++i) {
    ASSERT_TRUE(qp.UpsertObject(next_object, RandomPoint(&rng), 0.0).ok());
    live_objects.push_back(next_object++);
  }
  for (size_t i = 0; i < p.num_queries; ++i) {
    ASSERT_TRUE(
        qp.RegisterRangeQuery(
              next_query, Rect::CenteredSquare(RandomPoint(&rng), p.query_side))
            .ok());
    live_queries.push_back(next_query++);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);

  for (int tick = 1; tick <= p.ticks; ++tick) {
    const double now = static_cast<double>(tick);
    // Move some objects, remove a few, add a few.
    for (ObjectId id : live_objects) {
      if (rng.NextBool(p.update_fraction)) {
        ASSERT_TRUE(qp.UpsertObject(id, RandomPoint(&rng), now).ok());
      }
    }
    for (size_t i = 0; i < live_objects.size();) {
      if (rng.NextBool(0.05)) {
        ASSERT_TRUE(qp.RemoveObject(live_objects[i]).ok());
        live_objects[i] = live_objects.back();
        live_objects.pop_back();
      } else {
        ++i;
      }
    }
    for (int add = 0; add < 5; ++add) {
      ASSERT_TRUE(qp.UpsertObject(next_object, RandomPoint(&rng), now).ok());
      live_objects.push_back(next_object++);
    }
    // Occasionally retire a query and open a new one.
    for (size_t i = 0; i < live_queries.size();) {
      if (rng.NextBool(0.08)) {
        ASSERT_TRUE(qp.UnregisterQuery(live_queries[i]).ok());
        client.DropQuery(live_queries[i]);
        live_queries[i] = live_queries.back();
        live_queries.pop_back();
      } else {
        if (rng.NextBool(p.query_move_fraction)) {
          ASSERT_TRUE(qp.MoveRangeQuery(live_queries[i],
                                        Rect::CenteredSquare(
                                            RandomPoint(&rng), p.query_side))
                          .ok());
        }
        ++i;
      }
    }
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(
          qp.RegisterRangeQuery(
                next_query,
                Rect::CenteredSquare(RandomPoint(&rng), p.query_side))
              .ok());
      live_queries.push_back(next_query++);
    }

    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    ExpectConsistent(qp, client, live_queries, tick);
    ASSERT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnProperty,
    ::testing::Values(PropertyParams{.seed = 11},
                      PropertyParams{.seed = 12, .grid = 4},
                      PropertyParams{.seed = 13, .num_objects = 60,
                                     .num_queries = 40, .query_side = 0.3},
                      PropertyParams{.seed = 14, .update_fraction = 1.0}),
    ParamName);

// --- k-NN queries -----------------------------------------------------------------

class KnnProperty : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(KnnProperty, IncrementalMatchesBruteForce) {
  const PropertyParams p = GetParam();
  QueryProcessorOptions options;
  options.grid_cells_per_side = p.grid;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(p.seed * 104729);

  for (size_t i = 0; i < p.num_objects; ++i) {
    ASSERT_TRUE(qp.UpsertObject(i + 1, RandomPoint(&rng), 0.0).ok());
  }
  std::vector<QueryId> queries;
  for (size_t i = 0; i < p.num_queries; ++i) {
    const QueryId qid = i + 1;
    const int k = rng.NextInt(1, 8);
    ASSERT_TRUE(qp.RegisterKnnQuery(qid, RandomPoint(&rng), k).ok());
    queries.push_back(qid);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);
  ExpectConsistent(qp, client, queries, 0);

  for (int tick = 1; tick <= p.ticks; ++tick) {
    const double now = static_cast<double>(tick);
    for (size_t i = 0; i < p.num_objects; ++i) {
      if (!rng.NextBool(p.update_fraction)) continue;
      ASSERT_TRUE(qp.UpsertObject(i + 1, RandomPoint(&rng), now).ok());
    }
    for (QueryId qid : queries) {
      if (!rng.NextBool(p.query_move_fraction)) continue;
      ASSERT_TRUE(qp.MoveKnnQuery(qid, RandomPoint(&rng)).ok());
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    ExpectConsistent(qp, client, queries, tick);
  }
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnProperty,
    ::testing::Values(
        PropertyParams{.seed = 21},
        PropertyParams{.seed = 22, .grid = 1},
        PropertyParams{.seed = 23, .grid = 64, .num_objects = 50},
        PropertyParams{.seed = 24, .num_objects = 6, .num_queries = 15},
        PropertyParams{.seed = 25, .update_fraction = 1.0,
                       .query_move_fraction = 1.0},
        PropertyParams{.seed = 26, .update_fraction = 0.05,
                       .query_move_fraction = 0.0}),
    ParamName);

// k-NN with population churn: removals must refill answers correctly.
TEST(KnnChurnProperty, RemovalsRefillAnswers) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 12;
  QueryProcessor qp(options);
  Xorshift128Plus rng(31337);

  std::vector<ObjectId> live;
  for (ObjectId id = 1; id <= 80; ++id) {
    ASSERT_TRUE(qp.UpsertObject(id, RandomPoint(&rng), 0.0).ok());
    live.push_back(id);
  }
  for (QueryId qid = 1; qid <= 10; ++qid) {
    ASSERT_TRUE(qp.RegisterKnnQuery(qid, RandomPoint(&rng), 4).ok());
  }
  qp.EvaluateTick(0.0);

  for (int tick = 1; tick <= 12; ++tick) {
    // Remove five random objects each tick until few remain (also crosses
    // below k to exercise the under-filled regime).
    for (int r = 0; r < 5 && !live.empty(); ++r) {
      const size_t idx = rng.NextUint64(live.size());
      ASSERT_TRUE(qp.RemoveObject(live[idx]).ok());
      live[idx] = live.back();
      live.pop_back();
    }
    qp.EvaluateTick(static_cast<double>(tick));
    ASSERT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
  }
  EXPECT_TRUE(live.size() < 4u * 10u);
}

// --- Predictive queries ----------------------------------------------------------------

class PredictiveProperty : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(PredictiveProperty, IncrementalMatchesFromScratch) {
  const PropertyParams p = GetParam();
  QueryProcessorOptions options;
  options.grid_cells_per_side = p.grid;
  options.prediction_horizon = 20.0;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(p.seed * 7);

  auto random_velocity = [&rng]() {
    return Velocity{rng.NextDouble(-0.03, 0.03), rng.NextDouble(-0.03, 0.03)};
  };

  for (size_t i = 0; i < p.num_objects; ++i) {
    // Mix predictive and sampled objects.
    if (i % 3 == 0) {
      ASSERT_TRUE(qp.UpsertObject(i + 1, RandomPoint(&rng), 0.0).ok());
    } else {
      ASSERT_TRUE(qp.UpsertPredictiveObject(i + 1, RandomPoint(&rng),
                                            random_velocity(), 0.0)
                      .ok());
    }
  }
  std::vector<QueryId> queries;
  for (size_t i = 0; i < p.num_queries; ++i) {
    const QueryId qid = i + 1;
    const double from = rng.NextDouble(0.0, 15.0);
    const double to = from + rng.NextDouble(0.0, 10.0);
    ASSERT_TRUE(qp.RegisterPredictiveQuery(
                      qid, Rect::CenteredSquare(RandomPoint(&rng), p.query_side),
                      from, to)
                    .ok());
    queries.push_back(qid);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);
  ExpectConsistent(qp, client, queries, 0);

  for (int tick = 1; tick <= p.ticks; ++tick) {
    const double now = static_cast<double>(tick);
    for (size_t i = 0; i < p.num_objects; ++i) {
      if (!rng.NextBool(p.update_fraction)) continue;
      if (i % 3 == 0) {
        ASSERT_TRUE(qp.UpsertObject(i + 1, RandomPoint(&rng), now).ok());
      } else {
        ASSERT_TRUE(qp.UpsertPredictiveObject(i + 1, RandomPoint(&rng),
                                              random_velocity(), now)
                        .ok());
      }
    }
    for (QueryId qid : queries) {
      if (!rng.NextBool(p.query_move_fraction)) continue;
      ASSERT_TRUE(
          qp.MovePredictiveQuery(
                qid, Rect::CenteredSquare(RandomPoint(&rng), p.query_side))
              .ok());
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    ExpectConsistent(qp, client, queries, tick);
  }
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredictiveProperty,
    ::testing::Values(
        PropertyParams{.seed = 41, .ticks = 8},
        PropertyParams{.seed = 42, .grid = 4, .ticks = 8},
        PropertyParams{.seed = 43, .grid = 48, .num_objects = 60,
                       .ticks = 8},
        PropertyParams{.seed = 44, .update_fraction = 1.0,
                       .query_move_fraction = 1.0, .ticks = 6},
        PropertyParams{.seed = 45, .num_queries = 10, .query_side = 0.4,
                       .ticks = 6}),
    ParamName);

// --- Mixed kinds under one roof ------------------------------------------------------------

TEST(MixedProperty, AllKindsStayConsistentOverTime) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 16;
  options.prediction_horizon = 15.0;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(5150);

  for (ObjectId id = 1; id <= 150; ++id) {
    if (id % 4 == 0) {
      ASSERT_TRUE(qp.UpsertPredictiveObject(
                        id, RandomPoint(&rng),
                        Velocity{rng.NextDouble(-0.02, 0.02),
                                 rng.NextDouble(-0.02, 0.02)},
                        0.0)
                      .ok());
    } else {
      ASSERT_TRUE(qp.UpsertObject(id, RandomPoint(&rng), 0.0).ok());
    }
  }
  std::vector<QueryId> queries;
  for (QueryId qid = 1; qid <= 40; ++qid) {
    switch (qid % 4) {
      case 0:
        ASSERT_TRUE(qp.RegisterKnnQuery(qid, RandomPoint(&rng),
                                        static_cast<int>(qid % 5) + 1)
                        .ok());
        break;
      case 1:
        ASSERT_TRUE(qp.RegisterRangeQuery(
                          qid, Rect::CenteredSquare(RandomPoint(&rng), 0.2))
                        .ok());
        break;
      case 2:
        ASSERT_TRUE(
            qp.RegisterPredictiveQuery(
                  qid, Rect::CenteredSquare(RandomPoint(&rng), 0.2),
                  rng.NextDouble(0.0, 10.0), rng.NextDouble(10.0, 20.0))
                .ok());
        break;
      case 3:
        ASSERT_TRUE(qp.RegisterCircleQuery(qid, RandomPoint(&rng),
                                           rng.NextDouble(0.05, 0.2))
                        .ok());
        break;
    }
    queries.push_back(qid);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);

  for (int tick = 1; tick <= 10; ++tick) {
    const double now = static_cast<double>(tick);
    for (ObjectId id = 1; id <= 150; ++id) {
      if (!rng.NextBool(0.4)) continue;
      if (id % 4 == 0) {
        ASSERT_TRUE(qp.UpsertPredictiveObject(
                          id, RandomPoint(&rng),
                          Velocity{rng.NextDouble(-0.02, 0.02),
                                   rng.NextDouble(-0.02, 0.02)},
                          now)
                        .ok());
      } else {
        ASSERT_TRUE(qp.UpsertObject(id, RandomPoint(&rng), now).ok());
      }
    }
    std::map<QueryId, QueryKind> kinds;
    qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& info) {
      kinds[info.id] = info.kind;
    });
    for (QueryId qid : queries) {
      if (!rng.NextBool(0.3)) continue;
      const auto kind = kinds.find(qid);
      ASSERT_NE(kind, kinds.end());
      switch (kind->second) {
        case QueryKind::kRange:
          ASSERT_TRUE(qp.MoveRangeQuery(
                            qid, Rect::CenteredSquare(RandomPoint(&rng), 0.2))
                          .ok());
          break;
        case QueryKind::kKnn:
          ASSERT_TRUE(qp.MoveKnnQuery(qid, RandomPoint(&rng)).ok());
          break;
        case QueryKind::kPredictiveRange:
          ASSERT_TRUE(qp.MovePredictiveQuery(
                            qid, Rect::CenteredSquare(RandomPoint(&rng), 0.2))
                          .ok());
          break;
        case QueryKind::kCircleRange:
          ASSERT_TRUE(qp.MoveCircleQuery(qid, RandomPoint(&rng)).ok());
          break;
      }
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    ExpectConsistent(qp, client, queries, tick);
    ASSERT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
  }
}

}  // namespace
}  // namespace stq
