// Property tests under *continuous* road-network motion (as opposed to
// the teleporting movers in property_test.cc): drivers follow roads,
// queries ride along, and every tick the incremental answers must equal
// from-scratch evaluation. Continuous motion exercises the
// boundary-crossing code paths (rect differences, circle rims, k-NN ring
// growth) much more densely than uniform teleports do.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/client.h"
#include "stq/core/query_processor.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"

namespace stq {
namespace {

struct NetParams {
  uint64_t seed = 1;
  int grid = 16;
  size_t num_objects = 200;
  size_t num_queries = 30;
  double speed_factor = 8.0;  // fast-forward so boundaries get crossed
  int ticks = 12;
};

std::string NetParamName(const ::testing::TestParamInfo<NetParams>& info) {
  return "seed" + std::to_string(info.param.seed) + "_grid" +
         std::to_string(info.param.grid) + "_o" +
         std::to_string(info.param.num_objects);
}

class NetworkMotionProperty : public ::testing::TestWithParam<NetParams> {};

TEST_P(NetworkMotionProperty, AllKindsConsistentUnderRoadMotion) {
  const NetParams p = GetParam();

  RoadNetwork::GridCityOptions city_options;
  city_options.rows = 10;
  city_options.cols = 10;
  city_options.seed = p.seed;
  const RoadNetwork city = RoadNetwork::MakeGridCity(city_options);

  NetworkGenerator::Options object_options;
  object_options.num_objects = p.num_objects;
  object_options.seed = p.seed * 3;
  object_options.speed_factor = p.speed_factor;
  NetworkGenerator objects(&city, object_options);

  NetworkGenerator::Options focal_options;
  focal_options.num_objects = p.num_queries;
  focal_options.seed = p.seed * 5;
  focal_options.speed_factor = p.speed_factor;
  NetworkGenerator focals(&city, focal_options);

  QueryProcessorOptions options;
  options.grid_cells_per_side = p.grid;
  options.prediction_horizon = 30.0;
  QueryProcessor qp(options);
  Client client(1);
  Xorshift128Plus rng(p.seed * 7);

  for (const ObjectReport& r : objects.InitialReports(0.0)) {
    // A third of the fleet reports with velocity (predictive).
    if (r.id % 3 == 0) {
      ASSERT_TRUE(qp.UpsertPredictiveObject(r.id, r.loc, r.vel, r.t).ok());
    } else {
      ASSERT_TRUE(qp.UpsertObject(r.id, r.loc, r.t).ok());
    }
  }
  // Query mix riding the focal movers: range squares, circles, k-NN, and
  // predictive watches.
  std::vector<QueryId> queries;
  for (QueryId qid = 1; qid <= p.num_queries; ++qid) {
    const Point focal = focals.LocationOf(qid);
    switch (qid % 4) {
      case 0:
        ASSERT_TRUE(
            qp.RegisterRangeQuery(qid, Rect::CenteredSquare(focal, 0.15))
                .ok());
        break;
      case 1:
        ASSERT_TRUE(qp.RegisterCircleQuery(qid, focal, 0.1).ok());
        break;
      case 2:
        ASSERT_TRUE(qp.RegisterKnnQuery(qid, focal,
                                        rng.NextInt(1, 6)).ok());
        break;
      case 3:
        ASSERT_TRUE(qp.RegisterPredictiveQuery(
                          qid, Rect::CenteredSquare(focal, 0.15),
                          rng.NextDouble(0.0, 20.0),
                          rng.NextDouble(20.0, 40.0))
                        .ok());
        break;
    }
    queries.push_back(qid);
  }
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);

  for (int tick = 1; tick <= p.ticks; ++tick) {
    const double now = tick * 5.0;
    for (const ObjectReport& r : objects.Step(now, 5.0, 0.7)) {
      if (r.id % 3 == 0) {
        ASSERT_TRUE(qp.UpsertPredictiveObject(r.id, r.loc, r.vel, r.t).ok());
      } else {
        ASSERT_TRUE(qp.UpsertObject(r.id, r.loc, r.t).ok());
      }
    }
    std::map<QueryId, QueryKind> kinds;
    qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& info) {
      kinds[info.id] = info.kind;
    });
    for (const ObjectReport& r : focals.Step(now, 5.0, 0.7)) {
      const QueryId qid = r.id;
      const auto kind = kinds.find(qid);
      ASSERT_NE(kind, kinds.end());
      switch (kind->second) {
        case QueryKind::kRange:
          ASSERT_TRUE(
              qp.MoveRangeQuery(qid, Rect::CenteredSquare(r.loc, 0.15)).ok());
          break;
        case QueryKind::kCircleRange:
          ASSERT_TRUE(qp.MoveCircleQuery(qid, r.loc).ok());
          break;
        case QueryKind::kKnn:
          ASSERT_TRUE(qp.MoveKnnQuery(qid, r.loc).ok());
          break;
        case QueryKind::kPredictiveRange:
          ASSERT_TRUE(qp.MovePredictiveQuery(
                            qid, Rect::CenteredSquare(r.loc, 0.15))
                          .ok());
          break;
      }
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);

    for (QueryId qid : queries) {
      Result<std::vector<ObjectId>> truth = qp.EvaluateFromScratch(qid);
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(*qp.CurrentAnswer(qid), *truth)
          << "query " << qid << " tick " << tick;
      EXPECT_EQ(client.SortedAnswerOf(qid), *truth)
          << "client mirror, query " << qid << " tick " << tick;
    }
  }
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkMotionProperty,
    ::testing::Values(NetParams{.seed = 1},
                      NetParams{.seed = 2, .grid = 4},
                      NetParams{.seed = 3, .grid = 48},
                      NetParams{.seed = 4, .num_objects = 60,
                                .num_queries = 50},
                      NetParams{.seed = 5, .speed_factor = 30.0, .ticks = 8}),
    NetParamName);

}  // namespace
}  // namespace stq
