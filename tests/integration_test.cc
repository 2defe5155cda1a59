// Full-system integration and soak tests: realistic workloads driving the
// complete stack (generators -> persistent server -> clients) for many
// periods, with all invariants checked along the way, plus the engine
// statistics module.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/client.h"
#include "stq/core/density_monitor.h"
#include "stq/core/stats.h"
#include "stq/gen/gaussian_generator.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"
#include "stq/storage/persistent_server.h"

namespace stq {
namespace {

// --- EngineStats ----------------------------------------------------------------

TEST(EngineStatsTest, CountsPopulationsAndAnswers) {
  QueryProcessor qp;
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(2, Point{0.1, 0.1},
                                        Velocity{0.01, 0.0}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.5, 0.5}, 2).ok());
  ASSERT_TRUE(
      qp.RegisterPredictiveQuery(3, Rect{0.0, 0.0, 1.0, 1.0}, 0.0, 10.0)
          .ok());
  qp.EvaluateTick(0.0);

  const EngineStats stats = ComputeEngineStats(qp);
  EXPECT_EQ(stats.num_objects, 2u);
  EXPECT_EQ(stats.num_predictive_objects, 1u);
  EXPECT_EQ(stats.num_queries, 3u);
  EXPECT_EQ(stats.num_range_queries, 1u);
  EXPECT_EQ(stats.num_knn_queries, 1u);
  EXPECT_EQ(stats.num_predictive_queries, 1u);
  // Range: {1}; knn: {1,2}; predictive: {1,2} (both trajectories pass).
  // k-NN answers live at the front, so only the other three are QListed.
  EXPECT_EQ(stats.total_answer_entries, 5u);
  EXPECT_EQ(stats.total_qlist_entries, 3u);
  EXPECT_EQ(stats.max_answer_size, 2u);
  EXPECT_GT(stats.approx_memory_bytes, 0u);
  EXPECT_NE(stats.DebugString().find("objects=2"), std::string::npos);
}

TEST(EngineStatsTest, EmptyEngine) {
  QueryProcessor qp;
  const EngineStats stats = ComputeEngineStats(qp);
  EXPECT_EQ(stats.num_objects, 0u);
  EXPECT_EQ(stats.num_queries, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_answer_size, 0.0);
}

// --- Long soak over the full stack -------------------------------------------------

TEST(SoakTest, FullStackManyPeriods) {
  const std::string dir =
      ::testing::TempDir() + "stq_soak_full_stack";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                            .c_str()),
            0);

  RoadNetwork::GridCityOptions city_options;
  city_options.rows = 12;
  city_options.cols = 12;
  const RoadNetwork city = RoadNetwork::MakeGridCity(city_options);

  NetworkGenerator::Options vehicle_options;
  vehicle_options.num_objects = 400;
  vehicle_options.seed = 21;
  vehicle_options.speed_factor = 4.0;
  NetworkGenerator vehicles(&city, vehicle_options);

  QueryGenerator::Options query_options;
  query_options.num_queries = 60;
  query_options.side_length = 0.08;
  query_options.moving_fraction = 0.5;
  query_options.seed = 22;
  QueryGenerator queries(&city, query_options);

  PersistentServer::Options options;
  options.server.processor.grid_cells_per_side = 24;
  options.server.processor.record_history = true;
  options.dir = dir;

  PersistentServer ops(options);
  ASSERT_TRUE(ops.Open().ok());
  Client client(1);
  ASSERT_TRUE(ops.AttachClient(1).ok());

  for (const ObjectReport& r : vehicles.InitialReports(0.0)) {
    ASSERT_TRUE(ops.ReportObject(r.id, r.loc, r.t).ok());
  }
  for (const QueryRegionReport& q : queries.InitialRegions(0.0)) {
    ASSERT_TRUE(ops.RegisterRangeQuery(q.id, 1, q.region).ok());
  }
  for (const auto& d : ops.Tick(0.0)) client.ApplyUpdates(d.updates);

  DensityMonitor density(&ops.processor().grid(), 8);
  Xorshift128Plus rng(23);
  bool connected = true;

  for (int tick = 1; tick <= 40; ++tick) {
    const double now = tick * 5.0;
    for (const ObjectReport& r : vehicles.Step(now, 5.0, 0.5)) {
      ASSERT_TRUE(ops.ReportObject(r.id, r.loc, r.t).ok());
    }
    for (const QueryRegionReport& q : queries.Step(now, 5.0, 0.5)) {
      ASSERT_TRUE(ops.MoveRangeQuery(q.id, q.region).ok());
      if (connected) client.Commit(q.id);
    }
    for (const auto& d : ops.Tick(now)) {
      if (d.delivered) client.ApplyUpdates(d.updates);
    }
    density.Tick();

    // Flap the client's connection now and then.
    if (connected && rng.NextBool(0.15)) {
      ASSERT_TRUE(ops.DisconnectClient(1).ok());
      connected = false;
    } else if (!connected && rng.NextBool(0.5)) {
      Result<Server::Delivery> recovery = ops.ReconnectClient(1);
      ASSERT_TRUE(recovery.ok());
      client.RollbackToCommitted();
      client.ApplyUpdates(recovery->updates);
      client.CommitAll();
      connected = true;
    }

    if (tick % 10 == 0) {
      ASSERT_TRUE(ops.processor().CheckInvariants().ok()) << "tick " << tick;
      if (connected) {
        for (const QueryRegionReport& q : queries.InitialRegions(0.0)) {
          EXPECT_EQ(client.SortedAnswerOf(q.id),
                    *ops.processor().CurrentAnswer(q.id))
              << "query " << q.id << " tick " << tick;
        }
      }
      ASSERT_TRUE(ops.Checkpoint().ok());
    }
  }

  // Past queries reach back through the whole soak.
  Result<std::vector<ObjectId>> past = ops.processor().EvaluatePastRangeQuery(
      Rect{0.3, 0.3, 0.7, 0.7}, 100.0);
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->empty());

  const EngineStats stats = ComputeEngineStats(ops.processor());
  EXPECT_EQ(stats.num_objects, 400u);
  EXPECT_EQ(stats.num_queries, 60u);

  ASSERT_TRUE(ops.Close().ok());

  // And the whole soak survives a restart.
  PersistentServer recovered(options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.processor().num_objects(), 400u);
  EXPECT_EQ(recovered.processor().num_queries(), 60u);
  EXPECT_TRUE(recovered.processor().CheckInvariants().ok());
  ASSERT_TRUE(recovered.Close().ok());
}

// Skewed Gaussian population exercising hotspot cells and k-NN together.
TEST(SoakTest, GaussianHotspotsWithKnn) {
  GaussianGenerator::Options mover_options;
  mover_options.num_objects = 500;
  mover_options.num_hotspots = 3;
  mover_options.seed = 31;
  GaussianGenerator movers(mover_options);

  QueryProcessorOptions options;
  options.grid_cells_per_side = 24;
  QueryProcessor qp(options);
  Client client(1);

  for (const ObjectReport& r : movers.InitialReports(0.0)) {
    ASSERT_TRUE(qp.UpsertObject(r.id, r.loc, r.t).ok());
  }
  // k-NN queries pinned at the hotspots (dense) and at a cold corner.
  QueryId qid = 1;
  for (const Point& h : movers.hotspots()) {
    ASSERT_TRUE(qp.RegisterKnnQuery(qid++, h, 8).ok());
  }
  ASSERT_TRUE(qp.RegisterKnnQuery(qid++, Point{0.01, 0.01}, 8).ok());
  client.ApplyUpdates(qp.EvaluateTick(0.0).updates);

  for (int tick = 1; tick <= 25; ++tick) {
    const double now = tick * 5.0;
    for (const ObjectReport& r : movers.Step(now, 5.0, 0.6)) {
      ASSERT_TRUE(qp.UpsertObject(r.id, r.loc, r.t).ok());
    }
    client.ApplyUpdates(qp.EvaluateTick(now).updates);
    if (tick % 5 == 0) {
      ASSERT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
      for (QueryId q = 1; q < qid; ++q) {
        EXPECT_EQ(client.SortedAnswerOf(q), *qp.CurrentAnswer(q));
      }
    }
  }
}

}  // namespace
}  // namespace stq
