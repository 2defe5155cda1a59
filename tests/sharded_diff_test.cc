// Differential oracle for the sharded shared-execution engine: for any
// workload, the canonical update stream of the sharded engine (any shard
// count, any worker count) is byte-identical, tick by tick, to the
// single-grid QueryProcessor's stream, and both engines accept/reject
// every ingestion call identically.
//
// The workloads mix range, k-NN, circle, and predictive queries (moving
// and re-registering), sampled and predictive objects, removals and
// unregistrations — every update kind the engine supports.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/crc32.h"
#include "stq/common/random.h"
#include "stq/core/query_processor.h"
#include "stq/gen/workload.h"

namespace stq {
namespace {

QueryProcessorOptions ShardOptions(int shards, int workers, int grid = 16) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = grid;
  options.worker_threads = workers;
  options.num_shards = shards;
  return options;
}

// The literal bytes a tick's update stream puts on the wire.
std::string StreamBytes(const TickResult& r) {
  std::ostringstream os;
  for (const Update& u : r.updates) os << u.DebugString() << '\n';
  return os.str();
}

struct DriveResult {
  std::vector<std::string> tick_streams;
  std::vector<std::string> tick_statuses;  // concatenated ingestion statuses
  uint32_t crc = 0;
};

// Drives one fixed pseudo-random mixed workload against `qp`. The call
// sequence depends only on the seed, never on the processor's responses,
// so two engines driven with the same seed see identical inputs; the
// returned statuses prove they also *respond* identically.
DriveResult DriveMixedWorkload(QueryProcessor* qp, uint64_t seed,
                               size_t num_ticks) {
  DriveResult result;
  Xorshift128Plus rng(seed);
  const ObjectId max_object = 50;
  const QueryId max_query = 24;
  double now = 0.0;
  for (size_t tick = 0; tick < num_ticks; ++tick) {
    std::ostringstream statuses;
    auto note = [&statuses](const Status& s) {
      statuses << (s.ok() ? "ok" : s.ToString()) << '\n';
    };
    for (int op = 0; op < 80; ++op) {
      const ObjectId oid = 1 + rng.NextUint64(max_object);
      const QueryId qid = 1 + rng.NextUint64(max_query);
      const Point p{rng.NextDouble(), rng.NextDouble()};
      const double t = now + rng.NextDouble(0.0, 1.0);
      switch (rng.NextUint64(12)) {
        case 0:
        case 1:
        case 2:
          note(qp->UpsertObject(oid, p, t));
          break;
        case 3:
          note(qp->UpsertPredictiveObject(
              oid, p,
              Velocity{rng.NextDouble(-0.05, 0.05),
                       rng.NextDouble(-0.05, 0.05)},
              t));
          break;
        case 4:
          note(qp->RemoveObject(oid));
          break;
        case 5:
          note(qp->RegisterRangeQuery(
              qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3))));
          break;
        case 6:
          note(qp->RegisterKnnQuery(qid, p, rng.NextInt(1, 5)));
          break;
        case 7:
          note(qp->RegisterCircleQuery(qid, p, rng.NextDouble(0.05, 0.2)));
          break;
        case 8:
          note(qp->RegisterPredictiveQuery(
              qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3)), now,
              now + rng.NextDouble(1.0, 20.0)));
          break;
        case 9:
          // Move whatever kind the query currently is; at most one of
          // these succeeds, and all are deterministic in (state, rng).
          note(qp->MoveRangeQuery(
              qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3))));
          note(qp->MoveKnnQuery(qid, p));
          note(qp->MoveCircleQuery(qid, p));
          note(qp->MovePredictiveQuery(
              qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3))));
          break;
        case 10:
          note(qp->UnregisterQuery(qid));
          break;
        case 11:
          // Unregister-then-re-register inside one tick: exercises the
          // router's reset rule (the old incarnation's answer must drain
          // as removals before the new incarnation reports).
          note(qp->UnregisterQuery(qid));
          note(qp->RegisterRangeQuery(
              qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3))));
          break;
      }
    }
    now += 1.0;
    const TickResult r = qp->EvaluateTick(now);
    result.tick_streams.push_back(StreamBytes(r));
    result.tick_statuses.push_back(statuses.str());
    const std::string& stream = result.tick_streams.back();
    result.crc = Crc32c(stream.data(), stream.size()) ^ (result.crc * 31);
    const Status invariants = qp->CheckInvariants();
    EXPECT_TRUE(invariants.ok())
        << "invariants violated after tick " << tick << " with "
        << qp->options().num_shards << " shards: " << invariants.ToString();
  }
  return result;
}

// Seam-stress driver: every tick, every object hops to the other side of
// a shard seam (x or y in {1/3, 1/2, 2/3} — the boundaries of the 2x1,
// 2x2, 3x1/3x2 and 3x3 layouts), so the router re-routes the whole
// population each tick: home-shard handoffs for sampled objects, replica
// churn for predictive ones whose segments cross the seams diagonally.
// Queries straddle the same seams; one range query is dragged across a
// seam every third tick to exercise the capture/unregister path.
DriveResult DriveSeamOscillation(QueryProcessor* qp, size_t num_ticks) {
  DriveResult result;
  const double seams[] = {1.0 / 3.0, 0.5, 2.0 / 3.0};
  double now = 0.0;
  for (size_t tick = 0; tick < num_ticks; ++tick) {
    std::ostringstream statuses;
    auto note = [&statuses](const Status& s) {
      statuses << (s.ok() ? "ok" : s.ToString()) << '\n';
    };
    const double side = (tick % 2 == 0) ? -0.01 : 0.01;
    ObjectId oid = 1;
    for (double seam : seams) {
      for (int i = 0; i < 10; ++i, ++oid) {
        const double along = 0.05 + 0.09 * i;
        // One flock per vertical seam, one per horizontal seam.
        note(qp->UpsertObject(oid, Point{seam + side, along}, now));
        note(qp->UpsertObject(oid + 100, Point{along, seam + side}, now));
      }
    }
    for (int i = 0; i < 6; ++i) {
      // Predictive movers whose footprint segment crosses the central
      // seam diagonally: the segment-exact replication filter must keep
      // precisely the shards the segment enters.
      const double x = 0.5 + (tick % 2 == 0 ? -0.02 : 0.02);
      note(qp->UpsertPredictiveObject(
          static_cast<ObjectId>(200 + i), Point{x, 0.1 + 0.12 * i},
          Velocity{tick % 2 == 0 ? 0.05 : -0.05, 0.03}, now));
    }
    if (tick == 0) {
      QueryId qid = 1;
      for (double seam : seams) {
        note(qp->RegisterRangeQuery(
            qid++, Rect{seam - 0.03, 0.0, seam + 0.03, 1.0}));
        note(qp->RegisterCircleQuery(qid++, Point{seam, seam}, 0.08));
      }
      note(qp->RegisterKnnQuery(qid++, Point{0.5, 0.5}, 8));
      note(qp->RegisterPredictiveQuery(qid++, Rect{0.45, 0.0, 0.55, 1.0},
                                       0.0, 50.0));
    } else if (tick % 3 == 0) {
      // Drag the first range query wholly across the central seam.
      const Rect target = (tick % 2 == 0) ? Rect{0.1, 0.1, 0.3, 0.9}
                                          : Rect{0.7, 0.1, 0.9, 0.9};
      note(qp->MoveRangeQuery(1, target));
    }
    now += 1.0;
    const TickResult r = qp->EvaluateTick(now);
    result.tick_streams.push_back(StreamBytes(r));
    result.tick_statuses.push_back(statuses.str());
    const std::string& stream = result.tick_streams.back();
    result.crc = Crc32c(stream.data(), stream.size()) ^ (result.crc * 31);
    const Status invariants = qp->CheckInvariants();
    EXPECT_TRUE(invariants.ok())
        << "invariants violated after seam tick " << tick << " with "
        << qp->options().num_shards << " shards: " << invariants.ToString();
  }
  return result;
}

void ExpectSameRun(const DriveResult& expected, const DriveResult& actual,
                   int shards, int workers) {
  ASSERT_EQ(expected.tick_streams.size(), actual.tick_streams.size());
  for (size_t i = 0; i < expected.tick_streams.size(); ++i) {
    ASSERT_EQ(expected.tick_statuses[i], actual.tick_statuses[i])
        << "ingestion statuses diverged at tick " << i << " with " << shards
        << " shards, " << workers << " workers";
    ASSERT_EQ(expected.tick_streams[i], actual.tick_streams[i])
        << "update stream diverged at tick " << i << " with " << shards
        << " shards, " << workers << " workers";
  }
  EXPECT_EQ(expected.crc, actual.crc);
}

TEST(ShardedDiffTest, MixedWorkloadStreamsAreShardCountInvariant) {
  constexpr size_t kTicks = 6;
  constexpr int kSeeds = 20;
  for (int i = 0; i < kSeeds; ++i) {
    const uint64_t seed = 1000 + 77 * static_cast<uint64_t>(i);
    QueryProcessor baseline(ShardOptions(/*shards=*/1, /*workers=*/1));
    const DriveResult expected = DriveMixedWorkload(&baseline, seed, kTicks);
    for (int shards : {1, 2, 4, 9}) {
      // Odd worker counts leave the work-stealing dispatch unbalanced on
      // purpose: shard claim order varies, the byte stream must not.
      for (int workers : {1, 3, 4, 5}) {
        if (shards == 1 && workers == 1) continue;  // the baseline itself
        QueryProcessor qp(ShardOptions(shards, workers));
        EXPECT_EQ(qp.sharded(), shards > 1);
        const DriveResult actual = DriveMixedWorkload(&qp, seed, kTicks);
        ExpectSameRun(expected, actual, shards, workers);
        if (testing::Test::HasFatalFailure()) {
          FAIL() << "seed " << seed << " diverged";
        }
      }
    }
  }
}

// Seam-stress: the entire object population oscillates across shard
// boundaries every tick. Layouts 2 (2x1), 3 (3x1), 4 (2x2), 6 (3x2) and
// 9 (3x3) put seams exactly on the oscillation lines; odd worker counts
// leave the claim order maximally unbalanced.
TEST(ShardedDiffTest, SeamOscillationStreamsAreShardCountInvariant) {
  constexpr size_t kTicks = 9;
  QueryProcessor baseline(ShardOptions(/*shards=*/1, /*workers=*/1));
  const DriveResult expected = DriveSeamOscillation(&baseline, kTicks);
  size_t total_bytes = 0;
  for (const std::string& s : expected.tick_streams) total_bytes += s.size();
  EXPECT_GT(total_bytes, 0u);  // the oscillation produced traffic
  for (int shards : {2, 3, 4, 6, 9}) {
    for (int workers : {1, 3, 5}) {
      QueryProcessor qp(ShardOptions(shards, workers));
      const DriveResult actual = DriveSeamOscillation(&qp, kTicks);
      ExpectSameRun(expected, actual, shards, workers);
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "seam oscillation diverged at " << shards << " shards, "
               << workers << " workers";
      }
    }
  }
}

// Stream identity implies answer identity, but pin the query-facing API
// directly too: after a run, every query's committed answer (and every
// unknown id's error) matches between the engines, and the sharded
// engine publishes its resident answer bytes in TickStats.
TEST(ShardedDiffTest, CurrentAnswersMatchSingleGrid) {
  const uint64_t seed = 90210;
  QueryProcessor single(ShardOptions(1, 1));
  QueryProcessor sharded(ShardOptions(4, 4));
  (void)DriveMixedWorkload(&single, seed, /*num_ticks=*/8);
  (void)DriveMixedWorkload(&sharded, seed, /*num_ticks=*/8);
  size_t answered = 0;
  for (QueryId qid = 0; qid <= 26; ++qid) {
    const Result<std::vector<ObjectId>> a = single.CurrentAnswer(qid);
    const Result<std::vector<ObjectId>> b = sharded.CurrentAnswer(qid);
    ASSERT_EQ(a.ok(), b.ok()) << "query " << qid;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << "query " << qid;
      const Result<std::vector<ObjectId>> scratch =
          sharded.EvaluateFromScratch(qid);
      ASSERT_TRUE(scratch.ok());
      EXPECT_EQ(*b, *scratch) << "query " << qid;
      answered += a->size();
    } else {
      EXPECT_EQ(a.status().ToString(), b.status().ToString());
    }
  }
  ASSERT_GT(answered, 0u);
  const TickResult r = sharded.EvaluateTick(100.0);
  EXPECT_GT(r.stats.bytes_resident, 0u);
  EXPECT_EQ(r.stats.bytes_resident, sharded.AnswerBytesResident());
}

TEST(ShardedDiffTest, NetworkWorkloadStreamsAreShardCountInvariant) {
  NetworkWorkloadOptions options;
  options.city.rows = 6;
  options.city.cols = 6;
  options.city.seed = 7;
  options.num_objects = 400;
  options.num_queries = 80;
  options.query_side_length = 0.08;
  options.num_ticks = 4;
  options.object_update_fraction = 0.6;
  options.query_update_fraction = 0.3;
  options.seed = 7;
  options.route = NetworkGenerator::RouteStrategy::kRandomWalk;
  const Workload workload = Workload::GenerateNetwork(options);

  auto run = [&](int shards, int workers) {
    QueryProcessor qp(ShardOptions(shards, workers, /*grid=*/32));
    workload.ApplyInitial(&qp);
    std::vector<std::string> streams;
    streams.push_back(StreamBytes(qp.EvaluateTick(0.0)));
    for (size_t i = 0; i < workload.ticks().size(); ++i) {
      workload.ApplyTick(&qp, i);
      streams.push_back(StreamBytes(qp.EvaluateTick(workload.ticks()[i].time)));
      EXPECT_TRUE(qp.CheckInvariants().ok());
    }
    return streams;
  };

  const std::vector<std::string> serial = run(1, 1);
  size_t total_bytes = 0;
  for (const std::string& s : serial) total_bytes += s.size();
  EXPECT_GT(total_bytes, 0u);  // the workload produced traffic
  for (int shards : {2, 4, 9}) {
    const std::vector<std::string> sharded = run(shards, 4);
    ASSERT_EQ(serial.size(), sharded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], sharded[i])
          << "tick " << i << " diverged at " << shards << " shards";
    }
  }
}

// A removal followed, in the same tick, by a re-report older than the
// removed record is accepted (the removal wiped the object's history) and
// coalesces into one upsert. Every shard engine must agree, including
// the shards that still hold the removed record.
TEST(ShardedDiffTest, RemoveThenOlderReportInOneTick) {
  auto run = [](int shards) {
    QueryProcessor qp(ShardOptions(shards, /*workers=*/1));
    std::vector<std::string> streams;
    EXPECT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.6, 0.6}).ok());
    EXPECT_TRUE(qp.RegisterCircleQuery(2, Point{0.5, 0.5}, 0.3).ok());
    EXPECT_TRUE(qp.UpsertObject(1, Point{0.55, 0.45}, 5.0).ok());
    EXPECT_TRUE(qp.UpsertPredictiveObject(2, Point{0.45, 0.55},
                                          Velocity{0.01, -0.01}, 5.0)
                    .ok());
    streams.push_back(StreamBytes(qp.EvaluateTick(5.0)));
    EXPECT_TRUE(qp.RemoveObject(1).ok());
    EXPECT_TRUE(qp.UpsertObject(1, Point{0.52, 0.48}, 1.0).ok());
    EXPECT_TRUE(qp.RemoveObject(2).ok());
    EXPECT_TRUE(qp.UpsertPredictiveObject(2, Point{0.9, 0.9},
                                          Velocity{-0.01, 0.0}, 2.0)
                    .ok());
    streams.push_back(StreamBytes(qp.EvaluateTick(6.0)));
    EXPECT_TRUE(qp.CheckInvariants().ok());
    return streams;
  };
  const std::vector<std::string> single = run(1);
  EXPECT_FALSE(single.back().empty());
  for (int shards : {2, 4, 9}) {
    EXPECT_EQ(run(shards), single) << shards << " shards";
  }
}

// Pins the merge's answer arithmetic on a script small enough to write
// the streams out. Predictive objects 1 and 4 are replicated into every
// shard their trajectories cross; objects 1 and 2 hop the x = 0.5 seam;
// query 2 is dropped and re-registered in two ticks, the second one
// removing a member of its old incarnation; query 3 moves out of the left
// shards while a replicated member stays in its answer. Every engine must
// ship exactly the single grid's stream.
TEST(ShardedDiffTest, ReplicaAndResetStreamsArePinned) {
  const Velocity v{0.01, 0.0};
  const Rect q2_region{0.3, 0.3, 0.7, 0.7};
  auto run = [&](int shards) {
    QueryProcessor qp(ShardOptions(shards, /*workers=*/1));
    std::vector<std::vector<std::string>> streams;
    auto tick = [&](double now) {
      std::vector<std::string> stream;
      for (const Update& u : qp.EvaluateTick(now).updates) {
        stream.push_back(u.DebugString());
      }
      EXPECT_TRUE(qp.CheckInvariants().ok()) << shards << " shards";
      streams.push_back(std::move(stream));
    };
    EXPECT_TRUE(
        qp.RegisterPredictiveQuery(1, Rect{0.3, 0.4, 0.7, 0.6}, 0.0, 50.0)
            .ok());
    EXPECT_TRUE(qp.RegisterRangeQuery(2, q2_region).ok());
    EXPECT_TRUE(
        qp.RegisterPredictiveQuery(3, Rect{0.3, 0.1, 0.7, 0.3}, 0.0, 50.0)
            .ok());
    EXPECT_TRUE(qp.UpsertPredictiveObject(1, Point{0.45, 0.45}, v, 0.0).ok());
    EXPECT_TRUE(qp.UpsertObject(2, Point{0.45, 0.5}, 0.0).ok());
    EXPECT_TRUE(qp.UpsertObject(3, Point{0.4, 0.4}, 0.0).ok());
    EXPECT_TRUE(qp.UpsertPredictiveObject(4, Point{0.45, 0.2}, v, 0.0).ok());
    tick(0.0);
    EXPECT_TRUE(qp.UpsertPredictiveObject(1, Point{0.55, 0.45}, v, 5.0).ok());
    EXPECT_TRUE(qp.UpsertObject(2, Point{0.55, 0.5}, 5.0).ok());
    EXPECT_TRUE(qp.UnregisterQuery(2).ok());
    EXPECT_TRUE(qp.RegisterRangeQuery(2, q2_region).ok());
    EXPECT_TRUE(qp.MovePredictiveQuery(3, Rect{0.55, 0.1, 0.7, 0.3}).ok());
    tick(5.0);
    EXPECT_TRUE(qp.UpsertPredictiveObject(1, Point{0.75, 0.45}, v, 10.0).ok());
    EXPECT_TRUE(qp.RemoveObject(3).ok());
    EXPECT_TRUE(qp.UnregisterQuery(2).ok());
    EXPECT_TRUE(qp.RegisterRangeQuery(2, q2_region).ok());
    tick(10.0);
    return streams;
  };
  const std::vector<std::vector<std::string>> expected = {
      {"(Q1, +p1)", "(Q1, +p2)", "(Q1, +p3)", "(Q2, +p1)", "(Q2, +p2)",
       "(Q2, +p3)", "(Q3, +p4)"},
      {"(Q2, +p1)", "(Q2, +p2)", "(Q2, +p3)"},
      {"(Q1, -p1)", "(Q1, -p3)", "(Q2, +p2)", "(Q2, -p3)"},
  };
  for (int shards : {1, 2, 4}) {
    EXPECT_EQ(run(shards), expected) << shards << " shards";
  }
}

// The sharded engine reports per-shard timing attribution in TickStats.
TEST(ShardedDiffTest, ShardStatsAreAttributed) {
  QueryProcessor qp(ShardOptions(4, 2));
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{(id % 20) / 20.0, (id / 20) / 10.0}, 0.0)
            .ok());
  }
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.1, 0.1, 0.7, 0.7}).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.5, 0.5}, 5).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_GT(r.stats.shards_ticked, 0);
  EXPECT_LE(r.stats.shards_ticked, 4);
  EXPECT_GT(r.stats.shard_tick_wall_seconds, 0.0);
  EXPECT_GT(r.stats.shard_tick_busy_seconds, 0.0);
  EXPECT_GT(r.stats.shard_tick_max_seconds, 0.0);
  EXPECT_LE(r.stats.shard_tick_max_seconds,
            r.stats.shard_tick_busy_seconds + 1e-12);
  EXPECT_GE(r.stats.shard_merge_seconds, 0.0);
  EXPECT_GE(r.stats.shard_knn_seconds, 0.0);
  EXPECT_EQ(r.stats.object_updates_applied, 200u);
  EXPECT_EQ(r.stats.query_changes_applied, 2u);
}

// The single-grid engine now attributes the same fields, so the shards=1
// ablation row is directly comparable (route covers drain+sort, busy ==
// wall for the one implicit shard).
TEST(ShardedDiffTest, SingleGridStatsAreAttributed) {
  QueryProcessor qp(ShardOptions(/*shards=*/1, /*workers=*/1));
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{(id % 20) / 20.0, (id / 20) / 10.0}, 0.0)
            .ok());
  }
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.1, 0.1, 0.7, 0.7}).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.5, 0.5}, 5).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.stats.shards_ticked, 1u);
  EXPECT_GT(r.stats.shard_route_seconds, 0.0);
  EXPECT_GT(r.stats.shard_tick_wall_seconds, 0.0);
  EXPECT_GT(r.stats.shard_tick_busy_seconds, 0.0);
  EXPECT_GT(r.stats.shard_tick_max_seconds, 0.0);
  EXPECT_GE(r.stats.shard_merge_seconds, 0.0);
}

}  // namespace
}  // namespace stq
