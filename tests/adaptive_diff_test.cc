// Skew-stress differential battery for adaptive partitioning: for every
// skewed scenario (Zipf hotspots with drift, flash crowd, rush hour) and
// every shard x worker combination, the adaptive engine's update stream
// is byte-identical, tick by tick, to the uniform single-grid engine's —
// while splits, merges and shard rebalances demonstrably fire mid-run.
//
// This is the headline guarantee of the adaptive layer: per-region grid
// resolution and shard boundaries change *cost*, never *bytes* (see
// DESIGN.md, "Adaptive partitioning").

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/crc32.h"
#include "stq/core/query_processor.h"
#include "stq/core/sharded_server.h"
#include "stq/gen/skewed_generator.h"
#include "stq/gen/workload.h"

namespace stq {
namespace {

QueryProcessorOptions EngineOptions(int shards, int workers, bool adaptive) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  options.worker_threads = workers;
  options.num_shards = shards;
  if (adaptive) {
    options.adaptive.enabled = true;
    // Aggressive thresholds so short test runs force transitions.
    options.adaptive.split_threshold = 10;
    options.adaptive.merge_threshold = 3;
    options.adaptive.max_level = 2;
    options.adaptive.cooldown_ticks = 2;
    options.adaptive.rebalance = true;
    options.adaptive.rebalance_cooldown_ticks = 3;
    options.adaptive.rebalance_min_objects = 64;
    options.adaptive.rebalance_imbalance = 1.2;
  }
  return options;
}

std::string StreamBytes(const TickResult& r) {
  std::ostringstream os;
  for (const Update& u : r.updates) os << u.DebugString() << '\n';
  return os.str();
}

struct DriveResult {
  std::vector<std::string> tick_streams;
  std::vector<std::string> tick_statuses;
  uint32_t crc = 0;
  uint32_t answer_crc = 0;  // digest of every query's final answer
  size_t splits = 0;
  size_t merges = 0;
  size_t rebalances = 0;
};

// With `knn` on, every initial range query gets a k-NN twin: a new id,
// k in 1..5, focal point at the region's centre, moved with the range
// query. Refined cells are where the k-NN search prunes by leaf, so the
// twins put that pruning under the byte-identity oracle.
constexpr QueryId kKnnIdOffset = 1000000;

QueryId KnnTwin(QueryId range_id) { return kKnnIdOffset + range_id; }

// Replays a pre-rolled skewed workload, capturing streams, ingestion
// statuses, adaptation counters, and the final committed answers. On a
// single grid, every k-NN twin's answer is also checked against the
// brute-force oracle after every tick.
DriveResult DriveWorkload(QueryProcessor* qp, const Workload& workload,
                          bool knn) {
  DriveResult result;
  auto check_knn = [&](Timestamp now) {
    if (!knn || qp->options().num_shards != 1) return;
    for (const QueryRegionReport& q : workload.initial_queries()) {
      const Result<std::vector<ObjectId>> current =
          qp->CurrentAnswer(KnnTwin(q.id));
      const Result<std::vector<ObjectId>> oracle =
          qp->EvaluateFromScratch(KnnTwin(q.id));
      ASSERT_TRUE(current.ok() && oracle.ok()) << "k-NN twin of " << q.id;
      EXPECT_EQ(*current, *oracle)
          << "k-NN twin of query " << q.id << " at t=" << now;
    }
  };
  auto tick = [&](Timestamp now, std::ostringstream* statuses) {
    const TickResult r = qp->EvaluateTick(now);
    result.tick_streams.push_back(StreamBytes(r));
    result.tick_statuses.push_back(statuses->str());
    const std::string& stream = result.tick_streams.back();
    result.crc = Crc32c(stream.data(), stream.size()) ^ (result.crc * 31);
    result.splits += r.stats.cells_split;
    result.merges += r.stats.cells_merged;
    result.rebalances += r.stats.shard_rebalances;
    const Status invariants = qp->CheckInvariants();
    EXPECT_TRUE(invariants.ok())
        << "invariants violated at t=" << now << " with "
        << qp->options().num_shards << " shards: " << invariants.ToString();
    check_knn(now);
  };

  std::ostringstream statuses;
  auto note = [&statuses](const Status& s) {
    statuses << (s.ok() ? "ok" : s.ToString()) << '\n';
  };
  for (const ObjectReport& r : workload.initial_objects()) {
    note(qp->UpsertObject(r.id, r.loc, r.t));
  }
  for (const QueryRegionReport& q : workload.initial_queries()) {
    note(qp->RegisterRangeQuery(q.id, q.region));
    if (knn) {
      note(qp->RegisterKnnQuery(KnnTwin(q.id), q.region.Center(),
                                1 + static_cast<int>(q.id % 5)));
    }
  }
  tick(0.0, &statuses);

  for (const WorkloadTick& wt : workload.ticks()) {
    std::ostringstream tick_statuses;
    auto tick_note = [&tick_statuses](const Status& s) {
      tick_statuses << (s.ok() ? "ok" : s.ToString()) << '\n';
    };
    for (const ObjectReport& r : wt.object_reports) {
      tick_note(qp->UpsertObject(r.id, r.loc, r.t));
    }
    for (const QueryRegionReport& q : wt.query_moves) {
      tick_note(qp->MoveRangeQuery(q.id, q.region));
      if (knn) tick_note(qp->MoveKnnQuery(KnnTwin(q.id), q.region.Center()));
    }
    tick(wt.time, &tick_statuses);
  }

  // Final answers, digested in ascending query-id order.
  auto digest = [&](QueryId qid) {
    const Result<std::vector<ObjectId>> answer = qp->CurrentAnswer(qid);
    EXPECT_TRUE(answer.ok()) << "query " << qid;
    std::ostringstream os;
    os << qid << ':';
    if (answer.ok()) {
      for (ObjectId oid : *answer) os << oid << ',';
    }
    const std::string s = os.str();
    result.answer_crc =
        Crc32c(s.data(), s.size()) ^ (result.answer_crc * 31);
  };
  for (const QueryRegionReport& q : workload.initial_queries()) digest(q.id);
  if (knn) {
    for (const QueryRegionReport& q : workload.initial_queries()) {
      digest(KnnTwin(q.id));
    }
  }
  return result;
}

void ExpectSameRun(const DriveResult& expected, const DriveResult& actual,
                   const std::string& what) {
  ASSERT_EQ(expected.tick_streams.size(), actual.tick_streams.size()) << what;
  for (size_t i = 0; i < expected.tick_streams.size(); ++i) {
    ASSERT_EQ(expected.tick_statuses[i], actual.tick_statuses[i])
        << what << ": ingestion statuses diverged at tick " << i;
    ASSERT_EQ(expected.tick_streams[i], actual.tick_streams[i])
        << what << ": update stream diverged at tick " << i;
  }
  EXPECT_EQ(expected.crc, actual.crc) << what;
  EXPECT_EQ(expected.answer_crc, actual.answer_crc) << what;
}

Workload MakeScenario(SkewedGenerator::Scenario scenario, uint64_t seed) {
  SkewedWorkloadOptions options;
  options.gen.scenario = scenario;
  options.gen.num_objects = 300;
  options.gen.seed = seed;
  options.gen.speed = 0.004;
  options.gen.num_hotspots = 6;
  options.gen.zipf_s = 1.3;
  options.gen.hotspot_sigma = 0.03;
  options.gen.hotspot_drift = 0.004;
  options.gen.crowd_fraction = 0.6;
  options.gen.ramp_seconds = 20.0;
  options.gen.hold_seconds = 10.0;
  options.gen.period_seconds = 60.0;
  options.gen.core_sigma = 0.03;
  options.num_queries = 40;
  options.query_side_length = 0.12;
  options.moving_query_fraction = 0.5;
  options.tick_seconds = 5.0;
  options.num_ticks = 12;
  return MakeSkewedWorkload(options);
}

struct Scenario {
  const char* name;
  SkewedGenerator::Scenario kind;
  uint64_t seed;
};

const Scenario kScenarios[] = {
    {"zipf_hotspot", SkewedGenerator::Scenario::kZipfHotspot, 41},
    {"flash_crowd", SkewedGenerator::Scenario::kFlashCrowd, 42},
    {"rush_hour", SkewedGenerator::Scenario::kRushHour, 43},
};

// The battery: every scenario x k-NN twins {off, on} x shards {1, 2, 4}
// x workers {1, 4}, adaptive on, against the uniform single-grid
// baseline.
TEST(AdaptiveDiffTest, SkewedStreamsAreByteIdenticalToUniform) {
  for (const Scenario& scenario : kScenarios) {
    const Workload workload = MakeScenario(scenario.kind, scenario.seed);
    for (bool knn : {false, true}) {
      QueryProcessor baseline(
          EngineOptions(/*shards=*/1, /*workers=*/1, /*adaptive=*/false));
      const DriveResult expected = DriveWorkload(&baseline, workload, knn);
      size_t total_bytes = 0;
      for (const std::string& s : expected.tick_streams) {
        total_bytes += s.size();
      }
      EXPECT_GT(total_bytes, 0u) << scenario.name << " produced no traffic";

      for (int shards : {1, 2, 4}) {
        for (int workers : {1, 4}) {
          std::ostringstream what;
          what << scenario.name << (knn ? " with k-NN twins" : "") << " with "
               << shards << " shards, " << workers << " workers";
          QueryProcessor qp(EngineOptions(shards, workers, /*adaptive=*/true));
          const DriveResult actual = DriveWorkload(&qp, workload, knn);
          ExpectSameRun(expected, actual, what.str());
          if (testing::Test::HasFatalFailure()) {
            FAIL() << what.str() << " diverged";
          }
          // The run must actually exercise the adaptive machinery: splits
          // on the way into every skewed scenario, and merges when the
          // transient scenarios relax (flash crowd disperses, rush hour
          // drives home, hotspots drift off their old cells).
          EXPECT_GE(actual.splits, 1u) << what.str();
          EXPECT_GE(actual.merges, 1u) << what.str();
        }
      }
    }
  }
}

// Shard rebalancing fires on the skewed scenarios and stays
// stream-invisible (the battery above already proves byte-identity with
// rebalance enabled; this pins down that it actually ran).
TEST(AdaptiveDiffTest, RebalancesFireOnSkewedShardedRuns) {
  size_t total_rebalances = 0;
  for (const Scenario& scenario : kScenarios) {
    const Workload workload = MakeScenario(scenario.kind, scenario.seed);
    for (int shards : {2, 4}) {
      QueryProcessor qp(EngineOptions(shards, /*workers=*/1, true));
      const DriveResult r = DriveWorkload(&qp, workload, /*knn=*/false);
      total_rebalances += r.rebalances;
      ASSERT_NE(qp.sharded_engine(), nullptr);
      EXPECT_EQ(qp.sharded_engine()->rebalance_history().size(),
                r.rebalances);
    }
  }
  EXPECT_GE(total_rebalances, 1u)
      << "no skewed scenario triggered a shard rebalance";
}

// The Zipf scenario specifically must rebalance: its whole point is a
// persistently imbalanced home-shard load.
TEST(AdaptiveDiffTest, ZipfHotspotRebalances) {
  SkewedWorkloadOptions options;
  options.gen.scenario = SkewedGenerator::Scenario::kZipfHotspot;
  options.gen.num_objects = 300;
  options.gen.seed = 41;
  // Two hotspots with a steep exponent: the top one owns ~78% of the
  // population, so one of the two shards is guaranteed overloaded.
  options.gen.num_hotspots = 2;
  options.gen.zipf_s = 1.8;
  options.gen.hotspot_sigma = 0.03;
  options.gen.hotspot_drift = 0.004;
  options.num_queries = 40;
  options.query_side_length = 0.12;
  options.tick_seconds = 5.0;
  options.num_ticks = 12;
  const Workload workload = MakeSkewedWorkload(options);
  QueryProcessor qp(EngineOptions(/*shards=*/2, /*workers=*/1, true));
  const DriveResult r = DriveWorkload(&qp, workload, /*knn=*/false);
  EXPECT_GE(r.rebalances, 1u);
  EXPECT_GE(r.splits, 1u);
}

}  // namespace
}  // namespace stq
