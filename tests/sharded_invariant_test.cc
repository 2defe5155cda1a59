// Corruption drills for the sharded invariant audit: a healthy sharded
// engine audits clean at every shard count, and each class of seeded
// cross-shard divergence — a shard losing an object the router routed
// there, a shard losing a member of its answer, shard state drifting
// from the router's record, a k-NN answer diverging from the cross-shard
// search — is reported, both through AuditCrossShard directly and
// through the public CheckInvariants path.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/core/invariant_auditor.h"
#include "stq/core/query_processor.h"
#include "stq/core/sharded_server.h"

namespace stq {
namespace {

QueryProcessorOptions ShardedOptions(int shards = 4) {
  QueryProcessorOptions opts;
  opts.bounds = Rect{0.0, 0.0, 1.0, 1.0};
  opts.grid_cells_per_side = 8;
  opts.num_shards = shards;
  return opts;
}

// A mixed population spread over the whole universe so every shard of a
// 2x2 (or 3x3) split holds objects, plus one query of every kind — the
// range query spans all shards.
void Populate(QueryProcessor* qp) {
  ASSERT_TRUE(qp->UpsertObject(1, Point{0.30, 0.30}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertObject(2, Point{0.75, 0.32}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertObject(3, Point{0.90, 0.90}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertObject(4, Point{0.20, 0.80}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertPredictiveObject(5, Point{0.48, 0.48},
                                         Velocity{0.05, 0.05}, 0.0)
                  .ok());
  ASSERT_TRUE(qp->RegisterRangeQuery(10, Rect{0.1, 0.1, 0.95, 0.95}).ok());
  ASSERT_TRUE(qp->RegisterKnnQuery(11, Point{0.3, 0.3}, 2).ok());
  ASSERT_TRUE(qp->RegisterCircleQuery(12, Point{0.33, 0.33}, 0.1).ok());
  ASSERT_TRUE(
      qp->RegisterPredictiveQuery(13, Rect{0.0, 0.0, 0.6, 0.6}, 1.0, 10.0)
          .ok());
  qp->EvaluateTick(1.0);
}

TEST(ShardedInvariantTest, HealthyEngineAuditsCleanAtEveryShardCount) {
  for (int shards : {2, 4, 9}) {
    QueryProcessor qp(ShardedOptions(shards));
    Populate(&qp);
    const AuditReport report = InvariantAuditor().AuditProcessor(qp);
    EXPECT_TRUE(report.ok()) << shards << " shards: " << report.ToString();
    EXPECT_TRUE(qp.CheckInvariants().ok());
  }
}

TEST(ShardedInvariantTest, RequiresDrainedBuffer) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ASSERT_TRUE(qp.UpsertObject(6, Point{0.5, 0.5}, 2.0).ok());
  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("drained"), std::string::npos)
      << report.ToString();
}

TEST(ShardedInvariantTest, DetectsObjectMissingFromRoutedShard) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();
  ASSERT_NE(engine, nullptr);

  // Erase object 3 from the shard the router routed it to — the shard
  // "loses" the object while the router still counts it.
  const std::vector<int> shards = engine->ObjectShards(3);
  ASSERT_EQ(shards.size(), 1u);
  QueryProcessor& shard = engine->shard_for_testing(shards[0]);
  const ObjectRecord* rec = shard.object_store().Find(3);
  ASSERT_NE(rec, nullptr);
  shard.grid_for_testing().RemoveObject(3, rec->loc);
  shard.object_store_for_testing().Erase(3);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("cross-shard: object 3"),
            std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("missing from its store"),
            std::string::npos)
      << report.ToString();
  EXPECT_FALSE(qp.CheckInvariants().ok());
}

TEST(ShardedInvariantTest, DetectsShardAnswerLoss) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();

  // Scrub the (query 10, object 1) pair from the owning shard's answer
  // and QList: the shard stays structurally self-consistent, so only its
  // from-scratch comparison notices the loss, attributed to the shard.
  const std::vector<int> shards = engine->ObjectShards(1);
  ASSERT_EQ(shards.size(), 1u);
  QueryProcessor& shard = engine->shard_for_testing(shards[0]);
  QueryRecord* q = shard.query_store_for_testing().FindMutable(10);
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->answer.erase(1), 1u);
  ObjectRecord* o = shard.object_store_for_testing().FindMutable(1);
  ASSERT_NE(o, nullptr);
  ASSERT_TRUE(ObjectStore::RemoveQuery(o, 10));

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  std::ostringstream expected;
  expected << "shard " << shards[0] << ": query 10 incremental answer";
  EXPECT_NE(report.ToString().find(expected.str()), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("diverges"), std::string::npos)
      << report.ToString();
}

TEST(ShardedInvariantTest, DetectsPerShardCorruptionWithShardPrefix) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();

  // A classic single-grid corruption *inside* one shard (phantom answer
  // object) is caught by the per-shard audit and attributed to the shard.
  const std::vector<int> shards = engine->QueryShards(10);
  ASSERT_FALSE(shards.empty());
  QueryProcessor& shard = engine->shard_for_testing(shards[0]);
  QueryRecord* q = shard.query_store_for_testing().FindMutable(10);
  ASSERT_NE(q, nullptr);
  q->answer.insert(999);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  std::ostringstream expected;
  expected << "shard " << shards[0] << ": ";
  EXPECT_NE(report.ToString().find(expected.str()), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("999"), std::string::npos)
      << report.ToString();
}

TEST(ShardedInvariantTest, DetectsShardStateDriftFromRouterRecord) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();

  // Nudge object 2's report time in its shard; the router's record no
  // longer matches the shard's stored state.
  const std::vector<int> shards = engine->ObjectShards(2);
  ASSERT_EQ(shards.size(), 1u);
  ObjectRecord* o = engine->shard_for_testing(shards[0])
                        .object_store_for_testing()
                        .FindMutable(2);
  ASSERT_NE(o, nullptr);
  o->t += 0.5;

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(
      report.ToString().find("object 2 state in shard"), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("diverges from the router's record"),
            std::string::npos)
      << report.ToString();
}

TEST(ShardedInvariantTest, DetectsKnnAnswerDivergence) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();

  // Teleport object 2 (far from the focal point) right next to it,
  // staying inside its own shard's rect and keeping the shard
  // structurally sound: a fresh cross-shard search now ranks object 2
  // into the top-2, so the front's committed k-NN answer disagrees.
  const std::vector<int> shards = engine->ObjectShards(2);
  ASSERT_EQ(shards.size(), 1u);
  QueryProcessor& shard = engine->shard_for_testing(shards[0]);
  ObjectRecord* o = shard.object_store_for_testing().FindMutable(2);
  ASSERT_NE(o, nullptr);
  const Point old_loc = o->loc;
  o->loc = Point{0.5, 0.3};  // on its shard's border, near the focal point
  shard.grid_for_testing().MoveObject(2, old_loc, o->loc);

  InvariantAuditor::Options structural;
  structural.verify_answers_from_scratch = false;
  const AuditReport report =
      InvariantAuditor(structural).AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("k-NN query 11"), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("fresh search"), std::string::npos)
      << report.ToString();
}

TEST(ShardedInvariantTest, ViolationCapLimitsReportSize) {
  QueryProcessor qp(ShardedOptions());
  Populate(&qp);
  ShardedEngine* engine = qp.sharded_engine_for_testing();

  // Plant many phantom pairs in one shard; the report stays bounded.
  const std::vector<int> shards = engine->QueryShards(10);
  ASSERT_FALSE(shards.empty());
  QueryRecord* q = engine->shard_for_testing(shards[0])
                       .query_store_for_testing()
                       .FindMutable(10);
  ASSERT_NE(q, nullptr);
  for (ObjectId oid = 100; oid < 200; ++oid) q->answer.insert(oid);

  InvariantAuditor::Options opts;
  opts.max_violations = 4;
  const AuditReport report = InvariantAuditor(opts).AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 4u);
}

}  // namespace
}  // namespace stq
