// Corruption-drill tests for the InvariantAuditor: a healthy engine
// audits clean, and every class of seeded divergence — QList/answer
// asymmetry, phantom answers, grid/store disagreement, stale committed
// answers — is reported.

#include "stq/core/invariant_auditor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/core/query_processor.h"
#include "stq/core/server.h"

namespace stq {
namespace {

QueryProcessorOptions SmallOptions() {
  QueryProcessorOptions opts;
  opts.bounds = Rect{0.0, 0.0, 1.0, 1.0};
  opts.grid_cells_per_side = 8;
  return opts;
}

// A small mixed workload: three point objects, one predictive object,
// one query of every kind, evaluated once so all answers are current.
void Populate(QueryProcessor* qp) {
  ASSERT_TRUE(qp->UpsertObject(1, Point{0.30, 0.30}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertObject(2, Point{0.35, 0.32}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertObject(3, Point{0.90, 0.90}, 0.0).ok());
  ASSERT_TRUE(qp->UpsertPredictiveObject(4, Point{0.10, 0.10},
                                         Velocity{0.01, 0.01}, 0.0)
                  .ok());
  ASSERT_TRUE(qp->RegisterRangeQuery(10, Rect{0.2, 0.2, 0.5, 0.5}).ok());
  ASSERT_TRUE(qp->RegisterKnnQuery(11, Point{0.3, 0.3}, 2).ok());
  ASSERT_TRUE(qp->RegisterCircleQuery(12, Point{0.33, 0.33}, 0.1).ok());
  ASSERT_TRUE(
      qp->RegisterPredictiveQuery(13, Rect{0.0, 0.0, 0.3, 0.3}, 1.0, 10.0)
          .ok());
  qp->EvaluateTick(1.0);
}

TEST(InvariantAuditorTest, HealthyEngineAuditsClean) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);
  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.ToString(), "ok");
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(InvariantAuditorTest, RequiresDrainedBuffer) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);
  ASSERT_TRUE(qp.UpsertObject(5, Point{0.5, 0.5}, 2.0).ok());
  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("drained"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsBrokenQListPairing) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Object 1 satisfies range query 10; scrub the query from its QList.
  ObjectRecord* o = qp.object_store_for_testing().FindMutable(1);
  ASSERT_NE(o, nullptr);
  ASSERT_TRUE(ObjectStore::RemoveQuery(o, 10));

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("QList disagrees"), std::string::npos)
      << report.ToString();
  EXPECT_FALSE(qp.CheckInvariants().ok());
}

TEST(InvariantAuditorTest, DetectsPhantomAnswerObject) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Plant an object id that does not exist into a stored answer.
  QueryRecord* q = qp.query_store_for_testing().FindMutable(10);
  ASSERT_NE(q, nullptr);
  q->answer.insert(999);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("999"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsDroppedQListEntryBothDirections) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Inverse of DetectsBrokenQListPairing: the QList claims a query whose
  // answer does not contain the object.
  ObjectRecord* o = qp.object_store_for_testing().FindMutable(3);
  ASSERT_NE(o, nullptr);
  ASSERT_TRUE(ObjectStore::AddQuery(o, 10));

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("QList but the query's answer"),
            std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsMissingGridObjectEntry) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Remove object 2 from the grid while its store record survives.
  const ObjectRecord* o = qp.object_store().Find(2);
  ASSERT_NE(o, nullptr);
  qp.grid_for_testing().RemoveObject(2, o->loc);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("grid cell"), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find("stores imply 1"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsDuplicateGridObjectEntry) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  const ObjectRecord* o = qp.object_store().Find(2);
  ASSERT_NE(o, nullptr);
  qp.grid_for_testing().InsertObject(2, o->loc);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("holds 2 entries"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsMissingQueryStub) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  const QueryRecord* q = qp.query_store().Find(10);
  ASSERT_NE(q, nullptr);
  qp.grid_for_testing().RemoveQuery(10, q->grid_footprint);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("query 10"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorTest, DetectsAnswerDivergenceFromScratch) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Teleport object 3 in the store (and grid, so the structural checks
  // stay quiet): the stored answers no longer match a re-evaluation.
  ObjectRecord* o = qp.object_store_for_testing().FindMutable(3);
  ASSERT_NE(o, nullptr);
  const Point old_loc = o->loc;
  o->loc = Point{0.45, 0.45};  // now inside range query 10's region only
  qp.grid_for_testing().MoveObject(3, old_loc, o->loc);

  const AuditReport report = InvariantAuditor().AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("diverges"), std::string::npos)
      << report.ToString();

  // The structural-only audit (no from-scratch pass) stays clean: this
  // corruption is only visible to re-evaluation.
  InvariantAuditor::Options structural;
  structural.verify_answers_from_scratch = false;
  EXPECT_TRUE(InvariantAuditor(structural).AuditProcessor(qp).ok());
}

TEST(InvariantAuditorTest, ViolationCapLimitsReportSize) {
  QueryProcessor qp(SmallOptions());
  Populate(&qp);

  // Corrupt many pairings at once; the report stays bounded.
  qp.query_store_for_testing().ForEach([](const QueryRecord&) {});
  for (ObjectId oid = 100; oid < 200; ++oid) {
    QueryRecord* q = qp.query_store_for_testing().FindMutable(10);
    q->answer.insert(oid);
  }
  InvariantAuditor::Options opts;
  opts.max_violations = 4;
  const AuditReport report = InvariantAuditor(opts).AuditProcessor(qp);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 4u);
}

TEST(InvariantAuditorTest, ServerAuditFlagsOrphanedCommit) {
  Server::Options opts;
  opts.processor = SmallOptions();
  Server server(opts);
  ASSERT_TRUE(server.AttachClient(1).ok());
  ASSERT_TRUE(
      server.RegisterRangeQuery(10, 1, Rect{0.2, 0.2, 0.5, 0.5}).ok());
  ASSERT_TRUE(server.ReportObject(1, Point{0.3, 0.3}, 0.0).ok());
  server.Tick(1.0);
  ASSERT_TRUE(server.CommitQuery(10).ok());
  EXPECT_TRUE(InvariantAuditor().AuditServer(server).ok());

  // Drop the query behind the server's back: the committed answer is now
  // orphaned.
  ASSERT_TRUE(server.processor().UnregisterQuery(10).ok());
  server.processor().EvaluateTick(2.0);
  const AuditReport report = InvariantAuditor().AuditServer(server);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("unregistered query 10"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditorDeathTest, PostTickHookAbortsOnCorruption) {
  Server::Options opts;
  opts.processor = SmallOptions();
  opts.audit_after_tick = true;
  Server server(opts);
  ASSERT_TRUE(server.AttachClient(1).ok());
  ASSERT_TRUE(
      server.RegisterRangeQuery(10, 1, Rect{0.2, 0.2, 0.5, 0.5}).ok());
  ASSERT_TRUE(server.ReportObject(1, Point{0.3, 0.3}, 0.0).ok());
  server.Tick(1.0);  // clean: the hook passes

  QueryRecord* q =
      server.processor().query_store_for_testing().FindMutable(10);
  ASSERT_NE(q, nullptr);
  q->answer.insert(999);
  EXPECT_DEATH(server.Tick(2.0), "post-tick invariant audit failed");
}

}  // namespace
}  // namespace stq
