// API robustness fuzzing: long random sequences of valid AND invalid
// calls against the query processor and the server, on the single grid
// and on 4 shards. About 2% of the coordinate, velocity, timestamp,
// radius and window draws are hostile: NaN, +-inf, a denormal or +-1e300.
// Nothing here asserts specific answers — the properties are (a) no crash
// and no undefined behaviour (the sanitizer legs run this), (b) every
// call returns a Status rather than corrupting state, with non-finite
// arguments always rejected, and (c) the engine's invariants hold after
// every evaluation.

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/invariant_auditor.h"
#include "stq/core/query_processor.h"
#include "stq/core/server.h"

namespace stq {
namespace {

// Returns `v`, or with probability 2% a hostile replacement.
double Hostile(Xorshift128Plus* rng, double v) {
  if (!rng->NextBool(0.02)) return v;
  switch (rng->NextUint64(6)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return std::numeric_limits<double>::denorm_min();
    case 4:
      return 1e300;
    default:
      return -1e300;
  }
}

Point HostilePoint(Xorshift128Plus* rng, const Point& p) {
  return Point{Hostile(rng, p.x), Hostile(rng, p.y)};
}

// A call whose arguments include a non-finite value must fail.
void ExpectRejectedIfNonFinite(const Status& s,
                               std::initializer_list<double> args, int step) {
  for (double v : args) {
    if (!std::isfinite(v)) {
      EXPECT_TRUE(s.IsInvalidArgument()) << "step " << step << ": "
                                         << s.ToString();
      return;
    }
  }
}

// (seed, shards)
class ApiFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  int shards() const { return std::get<1>(GetParam()); }
};

TEST_P(ApiFuzz, ProcessorSurvivesRandomCallSequences) {
  Xorshift128Plus rng(seed());
  QueryProcessorOptions options;
  options.grid_cells_per_side = rng.NextInt(1, 24);
  options.prediction_horizon = rng.NextDouble(1.0, 50.0);
  options.record_history = rng.NextBool(0.5);
  options.num_shards = shards();
  QueryProcessor qp(options);

  // Small id spaces so that valid and invalid ids collide often.
  const ObjectId max_object = 30;
  const QueryId max_query = 15;
  double now = 0.0;

  for (int step = 0; step < 3000; ++step) {
    const ObjectId oid = 1 + rng.NextUint64(max_object);
    const QueryId qid = 1 + rng.NextUint64(max_query);
    // Points sometimes outside the space; timestamps sometimes stale.
    const Point p = HostilePoint(
        &rng, Point{rng.NextDouble(-0.5, 1.5), rng.NextDouble(-0.5, 1.5)});
    const double t = Hostile(&rng, rng.NextBool(0.1)
                                       ? now - rng.NextDouble(0.0, 5.0)
                                       : now + rng.NextDouble(0.0, 1.0));
    switch (rng.NextUint64(12)) {
      case 0:
        ExpectRejectedIfNonFinite(qp.UpsertObject(oid, p, t), {p.x, p.y, t},
                                  step);
        break;
      case 1: {
        const Velocity v{Hostile(&rng, rng.NextDouble(-0.1, 0.1)),
                         Hostile(&rng, rng.NextDouble(-0.1, 0.1))};
        ExpectRejectedIfNonFinite(qp.UpsertPredictiveObject(oid, p, v, t),
                                  {p.x, p.y, v.vx, v.vy, t}, step);
        break;
      }
      case 2:
        (void)qp.RemoveObject(oid);
        break;
      case 3: {
        const Rect r = Rect::CenteredSquare(
            p, Hostile(&rng, rng.NextDouble(-0.1, 0.4)));
        ExpectRejectedIfNonFinite(qp.RegisterRangeQuery(qid, r),
                                  {r.min_x, r.min_y, r.max_x, r.max_y}, step);
        break;
      }
      case 4: {
        const Rect r = Rect::CenteredSquare(
            p, Hostile(&rng, rng.NextDouble(0.01, 0.4)));
        ExpectRejectedIfNonFinite(qp.MoveRangeQuery(qid, r),
                                  {r.min_x, r.min_y, r.max_x, r.max_y}, step);
        break;
      }
      case 5:
        ExpectRejectedIfNonFinite(
            qp.RegisterKnnQuery(qid, p, rng.NextInt(-2, 8)), {p.x, p.y}, step);
        break;
      case 6:
        ExpectRejectedIfNonFinite(qp.MoveKnnQuery(qid, p), {p.x, p.y}, step);
        break;
      case 7: {
        const Rect r = Rect::CenteredSquare(
            p, Hostile(&rng, rng.NextDouble(0.01, 0.4)));
        const double t_from = Hostile(&rng, rng.NextDouble(0.0, 30.0));
        const double t_to = Hostile(&rng, rng.NextDouble(-5.0, 40.0));
        ExpectRejectedIfNonFinite(
            qp.RegisterPredictiveQuery(qid, r, t_from, t_to),
            {r.min_x, r.min_y, r.max_x, r.max_y, t_from, t_to}, step);
        break;
      }
      case 8: {
        const double radius = Hostile(&rng, rng.NextDouble(-0.05, 0.3));
        ExpectRejectedIfNonFinite(qp.RegisterCircleQuery(qid, p, radius),
                                  {p.x, p.y, radius}, step);
        break;
      }
      case 9:
        ExpectRejectedIfNonFinite(qp.MoveCircleQuery(qid, p), {p.x, p.y},
                                  step);
        break;
      case 10:
        (void)qp.UnregisterQuery(qid);
        break;
      case 11: {
        now += rng.NextDouble(0.0, 2.0);
        qp.EvaluateTick(now);
        break;
      }
    }
    if (step % 500 == 499) {
      now += 1.0;
      qp.EvaluateTick(now);
      ASSERT_TRUE(qp.CheckInvariants().ok()) << "step " << step;
    }
  }
  now += 1.0;
  qp.EvaluateTick(now);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST_P(ApiFuzz, ServerSurvivesRandomCallSequences) {
  Xorshift128Plus rng(seed() * 31 + 7);
  Server::Options options;
  options.processor.grid_cells_per_side = 8;
  options.processor.num_shards = shards();
  Server server(options);
  double now = 0.0;

  for (int step = 0; step < 1500; ++step) {
    const ClientId cid = 1 + rng.NextUint64(4);
    const QueryId qid = 1 + rng.NextUint64(10);
    const ObjectId oid = 1 + rng.NextUint64(20);
    const Point p =
        HostilePoint(&rng, Point{rng.NextDouble(), rng.NextDouble()});
    switch (rng.NextUint64(12)) {
      case 0:
        (void)server.AttachClient(cid);
        break;
      case 1:
        (void)server.DisconnectClient(cid);
        break;
      case 2:
        (void)server.ReconnectClient(cid);
        break;
      case 3:
        (void)server.ReportObject(
            oid, p, Hostile(&rng, now + rng.NextDouble(0.0, 1.0)));
        break;
      case 4:
        (void)server.RegisterRangeQuery(qid, cid,
                                        Rect::CenteredSquare(p, 0.2));
        break;
      case 5:
        (void)server.MoveRangeQuery(qid, Rect::CenteredSquare(p, 0.2));
        break;
      case 6:
        (void)server.CommitQuery(qid);
        break;
      case 7:
        (void)server.UnregisterQuery(qid);
        break;
      case 8:
        (void)server.RegisterCircleQuery(qid, cid, p, Hostile(&rng, 0.1));
        break;
      case 9:
        (void)server.RegisterKnnQuery(qid, cid, p, rng.NextInt(1, 4));
        break;
      case 10:
        (void)server.MoveKnnQuery(qid, p);
        break;
      case 11: {
        now += rng.NextDouble(0.1, 2.0);
        server.Tick(now);
        break;
      }
    }
  }
  now += 1.0;
  server.Tick(now);
  // The processor audit plus the server's own: no commit outlives its
  // query, across k-NN commits, disconnects and re-registrations.
  const AuditReport report = InvariantAuditor().AuditServer(server);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ApiFuzz,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(1, 4)));

}  // namespace
}  // namespace stq
