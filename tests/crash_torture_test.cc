// Crash-recovery torture harness: drives a seeded mixed workload through
// PersistentServer on a FaultInjectionEnv, kills the "machine" at every
// injected I/O point (and at random points under torn-tail loss), reopens,
// and verifies the recovered state against an in-memory oracle Server that
// saw exactly the acknowledged operations.
//
// The durability contract being enforced (see DESIGN.md):
//   - after a kDropAll crash (only fsync'ed data survives), recovery lands
//     exactly on the state at the last successful sync boundary (a Tick
//     with sync_every_tick, or a Checkpoint) — never between boundaries,
//     never with a half-applied operation;
//   - after a kKeepPrefix crash (torn WAL tails, half-applied directory
//     journals), recovery lands on *some* acknowledged prefix: every state
//     component matches an op-boundary capture at or after the last sync;
//   - recovery is itself crash-safe: crashing in the middle of Open() and
//     recovering again still lands on the same boundary;
//   - the InvariantAuditor passes after every recovery.
//
// The deterministic sweep alone covers several hundred distinct crash
// points; CI runs the larger randomized set under ASan via the
// STQ_TORTURE_SEEDS environment variable (ctest label: torture).

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/check.h"
#include "stq/common/random.h"
#include "stq/core/invariant_auditor.h"
#include "stq/storage/fault_env.h"
#include "stq/storage/persistent_server.h"

namespace stq {
namespace {

using UnsyncedLoss = FaultInjectionEnv::UnsyncedLoss;

constexpr char kDir[] = "/db";

// One scripted operation. Scripts are generated once per seed and replayed
// identically across every crash point, so a failure names a reproducible
// (seed, crash point) pair.
struct Op {
  enum Kind {
    kReportObject,
    kReportPredictive,
    kRemoveObject,
    kRegisterRange,
    kRegisterKnn,
    kRegisterCircle,
    kRegisterPredictive,
    kMoveQuery,
    kCommitQuery,
    kUnregisterQuery,
    kTick,
    kCheckpoint,
  } kind = kReportObject;
  ObjectId oid = 0;
  QueryId qid = 0;
  QueryKind qkind = QueryKind::kRange;
  ClientId cid = 0;
  Point p{0.0, 0.0};
  Velocity vel{0.0, 0.0};
  Rect rect{0.0, 0.0, 0.0, 0.0};
  int k = 0;
  double radius = 0.0;
  double t_from = 0.0;
  double t_to = 0.0;
  double t = 0.0;
};

std::vector<Op> MakeScript(uint64_t seed, int ticks, int ops_per_tick,
                           int checkpoint_every) {
  Xorshift128Plus rng(seed);
  std::vector<Op> script;
  std::vector<ObjectId> objects;
  std::vector<std::pair<QueryId, QueryKind>> queries;
  ObjectId next_oid = 1;
  QueryId next_qid = 1;

  auto random_point = [&] {
    return Point{rng.NextDouble(0.05, 0.95), rng.NextDouble(0.05, 0.95)};
  };
  auto random_rect = [&] {
    const double x = rng.NextDouble(0.0, 0.75);
    const double y = rng.NextDouble(0.0, 0.75);
    return Rect{x, y, x + rng.NextDouble(0.05, 0.25),
                y + rng.NextDouble(0.05, 0.25)};
  };

  for (int tick = 1; tick <= ticks; ++tick) {
    for (int i = 0; i < ops_per_tick; ++i) {
      Op op;
      op.t = tick - 1.0 + (i + 1.0) / (ops_per_tick + 1.0);
      const double dice = rng.NextDouble();
      if (dice < 0.35 || (objects.empty() && dice < 0.52) ||
          (queries.empty() && dice >= 0.72)) {
        op.kind = Op::kReportObject;
        if (!objects.empty() && rng.NextBool(0.5)) {
          op.oid = objects[rng.NextUint64(objects.size())];
        } else {
          op.oid = next_oid++;
          objects.push_back(op.oid);
        }
        op.p = random_point();
      } else if (dice < 0.45) {
        op.kind = Op::kReportPredictive;
        if (!objects.empty() && rng.NextBool(0.3)) {
          op.oid = objects[rng.NextUint64(objects.size())];
        } else {
          op.oid = next_oid++;
          objects.push_back(op.oid);
        }
        op.p = random_point();
        op.vel = Velocity{rng.NextDouble(-0.04, 0.04),
                          rng.NextDouble(-0.04, 0.04)};
      } else if (dice < 0.52) {
        op.kind = Op::kRemoveObject;
        const size_t pick = rng.NextUint64(objects.size());
        op.oid = objects[pick];
        objects.erase(objects.begin() + pick);
      } else if (dice < 0.72) {
        op.qid = next_qid++;
        op.cid = 1 + static_cast<ClientId>(rng.NextUint64(3));
        switch (rng.NextUint64(4)) {
          case 0:
            op.kind = Op::kRegisterRange;
            op.qkind = QueryKind::kRange;
            op.rect = random_rect();
            break;
          case 1:
            op.kind = Op::kRegisterKnn;
            op.qkind = QueryKind::kKnn;
            op.p = random_point();
            op.k = 1 + static_cast<int>(rng.NextUint64(3));
            break;
          case 2:
            op.kind = Op::kRegisterCircle;
            op.qkind = QueryKind::kCircleRange;
            op.p = random_point();
            op.radius = rng.NextDouble(0.05, 0.25);
            break;
          default:
            op.kind = Op::kRegisterPredictive;
            op.qkind = QueryKind::kPredictiveRange;
            op.rect = random_rect();
            op.t_from = tick;
            op.t_to = tick + rng.NextDouble(1.0, 3.0);
            break;
        }
        queries.emplace_back(op.qid, op.qkind);
      } else if (dice < 0.84) {
        op.kind = Op::kMoveQuery;
        const auto& [qid, qkind] = queries[rng.NextUint64(queries.size())];
        op.qid = qid;
        op.qkind = qkind;
        if (qkind == QueryKind::kRange || qkind == QueryKind::kPredictiveRange) {
          op.rect = random_rect();
        } else {
          op.p = random_point();
        }
      } else if (dice < 0.93) {
        op.kind = Op::kCommitQuery;
        op.qid = queries[rng.NextUint64(queries.size())].first;
      } else {
        op.kind = Op::kUnregisterQuery;
        const size_t pick = rng.NextUint64(queries.size());
        op.qid = queries[pick].first;
        queries.erase(queries.begin() + pick);
      }
      script.push_back(op);
    }
    Op tick_op;
    tick_op.kind = Op::kTick;
    tick_op.t = tick;
    script.push_back(tick_op);
    if (checkpoint_every > 0 && tick % checkpoint_every == 0) {
      Op ckpt;
      ckpt.kind = Op::kCheckpoint;
      script.push_back(ckpt);
    }
  }
  return script;
}

// Applies a mutation op to either a PersistentServer or a plain Server
// (the oracle) — the two expose the same mutation vocabulary.
template <typename ServerT>
Status ApplyOp(const Op& op, ServerT* s) {
  switch (op.kind) {
    case Op::kReportObject:
      return s->ReportObject(op.oid, op.p, op.t);
    case Op::kReportPredictive:
      return s->ReportPredictiveObject(op.oid, op.p, op.vel, op.t);
    case Op::kRemoveObject:
      return s->RemoveObject(op.oid);
    case Op::kRegisterRange:
      return s->RegisterRangeQuery(op.qid, op.cid, op.rect);
    case Op::kRegisterKnn:
      return s->RegisterKnnQuery(op.qid, op.cid, op.p, op.k);
    case Op::kRegisterCircle:
      return s->RegisterCircleQuery(op.qid, op.cid, op.p, op.radius);
    case Op::kRegisterPredictive:
      return s->RegisterPredictiveQuery(op.qid, op.cid, op.rect, op.t_from,
                                        op.t_to);
    case Op::kMoveQuery:
      switch (op.qkind) {
        case QueryKind::kRange:
          return s->MoveRangeQuery(op.qid, op.rect);
        case QueryKind::kPredictiveRange:
          return s->MovePredictiveQuery(op.qid, op.rect);
        case QueryKind::kKnn:
          return s->MoveKnnQuery(op.qid, op.p);
        case QueryKind::kCircleRange:
          return s->MoveCircleQuery(op.qid, op.p);
      }
      return Status::Internal("unknown query kind");
    case Op::kCommitQuery:
      return s->CommitQuery(op.qid);
    case Op::kUnregisterQuery:
      return s->UnregisterQuery(op.qid);
    case Op::kTick:
    case Op::kCheckpoint:
      break;
  }
  return Status::Internal("not a mutation op");
}

// The processor buffers reports and query changes until the next tick,
// so the oracle's stores lag mid-batch — but WAL replay materializes
// every record immediately. The shadow tracks last-reported object and
// query parameters so mid-batch captures match what recovery rebuilds.
// At tick boundaries the shadow and the oracle's stores coincide.
struct Shadow {
  std::map<ObjectId, PersistedObject> objects;
  std::map<QueryId, PersistedQuery> queries;
};

void ApplyShadow(const Op& op, Shadow* shadow) {
  switch (op.kind) {
    case Op::kReportObject:
    case Op::kReportPredictive: {
      PersistedObject o;
      o.id = op.oid;
      o.loc = op.p;
      o.t = op.t;
      if (op.kind == Op::kReportPredictive) {
        o.vel = op.vel;
        o.predictive = true;
      }
      shadow->objects[op.oid] = o;
      break;
    }
    case Op::kRemoveObject:
      shadow->objects.erase(op.oid);
      break;
    case Op::kRegisterRange:
    case Op::kRegisterKnn:
    case Op::kRegisterCircle:
    case Op::kRegisterPredictive: {
      PersistedQuery q;
      q.id = op.qid;
      q.kind = op.qkind;
      q.owner = op.cid;
      if (op.kind == Op::kRegisterRange || op.kind == Op::kRegisterPredictive) {
        q.region = op.rect;
      } else {
        q.center = op.p;
      }
      q.k = op.k;
      q.radius = op.radius;
      q.t_from = op.t_from;
      q.t_to = op.t_to;
      shadow->queries[op.qid] = q;
      break;
    }
    case Op::kMoveQuery: {
      PersistedQuery& q = shadow->queries[op.qid];
      if (op.qkind == QueryKind::kRange ||
          op.qkind == QueryKind::kPredictiveRange) {
        q.region = op.rect;
      } else {
        q.center = op.p;
      }
      break;
    }
    case Op::kUnregisterQuery:
      shadow->queries.erase(op.qid);
      break;
    case Op::kCommitQuery:
    case Op::kTick:
    case Op::kCheckpoint:
      break;
  }
}

// Commits and last_tick come from the oracle server (both are applied
// immediately there); objects and queries come from the shadow.
PersistedState ShadowCapture(const Server& oracle, const Shadow& shadow) {
  PersistedState state = CapturePersistedState(oracle);
  state.objects.clear();
  for (const auto& [id, o] : shadow.objects) state.objects.push_back(o);
  state.queries.clear();
  for (const auto& [id, q] : shadow.queries) state.queries.push_back(q);
  return state;  // std::map iteration keeps both sorted by id
}

PersistentServer::Options TortureOptions(FaultInjectionEnv* env,
                                         int num_shards = 1) {
  PersistentServer::Options options;
  options.server.processor.grid_cells_per_side = 8;
  options.server.processor.num_shards = num_shards;
  options.dir = kDir;
  options.env = env;
  return options;
}

struct DriveResult {
  // Oracle state after every acknowledged op; [0] is the initial empty
  // state. The final entry may be *speculative*: when an op failed
  // mid-logging, its records may or may not survive a torn crash, so the
  // oracle state with that op applied is also a legal recovery target.
  std::vector<PersistedState> captures;
  // Index into `captures` of the last completed sync boundary (Tick or
  // Checkpoint): the exact recovery target under kDropAll loss.
  size_t last_synced = 0;
};

// Replays `script` against a PersistentServer on `env` and a plain
// in-memory oracle Server. Only acknowledged operations reach the oracle;
// driving stops at the first injected failure (the server is degraded and
// refuses everything afterwards anyway). The PersistentServer is
// destroyed without Close() — destruction models the process dying.
DriveResult Drive(const std::vector<Op>& script, FaultInjectionEnv* env,
                  int num_shards = 1) {
  DriveResult result;
  result.captures.push_back(PersistedState{});
  PersistentServer ps(TortureOptions(env, num_shards));
  Server oracle(TortureOptions(env, num_shards).server);
  Shadow shadow;
  if (!ps.Open().ok()) return result;
  for (ClientId cid = 1; cid <= 3; ++cid) {
    STQ_CHECK(ps.AttachClient(cid).ok());
    STQ_CHECK(oracle.AttachClient(cid).ok());
  }
  for (const Op& op : script) {
    if (ps.degraded()) break;
    if (op.kind == Op::kTick) {
      ps.Tick(op.t);
      oracle.Tick(op.t);
      result.captures.push_back(ShadowCapture(oracle, shadow));
      if (ps.degraded()) break;  // tick logged but not synced: speculative
      result.last_synced = result.captures.size() - 1;
    } else if (op.kind == Op::kCheckpoint) {
      const bool ok = ps.Checkpoint().ok();
      result.captures.push_back(ShadowCapture(oracle, shadow));
      if (!ok) break;
      result.last_synced = result.captures.size() - 1;
    } else {
      const Status s = ApplyOp(op, &ps);
      // The persistent server applies in-memory before logging, so even a
      // failed (unacknowledged) op is a legal torn-crash recovery target;
      // record it speculatively and stop.
      STQ_CHECK(ApplyOp(op, &oracle).ok()) << s.ToString();
      ApplyShadow(op, &shadow);
      result.captures.push_back(ShadowCapture(oracle, shadow));
      if (!s.ok()) break;
    }
  }
  return result;
}

std::string Describe(const PersistedState& s) {
  return "objects=" + std::to_string(s.objects.size()) +
         " queries=" + std::to_string(s.queries.size()) +
         " commits=" + std::to_string(s.commits.size()) +
         " last_tick=" + std::to_string(s.last_tick);
}

// Reopens the repository after a crash and checks strict equality with
// the oracle capture plus a full invariant audit.
void VerifyExactRecovery(FaultInjectionEnv* env, const PersistedState& expect,
                         const std::string& what, int num_shards = 1) {
  PersistentServer recovered(TortureOptions(env, num_shards));
  ASSERT_TRUE(recovered.Open().ok()) << what;
  const PersistedState got = CapturePersistedState(recovered.server());
  EXPECT_TRUE(got == expect) << what << ": recovered " << Describe(got)
                             << " but oracle has " << Describe(expect);
  const AuditReport report = InvariantAuditor().AuditServer(recovered.server());
  EXPECT_TRUE(report.ok()) << what << ": " << report.ToString();
  ASSERT_TRUE(recovered.Close().ok()) << what;
}

// Under torn (kKeepPrefix) loss the recovery target is not a single
// boundary: any acknowledged prefix at or after the last sync is legal.
// Each state component must match some capture in that window.
void ExpectPrefixConsistent(const PersistedState& got, const DriveResult& r,
                            const std::string& what) {
  bool objects = false, queries = false, commits = false, tick = false;
  for (size_t i = r.last_synced; i < r.captures.size(); ++i) {
    objects = objects || got.objects == r.captures[i].objects;
    queries = queries || got.queries == r.captures[i].queries;
    commits = commits || got.commits == r.captures[i].commits;
    tick = tick || got.last_tick == r.captures[i].last_tick;
  }
  EXPECT_TRUE(objects) << what << ": recovered objects match no acked prefix";
  EXPECT_TRUE(queries) << what << ": recovered queries match no acked prefix";
  EXPECT_TRUE(commits) << what << ": recovered commits match no acked prefix";
  EXPECT_TRUE(tick) << what << ": recovered last_tick matches no acked prefix";
}

// Runs the script fault-free to measure the total number of I/O calls the
// workload makes (the size of the deterministic crash sweep).
uint64_t CleanRunOps(const std::vector<Op>& script, int num_shards = 1) {
  FaultInjectionEnv env;
  const DriveResult clean = Drive(script, &env, num_shards);
  STQ_CHECK(clean.captures.size() == script.size() + 1)
      << "clean run did not acknowledge every op";
  return env.op_count();
}

// Crash at *every* I/O call the workload makes, with full loss of
// unsynced data, and require exact recovery to the last sync boundary.
TEST(CrashTortureTest, DeterministicSweepRecoversExactlyAtSyncBoundary) {
  struct Config {
    uint64_t seed;
    int ticks, ops_per_tick, checkpoint_every;
  };
  uint64_t total_points = 0;
  for (const Config& cfg : {Config{7, 8, 8, 3}, Config{21, 6, 8, 0}}) {
    const std::vector<Op> script =
        MakeScript(cfg.seed, cfg.ticks, cfg.ops_per_tick, cfg.checkpoint_every);
    const uint64_t total_ops = CleanRunOps(script);
    for (uint64_t k = 0; k < total_ops; ++k) {
      FaultInjectionEnv env;
      env.CrashAfterOps(k);
      const DriveResult r = Drive(script, &env);
      env.SimulateCrash(UnsyncedLoss::kDropAll);
      VerifyExactRecovery(&env, r.captures[r.last_synced],
                          "seed " + std::to_string(cfg.seed) +
                              " crash at I/O op " + std::to_string(k));
      if (HasFatalFailure()) return;
      ++total_points;
    }
  }
  // The acceptance bar for the harness: several hundred distinct,
  // deterministic crash points per run.
  EXPECT_GE(total_points, 200u);
}

// Crash at random I/O points with torn loss (partial WAL tails,
// half-applied directory journals) and require recovery to land on an
// acknowledged prefix, pass the audit, and survive a checkpoint+reopen.
TEST(CrashTortureTest, RandomizedTornCrashesRecoverToAckedPrefix) {
  int seeds = 24;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, single-threaded
  if (const char* from_env = std::getenv("STQ_TORTURE_SEEDS")) {
    seeds = std::max(1, std::atoi(from_env));
  }
  const std::vector<Op> script = MakeScript(5, 8, 8, 4);
  const uint64_t total_ops = CleanRunOps(script);
  for (int seed = 1; seed <= seeds; ++seed) {
    Xorshift128Plus rng(0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(seed));
    const uint64_t k = rng.NextUint64(total_ops);
    const std::string what =
        "torn seed " + std::to_string(seed) + " crash at I/O op " +
        std::to_string(k);
    FaultInjectionEnv env;
    env.CrashAfterOps(k);
    const DriveResult r = Drive(script, &env);
    env.SimulateCrash(UnsyncedLoss::kKeepPrefix, rng.NextUint64());

    PersistentServer recovered(TortureOptions(&env));
    ASSERT_TRUE(recovered.Open().ok()) << what;
    const PersistedState got = CapturePersistedState(recovered.server());
    ExpectPrefixConsistent(got, r, what);
    const AuditReport report =
        InvariantAuditor().AuditServer(recovered.server());
    EXPECT_TRUE(report.ok()) << what << ": " << report.ToString();

    // The recovered server must be fully operational: checkpoint it and
    // reopen — the state must round-trip bit-exactly.
    ASSERT_TRUE(recovered.Checkpoint().ok()) << what;
    ASSERT_TRUE(recovered.Close().ok()) << what;
    PersistentServer reopened(TortureOptions(&env));
    ASSERT_TRUE(reopened.Open().ok()) << what;
    EXPECT_TRUE(CapturePersistedState(reopened.server()) == got)
        << what << ": checkpoint+reopen did not round-trip";
    ASSERT_TRUE(reopened.Close().ok()) << what;
  }
}

// The same deterministic sweep with the engine running 4 spatial
// shards: recovery replays through the sharded engine, and the post-
// recovery audit includes the per-shard and cross-shard checks. A stride
// keeps this leg cheaper than the exhaustive single-grid sweep while
// still covering crash points in every phase of the workload.
TEST(CrashTortureTest, ShardedDeterministicSweepRecoversAtSyncBoundary) {
  constexpr int kShards = 4;
  const std::vector<Op> script = MakeScript(13, 6, 8, 3);
  const uint64_t total_ops = CleanRunOps(script, kShards);
  for (uint64_t k = 0; k < total_ops; k += 5) {
    FaultInjectionEnv env;
    env.CrashAfterOps(k);
    const DriveResult r = Drive(script, &env, kShards);
    env.SimulateCrash(UnsyncedLoss::kDropAll);
    VerifyExactRecovery(&env, r.captures[r.last_synced],
                        "sharded crash at I/O op " + std::to_string(k),
                        kShards);
    if (HasFatalFailure()) return;
  }
}

// Crashing *during recovery* must not lose ground: a second recovery
// still lands exactly on the pre-crash sync boundary.
TEST(CrashTortureTest, CrashDuringRecoveryStillLandsOnBoundary) {
  const std::vector<Op> script = MakeScript(11, 6, 8, 3);
  const uint64_t total_ops = CleanRunOps(script);
  for (const uint64_t k :
       {total_ops / 4, total_ops / 2, (3 * total_ops) / 4, total_ops - 2}) {
    for (uint64_t j = 0; j < 12; ++j) {
      const std::string what = "first crash at op " + std::to_string(k) +
                               ", recovery crash at op " + std::to_string(j);
      FaultInjectionEnv env;
      env.CrashAfterOps(k);
      const DriveResult r = Drive(script, &env);
      env.SimulateCrash(UnsyncedLoss::kDropAll);
      const PersistedState& expect = r.captures[r.last_synced];
      {
        env.CrashAfterOps(j);
        PersistentServer wounded(TortureOptions(&env));
        const Status s = wounded.Open();
        if (s.ok()) (void)wounded.Close();  // may fail on the budget; fine
      }
      env.SimulateCrash(UnsyncedLoss::kDropAll);
      VerifyExactRecovery(&env, expect, what);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace stq
