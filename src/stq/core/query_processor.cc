#include "stq/core/query_processor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "stq/common/alloc_stats.h"
#include "stq/common/check.h"
#include "stq/core/grid_refiner.h"
#include "stq/core/invariant_auditor.h"
#include "stq/core/sharded_server.h"

namespace stq {

namespace {

// Input validation: every public entry point checks its floating-point
// arguments here. NaN would slip through every clamp and comparison
// downstream (a NaN timestamp is never stale), and an infinite
// coordinate turns cell arithmetic into NaN.
bool IsFinite(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

bool IsFinite(const Rect& r) {
  return std::isfinite(r.min_x) && std::isfinite(r.min_y) &&
         std::isfinite(r.max_x) && std::isfinite(r.max_y);
}

Status NotFinite(const char* what) {
  std::ostringstream os;
  os << what << " must be finite";
  return Status::InvalidArgument(os.str());
}

Status UnknownQuery(QueryId id) {
  std::ostringstream os;
  os << "query " << id << " unknown";
  return Status::NotFound(os.str());
}

// The exact membership predicate of every query kind the grid holds.
bool Satisfies(const ObjectRecord& o, const QueryRecord& q,
               const QueryProcessorOptions& options) {
  switch (q.kind) {
    case QueryKind::kRange:
      return RangeEvaluator::Satisfies(o, q);
    case QueryKind::kPredictiveRange:
      return PredictiveEvaluator::Satisfies(o, q, options);
    case QueryKind::kCircleRange:
      return CircleEvaluator::Satisfies(o, q, options.bounds);
    case QueryKind::kKnn:
      break;
  }
  STQ_DCHECK(false) << "k-NN query " << q.id << " in the grid";
  return false;
}

}  // namespace

QueryProcessor::QueryProcessor(const QueryProcessorOptions& options)
    : QueryProcessor(options, options.grid_cells_per_side,
                     options.grid_cells_per_side) {}

QueryProcessor::QueryProcessor(const QueryProcessorOptions& options,
                               int cells_x, int cells_y)
    : options_(options),
      history_(options.record_history ? std::make_unique<HistoryStore>()
                                      : nullptr),
      // In sharded mode the engine owns the pool and all spatial state;
      // the front keeps only a 1-cell placeholder grid so the evaluator
      // members stay valid.
      pool_(options.num_shards <= 1 &&
                    ThreadPool::ResolveWorkers(options.worker_threads) > 1
                ? std::make_unique<ThreadPool>(
                      ThreadPool::ResolveWorkers(options.worker_threads))
                : nullptr),
      grid_(std::make_unique<GridIndex>(options_.bounds,
                                        options.num_shards > 1 ? 1 : cells_x,
                                        options.num_shards > 1 ? 1 : cells_y)),
      range_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      knn_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      predictive_(EngineState{grid_.get(), &objects_, &queries_, &options_}),
      circle_(EngineState{grid_.get(), &objects_, &queries_, &options_}) {
  STQ_CHECK(options_.Validate()) << "invalid QueryProcessorOptions";
  if (options_.num_shards > 1) {
    sharded_ = std::make_unique<ShardedEngine>(options_);
  } else if (options_.adaptive.enabled) {
    refiner_ = std::make_unique<GridRefiner>(options_.adaptive, grid_.get());
  }
}

QueryProcessor::~QueryProcessor() = default;

EngineState QueryProcessor::state() {
  return EngineState{grid_.get(), &objects_, &queries_, &options_};
}

// ---------------------------------------------------------------------------
// Report ingestion: the one front for both engines
// ---------------------------------------------------------------------------

std::optional<Timestamp> QueryProcessor::AppliedReportTime(
    ObjectId id) const {
  if (sharded_ != nullptr) return sharded_->AppliedReportTime(id);
  if (const ObjectRecord* o = objects_.Find(id); o != nullptr) return o->t;
  return std::nullopt;
}

std::optional<QueryProcessor::CommittedQuery>
QueryProcessor::FindCommittedQuery(QueryId id) const {
  if (knn_monitor_.Find(id) != nullptr) {
    return CommittedQuery{QueryKind::kKnn, 0.0};
  }
  return FindEngineQuery(id);
}

std::optional<QueryProcessor::CommittedQuery>
QueryProcessor::FindEngineQuery(QueryId id) const {
  if (sharded_ != nullptr) return sharded_->FindCommittedQuery(id);
  if (const QueryRecord* q = queries_.Find(id); q != nullptr) {
    return CommittedQuery{q->kind, q->circle.radius};
  }
  return std::nullopt;
}

double QueryProcessor::LatestKnownReportTime(ObjectId id) const {
  // A pending removal wipes the history; a pending upsert supersedes the
  // applied record (its timestamp is what the engine will hold after the
  // next tick, and it may be older than the applied one when it follows
  // a removal). The buffer holds at most one of the two per id.
  if (buffer_.HasPendingRemove(id)) {
    return -std::numeric_limits<double>::infinity();
  }
  if (const PendingObjectUpsert* u = buffer_.FindPendingUpsert(id);
      u != nullptr) {
    return u->t;
  }
  return AppliedReportTime(id).value_or(
      -std::numeric_limits<double>::infinity());
}

Point QueryProcessor::ClampLocation(const Point& loc) const {
  return Point{std::clamp(loc.x, options_.bounds.min_x, options_.bounds.max_x),
               std::clamp(loc.y, options_.bounds.min_y, options_.bounds.max_y)};
}

Status QueryProcessor::UpsertObject(ObjectId id, const Point& loc,
                                    Timestamp t) {
  if (!IsFinite(loc)) return NotFinite("object location");
  if (!std::isfinite(t)) return NotFinite("report time");
  if (t < LatestKnownReportTime(id)) {
    return Status::InvalidArgument("stale object report");
  }
  buffer_.AddObjectUpsert(PendingObjectUpsert{id, ClampLocation(loc),
                                              Velocity{}, t,
                                              /*predictive=*/false});
  return Status::OK();
}

Status QueryProcessor::UpsertPredictiveObject(ObjectId id, const Point& loc,
                                              const Velocity& vel,
                                              Timestamp t) {
  if (!IsFinite(loc)) return NotFinite("object location");
  if (!std::isfinite(vel.vx) || !std::isfinite(vel.vy)) {
    return NotFinite("object velocity");
  }
  if (!std::isfinite(t)) return NotFinite("report time");
  if (t < LatestKnownReportTime(id)) {
    return Status::InvalidArgument("stale object report");
  }
  buffer_.AddObjectUpsert(PendingObjectUpsert{id, ClampLocation(loc), vel, t,
                                              /*predictive=*/true});
  return Status::OK();
}

Status QueryProcessor::RemoveObject(ObjectId id) {
  const bool applied = AppliedReportTime(id).has_value();
  if (!applied && !buffer_.HasPendingUpsert(id)) {
    std::ostringstream os;
    os << "object " << id << " unknown";
    return Status::NotFound(os.str());
  }
  buffer_.AddObjectRemove(id, applied);
  return Status::OK();
}

Status QueryProcessor::ValidateQueryRegistration(QueryId id) const {
  const bool live = HasQuery(id) && !buffer_.HasPendingQueryUnregister(id);
  if (live || buffer_.HasPendingQueryRegister(id)) {
    std::ostringstream os;
    os << "query " << id << " already registered";
    return Status::AlreadyExists(os.str());
  }
  return Status::OK();
}

Result<QueryKind> QueryProcessor::EffectiveQueryKind(QueryId id) const {
  if (const PendingQueryChange* pending = buffer_.FindPendingQueryChange(id);
      pending != nullptr) {
    switch (pending->kind) {
      case QueryChangeKind::kRegisterRange:
        return QueryKind::kRange;
      case QueryChangeKind::kRegisterKnn:
        return QueryKind::kKnn;
      case QueryChangeKind::kRegisterPredictive:
        return QueryKind::kPredictiveRange;
      case QueryChangeKind::kRegisterCircle:
        return QueryKind::kCircleRange;
      case QueryChangeKind::kUnregister: {
        std::ostringstream os;
        os << "query " << id << " pending unregistration";
        return Status::NotFound(os.str());
      }
      case QueryChangeKind::kMove:
        break;  // fall through to the committed kind
    }
  }
  if (const std::optional<CommittedQuery> q = FindCommittedQuery(id)) {
    return q->kind;
  }
  return UnknownQuery(id);
}

Rect QueryProcessor::ClampRegion(const Rect& region) const {
  return region.Intersection(options_.bounds);
}

Status QueryProcessor::RegisterRangeQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NotFinite("query region");
  const Rect clamped = ClampRegion(region);
  if (clamped.IsEmpty()) {
    return Status::InvalidArgument(
        "range query region must overlap the space bounds");
  }
  STQ_RETURN_IF_ERROR(ValidateQueryRegistration(id));
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterRange;
  c.id = id;
  c.region = clamped;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::MoveRangeQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NotFinite("query region");
  const Rect clamped = ClampRegion(region);
  if (clamped.IsEmpty()) {
    return Status::InvalidArgument(
        "range query region must overlap the space bounds");
  }
  Result<QueryKind> kind = EffectiveQueryKind(id);
  if (!kind.ok()) return kind.status();
  if (*kind != QueryKind::kRange) {
    return Status::InvalidArgument("query is not a range query");
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kMove;
  c.id = id;
  c.region = clamped;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::RegisterKnnQuery(QueryId id, const Point& center,
                                        int k) {
  if (!IsFinite(center)) return NotFinite("query center");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  STQ_RETURN_IF_ERROR(ValidateQueryRegistration(id));
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterKnn;
  c.id = id;
  c.center = center;
  c.k = k;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::MoveKnnQuery(QueryId id, const Point& center) {
  if (!IsFinite(center)) return NotFinite("query center");
  Result<QueryKind> kind = EffectiveQueryKind(id);
  if (!kind.ok()) return kind.status();
  if (*kind != QueryKind::kKnn) {
    return Status::InvalidArgument("query is not a k-NN query");
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kMove;
  c.id = id;
  c.center = center;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::RegisterCircleQuery(QueryId id, const Point& center,
                                           double radius) {
  if (!IsFinite(center)) return NotFinite("query center");
  if (!std::isfinite(radius)) return NotFinite("circle radius");
  if (radius <= 0.0) {
    return Status::InvalidArgument("circle radius must be positive");
  }
  if (ClampRegion(Circle{center, radius}.BoundingBox()).IsEmpty()) {
    return Status::InvalidArgument(
        "circle query must overlap the space bounds");
  }
  STQ_RETURN_IF_ERROR(ValidateQueryRegistration(id));
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterCircle;
  c.id = id;
  c.center = center;
  c.radius = radius;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::MoveCircleQuery(QueryId id, const Point& center) {
  if (!IsFinite(center)) return NotFinite("query center");
  Result<QueryKind> kind = EffectiveQueryKind(id);
  if (!kind.ok()) return kind.status();
  if (*kind != QueryKind::kCircleRange) {
    return Status::InvalidArgument("query is not a circular range query");
  }
  // The disk must keep overlapping the space; its radius is stored either
  // in the committed query or the pending registration.
  double radius = 0.0;
  if (const PendingQueryChange* pending = buffer_.FindPendingQueryChange(id);
      pending != nullptr &&
      pending->kind == QueryChangeKind::kRegisterCircle) {
    radius = pending->radius;
  } else if (const std::optional<CommittedQuery> q = FindCommittedQuery(id)) {
    radius = q->radius;
  }
  if (ClampRegion(Circle{center, radius}.BoundingBox()).IsEmpty()) {
    return Status::InvalidArgument(
        "circle query must overlap the space bounds");
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kMove;
  c.id = id;
  c.center = center;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::RegisterPredictiveQuery(QueryId id, const Rect& region,
                                               double t_from, double t_to) {
  if (!IsFinite(region)) return NotFinite("query region");
  if (!std::isfinite(t_from) || !std::isfinite(t_to)) {
    return NotFinite("predictive window");
  }
  const Rect clamped = ClampRegion(region);
  if (clamped.IsEmpty()) {
    return Status::InvalidArgument(
        "predictive query region must overlap the space bounds");
  }
  if (t_to < t_from) {
    return Status::InvalidArgument("predictive window must have t_from <= t_to");
  }
  STQ_RETURN_IF_ERROR(ValidateQueryRegistration(id));
  PendingQueryChange c;
  c.kind = QueryChangeKind::kRegisterPredictive;
  c.id = id;
  c.region = clamped;
  c.t_from = t_from;
  c.t_to = t_to;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::MovePredictiveQuery(QueryId id, const Rect& region) {
  if (!IsFinite(region)) return NotFinite("query region");
  const Rect clamped = ClampRegion(region);
  if (clamped.IsEmpty()) {
    return Status::InvalidArgument(
        "predictive query region must overlap the space bounds");
  }
  Result<QueryKind> kind = EffectiveQueryKind(id);
  if (!kind.ok()) return kind.status();
  if (*kind != QueryKind::kPredictiveRange) {
    return Status::InvalidArgument("query is not a predictive query");
  }
  PendingQueryChange c;
  c.kind = QueryChangeKind::kMove;
  c.id = id;
  c.region = clamped;
  buffer_.AddQueryChange(c, HasQuery(id));
  return Status::OK();
}

Status QueryProcessor::UnregisterQuery(QueryId id) {
  const bool committed = HasQuery(id);
  const bool live = committed && !buffer_.HasPendingQueryUnregister(id);
  if (!live && !buffer_.HasPendingQueryRegister(id)) return UnknownQuery(id);
  PendingQueryChange c;
  c.kind = QueryChangeKind::kUnregister;
  c.id = id;
  buffer_.AddQueryChange(c, committed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Tick phases
// ---------------------------------------------------------------------------

void QueryProcessor::ApplyObjectRemovals(const std::vector<ObjectId>& removals,
                                         std::vector<Update>* out,
                                         TickStats* stats) {
  for (ObjectId id : removals) {
    ObjectRecord* o = objects_.FindMutable(id);
    STQ_CHECK(o != nullptr) << "buffered removal of unknown object " << id;
    // Ship negatives for every answer the object participated in (copied:
    // SetMembership edits the QList under our feet).
    const auto memberships = o->queries;
    for (QueryId qid : memberships) {
      QueryRecord* q = queries_.FindMutable(qid);
      STQ_DCHECK(q != nullptr);
      SetMembership(o, q, false, out);
    }
    if (o->predictive) {
      grid_->RemoveObjectFootprint(id, o->footprint);
    } else {
      grid_->RemoveObject(id, o->loc);
    }
    objects_.Erase(id);
    ++stats->object_removals_applied;
  }
}

void QueryProcessor::ApplyObjectUpserts(
    const std::vector<PendingObjectUpsert>& upserts,
    std::vector<ObjectId>* moved, TickStats* stats) {
  for (const PendingObjectUpsert& u : upserts) {
    ObjectRecord* o = objects_.FindMutable(u.id);
    if (o == nullptr) {
      ObjectRecord rec;
      rec.id = u.id;
      rec.loc = u.loc;
      rec.vel = u.predictive ? u.vel : Velocity{};
      rec.t = u.t;
      rec.predictive = u.predictive;
      if (rec.predictive) {
        rec.footprint = rec.trajectory().FootprintBetween(
            rec.t, rec.t + options_.prediction_horizon);
        grid_->InsertObjectFootprint(rec.id, rec.footprint);
      } else {
        grid_->InsertObject(rec.id, rec.loc);
      }
      objects_.Insert(std::move(rec));
    } else {
      if (o->predictive) {
        grid_->RemoveObjectFootprint(o->id, o->footprint);
      } else {
        grid_->RemoveObject(o->id, o->loc);
      }
      o->loc = u.loc;
      o->vel = u.predictive ? u.vel : Velocity{};
      o->t = u.t;
      o->predictive = u.predictive;
      if (o->predictive) {
        o->footprint = o->trajectory().FootprintBetween(
            o->t, o->t + options_.prediction_horizon);
        grid_->InsertObjectFootprint(o->id, o->footprint);
      } else {
        grid_->InsertObject(o->id, o->loc);
      }
    }
    moved->push_back(u.id);
    ++stats->object_updates_applied;
  }
}

void QueryProcessor::DropQueryRecord(QueryId id, TickStats* stats) {
  QueryRecord* q = queries_.FindMutable(id);
  STQ_CHECK(q != nullptr) << "dropping unknown query " << id;
  for (ObjectId oid : q->answer) {
    ObjectRecord* o = objects_.FindMutable(oid);
    STQ_DCHECK(o != nullptr);
    ObjectStore::RemoveQuery(o, id);
  }
  if (!q->grid_footprint.IsEmpty()) {
    grid_->RemoveQuery(id, q->grid_footprint);
  }
  queries_.Erase(id);
  ++stats->queries_unregistered;
}

void QueryProcessor::ApplyQueryChanges(
    const std::vector<PendingQueryChange>& changes, Timestamp now,
    std::vector<std::pair<QueryId, Rect>>* changed_rects,
    std::vector<QueryId>* moved_circles, TickStats* stats) {
  for (const PendingQueryChange& c : changes) {
    // A Register for an id still present in the store means the client
    // unregistered and re-registered within one period: drop the old
    // incarnation first.
    if (c.kind != QueryChangeKind::kMove &&
        c.kind != QueryChangeKind::kUnregister && queries_.Contains(c.id)) {
      DropQueryRecord(c.id, stats);
    }
    switch (c.kind) {
      case QueryChangeKind::kUnregister: {
        DropQueryRecord(c.id, stats);
        break;
      }
      case QueryChangeKind::kRegisterRange: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kRange;
        rec.region = c.region;
        rec.t = now;
        rec.grid_footprint = c.region;
        grid_->InsertQuery(c.id, c.region);
        queries_.Insert(std::move(rec));
        changed_rects->emplace_back(c.id, Rect::Empty());
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kRegisterPredictive: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kPredictiveRange;
        rec.region = c.region;
        rec.t_from = c.t_from;
        rec.t_to = c.t_to;
        rec.t = now;
        rec.grid_footprint = c.region;
        grid_->InsertQuery(c.id, c.region);
        queries_.Insert(std::move(rec));
        changed_rects->emplace_back(c.id, Rect::Empty());
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kRegisterKnn:
        STQ_CHECK(false) << "k-NN registrations stay with the front";
        break;
      case QueryChangeKind::kRegisterCircle: {
        QueryRecord rec;
        rec.id = c.id;
        rec.kind = QueryKind::kCircleRange;
        rec.circle = Circle{c.center, c.radius};
        rec.t = now;
        rec.grid_footprint =
            CircleEvaluator::FootprintOf(rec, options_.bounds);
        grid_->InsertQuery(c.id, rec.grid_footprint);
        queries_.Insert(std::move(rec));
        moved_circles->push_back(c.id);  // first evaluation
        ++stats->query_changes_applied;
        break;
      }
      case QueryChangeKind::kMove: {
        QueryRecord* q = queries_.FindMutable(c.id);
        STQ_CHECK(q != nullptr) << "buffered move of unknown query";
        q->t = now;
        if (q->kind == QueryKind::kCircleRange) {
          q->circle.center = c.center;
          const Rect footprint =
              CircleEvaluator::FootprintOf(*q, options_.bounds);
          if (!(footprint == q->grid_footprint)) {
            if (!q->grid_footprint.IsEmpty()) {
              grid_->RemoveQuery(c.id, q->grid_footprint);
            }
            if (!footprint.IsEmpty()) grid_->InsertQuery(c.id, footprint);
            q->grid_footprint = footprint;
          }
          moved_circles->push_back(c.id);
        } else {
          const Rect old_region = q->region;
          q->region = c.region;
          grid_->RemoveQuery(c.id, q->grid_footprint);
          grid_->InsertQuery(c.id, c.region);
          q->grid_footprint = c.region;
          changed_rects->emplace_back(c.id, old_region);
        }
        ++stats->query_changes_applied;
        break;
      }
    }
  }
}

void QueryProcessor::RunQueryPass(
    const std::vector<std::pair<QueryId, Rect>>& changed,
    const std::vector<QueryId>& moved_circles, std::vector<Update>* out) {
  for (const auto& [qid, old_region] : changed) {
    QueryRecord* q = queries_.FindMutable(qid);
    STQ_DCHECK(q != nullptr);
    if (q->kind == QueryKind::kRange) {
      range_.OnQueryRegionChanged(q, old_region, out);
    } else {
      STQ_DCHECK(q->kind == QueryKind::kPredictiveRange);
      predictive_.OnQueryRegionChanged(q, old_region, out);
    }
  }
  for (QueryId qid : moved_circles) {
    QueryRecord* q = queries_.FindMutable(qid);
    STQ_DCHECK(q != nullptr && q->kind == QueryKind::kCircleRange);
    circle_.OnCircleMoved(q, out);
  }
}

void QueryProcessor::MatchObjectShard(const std::vector<ObjectId>& moved,
                                      size_t begin, size_t end,
                                      MatchOutput* out) const {
  // Read-only over the grid and both stores: every decision is recorded
  // as a delta intent and replayed later by ApplyMatchDeltas. Other
  // shards run this concurrently against the same state.
  std::vector<QueryId>& candidates = out->candidates;
  for (size_t i = begin; i < end; ++i) {
    const ObjectId oid = moved[i];
    const ObjectRecord* o = objects_.Find(oid);
    if (o == nullptr) continue;  // upserted then removed within the tick

    // Negative side: re-test every membership under the new report.
    for (QueryId qid : o->queries) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "QList references missing query " << qid;
      if (!Satisfies(*o, *q, options_)) {
        out->deltas.push_back(MatchDelta{qid, oid, false});
      }
    }

    // Positive side: candidate queries are those stubbed into the cells
    // the object's (new) footprint touches. A sampled mover's candidates
    // come from exactly one grid slot, so it is deferred into the
    // per-slot SoA batches (MatchProbeBatches below); a predictive
    // mover's footprint spans several slots, so it is probed here, one
    // candidate at a time.
    if (!o->predictive) {
      out->probes.push_back(
          SlotProbe{grid_->SlotKeyOfPoint(o->loc), oid, o->loc.x, o->loc.y,
                    o->t});
      continue;
    }
    grid_->CollectQueriesInRect(o->footprint.BoundingBox(), &candidates);
    for (QueryId qid : candidates) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "grid stub references missing query " << qid;
      if (Satisfies(*o, *q, options_)) {
        out->deltas.push_back(MatchDelta{qid, oid, true});
      }
    }
  }
  MatchProbeBatches(out);
}

void QueryProcessor::MatchProbeBatches(MatchOutput* out) const {
  // The deferred positive side of the object pass. Per (query, object)
  // pair this evaluates the exact predicate of the evaluators' Satisfies
  // (the predictive case reduces to the rect+window kernel because every
  // sampled object has zero velocity), against the same pre-pass state
  // the per-candidate loop above reads.
  std::vector<SlotProbe>& probes = out->probes;
  if (probes.empty()) return;
  std::sort(probes.begin(), probes.end(),
            [](const SlotProbe& a, const SlotProbe& b) {
              return a.slot != b.slot ? a.slot < b.slot : a.oid < b.oid;
            });
  CandidateBatch& b = out->batch;
  for (size_t g0 = 0; g0 < probes.size();) {
    size_t g1 = g0 + 1;
    while (g1 < probes.size() && probes[g1].slot == probes[g0].slot) ++g1;
    const size_t n = g1 - g0;
    b.clear();
    b.ids.reserve(n);
    for (size_t i = g0; i < g1; ++i) {
      const SlotProbe& p = probes[i];
      b.ids.push_back(p.oid);
      b.x.push_back(p.x);
      b.y.push_back(p.y);
      b.t.push_back(p.t);
    }
    const size_t words = MatchBitmapWords(n);
    b.bits.resize(words);
    b.bits2.resize(words);
    // All group members share one grid slot; its stub list (unique qids)
    // is the exact candidate set the degenerate point-rect walk produces
    // for each of them.
    grid_->ForEachQueryAt(Point{probes[g0].x, probes[g0].y}, [&](QueryId qid) {
      const QueryRecord* q = queries_.Find(qid);
      STQ_DCHECK(q != nullptr) << "grid stub references missing query " << qid;
      switch (q->kind) {
        case QueryKind::kRange:
          PointsInRect(b.x.data(), b.y.data(), n, q->region, b.bits.data());
          break;
        case QueryKind::kPredictiveRange:
          // Sampled movers have zero velocity, so the full trajectory
          // test reduces to rect containment AND a non-empty effective
          // window — the vectorizable kernel.
          PointsInRectWindow(b.x.data(), b.y.data(), b.t.data(), n,
                             q->region, q->t_from, q->t_to,
                             options_.prediction_horizon, b.bits.data());
          break;
        case QueryKind::kCircleRange:
          PointsInCircle(b.x.data(), b.y.data(), n, q->circle.center,
                         q->circle.radius * q->circle.radius, b.bits.data());
          PointsInRect(b.x.data(), b.y.data(), n, options_.bounds,
                       b.bits2.data());
          for (size_t w = 0; w < words; ++w) b.bits[w] &= b.bits2[w];
          break;
        case QueryKind::kKnn:
          STQ_DCHECK(false) << "k-NN query " << qid << " in the grid";
          return;
      }
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = b.bits[w];
        while (word != 0) {
          const size_t i =
              w * 64 + static_cast<size_t>(std::countr_zero(word));
          word &= word - 1;
          out->deltas.push_back(MatchDelta{qid, b.ids[i], true});
        }
      }
    });
    g0 = g1;
  }
}

void QueryProcessor::ApplyMatchDeltas(std::vector<MatchOutput>& outputs,
                                      std::vector<Update>* out) {
  // Shard order equals `moved` order, so this replay emits the same
  // update sequence the serial pass would have; SetMembership makes
  // duplicate decisions for one (query, object) pair no-ops.
  for (const MatchOutput& m : outputs) {
    for (const MatchDelta& d : m.deltas) {
      ObjectRecord* o = objects_.FindMutable(d.oid);
      QueryRecord* q = queries_.FindMutable(d.qid);
      STQ_DCHECK(o != nullptr && q != nullptr);
      SetMembership(o, q, d.add, out);
    }
  }
}

void QueryProcessor::RunObjectPass(const std::vector<ObjectId>& moved,
                                   std::vector<Update>* out,
                                   TickStats* stats) {
  const int shards = pool_ == nullptr ? 1 : pool_->num_workers();
  std::vector<MatchOutput>& outputs = scratch_.match_outputs;
  outputs.resize(static_cast<size_t>(shards));
  for (MatchOutput& m : outputs) m.clear();
  {
    PhaseTimer timer(&stats->object_match_seconds);
    if (pool_ != nullptr) {
      pool_->RunShards(moved.size(),
                       [&](int shard, size_t begin, size_t end) {
                         MatchObjectShard(moved, begin, end,
                                          &outputs[static_cast<size_t>(shard)]);
                       });
    } else {
      MatchObjectShard(moved, 0, moved.size(), &outputs[0]);
    }
  }
  PhaseTimer timer(&stats->object_apply_seconds);
  ApplyMatchDeltas(outputs, out);
}

TickResult QueryProcessor::EvaluateTick(Timestamp now) {
  if (now < last_tick_time_) {
    STQ_LOG(Warning) << "EvaluateTick time went backwards (" << now << " < "
                     << last_tick_time_ << ")";
  }
  last_tick_time_ = now;

  const uint64_t allocs_before = AllocCount();

  TickResult result;
  result.time = now;
  TickStats* stats = &result.stats;
  std::vector<Update>* out = &result.updates;

  // The batch lives in scratch_ and keeps its capacity across ticks;
  // Drain clears it before refilling.
  ReportBatch& batch = scratch_.batch;
  {
    // Drain + deterministic ordering: the front's share of the route
    // phase (the sharded router adds its routing decisions to the same
    // timer), so the ablation rows stay comparable across engine modes.
    PhaseTimer route_timer(&stats->shard_route_seconds);
    buffer_.Drain(&batch.upserts, &batch.removals, &batch.query_changes);

    // Deterministic processing order independent of hash-map iteration.
    std::sort(batch.upserts.begin(), batch.upserts.end(),
              [](const PendingObjectUpsert& a, const PendingObjectUpsert& b) {
                return a.id < b.id;
              });
    std::sort(batch.removals.begin(), batch.removals.end());
    std::sort(batch.query_changes.begin(), batch.query_changes.end(),
              [](const PendingQueryChange& a, const PendingQueryChange& b) {
                return a.id < b.id;
              });
  }
  if (history_ != nullptr) {
    for (ObjectId id : batch.removals) history_->RecordRemoval(id, now);
    for (const PendingObjectUpsert& u : batch.upserts) {
      history_->RecordReport(u.id, u.loc, u.t);
    }
  }

  // The k-NN queries are the front's: their changes leave the batch
  // before the engine sees it, and their answers refresh once the engine
  // has applied the rest, on whichever engine owns the pool.
  knn_monitor_.TakeChanges(
      &batch, [this](QueryId id) { return FindEngineQuery(id).has_value(); },
      out, stats);
  if (sharded_ != nullptr) {
    sharded_->TickBatch(batch, now, out, stats);
  } else {
    TickBatch(batch, now, out, stats);
  }
  knn_monitor_.Refresh(
      batch, num_objects(),
      sharded_ != nullptr ? sharded_->pool_.get() : pool_.get(),
      [this](const Point& center, KnnEvaluator::KBest* best) {
        SearchKnn(center, best);
      },
      out, stats);

  // Seal the tick.
  {
    // Canonicalization is the single-grid analogue of the sharded merge.
    PhaseTimer merge_timer(&stats->shard_merge_seconds);
    CanonicalizeUpdates(out);
  }
  for (const Update& u : *out) {
    if (u.sign == UpdateSign::kPositive) {
      ++stats->positive_updates;
    } else {
      ++stats->negative_updates;
    }
  }
  stats->bytes_resident = AnswerBytesResident();
  // The counter is global (all threads), so under the sharded engine this
  // already covers the per-shard ticks.
  stats->heap_allocations = AllocCount() - allocs_before;
  return result;
}

void QueryProcessor::TickBatch(const ReportBatch& batch, Timestamp now,
                               std::vector<Update>* out, TickStats* stats) {
  std::vector<ObjectId>& moved = scratch_.moved;
  std::vector<std::pair<QueryId, Rect>>& changed_rects = scratch_.changed_rects;
  std::vector<QueryId>& moved_circles = scratch_.moved_circles;
  moved.clear();
  changed_rects.clear();
  moved_circles.clear();

  // The single grid is one "shard": wall == busy == max over phases 1-5.
  // Populated in every mode so the ablation's single-grid baseline row is
  // directly comparable to the sharded rows.
  double tick_wall = 0.0;
  {
    PhaseTimer wall_timer(&tick_wall);
    // Phase 1: removals leave the engine (negatives for their
    // memberships).
    {
      PhaseTimer timer(&stats->removals_seconds);
      ApplyObjectRemovals(batch.removals, out, stats);
    }
    // Phase 2: bring every object's state (store + grid) up to date.
    {
      PhaseTimer timer(&stats->upserts_seconds);
      ApplyObjectUpserts(batch.upserts, &moved, stats);
    }
    // Phase 3: bring every query's state up to date.
    {
      PhaseTimer timer(&stats->query_changes_seconds);
      ApplyQueryChanges(batch.query_changes, now, &changed_rects,
                        &moved_circles, stats);
    }
    // Phase 4: incremental evaluation of changed range/predictive/circle
    // regions.
    {
      PhaseTimer timer(&stats->query_pass_seconds);
      RunQueryPass(changed_rects, moved_circles, out);
    }
    // Phase 5: incremental evaluation of moved/new objects (parallel
    // match, serial apply; times the halves into
    // object_match/apply_seconds).
    RunObjectPass(moved, out, stats);
  }
  stats->shards_ticked = 1;
  stats->shard_tick_wall_seconds += tick_wall;
  stats->shard_tick_busy_seconds += tick_wall;
  stats->shard_tick_max_seconds =
      std::max(stats->shard_tick_max_seconds, tick_wall);

  // Phase 6 (adaptive mode only): resolution maintenance on the
  // now-committed state. Pure index re-bucketing — it never touches the
  // update stream, and the next tick's exact-geometry matching is
  // resolution-independent, so this is invisible in every future stream.
  if (refiner_ != nullptr) {
    PhaseTimer timer(&stats->adapt_seconds);
    const GridRefiner::StepStats adapt = refiner_->Tick(objects_, queries_);
    stats->cells_split = adapt.splits;
    stats->cells_merged = adapt.merges;
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<std::vector<ObjectId>> QueryProcessor::CurrentAnswer(
    QueryId id) const {
  if (!HasQuery(id)) return UnknownQuery(id);
  if (const KnnMonitor::Query* q = knn_monitor_.Find(id)) return q->answer;
  if (sharded_ != nullptr) return sharded_->CurrentAnswer(id);
  return queries_.Find(id)->SortedAnswer();
}

Result<std::vector<ObjectId>> QueryProcessor::EvaluateFromScratch(
    QueryId id) const {
  if (!HasQuery(id)) return UnknownQuery(id);
  std::vector<ObjectId> answer;
  if (const KnnMonitor::Query* q = knn_monitor_.Find(id)) {
    answer = KnnEvaluator::NearestByBruteForce(
        q->center, q->k, [&](auto&& visit) {
          ForEachObjectInfo([&](const ObjectInfo& o) { visit(o.id, o.loc); });
        });
  } else if (sharded_ != nullptr) {
    return sharded_->EvaluateFromScratch(id);
  } else {
    const QueryRecord* q = queries_.Find(id);
    objects_.ForEach([&](const ObjectRecord& o) {
      if (Satisfies(o, *q, options_)) answer.push_back(o.id);
    });
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

void QueryProcessor::SearchKnn(const Point& center,
                               KnnEvaluator::KBest* best) const {
  if (sharded_ != nullptr) {
    sharded_->SearchKnn(center, best);
  } else {
    knn_.Search(center, best);
  }
}

std::vector<ObjectId> QueryProcessor::SearchKnn(const Point& center,
                                                int k) const {
  std::vector<KnnEvaluator::Neighbor> found(
      KnnEvaluator::AnswerSlots::Capacity(k, num_objects()));
  KnnEvaluator::KBest best{found.data(), found.size(), 0};
  SearchKnn(center, &best);
  std::vector<ObjectId> ids;
  ids.reserve(best.size);
  for (size_t i = 0; i < best.size; ++i) ids.push_back(found[i].id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<ObjectId>> QueryProcessor::EvaluatePastRangeQuery(
    const Rect& region, Timestamp t) const {
  if (!IsFinite(region)) return NotFinite("query region");
  if (!std::isfinite(t)) return NotFinite("query time");
  if (history_ == nullptr) {
    return Status::FailedPrecondition(
        "past queries require QueryProcessorOptions::record_history");
  }
  return history_->RangeAt(ClampRegion(region), t);
}

int QueryProcessor::worker_threads() const {
  if (sharded_ != nullptr) return sharded_->worker_threads();
  return pool_ == nullptr ? 1 : pool_->num_workers();
}

size_t QueryProcessor::num_objects() const {
  return sharded_ != nullptr ? sharded_->num_objects() : objects_.size();
}

size_t QueryProcessor::num_queries() const {
  return knn_monitor_.size() +
         (sharded_ != nullptr ? sharded_->num_queries() : queries_.size());
}

size_t QueryProcessor::pending_reports() const {
  return buffer_.pending_object_ops() + buffer_.pending_query_ops();
}

bool QueryProcessor::HasQuery(QueryId id) const {
  return FindCommittedQuery(id).has_value();
}

const ObjectStore& QueryProcessor::object_store() const {
  STQ_CHECK(sharded_ == nullptr)
      << "object_store() is single-grid only; use sharded_engine()->shard(s)";
  return objects_;
}

const QueryStore& QueryProcessor::query_store() const {
  STQ_CHECK(sharded_ == nullptr)
      << "query_store() is single-grid only; use sharded_engine()->shard(s)";
  return queries_;
}

const GridIndex& QueryProcessor::grid() const {
  STQ_CHECK(sharded_ == nullptr)
      << "grid() is single-grid only; use sharded_engine()->shard(s)";
  return *grid_;
}

ObjectStore& QueryProcessor::object_store_for_testing() {
  STQ_CHECK(sharded_ == nullptr)
      << "object_store_for_testing() is single-grid only";
  return objects_;
}

QueryStore& QueryProcessor::query_store_for_testing() {
  STQ_CHECK(sharded_ == nullptr)
      << "query_store_for_testing() is single-grid only";
  return queries_;
}

GridIndex& QueryProcessor::grid_for_testing() {
  STQ_CHECK(sharded_ == nullptr) << "grid_for_testing() is single-grid only";
  return *grid_;
}

bool QueryProcessor::GetAnswerSet(QueryId id, AnswerSet* out) const {
  if (const KnnMonitor::Query* q = knn_monitor_.Find(id)) {
    out->clear();
    out->insert(q->answer.begin(), q->answer.end());
    return true;
  }
  if (sharded_ != nullptr) return sharded_->GetAnswerSet(id, out);
  out->clear();
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) return false;
  *out = q->answer;
  return true;
}

size_t QueryProcessor::AnswerBytesResident() const {
  size_t bytes = knn_monitor_.BytesResident();
  if (sharded_ != nullptr) return bytes + sharded_->AnswerBytesResident();
  queries_.ForEach(
      [&](const QueryRecord& q) { bytes += q.answer.bytes_resident(); });
  return bytes;
}

bool QueryProcessor::AppendAnswerIds(QueryId id,
                                     std::vector<ObjectId>* out) const {
  const QueryRecord* q = queries_.Find(id);
  if (q == nullptr) return false;
  for (ObjectId oid : q->answer) out->push_back(oid);
  return true;
}

void QueryProcessor::ForEachObjectInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const ObjectInfo&)>& fn) const {
  if (sharded_ != nullptr) {
    sharded_->ForEachObjectInfo(fn);
    return;
  }
  objects_.ForEach([&](const ObjectRecord& o) {
    ObjectInfo info;
    info.id = o.id;
    info.loc = o.loc;
    info.vel = o.vel;
    info.t = o.t;
    info.predictive = o.predictive;
    info.qlist_size = o.queries.size();
    fn(info);
  });
}

void QueryProcessor::ForEachQueryInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const QueryInfo&)>& fn) const {
  knn_monitor_.ForEach([&](QueryId id, const KnnMonitor::Query& q) {
    QueryInfo info;
    info.id = id;
    info.kind = QueryKind::kKnn;
    info.circle = Circle{q.center, std::sqrt(q.dist2)};
    info.k = q.k;
    info.answer_size = q.answer.size();
    fn(info);
  });
  if (sharded_ != nullptr) {
    sharded_->ForEachQueryInfo(fn);
    return;
  }
  queries_.ForEach([&](const QueryRecord& q) {
    QueryInfo info;
    info.id = q.id;
    info.kind = q.kind;
    info.region = q.region;
    info.circle = q.circle;
    info.t_from = q.t_from;
    info.t_to = q.t_to;
    info.answer_size = q.answer.size();
    fn(info);
  });
}

Status QueryProcessor::CheckInvariants() const {
  return InvariantAuditor().AuditProcessor(*this).ToStatus();
}

}  // namespace stq
