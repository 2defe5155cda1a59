// QueryProcessor: the public API of the scalable, incremental continuous
// spatio-temporal query processing framework (the paper's contribution).
//
// Usage:
//   stq::QueryProcessorOptions opts;             // grid size, bounds, ...
//   stq::QueryProcessor qp(opts);
//   qp.UpsertObject(7, {0.3, 0.4}, /*t=*/0.0);   // sampled moving object
//   qp.RegisterRangeQuery(1, stq::Rect{0.2, 0.2, 0.5, 0.5});
//   stq::TickResult r = qp.EvaluateTick(/*now=*/5.0);
//   // r.updates == {(Q1, +p7)}
//
// Reports from objects and queries are *buffered* (UpdateBuffer) and
// evaluated in bulk at each EvaluateTick, which returns only the positive
// and negative deltas against the previously reported answers. Between
// ticks, per-id reports coalesce (last-wins).
//
// Supported query classes (all continuous, stationary or moving):
//   - rectangular range queries over present positions,
//   - k-nearest-neighbor queries of a focal point,
//   - predictive range queries over a future time window, matched against
//     linear trajectories of velocity-reporting objects.
//
// Thread-compatible; callers serialize access. A single grid ticks
// serially; with options.num_shards > 1 the sharded engine runs its shard
// ticks, merge tree and the k-NN refresh on options.worker_threads
// workers, and the update stream is byte-identical for every shard and
// worker count (see DESIGN.md, "Threading model").
//
// k-NN queries live here at the front, in one KnnMonitor for both
// engines: each tick takes their changes out of the drained batch and,
// once the engine has applied the rest, re-searches the disturbed ones
// through the engine's grids. The engines never hold a k-NN query.

#ifndef STQ_CORE_QUERY_PROCESSOR_H_
#define STQ_CORE_QUERY_PROCESSOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/result.h"
#include "stq/common/status.h"
#include "stq/core/circle_evaluator.h"
#include "stq/core/engine_state.h"
#include "stq/core/history_store.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/options.h"
#include "stq/core/predictive_evaluator.h"
#include "stq/core/range_evaluator.h"
#include "stq/core/update_buffer.h"

namespace stq {

class GridRefiner;
class ShardedEngine;

class QueryProcessor {
 public:
  // The processor is the one ingestion front for both engines: every
  // report is validated, clamped and buffered here once, and each tick
  // drains, orders and seals the batch here. With options.num_shards > 1
  // the batch is evaluated by a ShardedEngine (see sharded_server.h)
  // instead of the single grid: the same byte-identical update stream,
  // but evaluation is partitioned across per-shard grids that tick in
  // parallel.
  explicit QueryProcessor(const QueryProcessorOptions& options = {});
  ~QueryProcessor();

  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  // --- Object reports (buffered until the next EvaluateTick) --------------

  // Upserts a sampled (non-predictive) object at `loc`, reported at time
  // `t`. Rejects reports older than the object's latest known report.
  // The bounded space is the universe: locations outside options().bounds
  // are clamped onto its border (a device outside the service area is
  // snapped to the fence).
  Status UpsertObject(ObjectId id, const Point& loc, Timestamp t);

  // Upserts a predictive object: at time `t` it was at `loc` moving with
  // constant velocity `vel`.
  Status UpsertPredictiveObject(ObjectId id, const Point& loc,
                                const Velocity& vel, Timestamp t);

  // Removes an object; its memberships are shipped as negative updates at
  // the next tick.
  Status RemoveObject(ObjectId id);

  // --- Query registration and movement (buffered) -------------------------

  // A new query's initial answer arrives as positive updates in the next
  // TickResult (continuous-query semantics: the answer stream starts
  // empty). Regions are clamped to options().bounds — the bounded space
  // is the universe, so the part of a region hanging outside it can never
  // match; a region entirely outside is rejected.
  Status RegisterRangeQuery(QueryId id, const Rect& region);
  Status MoveRangeQuery(QueryId id, const Rect& region);

  Status RegisterKnnQuery(QueryId id, const Point& center, int k);
  Status MoveKnnQuery(QueryId id, const Point& center);

  // Circular range query: all objects within `radius` of `center` (a
  // closed disk). The radius is fixed at registration; moves change the
  // center. The disk's bounding box must overlap the space bounds.
  Status RegisterCircleQuery(QueryId id, const Point& center, double radius);
  Status MoveCircleQuery(QueryId id, const Point& center);

  // `t_from` <= `t_to` are absolute times. The engine matches trajectories
  // only up to options().prediction_horizon seconds past each object's
  // last report.
  Status RegisterPredictiveQuery(QueryId id, const Rect& region,
                                 double t_from, double t_to);
  Status MovePredictiveQuery(QueryId id, const Rect& region);

  // Drops the query silently (no negative updates; the client abandoned
  // the answer).
  Status UnregisterQuery(QueryId id);

  // --- Evaluation ----------------------------------------------------------

  // Applies all buffered reports and returns the incremental update
  // stream, canonically ordered. `now` should be non-decreasing across
  // calls. This is the front's tick: it drains and id-orders the buffer,
  // records history, hands the batch to the engine, and seals the result
  // (canonical order, sign counts, bytes_resident, heap_allocations).
  TickResult EvaluateTick(Timestamp now);

  // --- Introspection --------------------------------------------------------

  const QueryProcessorOptions& options() const { return options_; }
  // True when this processor delegates to the sharded engine
  // (options().num_shards > 1).
  bool sharded() const { return sharded_ != nullptr; }
  // The underlying sharded engine, or nullptr in single-grid mode.
  const ShardedEngine* sharded_engine() const { return sharded_.get(); }
  // Resolved worker count of the sharded engine's pool (>= 1; equals
  // options().worker_threads unless that was 0 = auto). Always 1 for a
  // single grid, which ignores options().worker_threads.
  int worker_threads() const;
  size_t num_objects() const;
  size_t num_queries() const;
  size_t pending_reports() const;
  bool HasQuery(QueryId id) const;

  // Direct structure access — single-grid mode only (a sharded processor
  // has one grid and one store pair *per shard*; reach them through
  // sharded_engine()->shard(s)). STQ_CHECK-fails when sharded().
  const ObjectStore& object_store() const;
  const QueryStore& query_store() const;
  const GridIndex& grid() const;

  // Engine-independent views over the stored objects and queries, valid
  // in both modes (iteration order is unspecified; sort by id for
  // deterministic output). `answer_size` is the committed answer's
  // cardinality; `qlist_size` is the object's QList length, which counts
  // no k-NN memberships (0 in sharded mode, where QLists live inside the
  // per-shard stores). A k-NN query's `circle` is its answer circle: the
  // focal point and the distance to the k-th neighbour (+inf while fewer
  // than k objects exist).
  struct ObjectInfo {
    ObjectId id = 0;
    Point loc;
    Velocity vel;
    Timestamp t = 0.0;
    bool predictive = false;
    size_t qlist_size = 0;
  };
  struct QueryInfo {
    QueryId id = 0;
    QueryKind kind = QueryKind::kRange;
    Rect region;
    Circle circle;
    int k = 0;
    double t_from = 0.0;
    double t_to = 0.0;
    size_t answer_size = 0;
  };
  // Cold introspection walks (persistence capture, invariant audits).
  // Type erasure keeps the processor internals out of callers' headers,
  // and the wrap cost is paid once per walk, never per element.
  // stq-lint: allow(alloc-discipline/function): cold introspection walk
  void ForEachObjectInfo(const std::function<void(const ObjectInfo&)>& fn) const;
  // stq-lint: allow(alloc-discipline/function): cold introspection walk
  void ForEachQueryInfo(const std::function<void(const QueryInfo&)>& fn) const;

  // The answer currently reported for `id` (sorted by object id).
  Result<std::vector<ObjectId>> CurrentAnswer(QueryId id) const;

  // The committed answer as a set; false when the query is unknown.
  bool GetAnswerSet(QueryId id, AnswerSet* out) const;

  // Summed bytes_resident of every live per-query answer set (see
  // core/answer_set.h). Valid in both engine modes; also published as
  // TickStats::bytes_resident at the end of every tick.
  size_t AnswerBytesResident() const;

  // Recomputes the answer of `id` from first principles, bypassing all
  // incremental state (linear scan / brute-force k-NN). Ground truth for
  // tests and baselines.
  Result<std::vector<ObjectId>> EvaluateFromScratch(QueryId id) const;

  // A fresh exact search for the k objects nearest `center` through the
  // engine's grids (the search the k-NN refresh runs), sorted by id. The
  // structural audit checks every committed k-NN answer against it.
  std::vector<ObjectId> SearchKnn(const Point& center, int k) const;

  // Verifies every engine invariant by running a full InvariantAuditor
  // pass (answer/QList symmetry, grid/store agreement, every stored
  // answer equals its from-scratch recomputation). Intended for tests;
  // call only when no reports are pending. O(objects x queries).
  Status CheckInvariants() const;

  // --- Test support ---------------------------------------------------------
  // Mutable access to the engine's internal structures, for
  // corruption-injection tests that verify the InvariantAuditor catches
  // seeded divergences. Never used by the engine itself. The store/grid
  // accessors are single-grid only (STQ_CHECK-fail when sharded());
  // sharded tests corrupt a shard via sharded_engine_for_testing().
  ObjectStore& object_store_for_testing();
  QueryStore& query_store_for_testing();
  GridIndex& grid_for_testing();
  ShardedEngine* sharded_engine_for_testing() { return sharded_.get(); }

  // --- Querying the past (requires options().record_history) ---------------

  // The retained report history, or nullptr when history recording is
  // off.
  const HistoryStore* history() const { return history_.get(); }

  // Snapshot range query as of past instant `t` (sample-and-hold over the
  // recorded reports). Only reports already applied by a tick are
  // visible. FailedPrecondition when history recording is off.
  Result<std::vector<ObjectId>> EvaluatePastRangeQuery(const Rect& region,
                                                       Timestamp t) const;

 private:
  friend class ShardedEngine;

  // A shard of a ShardedEngine: a single grid over `options.bounds` (the
  // shard's rect) with an explicit cells_x x cells_y cell array, so a
  // shard covering a non-square slice of the universe keeps the global
  // cell geometry. Shards take routed batches through TickBatch; their
  // own ingestion entry points stay unused.
  QueryProcessor(const QueryProcessorOptions& options, int cells_x,
                 int cells_y);

  EngineState state();

  // The single-grid batch tick: applies one drained, id-ordered batch
  // free of k-NN changes (phases 1-5 plus adaptive refinement), appending
  // the raw update stream to `out` and the phase timings to `stats`. The
  // front calls it in single-grid mode; the sharded router calls it on
  // every shard with that shard's routed sub-batch.
  void TickBatch(const ReportBatch& batch, Timestamp now,
                 std::vector<Update>* out, TickStats* stats);

  // Appends the committed answer ids to `out` (unsorted, not cleared;
  // no allocation beyond `out` growth); false when the query is unknown.
  // The sharded router captures departing shard answers through this
  // without a per-query temporary vector.
  bool AppendAnswerIds(QueryId id, std::vector<ObjectId>* out) const;

  // The committed state the front validates reports against, answered
  // by whichever engine holds it: an object's applied report time, and a
  // query's kind and circle radius. nullopt when the id is unknown.
  // FindEngineQuery skips the front's k-NN queries.
  struct CommittedQuery {
    QueryKind kind = QueryKind::kRange;
    double radius = 0.0;  // kCircleRange only
  };
  std::optional<Timestamp> AppliedReportTime(ObjectId id) const;
  std::optional<CommittedQuery> FindCommittedQuery(QueryId id) const;
  std::optional<CommittedQuery> FindEngineQuery(QueryId id) const;

  // Offers `best` every object of the engine that can beat its bound.
  void SearchKnn(const Point& center, KnnEvaluator::KBest* best) const;

  // Tick phases. Each appends to `out` and updates `stats`.
  void ApplyObjectRemovals(const std::vector<ObjectId>& removals,
                           std::vector<Update>* out, TickStats* stats);
  void ApplyObjectUpserts(const std::vector<PendingObjectUpsert>& upserts,
                          std::vector<ObjectId>* moved, TickStats* stats);
  // Fully removes a query record: scrubs member QLists, drops grid stubs,
  // erases the record.
  void DropQueryRecord(QueryId id, TickStats* stats);
  void ApplyQueryChanges(const std::vector<PendingQueryChange>& changes,
                         Timestamp now,
                         std::vector<std::pair<QueryId, Rect>>* changed_rects,
                         std::vector<QueryId>* moved_circles,
                         TickStats* stats);
  void RunQueryPass(const std::vector<std::pair<QueryId, Rect>>& changed,
                    const std::vector<QueryId>& moved_circles,
                    std::vector<Update>* out);
  // The object pass: one serial loop over `moved` that decides and
  // applies each (query, object) pair in one step. Per mover it drops the
  // QList members the new report fails and adds a predictive mover's
  // satisfying candidates; the sampled movers' positives run afterwards,
  // grouped by grid slot (RunSlotProbes). Every decision is a geometry
  // test (Satisfies) of state the pass never writes; each object is in
  // `moved` once, so only its own steps touch its pairs, and its negative
  // and positive tests cover disjoint queries. The stream is therefore
  // the one a decide-everything-then-apply pass would emit.
  void RunObjectPass(const std::vector<ObjectId>& moved,
                     std::vector<Update>* out, TickStats* stats);
  // One sampled mover's positive-side probe in the object pass: its grid
  // slot key plus the gathered state, so the slot-grouped kernel loop
  // never re-touches the object store.
  struct SlotProbe {
    uint64_t slot = 0;
    ObjectId oid = 0;
    double x = 0.0;
    double y = 0.0;
    double t = 0.0;
  };
  // The sampled movers' positive side: sorts the probes by (slot, id)
  // and runs one predicate kernel per (slot, candidate query) pair over
  // the slot's SoA batch, inserting the matches into the query's answer.
  void RunSlotProbes(std::vector<Update>* out);

  // Tick-scoped scratch buffers, owned by the processor and reused across
  // EvaluateTick calls so a steady-state tick performs no per-element
  // allocation (capacities converge to the workload's high-water mark;
  // see DESIGN.md, "Memory layout & allocation discipline"). Cleared at
  // the start of each use — no state carries across ticks.
  struct TickScratch {
    ReportBatch batch;  // the front's drained buffer
    std::vector<ObjectId> moved;
    std::vector<std::pair<QueryId, Rect>> changed_rects;
    std::vector<QueryId> moved_circles;
    // The object pass: a predictive mover's candidate queries, the
    // sampled movers' slot probes and the SoA kernel batch.
    std::vector<QueryId> candidates;
    std::vector<SlotProbe> probes;
    CandidateBatch kernel_batch;
  };

  // Highest report timestamp known (applied or pending) for the object,
  // or -infinity when unknown.
  double LatestKnownReportTime(ObjectId id) const;

  // Query regions are clamped to the space bounds (see RegisterRangeQuery).
  Rect ClampRegion(const Rect& region) const;
  // Object locations are clamped into the space (see UpsertObject).
  Point ClampLocation(const Point& loc) const;

  Status ValidateQueryRegistration(QueryId id) const;
  // Returns the kind the query will have once the buffer drains, or an
  // error when the query does not (and will not) exist.
  Result<QueryKind> EffectiveQueryKind(QueryId id) const;

  QueryProcessorOptions options_;
  std::unique_ptr<HistoryStore> history_;  // null unless record_history
  std::unique_ptr<GridIndex> grid_;
  ObjectStore objects_;
  QueryStore queries_;
  UpdateBuffer buffer_;
  RangeEvaluator range_;
  KnnEvaluator knn_;  // the single grid's k-NN search
  PredictiveEvaluator predictive_;
  CircleEvaluator circle_;
  TickScratch scratch_;
  // Non-null iff options.adaptive.enabled in single-grid mode: splits
  // hot cells / merges cold ones on committed state at the end of each
  // tick (stream-invisible; see core/grid_refiner.h).
  std::unique_ptr<GridRefiner> refiner_;
  Timestamp last_tick_time_ = 0.0;
  // The previous tick's raw stream size: EvaluateTick returns a fresh
  // stream each tick and reserves this much up front, so the stream does
  // not regrow by doubling.
  size_t last_stream_size_ = 0;
  // Non-null iff options.num_shards > 1. The front (buffer_, history_,
  // knn_monitor_) stays here; evaluation and the rest of the committed
  // state live in the sharded engine, and the single-grid members above
  // stay empty.
  std::unique_ptr<ShardedEngine> sharded_;
  // Every k-NN query, in both modes.
  KnnMonitor knn_monitor_;
};

}  // namespace stq

#endif  // STQ_CORE_QUERY_PROCESSOR_H_
