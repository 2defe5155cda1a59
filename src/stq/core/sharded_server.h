// ShardedEngine: the sharded shared-execution engine.
//
// The universe is partitioned into S rectangular shards (ShardMap). Each
// shard owns a complete single-grid QueryProcessor — its own GridIndex,
// object/query/answer stores — and runs its incremental tick
// independently; shards with pending work tick in parallel on the
// engine's ThreadPool. QueryProcessor stays the one ingestion front: it
// validates, clamps and buffers every report once, and each tick hands
// the drained, id-ordered batch to ShardedEngine::TickBatch, which runs
// five named phases:
//
//   rebalance  (adaptive mode) move the shard boundaries when the home
//              load is skewed, handing every routed entity to its new
//              owners through one primed sub-batch per shard;
//   route      split the batch into per-shard sub-batches of the same
//              records a single grid ticks on — the minimal set of
//              shards that can ever observe each report (the paper's
//              cell-clipping rule at shard granularity, tightened to
//              seam-band replication): a sampled object lives in exactly
//              its home shard; a predictive object is replicated only
//              into shards its exact trajectory segment passes through
//              (not the segment's bounding box, which over-replicates
//              diagonal movers into corner shards); a range/predictive
//              query registers in every shard its region overlaps, with
//              the region clamped to the shard's rect, and a circle query
//              only in shards its disk actually reaches. A query leaving
//              a shard is queued as a capture of its committed answer
//              there plus an unregistration;
//   shard tick each shard task reads its captures, applies its sub-batch
//              through the shard's batch tick (the single grid's phases)
//              and sorts its deltas into a leaf merge stream;
//   merge      a deterministic pairwise reduction tree combines the leaf
//              streams on the worker pool (sorted delta streams with
//              per-pair (delta, positive-count) sums — associative, so
//              any pairing yields the same root stream); then a
//              per-(query, object) reference count, applied serially,
//              emits a global update only when the count transitions
//              0 <-> positive, so an object handed from one shard to
//              another (a cancelling -/+ pair) or matched by several
//              replicas yields no spurious updates;
//   router k-NN re-evaluate the dirty k-NN queries (below).
//
// The front then seals the tick (canonical order), byte-identical to the
// single-grid stream — the property the sharded differential tests pin
// down.
//
// k-NN queries are evaluated at the router, in one parallel pass over
// them: each worker tests a query for dirtiness and, if dirty, searches
// it into the query's own slot of a shared result buffer; the answers are
// then diffed and committed serially in qid order. A search passes one
// running k-best list through the home shard (the one containing the
// focal point), then through every other shard whose rect lies within
// the current k-th distance (the paper's k-NN-as-circle-range trick,
// across shards), each pruning against the distance the list holds so
// far. Per-shard engines therefore hold no k-NN state.
//
// See DESIGN.md, "Sharded execution", for the determinism argument.
//
// Concurrency contract: shard state carries no locks by design. The
// serial route phase only computes routing decisions and fills the
// per-shard sub-batches; the expensive work — reading the captures,
// applying the sub-batch, the shard tick itself, and building the
// shard's sorted merge-delta stream — runs inside the shard's pool task,
// claimed via ThreadPool::RunDynamic (work-stealing over the touched
// shards, largest sub-batch first, so a straggler never serializes the
// tick behind a static partition). Whichever worker claims a shard owns
// that shard's QueryProcessor and output slots exclusively until the
// join; router maps and scratch are written only by the caller thread
// between forks, and the parallel tasks read them strictly read-only.
// The fork and join barriers inside ThreadPool::RunShards (which
// RunDynamic is built on) run under the pool's annotated stq::Mutex, so
// every per-shard write made by a worker happens-before the router's
// merge that follows the call. The reduction-tree merge reuses the same
// contract: each tree node is merged by exactly one worker into its own
// output buffer. The capability annotations live where the sharing
// actually happens: common/thread_pool.h. See DESIGN.md, "Static
// analysis & concurrency contracts".

#ifndef STQ_CORE_SHARDED_SERVER_H_
#define STQ_CORE_SHARDED_SERVER_H_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/small_vector.h"
#include "stq/common/thread_pool.h"
#include "stq/core/knn_evaluator.h"
#include "stq/core/options.h"
#include "stq/core/query_processor.h"
#include "stq/core/types.h"
#include "stq/core/update_buffer.h"
#include "stq/grid/shard_map.h"

namespace stq {

class ShardedEngine {
 public:
  // `options.num_shards` must be >= 2 (QueryProcessor handles 1 itself).
  explicit ShardedEngine(const QueryProcessorOptions& options);
  ~ShardedEngine();  // out of line: TickScratch is incomplete here

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Introspection --------------------------------------------------------

  const QueryProcessorOptions& options() const { return options_; }
  const ShardMap& shard_map() const { return map_; }
  int num_shards() const { return map_.num_shards(); }
  int worker_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }
  size_t num_objects() const { return objects_.size(); }
  size_t num_queries() const { return queries_.size(); }

  const QueryProcessor& shard(int s) const { return *shards_[s]; }
  QueryProcessor& shard_for_testing(int s) { return *shards_[s]; }

  // The shards an entity is currently routed to (ascending). Empty when
  // the id is unknown; a k-NN query routes to no shard (router-owned).
  std::vector<int> ObjectShards(ObjectId id) const;
  std::vector<int> QueryShards(QueryId id) const;

  // Committed answer / from-scratch recomputation of a query the router
  // holds (QueryProcessor checks that it exists), sorted by object id.
  std::vector<ObjectId> CurrentAnswer(QueryId id) const;
  std::vector<ObjectId> EvaluateFromScratch(QueryId id) const;
  bool GetAnswerSet(QueryId id, AnswerSet* out) const;
  // Summed bytes_resident over every shard's live answer sets — covers
  // all shards, ticked or not, so the metric never under-reports.
  size_t AnswerBytesResident() const;

  // Router-level views matching QueryProcessor::ForEach*Info (iteration
  // order unspecified; qlist_size is 0 — QLists live in the shards).
  void ForEachObjectInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryProcessor::ObjectInfo&)>& fn) const;
  void ForEachQueryInfo(
      // stq-lint: allow(alloc-discipline/function): cold introspection walk
      const std::function<void(const QueryProcessor::QueryInfo&)>& fn) const;

  // One committed shard-boundary move (adaptive rebalancing). Decisions
  // are a pure function of committed router state at a tick boundary, so
  // every worker count replays the same history — the rebalance
  // differential tests pin this down.
  struct ShardRebalanceEvent {
    int64_t tick_index = 0;  // tick ordinal (1-based) it ran in
    Timestamp time = 0.0;    // the tick's `now`
    std::vector<double> x_edges;
    std::vector<double> y_edges;
    size_t moved_objects = 0;  // objects whose shard set changed
  };
  const std::vector<ShardRebalanceEvent>& rebalance_history() const {
    return rebalances_;
  }

  // Cross-shard invariants, appended to `violations` (up to
  // `max_violations` total). Used by InvariantAuditor on top of the
  // per-shard audits:
  //   * every non-k-NN query's answer (OList) union over its shards
  //     equals the router's committed answer, with per-shard multiplicity
  //     exactly matching the router's reference counts;
  //   * no object is double-counted: each object is present in exactly
  //     the shards the routing rule assigns it (one home shard for
  //     sampled objects), with matching stored state;
  //   * every shard-registered query is routed there and vice versa;
  //   * every k-NN answer equals its from-scratch cross-shard search.
  void AuditCrossShard(size_t max_violations,
                       std::vector<std::string>* violations) const;

 private:
  friend class QueryProcessor;

  // The routing fan-out of one entity; a handful of shard indices at
  // most, so it lives inline in the record.
  using ShardList = SmallVector<int, 4>;

  struct RoutedObject {
    Point loc;
    Velocity vel;
    Timestamp t = 0.0;
    bool predictive = false;
    ShardList shards;  // ascending; a singleton unless predictive
  };

  struct RoutedQuery {
    QueryKind kind = QueryKind::kRange;
    Rect region;    // kRange / kPredictiveRange
    Circle circle;  // kKnn (center; radius unused) / kCircleRange
    int k = 0;
    double t_from = 0.0;
    double t_to = 0.0;
    ShardList shards;  // ascending; empty for kKnn
    // kKnn only: the committed answer and the exact squared distance to
    // the k-th neighbour (+inf while fewer than k objects exist).
    std::vector<ObjectId> knn_answer;
    double knn_dist2 = std::numeric_limits<double>::infinity();
  };

  // The front's two lookups, answered from the routed records (see
  // QueryProcessor::AppliedReportTime / FindCommittedQuery).
  std::optional<Timestamp> AppliedReportTime(ObjectId id) const;
  std::optional<QueryProcessor::CommittedQuery> FindCommittedQuery(
      QueryId id) const;

  // The batch tick, called by QueryProcessor's front with the drained,
  // id-ordered batch: runs the phases below in order and appends the
  // merged (not yet canonicalized) stream to `out`.
  void TickBatch(const ReportBatch& batch, Timestamp now,
                 std::vector<Update>* out, TickStats* stats);

  // --- Phases (one per TickStats timer) -------------------------------------
  // Adaptive shard rebalancing: when the committed home-shard load is
  // imbalanced past options_.adaptive.rebalance_imbalance, recompute
  // cell-aligned slab boundaries from the marginal load histograms,
  // rebuild the shard engines and deterministically hand every routed
  // entity off to its new owners. Runs before the batch is routed, so
  // shard engines are quiescent. (rebalance_seconds)
  void MaybeRebalance(Timestamp now, TickStats* stats);
  // Updates the routed records and fills the per-shard sub-batches,
  // captures, query resets and k-NN events. (shard_route_seconds)
  void Route(const ReportBatch& batch, TickStats* stats);
  // Each touched shard reads its captures, applies its sub-batch and
  // builds its leaf merge stream, in parallel. (shard_tick_*)
  void TickShards(Timestamp now, TickStats* stats);
  // Reduction tree over the leaf streams, then the serial refcount apply
  // and the reset negatives. (shard_merge_seconds)
  void Merge(const ReportBatch& batch, std::vector<Update>* out);
  // Re-evaluates the k-NN queries dirtied by a focal move or by this
  // tick's object reports: the dirty tests and searches in parallel, the
  // diffs serially in qid order. (shard_knn_seconds)
  void RefreshKnn(std::vector<Update>* out, TickStats* stats);
  // Offers `best` every object that can beat its bound: the home shard
  // of `center` first, then each other shard whose rect lies within the
  // current k-th distance. Reads only quiescent shard state; allocates
  // nothing.
  void SearchKnn(const Point& center, KnnEvaluator::KBest* best) const;

  // Route helpers.
  void RouteObjects(const ReportBatch& batch, TickStats* stats);
  void RouteQueryChange(const PendingQueryChange& c, TickStats* stats);
  void DropRoutedQuery(QueryId qid, TickStats* stats);
  // Appends `c` to shard `s`'s sub-batch. A Register right after an
  // Unregister of the same id (a re-registration routed to a shard the
  // old incarnation also used) folds into the Register, as the shard's
  // own buffer would have folded it.
  void PushQueryChange(int s, const PendingQueryChange& c);
  // The registration of `rq` in shard `s`: its region clamped to the
  // shard rect (range/predictive), or its circle.
  PendingQueryChange ShardRegistration(QueryId qid, const RoutedQuery& rq,
                                       int s) const;

  // The shards `rq` should route to given its current geometry (cleared
  // and refilled; out-params so steady-state routing reuses capacity).
  void RouteShardsOf(const RoutedQuery& rq, ShardList* out) const;
  // The shards a (pending) object report routes to.
  void RouteShardsOfObject(const PendingObjectUpsert& u, ShardList* out) const;

  // A single-grid engine for shard `s` under the current ShardMap
  // (uniform or post-rebalance explicit boundaries), with the global
  // cell geometry.
  std::unique_ptr<QueryProcessor> MakeShard(int s) const;

  QueryProcessorOptions options_;
  ShardMap map_;
  std::unique_ptr<ThreadPool> pool_;  // null when worker count is 1
  std::vector<std::unique_ptr<QueryProcessor>> shards_;
  FlatMap<ObjectId, RoutedObject> objects_;
  FlatMap<QueryId, RoutedQuery> queries_;
  // Per-(query, object) shard-membership reference counts for non-k-NN
  // queries: how many shards currently report the pair. The committed
  // global answer is exactly the keys with positive count.
  FlatMap<QueryId, FlatMap<ObjectId, int>> members_;
  // k-NN queries needing re-evaluation at the next tick (focal point
  // moved or freshly registered; object-driven dirtiness is derived from
  // the tick's report batch).
  FlatSet<QueryId> knn_dirty_;
  // The previous tick's time: a rebalance primes the rebuilt shards at
  // it, reproducing their answers as of the last committed tick.
  Timestamp last_tick_time_ = 0.0;

  // Adaptive rebalancing state. The cell-cut vectors mirror the
  // ShardMap's explicit boundaries in global-grid cell-edge indices
  // (size sx+1 / sy+1); empty while the map is uniform.
  std::vector<int> x_cell_cuts_;
  std::vector<int> y_cell_cuts_;
  std::vector<ShardRebalanceEvent> rebalances_;
  int64_t tick_index_ = 0;           // ticks so far
  int64_t last_rebalance_tick_ = 0;  // 0 = never; cooldown anchor

  // Tick-scoped scratch reused across ticks; every container is cleared
  // before use, so no state carries over — only capacity does (see
  // DESIGN.md, "Memory layout & allocation discipline"). The
  // MergeEntry/Reset/KnnEvent element types are private to the .cc, so
  // the buffers they need are declared there via this opaque holder.
  struct TickScratch;
  std::unique_ptr<TickScratch> scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_SHARDED_SERVER_H_
