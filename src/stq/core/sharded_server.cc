#include "stq/core/sharded_server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "stq/common/check.h"
#include "stq/geo/geometry.h"
#include "stq/geo/segment.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

namespace {

// One (query, object) answer-stream delta during the merge: `d` sums the
// +1/-1 shard updates and the -1 move-away captures for the pair. Leaf
// streams are sorted by (q, o) with one entry per pair, so merging two
// streams just adds the deltas of equal keys.
struct MergeEntry {
  QueryId q = 0;
  ObjectId o = 0;
  int d = 0;
};

bool MergeKeyLess(const MergeEntry& a, const MergeEntry& b) {
  if (a.q != b.q) return a.q < b.q;
  return a.o < b.o;
}

// Sorts one shard's raw delta stream and combines duplicate (q, o) keys
// in place: the canonical leaf of the merge reduction tree.
void BuildLeafStream(std::vector<MergeEntry>* v) {
  std::sort(v->begin(), v->end(), MergeKeyLess);
  size_t w = 0;
  for (size_t i = 0; i < v->size();) {
    MergeEntry e = (*v)[i++];
    while (i < v->size() && (*v)[i].q == e.q && (*v)[i].o == e.o) {
      e.d += (*v)[i].d;
      ++i;
    }
    (*v)[w++] = e;
  }
  v->resize(w);
}

// Merges two sorted unique-key streams into `out` (cleared first), adding
// the deltas of equal keys. Per-key addition is associative and
// commutative, so ANY reduction-tree pairing of the per-shard leaves
// produces the same root stream — which is why the tree can run on the
// worker pool without touching the byte-identity contract.
void MergeStreams(const std::vector<MergeEntry>& a,
                  const std::vector<MergeEntry>& b,
                  std::vector<MergeEntry>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (MergeKeyLess(a[i], b[j])) {
      out->push_back(a[i++]);
    } else if (MergeKeyLess(b[j], a[i])) {
      out->push_back(b[j++]);
    } else {
      MergeEntry e = a[i++];
      e.d += b[j++].d;
      out->push_back(e);
    }
  }
  out->insert(out->end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
  out->insert(out->end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
}

}  // namespace

// Tick-scoped working buffers, reused across ticks. Every container is
// cleared (never shrunk) before use, so the steady-state tick allocates
// only when a buffer outgrows its previous high-water mark. Defined here
// because MergeEntry is local to this translation unit.
struct ShardedEngine::TickScratch {
  // Indexed by shard id. The route phase fills the sub-batches and the
  // departing-query captures; the shard's task only reads them.
  std::vector<ReportBatch> batches;
  std::vector<std::vector<QueryId>> captures;
  // Indexed by shard id; written only by the worker that claimed the
  // shard during the parallel phase.
  std::vector<std::vector<MergeEntry>> shard_entries;  // leaf delta streams
  std::vector<std::vector<ObjectId>> capture_ids;      // capture scratch
  std::vector<TickResult> shard_results;
  // Reduction tree: ping-pong pointer lists over the leaves plus one
  // reused buffer per internal tree node.
  std::vector<std::vector<MergeEntry>> tree_bufs;
  std::vector<std::vector<MergeEntry>*> tree_cur;
  std::vector<std::vector<MergeEntry>*> tree_next;
  // Ascending qids (change order): the queries dropped or re-registered
  // this tick, and the moved queries whose shard set changed.
  std::vector<QueryId> resets;
  std::vector<QueryId> rerouted;
  // The answers of the query being merged, one per shard it is held by.
  std::vector<const AnswerSet*> answers;
  std::vector<int> ticked;
  std::vector<double> shard_walls;  // indexed by position in `ticked`
  ShardList route_ns;  // routing fan-out of the report being dispatched
};

ShardedEngine::~ShardedEngine() = default;

ShardedEngine::ShardedEngine(const QueryProcessorOptions& options)
    : options_(options),
      map_(options.bounds, options.num_shards),
      pool_(ThreadPool::ResolveWorkers(options.worker_threads) > 1
                ? std::make_unique<ThreadPool>(
                      ThreadPool::ResolveWorkers(options.worker_threads))
                : nullptr) {
  STQ_CHECK(options_.Validate()) << "invalid QueryProcessorOptions";
  STQ_CHECK(options_.num_shards >= 2)
      << "ShardedEngine requires num_shards >= 2";
  for (int s = 0; s < map_.num_shards(); ++s) shards_.push_back(MakeShard(s));
  scratch_ = std::make_unique<TickScratch>();
}

std::unique_ptr<QueryProcessor> ShardedEngine::MakeShard(int s) const {
  int cells_x = 0;
  int cells_y = 0;
  if (x_cell_cuts_.empty()) {
    // Uniform map. Keep the global grid CELL GEOMETRY constant: a shard
    // covers 1/sx x 1/sy of the universe, so it gets the matching
    // 1/sx x 1/sy slice of the cell array — the same cell width and
    // height as the single grid. (A square per-shard resolution divided
    // by max(sx, sy) would make per-shard cells on non-square layouts up
    // to max/min times larger in area, inflating per-cell candidate
    // density — and total matching work — precisely as shards are
    // added.)
    cells_x =
        std::max(1, (options_.grid_cells_per_side + map_.sx() - 1) / map_.sx());
    cells_y =
        std::max(1, (options_.grid_cells_per_side + map_.sy() - 1) / map_.sy());
  } else {
    // Rebalanced map: slab boundaries sit on global-grid cell edges, so
    // each shard takes exactly the global cell columns/rows its slab
    // spans — cell geometry again matches the single grid.
    const int ix = s % map_.sx();
    const int iy = s / map_.sx();
    cells_x = std::max(1, x_cell_cuts_[ix + 1] - x_cell_cuts_[ix]);
    cells_y = std::max(1, y_cell_cuts_[iy + 1] - y_cell_cuts_[iy]);
  }
  // The shard's rect plus the engine's horizon, wire cost and adaptive
  // settings; otherwise the defaults — one serial grid without history
  // (history lives at the front; shards tick in parallel, each serially).
  QueryProcessorOptions so;
  so.bounds = map_.shard_rect(s);
  so.prediction_horizon = options_.prediction_horizon;
  so.wire_cost = options_.wire_cost;
  // Per-shard grids adapt independently; boundary moves are the
  // engine's job, so the shard-level flag is inert inside a shard.
  so.adaptive = options_.adaptive;
  so.adaptive.rebalance = false;
  return std::unique_ptr<QueryProcessor>(
      // stq-lint: allow(alloc-discipline/new): private shard constructor, unreachable from make_unique
      new QueryProcessor(so, cells_x, cells_y));
}

namespace {

// Quantile cuts of `hist` into `slabs` contiguous runs: slabs+1 edge
// indices (0 .. n), strictly increasing, each interior cut at the
// smallest prefix reaching its load quantile. Requires n >= slabs.
std::vector<int> QuantileCuts(const std::vector<size_t>& hist, int slabs) {
  const int n = static_cast<int>(hist.size());
  std::vector<int> cuts(static_cast<size_t>(slabs) + 1);
  cuts[0] = 0;
  cuts[slabs] = n;
  size_t total = 0;
  for (size_t v : hist) total += v;
  size_t cum = 0;
  int j = 0;
  for (int s = 1; s < slabs; ++s) {
    const double target =
        static_cast<double>(total) * static_cast<double>(s) / slabs;
    while (j < n && static_cast<double>(cum) < target) {
      cum += hist[j];
      ++j;
    }
    // Keep every slab at least one column wide and leave room for the
    // remaining cuts.
    cuts[s] = std::clamp(j, cuts[s - 1] + 1, n - (slabs - s));
  }
  return cuts;
}

}  // namespace

void ShardedEngine::MaybeRebalance(Timestamp now, TickStats* stats) {
  const AdaptiveGridOptions& opt = options_.adaptive;
  if (tick_index_ - last_rebalance_tick_ < opt.rebalance_cooldown_ticks) {
    return;
  }
  if (objects_.size() < opt.rebalance_min_objects) return;
  const int sx = map_.sx();
  const int sy = map_.sy();
  const int cells = options_.grid_cells_per_side;  // per axis, globally
  const Rect& uni = map_.universe();
  const double width = uni.Width();
  const double height = uni.Height();
  // Cell-aligned cuts need at least one global cell column/row per slab
  // and a non-degenerate universe.
  if (cells < sx || cells < sy || !(width > 0.0) || !(height > 0.0)) return;

  // Imbalance gate: committed home-shard object loads under the current
  // map. (Replicas are ignored — the home distribution is what the cuts
  // can actually move.)
  std::vector<size_t> load(shards_.size(), 0);
  for (const auto& [oid, ro] : objects_) ++load[map_.HomeOf(ro.loc)];
  size_t max_load = 0;
  for (size_t l : load) max_load = std::max(max_load, l);
  const double mean_load =
      static_cast<double>(objects_.size()) / static_cast<double>(load.size());
  if (static_cast<double>(max_load) < mean_load * opt.rebalance_imbalance) {
    return;
  }

  // The decision ran; anchor the cooldown here so an already-optimal
  // partition is not recomputed every tick while skew persists.
  last_rebalance_tick_ = tick_index_;

  // Marginal load histograms at global-grid cell granularity, then
  // quantile cuts per axis (the sx x sy factorization is fixed).
  const double cell_w = width / cells;
  const double cell_h = height / cells;
  std::vector<size_t> hist_x(static_cast<size_t>(cells), 0);
  std::vector<size_t> hist_y(static_cast<size_t>(cells), 0);
  for (const auto& [oid, ro] : objects_) {
    ++hist_x[ClampedFloor((ro.loc.x - uni.min_x) / cell_w, cells)];
    ++hist_y[ClampedFloor((ro.loc.y - uni.min_y) / cell_h, cells)];
  }
  std::vector<int> cuts_x = QuantileCuts(hist_x, sx);
  std::vector<int> cuts_y = QuantileCuts(hist_y, sy);
  if (cuts_x == x_cell_cuts_ && cuts_y == y_cell_cuts_) return;

  auto edges_of = [](const std::vector<int>& cuts, double min, double max,
                     double cell, int n) {
    std::vector<double> edges;
    edges.reserve(cuts.size());
    for (int j : cuts) {
      edges.push_back(j == 0 ? min : (j == n ? max : min + j * cell));
    }
    return edges;
  };
  std::vector<double> x_edges =
      edges_of(cuts_x, uni.min_x, uni.max_x, cell_w, cells);
  std::vector<double> y_edges =
      edges_of(cuts_y, uni.min_y, uni.max_y, cell_h, cells);

  // The handoff must not change any answer: membership is decided by exact
  // geometry, so every query's answer as the primed shards hold it must
  // equal its answer as the old shards held it. Keep the old answers,
  // ascending qid, for that check.
  std::vector<QueryId> qids;
  qids.reserve(queries_.size());
  for (const auto& [qid, rq] : queries_) qids.push_back(qid);
  std::sort(qids.begin(), qids.end());
  std::vector<ObjectId> old_answers;
  std::vector<size_t> old_ends;  // end of each query's slice, qids order
  old_ends.reserve(qids.size());
  AnswerSet answer;
  for (QueryId qid : qids) {
    GetAnswerSet(qid, &answer);
    old_answers.insert(old_answers.end(), answer.begin(), answer.end());
    old_ends.push_back(old_answers.size());
  }

  // --- Commit the new map and hand the routed state off ---------------------
  map_.SetBoundaries(x_edges, y_edges);
  x_cell_cuts_ = std::move(cuts_x);
  y_cell_cuts_ = std::move(cuts_y);

  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s] = MakeShard(static_cast<int>(s));
  }

  // Re-route every object and every query into one sub-batch per rebuilt
  // shard, ascending id as in a tick's route phase.
  std::vector<ReportBatch> primes(shards_.size());
  std::vector<ObjectId> oids;
  oids.reserve(objects_.size());
  for (const auto& [oid, ro] : objects_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  size_t moved_objects = 0;
  for (ObjectId oid : oids) {
    RoutedObject& ro = *objects_.FindPtr(oid);
    const PendingObjectUpsert u{oid, ro.loc, ro.vel, ro.t, ro.predictive};
    const ShardList old_shards = ro.shards;
    RouteShardsOfObject(u, &ro.shards);
    if (!(ro.shards == old_shards)) ++moved_objects;
    for (int s : ro.shards) primes[s].upserts.push_back(u);
  }
  for (QueryId qid : qids) {
    RoutedQuery& rq = *queries_.FindPtr(qid);
    RouteShardsOf(rq, &rq.shards);
    for (int s : rq.shards) {
      primes[s].query_changes.push_back(ShardRegistration(qid, rq, s));
    }
  }

  // Priming tick at the previous tick time: commits the handed-off state
  // inside every shard, reproducing each shard's answer store as of the
  // last committed tick. The stream it produces is the handoff's
  // internal bookkeeping, never surfaced.
  TickResult discard;
  for (size_t s = 0; s < shards_.size(); ++s) {
    discard.updates.clear();
    shards_[s]->TickBatch(primes[s], last_tick_time_, &discard.updates,
                          &discard.stats);
  }

  size_t begin = 0;
  for (size_t j = 0; j < qids.size(); ++j) {
    const QueryId qid = qids[j];
    for (int s : queries_.FindPtr(qid)->shards) {
      STQ_CHECK(shards_[s]->queries_.Find(qid) != nullptr)
          << "shard " << s << " lost query " << qid << " across rebalance";
    }
    GetAnswerSet(qid, &answer);
    STQ_CHECK(std::equal(answer.begin(), answer.end(),
                         old_answers.begin() + static_cast<ptrdiff_t>(begin),
                         old_answers.begin() +
                             static_cast<ptrdiff_t>(old_ends[j])))
        << "rebalance changed the answer keyset of query " << qid;
    begin = old_ends[j];
  }

  ShardRebalanceEvent event;
  event.tick_index = tick_index_;
  event.time = now;
  event.x_edges = std::move(x_edges);
  event.y_edges = std::move(y_edges);
  event.moved_objects = moved_objects;
  rebalances_.push_back(std::move(event));
  ++stats->shard_rebalances;
}

// ---------------------------------------------------------------------------
// The front's lookups
// ---------------------------------------------------------------------------

std::optional<Timestamp> ShardedEngine::AppliedReportTime(ObjectId id) const {
  if (auto it = objects_.find(id); it != objects_.end()) return it->second.t;
  return std::nullopt;
}

std::optional<QueryProcessor::CommittedQuery>
ShardedEngine::FindCommittedQuery(QueryId id) const {
  if (auto it = queries_.find(id); it != queries_.end()) {
    return QueryProcessor::CommittedQuery{it->second.kind,
                                          it->second.circle.radius};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void ShardedEngine::RouteShardsOf(const RoutedQuery& rq,
                                  ShardList* out) const {
  out->clear();
  if (rq.kind != QueryKind::kCircleRange) {
    map_.ShardsOverlapping(rq.region, out);
    return;
  }
  // Seam-band tightening: the bounding box overlaps corner shards the
  // disk itself never reaches. CircleEvaluator only matches a point
  // inside both the closed disk and the shard bounds, so a shard whose
  // rect lies farther than the radius can never emit for this query.
  // SquaredDistanceTo under-approximates the distance to every in-shard
  // point monotonically under FP rounding, so the filter is exact at the
  // boundary (same closed <= as the disk).
  map_.ShardsOverlapping(rq.circle.BoundingBox().Intersection(map_.universe()),
                         out);
  const double r2 = rq.circle.radius * rq.circle.radius;
  size_t w = 0;
  for (int s : *out) {
    if (map_.shard_rect(s).SquaredDistanceTo(rq.circle.center) <= r2) {
      (*out)[w++] = s;
    }
  }
  out->resize(w);
}

void ShardedEngine::RouteShardsOfObject(const PendingObjectUpsert& u,
                                        ShardList* out) const {
  if (!u.predictive) {
    out->clear();
    out->push_back(map_.HomeOf(u.loc));
    return;
  }
  // Seam-band tightening: replicate along the exact trajectory segment,
  // not its bounding box — a diagonal mover's bbox drags in corner
  // shards the segment never enters. Every evaluator a replica can feed
  // clamps its geometry to the shard rect (ranges/circles test the
  // stored location, predictive queries clip the footprint against the
  // shard-clamped region), so a shard the closed segment misses can
  // never emit an update for this object. `u.loc` is a segment endpoint,
  // so the home shard always survives the filter.
  const Segment footprint = Trajectory{u.loc, u.vel, u.t}.FootprintBetween(
      u.t, u.t + options_.prediction_horizon);
  map_.ShardsOverlapping(footprint.BoundingBox(), out);
  size_t w = 0;
  for (int s : *out) {
    if (SegmentIntersectsRect(footprint, map_.shard_rect(s))) {
      (*out)[w++] = s;
    }
  }
  out->resize(w);
  STQ_DCHECK(!out->empty()) << "predictive object routed to no shard";
}

// ---------------------------------------------------------------------------
// Tick
// ---------------------------------------------------------------------------

void ShardedEngine::TickBatch(const ReportBatch& batch, Timestamp now,
                              std::vector<Update>* out, TickStats* stats) {
  ++tick_index_;
  // Adaptive shard rebalancing runs first, on fully committed state: the
  // shard engines are quiescent between ticks, and this tick's batch is
  // still unrouted — it routes against the new map below like any other
  // batch. last_tick_time_ still holds the previous tick's time here; the
  // handoff's priming tick re-commits the moved state at that time, so
  // answers are reproduced exactly.
  if (options_.adaptive.enabled && options_.adaptive.rebalance) {
    PhaseTimer timer(&stats->rebalance_seconds);
    MaybeRebalance(now, stats);
  }
  last_tick_time_ = now;
  {
    PhaseTimer timer(&stats->shard_route_seconds);
    Route(batch, stats);
  }
  {
    PhaseTimer timer(&stats->shard_tick_wall_seconds);
    TickShards(now, stats);
  }
  PhaseTimer timer(&stats->shard_merge_seconds);
  Merge(batch, out);
}

// --- Route -------------------------------------------------------------------

void ShardedEngine::Route(const ReportBatch& batch, TickStats* stats) {
  TickScratch& scratch = *scratch_;
  const size_t num_shards = shards_.size();
  scratch.batches.resize(num_shards);
  scratch.captures.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    scratch.batches[s].clear();
    scratch.captures[s].clear();
  }
  scratch.resets.clear();
  scratch.rerouted.clear();

  RouteObjects(batch, stats);
  for (const PendingQueryChange& c : batch.query_changes) {
    RouteQueryChange(c, stats);
  }
  // A shard's removals are the routed global removals followed by the
  // hand-offs of departing upserts; restore one ascending order.
  for (ReportBatch& b : scratch.batches) {
    std::sort(b.removals.begin(), b.removals.end());
  }
}

void ShardedEngine::RouteObjects(const ReportBatch& batch, TickStats* stats) {
  TickScratch& scratch = *scratch_;
  for (ObjectId id : batch.removals) {
    auto it = objects_.find(id);
    STQ_CHECK(it != objects_.end())
        << "buffered removal of unknown object " << id;
    const RoutedObject& ro = it->second;
    for (int s : ro.shards) scratch.batches[s].removals.push_back(id);
    objects_.erase(it);
    ++stats->object_removals_applied;
  }

  for (const PendingObjectUpsert& u : batch.upserts) {
    ShardList& ns = scratch.route_ns;
    RouteShardsOfObject(u, &ns);
    for (int s : ns) scratch.batches[s].upserts.push_back(u);
    auto [it, inserted] = objects_.try_emplace(u.id);
    RoutedObject& ro = it->second;
    if (!inserted) {
      // Departed shards: the object hands off; the shard ships its own
      // phase-1 negatives for every answer it participated in there.
      for (int s : ro.shards) {
        if (!std::binary_search(ns.begin(), ns.end(), s)) {
          scratch.batches[s].removals.push_back(u.id);
        }
      }
    }
    ro.loc = u.loc;
    ro.vel = u.predictive ? u.vel : Velocity{};
    ro.t = u.t;
    ro.predictive = u.predictive;
    ro.shards = ns;
    ++stats->object_updates_applied;
  }
}

void ShardedEngine::RouteQueryChange(const PendingQueryChange& c,
                                     TickStats* stats) {
  if (c.kind == QueryChangeKind::kUnregister) {
    DropRoutedQuery(c.id, stats);
    return;
  }
  if (c.kind != QueryChangeKind::kMove) {
    // A Register; re-registration drops the old incarnation first.
    if (queries_.contains(c.id)) DropRoutedQuery(c.id, stats);
    RoutedQuery rq;
    switch (c.kind) {
      case QueryChangeKind::kRegisterRange:
        rq.kind = QueryKind::kRange;
        rq.region = c.region;
        break;
      case QueryChangeKind::kRegisterPredictive:
        rq.kind = QueryKind::kPredictiveRange;
        rq.region = c.region;
        rq.t_from = c.t_from;
        rq.t_to = c.t_to;
        break;
      case QueryChangeKind::kRegisterCircle:
        rq.kind = QueryKind::kCircleRange;
        rq.circle = Circle{c.center, c.radius};
        break;
      case QueryChangeKind::kRegisterKnn:
      case QueryChangeKind::kMove:
      case QueryChangeKind::kUnregister:
        STQ_CHECK(false) << "unreachable";
        break;
    }
    RouteShardsOf(rq, &rq.shards);
    for (int s : rq.shards) PushQueryChange(s, ShardRegistration(c.id, rq, s));
    queries_.emplace(c.id, std::move(rq));
    ++stats->query_changes_applied;
    return;
  }

  auto it = queries_.find(c.id);
  STQ_CHECK(it != queries_.end()) << "buffered move of unknown query";
  RoutedQuery& rq = it->second;
  ++stats->query_changes_applied;
  if (rq.kind == QueryKind::kCircleRange) {
    rq.circle.center = c.center;
  } else {
    rq.region = c.region;
  }
  ShardList& ns = scratch_->route_ns;
  RouteShardsOf(rq, &ns);
  if (!(ns == rq.shards)) scratch_->rerouted.push_back(c.id);
  for (int s : ns) {
    if (!std::binary_search(rq.shards.begin(), rq.shards.end(), s)) {
      PushQueryChange(s, ShardRegistration(c.id, rq, s));
      continue;
    }
    PendingQueryChange m;
    m.kind = QueryChangeKind::kMove;
    m.id = c.id;
    if (rq.kind == QueryKind::kCircleRange) {
      m.center = rq.circle.center;
    } else {
      m.region = rq.region.Intersection(map_.shard_rect(s));
    }
    PushQueryChange(s, m);
  }
  for (int s : rq.shards) {
    if (!std::binary_search(ns.begin(), ns.end(), s)) {
      // Departing shard: capture its committed answer (it turns
      // all-negative at the router), then unregister there.
      scratch_->captures[s].push_back(c.id);
      PendingQueryChange u;
      u.kind = QueryChangeKind::kUnregister;
      u.id = c.id;
      PushQueryChange(s, u);
    }
  }
  rq.shards = ns;
}

void ShardedEngine::DropRoutedQuery(QueryId qid, TickStats* stats) {
  auto it = queries_.find(qid);
  STQ_CHECK(it != queries_.end()) << "dropping unknown query " << qid;
  scratch_->resets.push_back(qid);
  for (int s : it->second.shards) {
    PendingQueryChange u;
    u.kind = QueryChangeKind::kUnregister;
    u.id = qid;
    PushQueryChange(s, u);
  }
  queries_.erase(it);
  ++stats->queries_unregistered;
}

void ShardedEngine::PushQueryChange(int s, const PendingQueryChange& c) {
  std::vector<PendingQueryChange>& changes =
      scratch_->batches[s].query_changes;
  if (!changes.empty() && changes.back().id == c.id) {
    STQ_DCHECK(changes.back().kind == QueryChangeKind::kUnregister &&
               c.kind != QueryChangeKind::kMove &&
               c.kind != QueryChangeKind::kUnregister)
        << "only an Unregister then Register of one query shares a shard";
    changes.back() = c;
    return;
  }
  changes.push_back(c);
}

PendingQueryChange ShardedEngine::ShardRegistration(QueryId qid,
                                                    const RoutedQuery& rq,
                                                    int s) const {
  PendingQueryChange c;
  c.id = qid;
  if (rq.kind == QueryKind::kCircleRange) {
    c.kind = QueryChangeKind::kRegisterCircle;
    c.center = rq.circle.center;
    c.radius = rq.circle.radius;
    return c;
  }
  c.kind = rq.kind == QueryKind::kRange ? QueryChangeKind::kRegisterRange
                                        : QueryChangeKind::kRegisterPredictive;
  c.region = rq.region.Intersection(map_.shard_rect(s));
  c.t_from = rq.t_from;
  c.t_to = rq.t_to;
  return c;
}

// --- Shard tick --------------------------------------------------------------

void ShardedEngine::TickShards(Timestamp now, TickStats* stats) {
  // Each touched shard's task reads its captures, applies its sub-batch
  // (shard ingestion overlaps with other shards' ticks — the route phase
  // only computed the decisions), runs the shard tick, and builds its
  // sorted leaf delta stream. Tasks are claimed via the pool's
  // work-stealing dispatcher with the largest sub-batches first, so one
  // heavy shard cannot strand the rest of a static partition idle.
  TickScratch& scratch = *scratch_;
  const size_t num_shards = shards_.size();
  std::vector<int>& ticked = scratch.ticked;
  ticked.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    if (scratch.batches[s].size() > 0) ticked.push_back(static_cast<int>(s));
  }
  std::sort(ticked.begin(), ticked.end(), [&scratch](int a, int b) {
    const size_t na = scratch.batches[a].size();
    const size_t nb = scratch.batches[b].size();
    if (na != nb) return na > nb;
    return a < b;  // deterministic tie-break
  });
  scratch.shard_entries.resize(num_shards);
  scratch.capture_ids.resize(num_shards);
  scratch.shard_results.resize(num_shards);
  std::vector<double>& shard_walls = scratch.shard_walls;
  shard_walls.assign(ticked.size(), 0.0);
  auto run_one = [&](size_t i) {
    PhaseTimer wall_timer(&shard_walls[i]);
    const int s = ticked[i];
    QueryProcessor& shard = *shards_[s];
    const ReportBatch& sub = scratch.batches[s];
    std::vector<MergeEntry>& leaf = scratch.shard_entries[s];
    leaf.clear();
    // A departing query's committed answer in this shard turns
    // all-negative at the router; it is read before the sub-batch
    // applies. Objects this shard removes this tick ship their own
    // phase-1 negatives and are skipped.
    std::vector<ObjectId>& captured = scratch.capture_ids[s];
    for (QueryId qid : scratch.captures[s]) {
      captured.clear();
      STQ_CHECK(shard.AppendAnswerIds(qid, &captured))
          << "shard " << s << " lost query " << qid;
      for (ObjectId oid : captured) {
        if (!std::binary_search(sub.removals.begin(), sub.removals.end(),
                                oid)) {
          leaf.push_back(MergeEntry{qid, oid, -1});
        }
      }
    }
    TickResult& r = scratch.shard_results[s];
    r.updates.clear();
    r.stats = TickStats{};
    shard.TickBatch(sub, now, &r.updates, &r.stats);
    // The raw stream needs no canonicalization first: a consistent
    // single grid never emits a cancelling (+, -) pair for one (query,
    // object) within a tick, so the leaf's sort and per-key sums see
    // exactly what the canonical stream would hold.
    for (const Update& u : r.updates) {
      leaf.push_back(MergeEntry{u.query, u.object,
                                u.sign == UpdateSign::kPositive ? 1 : -1});
    }
    BuildLeafStream(&leaf);
  };
  if (pool_ != nullptr) {
    pool_->RunDynamic(ticked.size(), run_one);
  } else {
    for (size_t i = 0; i < ticked.size(); ++i) run_one(i);
  }
  for (double w : shard_walls) {
    stats->shard_tick_busy_seconds += w;
    stats->shard_tick_max_seconds = std::max(stats->shard_tick_max_seconds, w);
  }
  stats->shards_ticked = ticked.size();
  for (int s : ticked) {
    const TickStats& ss = scratch.shard_results[s].stats;
    stats->removals_seconds += ss.removals_seconds;
    stats->upserts_seconds += ss.upserts_seconds;
    stats->query_changes_seconds += ss.query_changes_seconds;
    stats->query_pass_seconds += ss.query_pass_seconds;
    stats->object_match_seconds += ss.object_match_seconds;
    stats->object_apply_seconds += ss.object_apply_seconds;
    stats->cells_split += ss.cells_split;
    stats->cells_merged += ss.cells_merged;
    stats->adapt_seconds += ss.adapt_seconds;
  }
}

// --- Merge -------------------------------------------------------------------

void ShardedEngine::Merge(const ReportBatch& batch, std::vector<Update>* out) {
  // The sorted per-shard leaf streams are pairwise-combined on the worker
  // pool by a reduction tree. Per-key delta addition is associative and
  // commutative, so the root stream is independent of pairing and claim
  // order.
  TickScratch& scratch = *scratch_;
  std::vector<std::vector<MergeEntry>*>& cur = scratch.tree_cur;
  std::vector<std::vector<MergeEntry>*>& next = scratch.tree_next;
  std::vector<std::vector<MergeEntry>>& bufs = scratch.tree_bufs;
  cur.clear();
  for (int s : scratch.ticked) cur.push_back(&scratch.shard_entries[s]);
  if (cur.size() > 1 && bufs.size() < cur.size() - 1) {
    bufs.resize(cur.size() - 1);  // one reused buffer per internal node
  }
  size_t buf_idx = 0;
  while (cur.size() > 1) {
    const size_t pairs = cur.size() / 2;
    auto merge_pair = [&](size_t j) {
      MergeStreams(*cur[2 * j], *cur[2 * j + 1], &bufs[buf_idx + j]);
    };
    if (pool_ != nullptr) {
      pool_->RunDynamic(pairs, merge_pair);
    } else {
      for (size_t j = 0; j < pairs; ++j) merge_pair(j);
    }
    next.clear();
    for (size_t j = 0; j < pairs; ++j) next.push_back(&bufs[buf_idx + j]);
    if (cur.size() % 2 == 1) next.push_back(cur.back());
    buf_idx += pairs;
    cur.swap(next);
  }

  // The serial apply reads the shards' committed answers, the one copy of
  // every answer. For a root pair (q, o, d), `after` is the number of q's
  // shards whose answer holds o and `before = after - d`; a global update
  // ships only when the count crosses 0, so an object handed from one
  // shard to another (a cancelling -/+ pair) or matched by several
  // replicas ships nothing spurious.
  static const std::vector<MergeEntry> kNoEntries;
  const std::vector<MergeEntry>& entries = cur.empty() ? kNoEntries : *cur[0];
  const std::vector<QueryId>& resets = scratch.resets;
  const std::vector<QueryId>& rerouted = scratch.rerouted;
  std::vector<const AnswerSet*>& answers = scratch.answers;
  size_t i = 0;
  const size_t n = entries.size();
  while (i < n) {
    const QueryId q = entries[i].q;
    size_t q_end = i;
    while (q_end < n && entries[q_end].q == q) ++q_end;
    // A query dropped (and possibly re-registered) this tick starts a new
    // answer stream, as on the single grid: every member of the new
    // incarnation ships as a positive (before = 0), and of the old
    // incarnation only the negatives of removed members (below).
    const bool reset = std::binary_search(resets.begin(), resets.end(), q);
    const RoutedQuery* rq = queries_.FindPtr(q);
    // Held by the same single shard before and after the tick: the pair's
    // count is 0 or 1 on both sides, so `d` alone gives `after`.
    const bool one_shard =
        !reset && rq != nullptr && rq->shards.size() == 1 &&
        !std::binary_search(rerouted.begin(), rerouted.end(), q);
    answers.clear();
    if (rq != nullptr) {
      for (int s : rq->shards) {
        const QueryRecord* rec = shards_[s]->queries_.Find(q);
        STQ_CHECK(rec != nullptr) << "shard " << s << " lost query " << q;
        answers.push_back(&rec->answer);
      }
    }
    for (; i < q_end; ++i) {
      const ObjectId o = entries[i].o;
      const int d = entries[i].d;
      if (reset && d < 0 &&
          std::binary_search(batch.removals.begin(), batch.removals.end(),
                             o)) {
        // The single grid's phase 1 ships a negative for every removed
        // member of the query at tick start, even when the query is
        // dropped later in the tick.
        out->push_back(Update::Negative(q, o));
        continue;
      }
      if (d == 0 && !reset) continue;  // cancelled within or across shards
      int after = 0;
      if (one_shard) {
        after = d > 0 ? 1 : 0;
        STQ_DCHECK(after == (answers[0]->contains(o) ? 1 : 0))
            << "one-shard query " << q << " disagrees with its shard's "
            << "answer on object " << o;
      } else {
        for (const AnswerSet* a : answers) after += a->contains(o) ? 1 : 0;
      }
      const int before = reset ? 0 : after - d;
      STQ_DCHECK(before >= 0) << "negative shard count for query " << q
                              << ", object " << o;
      if (before == 0 && after > 0) {
        out->push_back(Update::Positive(q, o));
      } else if (before > 0 && after == 0) {
        out->push_back(Update::Negative(q, o));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t ShardedEngine::AnswerBytesResident() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->AnswerBytesResident();
  return bytes;
}

std::vector<int> ShardedEngine::ObjectShards(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return {};
  return std::vector<int>(it->second.shards.begin(), it->second.shards.end());
}

std::vector<int> ShardedEngine::QueryShards(QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return {};
  return std::vector<int>(it->second.shards.begin(), it->second.shards.end());
}

std::vector<ObjectId> ShardedEngine::CurrentAnswer(QueryId id) const {
  AnswerSet answer;
  STQ_CHECK(GetAnswerSet(id, &answer)) << "answer of unknown query " << id;
  return std::vector<ObjectId>(answer.begin(), answer.end());
}

bool ShardedEngine::GetAnswerSet(QueryId id, AnswerSet* out) const {
  out->clear();
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  // The union of the query's shard answers; a query held by one shard
  // copies that shard's answer whole. A shard that lost the query adds
  // nothing (AuditCrossShard reports it).
  for (int s : it->second.shards) {
    const QueryRecord* rec = shards_[s]->queries_.Find(id);
    if (rec == nullptr) continue;
    if (out->empty()) {
      *out = rec->answer;
    } else {
      out->insert(rec->answer.begin(), rec->answer.end());
    }
  }
  return true;
}

void ShardedEngine::ForEachObjectInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const QueryProcessor::ObjectInfo&)>& fn) const {
  for (const auto& [oid, ro] : objects_) {
    QueryProcessor::ObjectInfo info;
    info.id = oid;
    info.loc = ro.loc;
    info.vel = ro.vel;
    info.t = ro.t;
    info.predictive = ro.predictive;
    fn(info);
  }
}

void ShardedEngine::ForEachQueryInfo(
    // stq-lint: allow(alloc-discipline/function): cold introspection walk
    const std::function<void(const QueryProcessor::QueryInfo&)>& fn) const {
  AnswerSet answer;
  for (const auto& [qid, rq] : queries_) {
    QueryProcessor::QueryInfo info;
    info.id = qid;
    info.kind = rq.kind;
    info.region = rq.region;
    info.circle = rq.circle;
    info.t_from = rq.t_from;
    info.t_to = rq.t_to;
    GetAnswerSet(qid, &answer);
    info.answer_size = answer.size();
    fn(info);
  }
}

std::vector<ObjectId> ShardedEngine::EvaluateFromScratch(QueryId id) const {
  auto it = queries_.find(id);
  STQ_CHECK(it != queries_.end()) << "recomputing unknown query " << id;
  FlatSet<ObjectId> seen;
  for (int s : it->second.shards) {
    Result<std::vector<ObjectId>> part = shards_[s]->EvaluateFromScratch(id);
    STQ_CHECK(part.ok()) << "shard " << s << " lost query " << id << ": "
                         << part.status().ToString();
    seen.insert(part->begin(), part->end());
  }
  std::vector<ObjectId> answer(seen.begin(), seen.end());
  std::sort(answer.begin(), answer.end());
  return answer;
}

void ShardedEngine::SearchKnn(const Point& center,
                              KnnEvaluator::KBest* best) const {
  const int home = map_.HomeOf(center);
  shards_[home]->knn_.Search(center, best);
  for (int s = 0; s < map_.num_shards(); ++s) {
    // Every object in shard s is at least the rect's distance away; a
    // shard strictly beyond the current k-th distance cannot contribute.
    if (s == home ||
        map_.shard_rect(s).SquaredDistanceTo(center) > best->Bound()) {
      continue;
    }
    shards_[s]->knn_.Search(center, best);
  }
}

// ---------------------------------------------------------------------------
// Cross-shard audit
// ---------------------------------------------------------------------------

void ShardedEngine::AuditCrossShard(
    size_t max_violations, std::vector<std::string>* violations) const {
  auto full = [&]() { return violations->size() >= max_violations; };
  auto add = [&](const std::string& msg) {
    if (!full()) violations->push_back("cross-shard: " + msg);
  };

  // The partition map itself: uniform or explicit boundaries, it must be
  // structurally sound and every shard engine must cover exactly its
  // slab (rebalances rebuild both together; this catches drift).
  if (const Status st = map_.Validate(); !st.ok()) {
    add("shard map invalid: " + st.ToString());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Rect want = map_.shard_rect(static_cast<int>(s));
    const Rect& got = shards_[s]->options().bounds;
    if (want.min_x != got.min_x || want.min_y != got.min_y ||
        want.max_x != got.max_x || want.max_y != got.max_y) {
      std::ostringstream os;
      os << "shard " << s << " bounds disagree with the shard map";
      add(os.str());
    }
  }

  // Objects: routing is consistent and every routed shard stores the
  // exact same record.
  std::vector<ObjectId> oids;
  oids.reserve(objects_.size());
  for (const auto& [oid, ro] : objects_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  for (ObjectId oid : oids) {
    if (full()) return;
    const RoutedObject& ro = *objects_.FindPtr(oid);
    PendingObjectUpsert u;
    u.id = oid;
    u.loc = ro.loc;
    u.vel = ro.vel;
    u.t = ro.t;
    u.predictive = ro.predictive;
    ShardList expected;
    RouteShardsOfObject(u, &expected);
    if (!(expected == ro.shards)) {
      std::ostringstream os;
      os << "object " << oid << " routed to " << ro.shards.size()
         << " shard(s) but its location/footprint maps to "
         << expected.size();
      add(os.str());
    }
    if (!ro.predictive && ro.shards.size() != 1) {
      std::ostringstream os;
      os << "sampled object " << oid << " lives in " << ro.shards.size()
         << " shards (double-counted); expected exactly its home shard";
      add(os.str());
    }
    for (int s : ro.shards) {
      const ObjectRecord* rec = shards_[s]->object_store().Find(oid);
      if (rec == nullptr) {
        std::ostringstream os;
        os << "object " << oid << " routed to shard " << s
           << " but missing from its store";
        add(os.str());
        continue;
      }
      if (!(rec->loc == ro.loc) || rec->t != ro.t ||
          rec->predictive != ro.predictive || !(rec->vel == ro.vel)) {
        std::ostringstream os;
        os << "object " << oid << " state in shard " << s
           << " diverges from the router's record";
        add(os.str());
      }
    }
  }

  // Reverse direction: no shard stores an object the router did not
  // route there.
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<ObjectId> stored;
    shards_[s]->object_store().ForEach(
        [&](const ObjectRecord& rec) { stored.push_back(rec.id); });
    std::sort(stored.begin(), stored.end());
    for (ObjectId oid : stored) {
      if (full()) return;
      auto it = objects_.find(oid);
      if (it == objects_.end() ||
          !std::binary_search(it->second.shards.begin(),
                              it->second.shards.end(),
                              static_cast<int>(s))) {
        std::ostringstream os;
        os << "shard " << s << " stores object " << oid
           << " the router never routed there";
        add(os.str());
      }
    }
  }

  // Queries: shard registration matches routing.
  std::vector<QueryId> qids;
  qids.reserve(queries_.size());
  for (const auto& [qid, rq] : queries_) qids.push_back(qid);
  std::sort(qids.begin(), qids.end());
  for (QueryId qid : qids) {
    if (full()) return;
    const RoutedQuery& rq = *queries_.FindPtr(qid);
    ShardList expected;
    RouteShardsOf(rq, &expected);
    if (!(expected == rq.shards)) {
      std::ostringstream os;
      os << "query " << qid << " routed to " << rq.shards.size()
         << " shard(s) but its region overlaps " << expected.size();
      add(os.str());
    }
    for (int s : rq.shards) {
      if (shards_[s]->query_store().Find(qid) == nullptr) {
        std::ostringstream os;
        os << "query " << qid << " routed to shard " << s
           << " but missing from its store";
        add(os.str());
      }
    }
  }

  // Reverse direction: no shard hosts a query the router did not route
  // there (or of a different kind).
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<QueryId> stored;
    shards_[s]->query_store().ForEach(
        [&](const QueryRecord& rec) { stored.push_back(rec.id); });
    std::sort(stored.begin(), stored.end());
    for (QueryId qid : stored) {
      if (full()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() ||
          !std::binary_search(it->second.shards.begin(),
                              it->second.shards.end(), static_cast<int>(s))) {
        std::ostringstream os;
        os << "shard " << s << " hosts query " << qid
           << " the router never routed there";
        add(os.str());
        continue;
      }
      if (shards_[s]->query_store().Find(qid)->kind != it->second.kind) {
        std::ostringstream os;
        os << "shard " << s << " hosts query " << qid
           << " with a different kind than the router's record";
        add(os.str());
      }
    }
  }
}

}  // namespace stq
