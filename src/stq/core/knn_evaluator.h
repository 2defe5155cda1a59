// Continuous k-nearest-neighbor queries: the exact search, and the one
// owner of every k-NN answer.
//
// "k-nearest-neighbor queries are stored in the grid structure by
// considering the query region as the smallest circular region that
// contains the k nearest objects." (paper, Section 3.1)
//
// KnnEvaluator is the exact search over one grid: an expanding-ring walk
// that reads only the slots that can hold a neighbour. KnnMonitor keeps
// every k-NN query of a QueryProcessor above its engine (the single grid
// or the sharded router, which only search): per query the focal point,
// k, the committed answer and the exact k-th distance — the circle's
// squared radius. Each tick it re-evaluates only the queries that the
// tick's reports disturbed, and ships the answer delta as +/- updates
// (paper, Example II).

#ifndef STQ_CORE_KNN_EVALUATOR_H_
#define STQ_CORE_KNN_EVALUATOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stq/common/flat_hash.h"
#include "stq/common/thread_pool.h"
#include "stq/core/engine_state.h"
#include "stq/core/update_buffer.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

class KnnEvaluator {
 public:
  explicit KnnEvaluator(EngineState state) : state_(state) {}

  // Exact k-NN search over the grid: the k objects nearest to `center`,
  // ties broken by object id, sorted by (distance^2, id).
  struct Neighbor {
    double dist2 = 0.0;
    ObjectId id = 0;

    friend bool operator<(const Neighbor& a, const Neighbor& b) {
      if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
      return a.id < b.id;
    }
  };

  // The running k best of a search: caller-owned room for `capacity`
  // neighbours, of which the first `size` are filled, sorted by
  // (dist2, id). A search only offers candidates to it, so one list can
  // be passed through several grids (the sharded router's per-shard
  // pass). AnswerSlots below sizes and owns the room.
  struct KBest {
    Neighbor* slots = nullptr;
    size_t capacity = 0;
    size_t size = 0;

    // The squared distance a candidate must not exceed to enter: the
    // worst kept neighbour's once the list is full, +inf before.
    double Bound() const {
      return size == capacity && size > 0
                 ? slots[size - 1].dist2
                 : std::numeric_limits<double>::infinity();
    }
    // Inserts `n` in order, dropping the worst when full. An exact
    // (dist2, id) repeat is dropped: a predictive object clipped into
    // several slots, or replicated into several shards, is offered once
    // per copy with the same stored location.
    void Offer(const Neighbor& n);
  };

  // One KBest per query, carved out of one flat neighbour buffer that is
  // reused across ticks, so a steady-state refresh allocates nothing:
  // Add a slot per query, Allocate once, then fill slot i through
  // best(i). Slots share no memory, so concurrent searches into distinct
  // slots are race-free.
  class AnswerSlots {
   public:
    // The room a k-NN search needs: min(k, population), so a huge k
    // cannot demand more than there are objects to find.
    static size_t Capacity(int k, size_t population) {
      return std::min(static_cast<size_t>(std::max(k, 0)), population);
    }

    void Clear() { slots_.clear(); }
    // Appends a slot for `qid` with Capacity(k, population) room.
    void Add(QueryId qid, int k, size_t population) {
      slots_.push_back(Slot{qid, KBest{nullptr, Capacity(k, population), 0}});
    }
    // Orders the slots by ascending query id, the order the refresh
    // applies its answers in, and points each at its part of the buffer.
    void Allocate();

    size_t size() const { return slots_.size(); }
    QueryId qid(size_t i) const { return slots_[i].qid; }
    KBest* best(size_t i) { return &slots_[i].best; }
    // Slot i's neighbours so far, sorted by (dist2, id).
    std::span<const Neighbor> answer(size_t i) const {
      return {slots_[i].best.slots, slots_[i].best.size};
    }

   private:
    struct Slot {
      QueryId qid = 0;
      KBest best;
    };
    std::vector<Slot> slots_;
    std::vector<Neighbor> neighbors_;
  };

  // Offers every object of the grid that can beat `best`'s bound. Visits
  // the base cells ring by ring around `center` and, inside each cell,
  // each slot (one per unrefined cell, each leaf of a refined one),
  // starting with the slot nearest to `center`; a cell or slot farther
  // than the bound is skipped unread. Allocates nothing.
  void Search(const Point& center, KBest* best) const;
  // The same search into a fresh vector, for tests and cold callers.
  std::vector<Neighbor> Search(const Point& center, int k) const;

  // Brute-force k-NN, the from-scratch oracle k-NN answers are checked
  // against: the ids of the k objects nearest to `center`, in
  // (dist2, id) order. `for_each_object(visit)` must call
  // visit(ObjectId, const Point&) once per object.
  template <typename ForEachObject>
  static std::vector<ObjectId> NearestByBruteForce(
      const Point& center, int k, ForEachObject&& for_each_object) {
    std::vector<Neighbor> all;
    for_each_object([&](ObjectId id, const Point& loc) {
      all.push_back(Neighbor{SquaredDistance(center, loc), id});
    });
    const size_t keep =
        std::min(all.size(), static_cast<size_t>(std::max(k, 0)));
    std::partial_sort(all.begin(), all.begin() + keep, all.end());
    std::vector<ObjectId> ids;
    ids.reserve(keep);
    for (size_t i = 0; i < keep; ++i) ids.push_back(all[i].id);
    return ids;
  }

 private:
  EngineState state_;
};

// Every continuous k-NN query of one QueryProcessor, for both engines.
// The front hands it each drained batch twice: TakeChanges before the
// engine tick moves the k-NN registrations, moves and unregistrations out
// of the batch, and Refresh after it re-evaluates the disturbed queries
// through the engine's search. Single-threaded apart from Refresh's
// parallel half, which only reads.
class KnnMonitor {
 public:
  struct Query {
    Point center;
    int k = 0;
    // The committed answer, ascending by id.
    std::vector<ObjectId> answer;
    // The exact squared distance to the k-th neighbour: the answer
    // circle's squared radius, +inf while fewer than k objects exist.
    // Tests against it use <=, so an exact tie counts as inside.
    double dist2 = std::numeric_limits<double>::infinity();
    // Registered, or its focal point moved, since the last refresh.
    bool moved = false;
  };

  bool empty() const { return queries_.empty(); }
  size_t size() const { return queries_.size(); }
  const Query* Find(QueryId id) const { return queries_.FindPtr(id); }
  // fn(QueryId, const Query&) per query, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [id, q] : queries_) fn(id, q);
  }
  // Heap bytes held by the committed answers.
  size_t BytesResident() const;

  // Takes the k-NN changes out of `batch->query_changes`, in place and in
  // id order: a k-NN registration, and a move or unregistration of a
  // k-NN query, become the monitor's. A registration of another kind
  // over a k-NN id drops the monitor's query and stays in the batch; a
  // k-NN registration over an id the engine holds (`engine_has(id)`)
  // leaves the engine an Unregister in its place. A dropped query ships a
  // negative for each member in `batch->removals`, as the engines do for
  // a removed object's memberships.
  template <typename EngineHas>
  void TakeChanges(ReportBatch* batch, EngineHas&& engine_has,
                   std::vector<Update>* out, TickStats* stats) {
    std::vector<PendingQueryChange>& changes = batch->query_changes;
    if (queries_.empty() &&
        std::none_of(changes.begin(), changes.end(), [](const auto& c) {
          return c.kind == QueryChangeKind::kRegisterKnn;
        })) {
      return;  // the common case of a workload without k-NN queries
    }
    size_t kept = 0;
    for (size_t i = 0; i < changes.size(); ++i) {
      PendingQueryChange c = changes[i];
      if (Take(c, batch->removals, out, stats)) {
        if (c.kind != QueryChangeKind::kRegisterKnn || !engine_has(c.id)) {
          continue;
        }
        c.kind = QueryChangeKind::kUnregister;
      }
      changes[kept++] = c;
    }
    changes.resize(kept);
  }

  // Re-evaluates, after the engine applied `batch`, every query it
  // disturbed: one registered or moved this tick, one with a member in
  // `batch.removals` or `batch.upserts`, or one with an upsert's new
  // location within its k-th distance. A non-member's old location needs
  // no test: it was farther than the k-th distance, or an exact tie that
  // lost on id, so its leaving changes nothing. The dirty tests and
  // `search(center, best)` calls run on `pool` (null: inline), each
  // query into its own slot; the diffs apply serially in qid order, so
  // the stream is the same for every worker count. `population` is the
  // engine's object count. Times the parallel half into
  // knn_search_seconds, the serial half into knn_apply_seconds, the
  // whole into shard_knn_seconds.
  template <typename Search>
  void Refresh(const ReportBatch& batch, size_t population, ThreadPool* pool,
               Search&& search, std::vector<Update>* out, TickStats* stats) {
    if (queries_.empty()) return;
    PhaseTimer refresh_timer(&stats->shard_knn_seconds);
    {
      PhaseTimer timer(&stats->knn_search_seconds);
      PrepareSlots(population);
      touched_.Build(batch.upserts);
      auto search_one = [&](size_t i) {
        const Query& q = *queries_.FindPtr(slots_.qid(i));
        if (!Disturbed(q, batch)) return;
        searched_[i] = 1;
        search(q.center, slots_.best(i));
      };
      if (pool != nullptr) {
        pool->RunDynamic(slots_.size(), search_one);
      } else {
        for (size_t i = 0; i < slots_.size(); ++i) search_one(i);
      }
    }
    PhaseTimer timer(&stats->knn_apply_seconds);
    stats->knn_reevaluations += ApplySearched(out);
  }

 private:
  // The tick's upsert locations, bucketed once per refresh into a flat
  // side x side grid over their bounding box (about two per cell), so a
  // query's location test reads only the cells its circle overlaps.
  class TouchedLocations {
   public:
    void Build(const std::vector<PendingObjectUpsert>& upserts);
    // True when some location lies within squared distance `r2` of `c`
    // (closed: an exact tie counts).
    bool AnyWithin(const Point& c, double r2) const;

   private:
    int CellX(double x) const {
      return ClampedFloor((x - min_.x) * scale_.x, side_);
    }
    int CellY(double y) const {
      return ClampedFloor((y - min_.y) * scale_.y, side_);
    }
    size_t Cell(const Point& p) const {
      return static_cast<size_t>(CellY(p.y)) * side_ + CellX(p.x);
    }

    Point min_;
    Point scale_;  // cells per unit length, per axis
    int side_ = 1;
    std::vector<uint32_t> starts_;  // cell c holds [starts_[c], starts_[c+1])
    std::vector<Point> points_;     // grouped by cell
  };
  // Applies `c` if it is the monitor's; false leaves it to the engine.
  bool Take(const PendingQueryChange& c, const std::vector<ObjectId>& removals,
            std::vector<Update>* out, TickStats* stats);
  void Drop(QueryId id, const std::vector<ObjectId>& removals,
            std::vector<Update>* out, TickStats* stats);
  // One slot per query, ascending qid, none searched yet.
  void PrepareSlots(size_t population);
  bool Disturbed(const Query& q, const ReportBatch& batch) const;
  // Diffs and commits each searched slot's answer; returns their count.
  size_t ApplySearched(std::vector<Update>* out);

  FlatMap<QueryId, Query> queries_;

  // Refresh scratch, reused across ticks so the steady state allocates
  // nothing (see DESIGN.md, "Memory layout & allocation discipline").
  // `searched_` is indexed by slot and written only by the worker that
  // claims the slot.
  KnnEvaluator::AnswerSlots slots_;
  std::vector<char> searched_;
  std::vector<ObjectId> fresh_;
  TouchedLocations touched_;
};

}  // namespace stq

#endif  // STQ_CORE_KNN_EVALUATOR_H_
