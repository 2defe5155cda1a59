// Incremental maintenance of continuous k-nearest-neighbor queries.
//
// "k-nearest-neighbor queries are stored in the grid structure by
// considering the query region as the smallest circular region that
// contains the k nearest objects." (paper, Section 3.1)
//
// A k-NN query becomes *dirty* when its focal point moves, when an answer
// member moves or disappears, or when some object moves inside the answer
// circle. Only dirty queries are re-evaluated; the re-evaluation performs
// an expanding-ring search over the grid that reads only the slots that
// can hold a neighbour, and the answer delta is shipped as +/- updates
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

namespace stq {

class KnnEvaluator {
 public:
  explicit KnnEvaluator(EngineState state) : state_(state) {}

  // Schedules `qid` for re-evaluation at the end of the current tick.
  void MarkDirty(QueryId qid) { dirty_.insert(qid); }
  void ClearDirty() { dirty_.clear(); }
  size_t num_dirty() const { return dirty_.size(); }

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
  // reused across ticks, so a steady-state refresh allocates nothing.
  // Both engines' k-NN refreshes search into it: Add a slot per query,
  // Allocate once, then fill slot i through best(i). Slots share no
  // memory, so concurrent searches into distinct slots are race-free.
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
    // Orders the slots by ascending query id, the order every refresh
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

  // Brute-force k-NN, the from-scratch oracle both engines answer k-NN
  // queries with: the ids of the k objects nearest to `center`, in
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

  // Re-evaluates every dirty query that still exists: recomputes the k
  // nearest objects, emits the answer delta, updates the circle and
  // re-clips the query's grid footprint. Returns the number of queries
  // re-evaluated. Equivalent to SearchDirty(pool) then ApplyDirty(out);
  // the update stream is byte-identical for every worker count.
  size_t ReevaluateDirty(std::vector<Update>* out,
                         ThreadPool* pool = nullptr);

  // The two halves of ReevaluateDirty, split so the processor can time
  // them independently.
  //
  // SearchDirty consumes the dirty set and runs one grid search per
  // still-live k-NN query, each into its own AnswerSlots slot. Searches
  // only READ the grid and the stores, so they run concurrently on
  // `pool`; the results are worker-count-invariant.
  void SearchDirty(ThreadPool* pool = nullptr);

  // ApplyDirty replays the answers SearchDirty computed serially, in
  // ascending query id: emits delta updates, refreshes each answer
  // circle, re-clips grid footprints. ApplyAnswer mutates nothing a
  // concurrent Search reads, which is what makes the split sound.
  // Returns the number of queries re-evaluated.
  size_t ApplyDirty(std::vector<Update>* out);

 private:
  // Applies a freshly computed answer to `q`: emits delta updates,
  // updates the circle radius, re-clips the grid footprint.
  void ApplyAnswer(QueryRecord* q, std::span<const Neighbor> neighbors,
                   std::vector<Update>* out);

  EngineState state_;
  FlatSet<QueryId> dirty_;

  // Tick-scoped scratch, reused across ReevaluateDirty calls so the
  // steady state stops allocating (see DESIGN.md, "Memory layout &
  // allocation discipline").
  AnswerSlots answers_scratch_;
  FlatSet<ObjectId> fresh_scratch_;
  std::vector<ObjectId> leavers_scratch_;
};

}  // namespace stq

#endif  // STQ_CORE_KNN_EVALUATOR_H_
