#include "stq/core/knn_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stq/common/check.h"

namespace stq {

void KnnEvaluator::KBest::Offer(const Neighbor& n) {
  if (capacity == 0 || (size == capacity && !(n < slots[size - 1]))) return;
  Neighbor* const end = slots + size;
  Neighbor* const pos = std::lower_bound(slots, end, n);
  if (pos != end && !(n < *pos)) return;  // exact repeat
  if (size < capacity) ++size;
  std::copy_backward(pos, slots + size - 1, slots + size);
  *pos = n;
}

void KnnEvaluator::AnswerSlots::Allocate() {
  std::sort(slots_.begin(), slots_.end(),
            [](const Slot& a, const Slot& b) { return a.qid < b.qid; });
  size_t total = 0;
  for (const Slot& s : slots_) total += s.best.capacity;
  neighbors_.resize(total);
  Neighbor* next = neighbors_.data();
  for (Slot& s : slots_) {
    s.best.slots = next;
    s.best.size = 0;
    next += s.best.capacity;
  }
}

void KnnEvaluator::Search(const Point& center, KBest* best) const {
  if (best->capacity == 0 || state_.objects->empty()) return;

  const GridIndex& grid = *state_.grid;
  const CellCoord cc = grid.CellOf(center);
  const Rect& bounds = grid.bounds();

  for (int ring = 0;; ++ring) {
    // Lower bound on the distance to anything not yet scanned: the
    // distance from `center` to the boundary of the block of cells with
    // Chebyshev ring index <= ring-1 (i.e., everything fully scanned).
    if (ring > 0 && best->size == best->capacity) {
      const double block_min_x =
          bounds.min_x + (cc.x - (ring - 1)) * grid.cell_width();
      const double block_max_x =
          bounds.min_x + (cc.x + ring) * grid.cell_width();
      const double block_min_y =
          bounds.min_y + (cc.y - (ring - 1)) * grid.cell_height();
      const double block_max_y =
          bounds.min_y + (cc.y + ring) * grid.cell_height();
      const double lb = std::min(
          std::min(center.x - block_min_x, block_max_x - center.x),
          std::min(center.y - block_min_y, block_max_y - center.y));
      if (lb >= 0.0 && lb * lb > best->Bound()) break;
    }

    const bool any_in_bounds = grid.ForEachCellInRing(
        cc, ring, [&](const CellCoord& c) {
          // Skip a cell, then a slot, that cannot beat the current k-th
          // distance. The bound is `>`, so exact ties are still read.
          if (grid.CellBounds(c).SquaredDistanceTo(center) > best->Bound()) {
            return;
          }
          grid.ForEachObjectSlotInCell(
              c, center, [&](const Rect& slot, std::span<const ObjectId> ids) {
                if (slot.SquaredDistanceTo(center) > best->Bound()) return;
                for (ObjectId oid : ids) {
                  const ObjectRecord* o = state_.objects->Find(oid);
                  STQ_DCHECK(o != nullptr);
                  best->Offer(Neighbor{SquaredDistance(center, o->loc), oid});
                }
              });
        });
    if (!any_in_bounds && ring > 0) break;  // grid exhausted
  }
}

std::vector<KnnEvaluator::Neighbor> KnnEvaluator::Search(const Point& center,
                                                         int k) const {
  std::vector<Neighbor> result(
      AnswerSlots::Capacity(k, state_.objects->size()));
  KBest best{result.data(), result.size(), 0};
  Search(center, &best);
  result.resize(best.size);
  return result;
}

void KnnEvaluator::ApplyAnswer(QueryRecord* q,
                               std::span<const Neighbor> neighbors,
                               std::vector<Update>* out) {
  FlatSet<ObjectId>& fresh = fresh_scratch_;
  fresh.clear();
  fresh.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) fresh.insert(n.id);

  // Negatives: previous members no longer among the k nearest.
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    if (!fresh.contains(oid)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }
  // Positives: new members.
  for (const Neighbor& n : neighbors) {
    SetMembership(state_.objects->FindMutable(n.id), q, true, out);
  }

  // The answer circle: radius = distance to the k-th nearest neighbor.
  // While the database holds fewer than k objects, any future object
  // anywhere could enter the answer, so the circle covers the whole space.
  if (neighbors.size() < static_cast<size_t>(q->k)) {
    q->circle.radius = std::numeric_limits<double>::infinity();
    q->knn_dist2 = std::numeric_limits<double>::infinity();
  } else {
    q->knn_dist2 = neighbors.back().dist2;
    q->circle.radius = std::sqrt(neighbors.back().dist2);
  }

  // Re-clip the grid footprint to the new circle's bounding box
  // (intersected with the space bounds; an infinite radius covers all).
  // The tiny expansion absorbs the radius' square-root rounding so exact
  // tie-distance objects stay inside the footprint.
  const Rect& bounds = state_.grid->bounds();
  Rect footprint =
      std::isinf(q->circle.radius)
          ? bounds
          : q->circle.BoundingBox().Expanded(1e-12).Intersection(bounds);
  if (footprint.IsEmpty()) {
    // Circle of radius 0 (k-th neighbor exactly at the focal point) or a
    // focal point outside the space: keep at least the focal cell.
    const CellCoord c = state_.grid->CellOf(q->circle.center);
    footprint = state_.grid->CellBounds(c);
  }
  if (!(footprint == q->grid_footprint)) {
    if (!q->grid_footprint.IsEmpty()) {
      state_.grid->RemoveQuery(q->id, q->grid_footprint);
    }
    state_.grid->InsertQuery(q->id, footprint);
    q->grid_footprint = footprint;
  }
}

size_t KnnEvaluator::ReevaluateDirty(std::vector<Update>* out,
                                     ThreadPool* pool) {
  SearchDirty(pool);
  return ApplyDirty(out);
}

void KnnEvaluator::SearchDirty(ThreadPool* pool) {
  // One slot per still-live k-NN query; Allocate orders them by query
  // id, so the apply order does not depend on hash iteration.
  AnswerSlots& answers = answers_scratch_;
  answers.Clear();
  const size_t population = state_.objects->size();
  for (QueryId qid : dirty_) {
    const QueryRecord* q = state_.queries->Find(qid);
    if (q != nullptr && q->kind == QueryKind::kKnn) {
      answers.Add(qid, q->k, population);
    }
  }
  dirty_.clear();
  answers.Allocate();

  // The searches touch only const state (grid cells, object locations),
  // never the answer sets or footprints ApplyDirty rewrites, and each
  // writes only its own slot, so running them concurrently is race-free
  // and the slots match a serial run.
  auto search_one = [&](size_t i) {
    Search(state_.queries->Find(answers.qid(i))->circle.center,
           answers.best(i));
  };
  if (pool != nullptr) {
    pool->RunDynamic(answers.size(), search_one);
  } else {
    for (size_t i = 0; i < answers.size(); ++i) search_one(i);
  }
}

size_t KnnEvaluator::ApplyDirty(std::vector<Update>* out) {
  AnswerSlots& answers = answers_scratch_;
  for (size_t i = 0; i < answers.size(); ++i) {
    QueryRecord* q = state_.queries->FindMutable(answers.qid(i));
    STQ_DCHECK(q != nullptr);
    ApplyAnswer(q, answers.answer(i), out);
  }
  const size_t applied = answers.size();
  answers.Clear();  // consumed: a second call applies nothing
  return applied;
}

}  // namespace stq
