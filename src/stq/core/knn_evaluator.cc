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

// ---------------------------------------------------------------------------
// KnnMonitor
// ---------------------------------------------------------------------------

size_t KnnMonitor::BytesResident() const {
  size_t bytes = 0;
  for (const auto& [id, q] : queries_) {
    bytes += q.answer.capacity() * sizeof(ObjectId);
  }
  return bytes;
}

bool KnnMonitor::Take(const PendingQueryChange& c,
                      const std::vector<ObjectId>& removals,
                      std::vector<Update>* out, TickStats* stats) {
  Query* q = queries_.FindPtr(c.id);
  switch (c.kind) {
    case QueryChangeKind::kRegisterKnn:
      // A re-registration drops the old incarnation first; the new one
      // starts from an empty answer.
      if (q != nullptr) Drop(c.id, removals, out, stats);
      q = &queries_[c.id];
      q->k = c.k;
      [[fallthrough]];
    case QueryChangeKind::kMove:
      if (q == nullptr) return false;
      q->center = c.center;
      q->moved = true;
      ++stats->query_changes_applied;
      return true;
    case QueryChangeKind::kUnregister:
      if (q == nullptr) return false;
      Drop(c.id, removals, out, stats);
      return true;
    case QueryChangeKind::kRegisterRange:
    case QueryChangeKind::kRegisterPredictive:
    case QueryChangeKind::kRegisterCircle:
      if (q != nullptr) Drop(c.id, removals, out, stats);
      return false;
  }
  return false;
}

void KnnMonitor::Drop(QueryId id, const std::vector<ObjectId>& removals,
                      std::vector<Update>* out, TickStats* stats) {
  for (ObjectId oid : queries_.FindPtr(id)->answer) {
    if (std::binary_search(removals.begin(), removals.end(), oid)) {
      out->push_back(Update::Negative(id, oid));
    }
  }
  queries_.erase(id);
  ++stats->queries_unregistered;
}

void KnnMonitor::PrepareSlots(size_t population) {
  slots_.Clear();
  for (const auto& [id, q] : queries_) slots_.Add(id, q.k, population);
  slots_.Allocate();
  searched_.assign(slots_.size(), 0);
}

bool KnnMonitor::Disturbed(const Query& q, const ReportBatch& batch) const {
  if (q.moved) return true;
  for (ObjectId oid : q.answer) {
    if (std::binary_search(batch.removals.begin(), batch.removals.end(),
                           oid)) {
      return true;
    }
    const auto u = std::lower_bound(
        batch.upserts.begin(), batch.upserts.end(), oid,
        [](const PendingObjectUpsert& a, ObjectId id) { return a.id < id; });
    if (u != batch.upserts.end() && u->id == oid) return true;
  }
  return touched_.AnyWithin(q.center, q.dist2);
}

void KnnMonitor::TouchedLocations::Build(
    const std::vector<PendingObjectUpsert>& upserts) {
  points_.clear();
  if (upserts.empty()) return;
  min_ = upserts[0].loc;
  Point max = min_;
  for (const PendingObjectUpsert& u : upserts) {
    min_ = Point{std::min(min_.x, u.loc.x), std::min(min_.y, u.loc.y)};
    max = Point{std::max(max.x, u.loc.x), std::max(max.y, u.loc.y)};
  }
  side_ = std::clamp(
      static_cast<int>(std::ceil(std::sqrt(upserts.size() / 2.0))), 1, 1024);
  scale_ = Point{max.x > min_.x ? side_ / (max.x - min_.x) : 0.0,
                 max.y > min_.y ? side_ / (max.y - min_.y) : 0.0};
  // Counting sort by cell: count, prefix-sum to each cell's end, then
  // fill every cell back to front, leaving starts_[c] at its begin.
  const size_t cells = static_cast<size_t>(side_) * side_;
  starts_.assign(cells + 1, 0);
  for (const PendingObjectUpsert& u : upserts) ++starts_[Cell(u.loc)];
  for (size_t c = 1; c <= cells; ++c) starts_[c] += starts_[c - 1];
  points_.resize(upserts.size());
  for (const PendingObjectUpsert& u : upserts) {
    points_[--starts_[Cell(u.loc)]] = u.loc;
  }
}

bool KnnMonitor::TouchedLocations::AnyWithin(const Point& c, double r2) const {
  if (points_.empty()) return false;
  if (std::isinf(r2)) return true;
  // Any location within sqrt(r2) of `c` lies in the cells the circle's
  // bounding box overlaps: the cell index is monotone in the coordinate,
  // and the 1e-9 relative margin covers every rounding step between the
  // squared-distance test and the box edges.
  const double r = std::sqrt(r2) * (1.0 + 1e-9);
  const int x0 = CellX(c.x - r), x1 = CellX(c.x + r);
  const int y0 = CellY(c.y - r), y1 = CellY(c.y + r);
  for (int y = y0; y <= y1; ++y) {
    const size_t row = static_cast<size_t>(y) * side_;
    for (uint32_t i = starts_[row + x0]; i < starts_[row + x1 + 1]; ++i) {
      if (SquaredDistance(c, points_[i]) <= r2) return true;
    }
  }
  return false;
}

size_t KnnMonitor::ApplySearched(std::vector<Update>* out) {
  size_t applied = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!searched_[i]) continue;
    const QueryId qid = slots_.qid(i);
    Query& q = *queries_.FindPtr(qid);
    const std::span<const KnnEvaluator::Neighbor> neighbors = slots_.answer(i);
    fresh_.clear();
    for (const KnnEvaluator::Neighbor& n : neighbors) fresh_.push_back(n.id);
    std::sort(fresh_.begin(), fresh_.end());
    for (ObjectId oid : q.answer) {
      if (!std::binary_search(fresh_.begin(), fresh_.end(), oid)) {
        out->push_back(Update::Negative(qid, oid));
      }
    }
    for (ObjectId oid : fresh_) {
      if (!std::binary_search(q.answer.begin(), q.answer.end(), oid)) {
        out->push_back(Update::Positive(qid, oid));
      }
    }
    q.answer.assign(fresh_.begin(), fresh_.end());
    q.dist2 = neighbors.size() == static_cast<size_t>(q.k)
                  ? neighbors.back().dist2
                  : std::numeric_limits<double>::infinity();
    q.moved = false;
    ++applied;
  }
  return applied;
}

}  // namespace stq
