#include "stq/core/predictive_evaluator.h"

#include <algorithm>

#include "stq/common/check.h"
#include "stq/geo/geometry.h"

namespace stq {

bool PredictiveEvaluator::Satisfies(const ObjectRecord& o,
                                    const QueryRecord& q,
                                    const QueryProcessorOptions& options) {
  const double window_from = std::max(q.t_from, o.t);
  const double window_to = std::min(q.t_to, o.t + options.prediction_horizon);
  if (window_to < window_from) return false;
  return TrajectoryIntersectsRect(o.trajectory(), q.region, window_from,
                                  window_to, /*t_hit=*/nullptr);
}

void PredictiveEvaluator::OnQueryRegionChanged(QueryRecord* q,
                                               const Rect& old_region,
                                               std::vector<Update>* out) {
  // Negatives: members whose trajectory no longer satisfies the new
  // region within the window.
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    const ObjectRecord* o = state_.objects->Find(oid);
    STQ_DCHECK(o != nullptr);
    if (!Satisfies(*o, *q, *state_.options)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }

  // Positives: a trajectory that satisfies the new region but not the old
  // one must pass through A_new - A_old during the window, so its grid
  // footprint crosses a cell overlapping the difference — candidates from
  // those cells suffice. They are gathered once (deduplicated, in
  // first-visit order) with their velocity lanes, and the trajectory
  // kernel tests them against the full new region (the hit instant may
  // lie inside A_new ∩ A_old).
  FlatSet<ObjectId>& tested = tested_scratch_;
  tested.clear();
  RectDifference(q->region, old_region, &pieces_scratch_);
  CandidateBatch& b = batch_scratch_;
  b.clear();
  for (const Rect& piece : pieces_scratch_) {
    state_.grid->ForEachObjectCandidate(piece, [&](ObjectId oid) {
      if (!tested.insert(oid).second) return;
      const ObjectRecord* o = state_.objects->Find(oid);
      STQ_DCHECK(o != nullptr);
      b.GatherWithVelocity(*o);
    });
  }
  const size_t n = b.size();
  if (n == 0) return;
  b.bits.resize(MatchBitmapWords(n));
  TrajectoriesIntersectRectWindow(b.x.data(), b.y.data(), b.vx.data(),
                                  b.vy.data(), b.t.data(), n, q->region,
                                  q->t_from, q->t_to,
                                  state_.options->prediction_horizon,
                                  b.bits.data());
  EmitBatchPositives(b, state_.objects, q, out);
}

}  // namespace stq
