#include "stq/core/range_evaluator.h"

#include <vector>

#include "stq/common/check.h"

namespace stq {

void RangeEvaluator::OnQueryRegionChanged(QueryRecord* q,
                                          const Rect& old_region,
                                          std::vector<Update>* out) {
  // Negative updates: answer members that fell out of the new region
  // (i.e., lie in A_old - A_new; membership implies they were in A_old).
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    const ObjectRecord* o = state_.objects->Find(oid);
    STQ_DCHECK(o != nullptr) << "answer references missing object " << oid;
    if (!q->region.Contains(o->loc)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }

  // Positive updates: only A_new - A_old must be evaluated against the
  // grid; anything inside A_new ∩ A_old was already reported.
  RectDifference(q->region, old_region, &pieces_scratch_);
  // Per piece: gather the candidates into SoA arrays (candidates are
  // cell-granular), test the whole batch against the exact piece with one
  // rect kernel, and replay the set bits in gather order.
  CandidateBatch& b = batch_scratch_;
  for (const Rect& piece : pieces_scratch_) {
    b.clear();
    state_.grid->ForEachObjectCandidate(piece, [&](ObjectId oid) {
      const ObjectRecord* o = state_.objects->Find(oid);
      STQ_DCHECK(o != nullptr);
      b.Gather(*o);
    });
    const size_t n = b.size();
    if (n == 0) continue;
    b.bits.resize(MatchBitmapWords(n));
    PointsInRect(b.x.data(), b.y.data(), n, piece, b.bits.data());
    EmitBatchPositives(b, state_.objects, q, out);
  }
}

}  // namespace stq
