#include "stq/core/circle_evaluator.h"

#include <vector>

#include "stq/common/check.h"

namespace stq {

Rect CircleEvaluator::FootprintOf(const QueryRecord& q, const Rect& bounds) {
  return q.circle.BoundingBox().Intersection(bounds);
}

void CircleEvaluator::OnCircleMoved(QueryRecord* q, std::vector<Update>* out) {
  // Negatives: members that fell outside the new disk.
  std::vector<ObjectId>& leavers = leavers_scratch_;
  leavers.clear();
  for (ObjectId oid : q->answer) {
    const ObjectRecord* o = state_.objects->Find(oid);
    STQ_DCHECK(o != nullptr);
    if (!Satisfies(*o, *q, state_.options->bounds)) leavers.push_back(oid);
  }
  for (ObjectId oid : leavers) {
    SetMembership(state_.objects->FindMutable(oid), q, false, out);
  }

  // Positives: gather the new bounding box's candidates, then run the
  // disk and bounds predicates as two kernels whose bitmaps AND
  // word-wise — exactly Satisfies() per lane. SetMembership suppresses
  // re-reports of objects already in the answer.
  CandidateBatch& b = batch_scratch_;
  b.clear();
  state_.grid->ForEachObjectCandidate(
      q->circle.BoundingBox(), [&](ObjectId oid) {
        const ObjectRecord* o = state_.objects->Find(oid);
        STQ_DCHECK(o != nullptr);
        b.Gather(*o);
      });
  const size_t n = b.size();
  if (n == 0) return;
  const size_t words = MatchBitmapWords(n);
  b.bits.resize(words);
  b.bits2.resize(words);
  PointsInCircle(b.x.data(), b.y.data(), n, q->circle.center,
                 q->circle.radius * q->circle.radius, b.bits.data());
  PointsInRect(b.x.data(), b.y.data(), n, state_.options->bounds,
               b.bits2.data());
  for (size_t w = 0; w < words; ++w) b.bits[w] &= b.bits2[w];
  EmitBatchPositives(b, state_.objects, q, out);
}

}  // namespace stq
