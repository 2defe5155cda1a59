// Shared mutable state threaded through the evaluation passes: the grid,
// the two stores, and the options. Owned by QueryProcessor; evaluators
// borrow it.

#ifndef STQ_CORE_ENGINE_STATE_H_
#define STQ_CORE_ENGINE_STATE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "stq/core/match_kernels.h"
#include "stq/core/object_store.h"
#include "stq/core/options.h"
#include "stq/core/query_store.h"
#include "stq/core/types.h"
#include "stq/grid/grid_index.h"

namespace stq {

struct EngineState {
  GridIndex* grid = nullptr;
  ObjectStore* objects = nullptr;
  QueryStore* queries = nullptr;
  const QueryProcessorOptions* options = nullptr;
};

// Sets object `o`'s membership in `q`'s answer to `in`, emitting the
// corresponding positive/negative update iff the membership actually
// changed. Keeps the answer set and the object's QList in lockstep.
inline void SetMembership(ObjectRecord* o, QueryRecord* q, bool in,
                          std::vector<Update>* out) {
  if (in) {
    if (q->answer.insert(o->id)) {
      ObjectStore::AddQuery(o, q->id);
      out->push_back(Update::Positive(q->id, o->id));
    }
  } else {
    if (q->answer.erase(o->id)) {
      ObjectStore::RemoveQuery(o, q->id);
      out->push_back(Update::Negative(q->id, o->id));
    }
  }
}

// Structure-of-arrays candidate batch for the predicate kernels
// (core/match_kernels.h): parallel arrays of candidate ids and
// their sampled state, plus the match bitmaps the kernels fill. Owned as
// tick-scoped scratch so capacity survives across uses.
struct CandidateBatch {
  std::vector<ObjectId> ids;
  std::vector<double> x, y, t;
  std::vector<double> vx, vy;  // gathered only for the trajectory kernel

  // Match bitmaps; `bits2` holds the second predicate of two-test kinds
  // (circle range = disk AND bounds) before the word-wise AND.
  std::vector<uint64_t> bits, bits2;

  size_t size() const { return ids.size(); }

  void clear() {
    ids.clear();
    x.clear();
    y.clear();
    t.clear();
    vx.clear();
    vy.clear();
  }

  void Gather(const ObjectRecord& o) {
    ids.push_back(o.id);
    x.push_back(o.loc.x);
    y.push_back(o.loc.y);
    t.push_back(o.t);
  }

  void GatherWithVelocity(const ObjectRecord& o) {
    Gather(o);
    vx.push_back(o.vel.vx);
    vy.push_back(o.vel.vy);
  }
};

// Replays the set bits of `batch.bits` as positive memberships of `q`,
// ascending by batch index — i.e. in exactly the gather order. The
// insert half of SetMembership, except that an object's record is looked
// up only when the answer insert succeeds (a member stays a no-op).
inline void EmitBatchPositives(const CandidateBatch& batch,
                               ObjectStore* objects, QueryRecord* q,
                               std::vector<Update>* out) {
  const size_t words = MatchBitmapWords(batch.size());
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = batch.bits[w];
    while (word != 0) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
      word &= word - 1;
      const ObjectId oid = batch.ids[i];
      if (q->answer.insert(oid)) {
        ObjectStore::AddQuery(objects->FindMutable(oid), q->id);
        out->push_back(Update::Positive(q->id, oid));
      }
    }
  }
}

}  // namespace stq

#endif  // STQ_CORE_ENGINE_STATE_H_
