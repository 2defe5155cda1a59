// UpdateBuffer: bulk buffering of incoming reports.
//
// "Since a typical location-aware server receives a massive amount of
// updates from moving objects and queries, it becomes a huge overhead to
// handle each update individually. Thus, we buffer a set of updates from
// moving objects and queries for bulk processing." (paper, Section 3.1)
//
// Between two evaluation ticks, the buffer coalesces reports per id
// (last-wins: only the most recent location / region matters), so one
// object reporting ten times in a period costs one evaluation.

#ifndef STQ_CORE_UPDATE_BUFFER_H_
#define STQ_CORE_UPDATE_BUFFER_H_

#include <cstddef>
#include <vector>

#include "stq/common/clock.h"
#include "stq/common/flat_hash.h"
#include "stq/common/ids.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

struct PendingObjectUpsert {
  ObjectId id = 0;
  Point loc;
  Velocity vel;
  Timestamp t = 0.0;
  bool predictive = false;
};

enum class QueryChangeKind {
  kRegisterRange,
  kRegisterKnn,
  kRegisterPredictive,
  kRegisterCircle,
  kMove,        // geometry change of an existing query
  kUnregister,
};

struct PendingQueryChange {
  QueryChangeKind kind = QueryChangeKind::kMove;
  QueryId id = 0;
  // Geometry payload; which fields matter depends on the target query's
  // kind (range/predictive: region; knn/circle: center).
  Rect region;
  Point center;
  int k = 0;
  double radius = 0.0;  // circle queries
  double t_from = 0.0;
  double t_to = 0.0;
};

// One tick's drained reports, each list in ascending id order with at
// most one entry per id: what QueryProcessor's front hands an engine's
// batch tick, and what the sharded router hands each shard.
struct ReportBatch {
  std::vector<PendingObjectUpsert> upserts;
  std::vector<ObjectId> removals;
  std::vector<PendingQueryChange> query_changes;

  size_t size() const {
    return upserts.size() + removals.size() + query_changes.size();
  }
  void clear() {
    upserts.clear();
    removals.clear();
    query_changes.clear();
  }
};

class UpdateBuffer {
 public:
  UpdateBuffer() = default;
  UpdateBuffer(const UpdateBuffer&) = delete;
  UpdateBuffer& operator=(const UpdateBuffer&) = delete;

  // --- Objects ------------------------------------------------------------

  // Coalesces with any pending upsert/removal of the same object.
  void AddObjectUpsert(const PendingObjectUpsert& upsert);

  // `existed_before` tells the buffer whether the object is in the store
  // (as opposed to only pending in this buffer); a removal of an object
  // that only ever existed as a pending upsert is a pure no-op.
  void AddObjectRemove(ObjectId id, bool existed_before);

  bool HasPendingUpsert(ObjectId id) const {
    return object_upserts_.contains(id);
  }
  // Pending upsert for `id`, or nullptr. Invalidated by further mutation.
  const PendingObjectUpsert* FindPendingUpsert(ObjectId id) const {
    auto it = object_upserts_.find(id);
    return it == object_upserts_.end() ? nullptr : &it->second;
  }
  bool HasPendingRemove(ObjectId id) const {
    return object_removes_.contains(id);
  }

  // --- Queries ------------------------------------------------------------

  // Merge rules: a Move over a pending Register folds the new geometry
  // into the Register; an Unregister over a pending Register of a query
  // that never reached the store cancels both; a Move over a pending
  // Unregister is dropped (moving a dead query must not resurrect it).
  void AddQueryChange(const PendingQueryChange& change, bool existed_before);

  bool HasPendingQueryRegister(QueryId id) const;
  bool HasPendingQueryUnregister(QueryId id) const;

  // Pending change for `id`, or nullptr. Invalidated by further mutation.
  const PendingQueryChange* FindPendingQueryChange(QueryId id) const;
  bool HasAnyPendingQueryChange(QueryId id) const {
    return query_changes_.contains(id);
  }

  // --- Draining -----------------------------------------------------------

  size_t pending_object_ops() const {
    return object_upserts_.size() + object_removes_.size();
  }
  size_t pending_query_ops() const { return query_changes_.size(); }
  bool empty() const {
    return object_upserts_.empty() && object_removes_.empty() &&
           query_changes_.empty();
  }

  // Moves all pending work out of the buffer, leaving it empty. Output
  // order is unspecified (the processor sorts where determinism matters).
  void Drain(std::vector<PendingObjectUpsert>* upserts,
             std::vector<ObjectId>* removes,
             std::vector<PendingQueryChange>* query_changes);

  void Clear();

 private:
  FlatMap<ObjectId, PendingObjectUpsert> object_upserts_;
  FlatSet<ObjectId> object_removes_;
  FlatMap<QueryId, PendingQueryChange> query_changes_;
};

}  // namespace stq

#endif  // STQ_CORE_UPDATE_BUFFER_H_
