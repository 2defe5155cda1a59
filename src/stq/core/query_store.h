// QueryStore: the query index of the framework.
//
// "For any grid cell C, a query entry has the form (QID, region, t,
// OList), where ... OList is the list of objects in C that satisfy
// Q.region." (paper, Section 3.1)
//
// We keep one record per query holding its full answer set (the union of
// the paper's per-cell OLists); the grid holds the per-cell stubs. The
// store doubles as the auxiliary index that maps a QID to the query's old
// region. A QueryProcessor's store holds range, predictive and circle
// queries; its k-NN queries live in the front's KnnMonitor
// (core/knn_evaluator.h), and only the SnapshotProcessor baseline stores
// k-NN records here.

#ifndef STQ_CORE_QUERY_STORE_H_
#define STQ_CORE_QUERY_STORE_H_

#include <cstddef>
#include <vector>

#include "stq/common/clock.h"
#include "stq/common/flat_hash.h"
#include "stq/common/ids.h"
#include "stq/core/answer_set.h"
#include "stq/geo/circle.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace stq {

enum class QueryKind {
  kRange,            // rectangular region, evaluated at present time
  kKnn,              // k nearest neighbors of a (possibly moving) point
  kPredictiveRange,  // rectangular region over a future time window
  kCircleRange,      // fixed-radius disk around a (possibly moving) point
};

struct QueryRecord {
  QueryId id = 0;
  QueryKind kind = QueryKind::kRange;
  Timestamp t = 0.0;  // timestamp of the last report from the query

  // kRange / kPredictiveRange: the query rectangle.
  Rect region;

  // kCircleRange: the query disk itself (client-chosen, fixed radius).
  // kKnn: the focal point (center; the radius is unused).
  Circle circle;
  int k = 0;  // kKnn only

  // kPredictiveRange only: absolute time window of interest.
  double t_from = 0.0;
  double t_to = 0.0;

  // The rectangle currently clipped into the grid for this query (the
  // region for range kinds, the disk's bounding box for circles). Empty
  // when the query has no grid stubs.
  Rect grid_footprint;

  // The answer currently reported to the client, in the density-adaptive
  // compressed representation (see core/answer_set.h). Iterates ascending
  // by id in every mode, so consumers that sorted a FlatSet's unordered
  // walk still see the same order with less work.
  AnswerSet answer;

  // Answer as a sorted vector (for deterministic output and tests).
  std::vector<ObjectId> SortedAnswer() const;
};

class QueryStore {
 public:
  QueryStore() = default;
  QueryStore(const QueryStore&) = delete;
  QueryStore& operator=(const QueryStore&) = delete;

  const QueryRecord* Find(QueryId id) const;
  QueryRecord* FindMutable(QueryId id);
  bool Contains(QueryId id) const { return map_.contains(id); }

  // Inserts a fresh record; precondition: id not present.
  QueryRecord* Insert(QueryRecord record);

  // Removes the record; precondition: id present.
  void Erase(QueryId id);

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [id, rec] : map_) fn(rec);
  }

 private:
  FlatMap<QueryId, QueryRecord> map_;
};

}  // namespace stq

#endif  // STQ_CORE_QUERY_STORE_H_
