#include "stq/core/invariant_auditor.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "stq/core/query_processor.h"
#include "stq/core/server.h"
#include "stq/core/sharded_server.h"

namespace stq {

namespace {

// (cell, leaf, id) -> number of grid entries, at slot granularity so a
// refined cell is audited leaf by leaf. Ordered so diffs report in a
// deterministic order.
using SlotKey = std::tuple<int, int, int>;  // (cy, cx, leaf)
using EntryCounts = std::map<std::pair<SlotKey, uint64_t>, int>;

class ViolationSink {
 public:
  ViolationSink(size_t cap, AuditReport* report) : cap_(cap), report_(report) {}

  bool full() const { return report_->violations.size() >= cap_; }

  void Add(const std::string& violation) {
    if (!full()) report_->violations.push_back(violation);
  }

 private:
  size_t cap_;
  AuditReport* report_;
};

// Merge-compares two (cell, id) -> count maps and reports every
// disagreement.
void DiffEntryCounts(const EntryCounts& expected, const EntryCounts& actual,
                     const char* what, ViolationSink* sink) {
  auto describe = [&](const std::pair<SlotKey, uint64_t>& key, int want,
                      int got) {
    std::ostringstream os;
    os << "grid cell (" << std::get<1>(key.first) << ","
       << std::get<0>(key.first) << ") leaf " << std::get<2>(key.first)
       << " holds " << got << " entr" << (got == 1 ? "y" : "ies") << " for "
       << what << " " << key.second << " but the stores imply " << want;
    sink->Add(os.str());
  };
  auto e = expected.begin();
  auto a = actual.begin();
  while ((e != expected.end() || a != actual.end()) && !sink->full()) {
    if (a == actual.end() || (e != expected.end() && e->first < a->first)) {
      describe(e->first, e->second, 0);
      ++e;
    } else if (e == expected.end() || a->first < e->first) {
      describe(a->first, 0, a->second);
      ++a;
    } else {
      if (e->second != a->second) describe(e->first, e->second, a->second);
      ++e;
      ++a;
    }
  }
}

void AuditAnswerSymmetry(const QueryProcessor& qp, ViolationSink* sink) {
  // QList -> answer direction, in deterministic object order.
  std::vector<ObjectId> oids;
  qp.object_store().ForEach(
      [&](const ObjectRecord& o) { oids.push_back(o.id); });
  std::sort(oids.begin(), oids.end());
  for (ObjectId oid : oids) {
    const ObjectRecord* o = qp.object_store().Find(oid);
    for (QueryId qid : o->queries) {
      const QueryRecord* q = qp.query_store().Find(qid);
      if (q == nullptr || !q->answer.contains(oid)) {
        std::ostringstream os;
        os << "object " << oid << " lists query " << qid
           << " in its QList but the query's answer does not contain it";
        sink->Add(os.str());
        if (sink->full()) return;
      }
    }
  }

  // answer -> QList direction, in deterministic query order.
  std::vector<QueryId> qids;
  qp.query_store().ForEach([&](const QueryRecord& q) { qids.push_back(q.id); });
  std::sort(qids.begin(), qids.end());
  for (QueryId qid : qids) {
    const QueryRecord* q = qp.query_store().Find(qid);
    std::vector<ObjectId> answer = q->SortedAnswer();
    for (ObjectId oid : answer) {
      const ObjectRecord* o = qp.object_store().Find(oid);
      if (o == nullptr || !ObjectStore::HasQuery(*o, qid)) {
        std::ostringstream os;
        os << "query " << qid << " answer contains object " << oid
           << " whose QList disagrees";
        sink->Add(os.str());
        if (sink->full()) return;
      }
    }
  }
}

void AuditGridAgreement(const QueryProcessor& qp, ViolationSink* sink) {
  const GridIndex& grid = qp.grid();

  // Structural refinement-tree invariants first: leaves tile parents,
  // refined base cells hold no direct entries, slot bookkeeping is
  // consistent. The entry diff below assumes this structure.
  const Status refinement = grid.CheckRefinement();
  if (!refinement.ok()) {
    sink->Add(refinement.ToString());
    if (sink->full()) return;
  }

  EntryCounts actual_objects;
  EntryCounts actual_queries;
  grid.ForEachObjectEntry([&](const CellCoord& c, int leaf, ObjectId id) {
    ++actual_objects[{{c.y, c.x, leaf}, id}];
  });
  grid.ForEachQueryEntry([&](const CellCoord& c, int leaf, QueryId id) {
    ++actual_queries[{{c.y, c.x, leaf}, id}];
  });

  // Expected side, rebuilt from the stores through the same slot
  // enumerators the insert paths use — grid state and audit model share
  // one definition of where an id belongs.
  EntryCounts expected_objects;
  qp.object_store().ForEach([&](const ObjectRecord& o) {
    if (o.predictive) {
      grid.ForEachLeafSlotOnSegment(o.footprint,
                                    [&](const CellCoord& c, int leaf) {
                                      ++expected_objects[{{c.y, c.x, leaf},
                                                          o.id}];
                                    });
    } else {
      CellCoord c;
      int leaf;
      grid.LeafSlotOfPoint(o.loc, &c, &leaf);
      ++expected_objects[{{c.y, c.x, leaf}, o.id}];
    }
  });

  EntryCounts expected_queries;
  qp.query_store().ForEach([&](const QueryRecord& q) {
    grid.ForEachLeafSlotInRect(q.grid_footprint,
                               [&](const CellCoord& c, int leaf) {
                                 ++expected_queries[{{c.y, c.x, leaf}, q.id}];
                               });
  });

  DiffEntryCounts(expected_objects, actual_objects, "object", sink);
  DiffEntryCounts(expected_queries, actual_queries, "query", sink);
}

// The k-NN queries, kept at the front in both engine modes: an answer
// holds at most k ids and equals a fresh search through the engine's
// grids (the search the refresh runs).
void AuditKnnAnswers(const QueryProcessor& qp, ViolationSink* sink) {
  std::vector<QueryProcessor::QueryInfo> knn;
  qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    if (q.kind == QueryKind::kKnn) knn.push_back(q);
  });
  std::sort(knn.begin(), knn.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (const QueryProcessor::QueryInfo& q : knn) {
    if (sink->full()) return;
    const std::vector<ObjectId> answer = *qp.CurrentAnswer(q.id);
    if (answer.size() > static_cast<size_t>(q.k)) {
      std::ostringstream os;
      os << "k-NN query " << q.id << " stores " << answer.size()
         << " answer objects but k = " << q.k;
      sink->Add(os.str());
    }
    const std::vector<ObjectId> fresh = qp.SearchKnn(q.circle.center, q.k);
    if (fresh != answer) {
      std::ostringstream os;
      os << "k-NN query " << q.id << " committed answer (" << answer.size()
         << " ids) != a fresh search (" << fresh.size() << " ids)";
      sink->Add(os.str());
    }
  }
}

// Every answer (only the k-NN ones with `knn_only`) re-derived from
// scratch (linear scan, brute-force k-NN) and compared.
void AuditAnswerCorrectness(const QueryProcessor& qp, bool knn_only,
                            ViolationSink* sink) {
  std::vector<QueryId> qids;
  qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    if (!knn_only || q.kind == QueryKind::kKnn) qids.push_back(q.id);
  });
  std::sort(qids.begin(), qids.end());
  for (QueryId qid : qids) {
    if (sink->full()) return;
    const std::vector<ObjectId> answer = *qp.CurrentAnswer(qid);
    Result<std::vector<ObjectId>> truth = qp.EvaluateFromScratch(qid);
    if (!truth.ok()) {
      sink->Add(truth.status().ToString());
      continue;
    }
    if (answer != *truth) {
      std::ostringstream os;
      os << "query " << qid << " incremental answer (" << answer.size()
         << " objects) diverges from its from-scratch evaluation ("
         << truth->size() << " objects)";
      sink->Add(os.str());
    }
  }
}

}  // namespace

std::string AuditReport::ToString() const {
  if (violations.empty()) return "ok";
  std::ostringstream os;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << violations[i];
  }
  return os.str();
}

Status AuditReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::Internal(ToString());
}

InvariantAuditor::InvariantAuditor(const Options& options)
    : options_(options) {}

AuditReport InvariantAuditor::AuditProcessor(const QueryProcessor& qp) const {
  AuditReport report;
  ViolationSink sink(options_.max_violations, &report);
  if (qp.pending_reports() != 0) {
    std::ostringstream os;
    os << "audit requires a drained report buffer (" << qp.pending_reports()
       << " reports pending; run EvaluateTick first)";
    sink.Add(os.str());
    return report;
  }
  if (qp.sharded()) {
    // Sharded mode: every per-shard engine is a full single-grid
    // processor, so it gets the complete audit, from-scratch answers
    // included; a query's committed answer is the union of its shard
    // answers, so those checks cover it. The routing invariants live at
    // the router and are checked by AuditCrossShard (no object
    // double-counted, routing consistent).
    const ShardedEngine& engine = *qp.sharded_engine();
    for (int s = 0; s < engine.num_shards() && !sink.full(); ++s) {
      const AuditReport shard_report = AuditProcessor(engine.shard(s));
      for (const std::string& v : shard_report.violations) {
        if (sink.full()) break;
        std::ostringstream os;
        os << "shard " << s << ": " << v;
        sink.Add(os.str());
      }
    }
    if (!sink.full()) {
      engine.AuditCrossShard(options_.max_violations, &report.violations);
    }
  } else {
    AuditAnswerSymmetry(qp, &sink);
    AuditGridAgreement(qp, &sink);
  }
  if (!sink.full()) AuditKnnAnswers(qp, &sink);
  if (options_.verify_answers_from_scratch && !sink.full()) {
    // The shard audits above re-derived their own queries already.
    AuditAnswerCorrectness(qp, /*knn_only=*/qp.sharded(), &sink);
  }
  return report;
}

AuditReport InvariantAuditor::AuditServer(const Server& server) const {
  AuditReport report = AuditProcessor(server.processor());
  ViolationSink sink(options_.max_violations, &report);

  // The committed-answer repository only references registered queries
  // (unregistration erases the commit).
  std::vector<QueryId> committed_qids;
  server.committed().ForEach(
      [&](QueryId qid, const AnswerSet&) {
        committed_qids.push_back(qid);
      });
  std::sort(committed_qids.begin(), committed_qids.end());
  for (QueryId qid : committed_qids) {
    if (!server.processor().HasQuery(qid)) {
      std::ostringstream os;
      os << "committed store holds an answer for unregistered query " << qid;
      sink.Add(os.str());
      if (sink.full()) break;
    }
  }
  return report;
}

}  // namespace stq
