// InvariantAuditor: cross-structure consistency audits for the engine's
// redundant state.
//
// The paper's incremental paradigm stores the same facts in several
// places at once: an object's QList mirrors the answer sets of the
// queries it satisfies, the grid's per-cell entries mirror the stores'
// locations and clipped footprints, and the stored answers mirror what a
// from-scratch evaluation would produce. A silent divergence between any
// two of these produces *wrong continuous answers*, not crashes — so this
// auditor exists to make divergences loud.
//
// Checks performed on a QueryProcessor:
//   1. QList/answer symmetry: every query in an object's QList has that
//      object in its answer, and vice versa.
//   2. Grid/object agreement: each non-predictive object has exactly one
//      grid entry, in the cell containing its location; each predictive
//      object has exactly one entry in every cell its clipped footprint
//      passes through, and none elsewhere.
//   3. Grid/query agreement: each query is stubbed into exactly the cells
//      overlapping its recorded grid footprint, and none elsewhere.
//   4. k-NN answers (kept at the front in both engine modes): an answer
//      never exceeds k objects and equals a fresh search through the
//      engine's grids.
//   5. Answer correctness (optional, O(objects x queries)): every stored
//      answer equals its from-scratch re-evaluation (brute force for
//      k-NN).
//
// On a sharded processor (options().num_shards > 1) checks 1-3 and 5 run
// on every per-shard engine, and a cross-shard pass verifies the router's
// composition: every object lives in exactly the shards the routing rule
// assigns it (no double counting), every query is registered in exactly
// the shards its region overlaps, and the per-shard OList union (with
// multiplicity) equals the router's committed answer. Checks 4 and 5 then
// run on the front's k-NN queries.
//
// AuditServer additionally verifies the committed-answer repository only
// references registered queries.
//
// Intended call sites: integration/property tests, corruption drills, and
// the opt-in post-tick hook (Server::Options::audit_after_tick). Audits
// require a drained report buffer (call after EvaluateTick / Tick).

#ifndef STQ_CORE_INVARIANT_AUDITOR_H_
#define STQ_CORE_INVARIANT_AUDITOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "stq/common/status.h"

namespace stq {

class QueryProcessor;
class Server;

// The outcome of one audit pass: a list of human-readable violations
// (empty when every invariant holds).
struct AuditReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }

  // "ok" or the violations joined by "; ".
  std::string ToString() const;

  // OK, or Internal carrying ToString().
  Status ToStatus() const;
};

class InvariantAuditor {
 public:
  struct Options {
    // Re-derive every answer from scratch and compare (check 5). The
    // expensive part of the audit; disable for cheap structural-only
    // audits on large engines.
    bool verify_answers_from_scratch = true;

    // Stop collecting after this many violations (the audit is for
    // diagnosis, not an exhaustive diff).
    size_t max_violations = 16;
  };

  InvariantAuditor() = default;
  explicit InvariantAuditor(const Options& options);

  AuditReport AuditProcessor(const QueryProcessor& qp) const;
  AuditReport AuditServer(const Server& server) const;

 private:
  Options options_{};
};

}  // namespace stq

#endif  // STQ_CORE_INVARIANT_AUDITOR_H_
