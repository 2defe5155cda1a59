// Core vocabulary types of the continuous query processor: the positive /
// negative update tuples that form a query's incremental answer stream,
// and the per-tick result envelope.

#ifndef STQ_CORE_TYPES_H_
#define STQ_CORE_TYPES_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "stq/common/bytes.h"
#include "stq/common/clock.h"
#include "stq/common/ids.h"

namespace stq {

// "We distinguish between two types of updates; positive updates and
// negative updates. Positive or negative updates indicate that a certain
// object should be added to or removed from the previously reported
// answer, respectively." (paper, Section 1)
enum class UpdateSign : char { kNegative = '-', kPositive = '+' };

struct Update {
  QueryId query = 0;
  ObjectId object = 0;
  UpdateSign sign = UpdateSign::kPositive;

  static Update Positive(QueryId q, ObjectId o) {
    return Update{q, o, UpdateSign::kPositive};
  }
  static Update Negative(QueryId q, ObjectId o) {
    return Update{q, o, UpdateSign::kNegative};
  }

  // "(Q1, +p2)" — the notation used in the paper's examples.
  std::string DebugString() const;

  friend bool operator==(const Update& a, const Update& b) {
    return a.query == b.query && a.object == b.object && a.sign == b.sign;
  }
};

// Removes (+,-) pairs that cancel out within one tick and orders the
// stream deterministically by (query, object), negatives before
// positives. The evaluation passes never produce cancelling pairs for a
// consistent engine state, but callers composing streams may.
void CanonicalizeUpdates(std::vector<Update>* updates);

struct TickStats {
  size_t object_updates_applied = 0;
  size_t object_removals_applied = 0;
  size_t query_changes_applied = 0;
  size_t queries_unregistered = 0;
  size_t positive_updates = 0;
  size_t negative_updates = 0;
  size_t knn_reevaluations = 0;

  // Adaptive-partitioning activity this tick (0 unless
  // AdaptiveGridOptions::enabled): grid cells split one level finer /
  // merged one level coarser, and (sharded engine only) shard-boundary
  // rebalances performed. Under the sharded engine the split/merge
  // counts sum over the per-shard grids.
  size_t cells_split = 0;
  size_t cells_merged = 0;
  size_t shard_rebalances = 0;

  // Heap allocations (global operator-new calls, all threads) during this
  // tick's EvaluateTick. Zero when the build disables STQ_ALLOC_COUNTING
  // (see stq/common/alloc_stats.h); under the sharded engine this is the
  // whole tick's count, not a per-shard sum.
  uint64_t heap_allocations = 0;

  // Resident bytes of every live answer set (per-query incremental
  // answers, compressed representation — see core/answer_set.h) at the
  // end of this tick. Complements heap_allocations: churn is counted
  // there, footprint here, and per-tick byte budgets pin both.
  size_t bytes_resident = 0;

  // Wall-clock seconds spent in each tick phase (steady-clock). The
  // object pass decides and applies each (query, object) pair in one
  // step and is timed whole in object_match_seconds; object_apply_seconds
  // is never written (it stays 0) and is kept only for perfbench, which
  // still reports it. The k-NN refresh is split into its parallel search
  // half and its serial diff half.
  double removals_seconds = 0.0;
  double upserts_seconds = 0.0;
  double query_changes_seconds = 0.0;
  double query_pass_seconds = 0.0;
  double object_match_seconds = 0.0;
  double object_apply_seconds = 0.0;
  double knn_search_seconds = 0.0;
  double knn_apply_seconds = 0.0;
  // Post-commit adaptive maintenance: grid refinement (summed over
  // shards) and, under the sharded engine, shard-boundary rebalancing.
  double adapt_seconds = 0.0;
  double rebalance_seconds = 0.0;

  // Execution breakdown, populated in every mode so the single-grid
  // baseline row is directly comparable to sharded rows (a single grid
  // reports one "shard" whose busy time equals its wall time). With
  // num_shards > 1 the six object and query phase fields above hold the
  // *sums* over all shard ticks (the two k-NN fields time the front's
  // refresh in both modes); the fields below attribute the tick's own
  // wall time.
  size_t shards_ticked = 0;        // shards with pending work this tick
  double shard_route_seconds = 0.0;   // serial routing decisions (drain+sort)
  double shard_tick_wall_seconds = 0.0;  // fork/join of per-shard ticks
  double shard_tick_busy_seconds = 0.0;  // sum of per-shard tick walls
  double shard_tick_max_seconds = 0.0;   // slowest shard (critical path)
  double shard_merge_seconds = 0.0;   // stream merge + canonicalization
  double shard_knn_seconds = 0.0;     // the whole k-NN refresh
};

// Accumulates the enclosing scope's wall time into a TickStats field.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    *sink_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

// The output of one evaluation period: the full stream of incremental
// updates across all registered queries.
struct TickResult {
  Timestamp time = 0.0;
  std::vector<Update> updates;
  TickStats stats;

  // Bytes this tick would put on the wire under `model`.
  size_t WireBytes(const WireCostModel& model) const {
    return model.UpdateBytes(updates.size());
  }
};

}  // namespace stq

#endif  // STQ_CORE_TYPES_H_
