// Configuration for the continuous query processor.

#ifndef STQ_CORE_OPTIONS_H_
#define STQ_CORE_OPTIONS_H_

#include <cstddef>

#include "stq/common/bytes.h"
#include "stq/geo/rect.h"
#include "stq/grid/cell_resolver.h"

namespace stq {

// Adaptive partitioning for skewed worlds (see DESIGN.md, "Adaptive
// partitioning"). Off by default: the engine then behaves exactly like
// the paper's uniform N x N grid. When enabled, the GridRefiner splits
// hot cells / merges cold ones between ticks, and the sharded engine may
// additionally rebalance shard boundaries — all invisible in the update
// stream (byte-identical to the uniform engine by construction).
struct AdaptiveGridOptions {
  bool enabled = false;

  // Hysteresis band. A cell splits one level when its densest slot holds
  // >= split_threshold object entries; a refined cell merges one level
  // when the whole cell's distinct-object population falls to
  // <= merge_threshold. merge_threshold < split_threshold keeps the two
  // rules from firing back-to-back on a static population: right after a
  // split the cell still holds >= split_threshold > merge_threshold
  // objects, and right after a merge its densest slot holds
  // <= merge_threshold < split_threshold entries.
  size_t split_threshold = 64;
  size_t merge_threshold = 16;

  // Deepest refinement (2^level x 2^level leaves per base cell).
  int max_level = 3;

  // Minimum ticks between two level changes of the same cell. >= 2
  // guarantees a cell never changes resolution in consecutive ticks even
  // when the population swings across the hysteresis band within one
  // tick.
  int cooldown_ticks = 2;

  // Online shard rebalancing (sharded engine only; ignored single-grid).
  // At a tick boundary, when the most loaded shard's home-object count
  // exceeds `rebalance_imbalance` x the mean (and the universe holds at
  // least `rebalance_min_objects` objects), the engine recomputes the
  // shard boundaries from the object marginals and re-ingests — a
  // deterministic handoff, invisible in the update stream.
  bool rebalance = false;
  int rebalance_cooldown_ticks = 8;
  size_t rebalance_min_objects = 64;
  double rebalance_imbalance = 1.5;

  bool Validate() const {
    return split_threshold >= 1 && merge_threshold < split_threshold &&
           max_level >= 1 && max_level <= CellResolver::kMaxLevel &&
           cooldown_ticks >= 2 && rebalance_cooldown_ticks >= 1 &&
           rebalance_imbalance > 1.0;
  }
};

struct QueryProcessorOptions {
  // The bounded space all objects and queries live in. Locations outside
  // are accepted but indexed in the nearest border cell.
  Rect bounds = Rect{0.0, 0.0, 1.0, 1.0};

  // Grid resolution: the space is divided into N x N equal cells.
  int grid_cells_per_side = 64;

  // How far (seconds) past an object's last report the engine predicts
  // its trajectory. Predictive objects are clipped into the grid along
  // their footprint over [t_report, t_report + prediction_horizon], and a
  // predictive query's effective window for an object is intersected with
  // that interval: the engine never claims knowledge beyond the horizon.
  double prediction_horizon = 60.0;

  // When true, the processor retains every accepted report in a
  // HistoryStore, enabling snapshot queries about the past
  // (QueryProcessor::EvaluatePastRangeQuery). Memory grows with the
  // report volume until HistoryStore::PruneBefore is called.
  bool record_history = false;

  // Byte accounting used in TickResult::WireBytes and by Server.
  WireCostModel wire_cost;

  // Workers for the data-parallel tick phases (object matching, k-NN
  // searches). 1 (the default) keeps evaluation fully serial; 0 resolves
  // to the hardware concurrency at construction. The tick's update
  // stream is byte-identical for every worker count — see DESIGN.md,
  // "Threading model".
  int worker_threads = 1;

  // Number of rectangular spatial shards the universe is partitioned
  // into. 1 (the default) runs the classic single-grid engine; > 1
  // routes objects and queries to per-shard engines that tick in
  // parallel (on `worker_threads` workers) and merges their update
  // streams into one canonical stream, byte-identical to the
  // single-grid stream — see DESIGN.md, "Sharded execution".
  int num_shards = 1;

  // Adaptive cell refinement + shard rebalancing; disabled by default.
  AdaptiveGridOptions adaptive;

  bool Validate() const {
    return !bounds.IsEmpty() && grid_cells_per_side >= 1 &&
           prediction_horizon > 0.0 && worker_threads >= 0 &&
           num_shards >= 1 && adaptive.Validate();
  }
};

}  // namespace stq

#endif  // STQ_CORE_OPTIONS_H_
