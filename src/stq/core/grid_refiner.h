// GridRefiner: the adaptive layer that drives per-cell grid resolution
// from the grid's own per-cell counts (see DESIGN.md, "Adaptive
// partitioning").
//
// Once per tick — after the tick's updates are committed — the refiner
// scans the grid and applies at most one level step per base cell:
//
//   split  a cell one level finer when its densest slot holds
//          >= split_threshold object entries;
//   merge  a refined cell one level coarser when its distinct-object
//          population falls to <= merge_threshold.
//
// A slot holds each id at most once, so a cell that splits also holds
// >= split_threshold distinct objects (dense, in DensityMonitor's terms).
//
// merge_threshold < split_threshold (the hysteresis band) plus a
// per-cell cooldown of >= 2 ticks guarantees a cell never oscillates
// between resolutions in consecutive ticks — the property test pins this
// down against randomized density traces.
//
// Refinement is pure index maintenance: it re-buckets ids, never touches
// answers, and runs on committed state between ticks, so the update
// stream is byte-identical with the refiner on or off. GridIndex::
// SetCellLevel may only be called from here (stq-lint enforces it).

#ifndef STQ_CORE_GRID_REFINER_H_
#define STQ_CORE_GRID_REFINER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stq/core/object_store.h"
#include "stq/core/options.h"
#include "stq/core/query_store.h"
#include "stq/grid/grid_index.h"

namespace stq {

class GridRefiner {
 public:
  struct StepStats {
    size_t splits = 0;
    size_t merges = 0;
  };

  // `grid` must outlive the refiner; `options` must Validate().
  GridRefiner(const AdaptiveGridOptions& options, GridIndex* grid);

  GridRefiner(const GridRefiner&) = delete;
  GridRefiner& operator=(const GridRefiner&) = delete;

  // One adaptation step. `objects` and `queries` supply the geometry the
  // re-bucketed ids map back in with; they must be the stores the grid
  // was populated from, with no reports pending.
  StepStats Tick(const ObjectStore& objects, const QueryStore& queries);

  int64_t ticks() const { return tick_; }

 private:
  AdaptiveGridOptions options_;
  GridIndex* grid_;
  // Per-base-cell tick of the last level change, indexed cy * nx + cx.
  std::vector<int64_t> last_change_;
  int64_t tick_ = 0;
};

}  // namespace stq

#endif  // STQ_CORE_GRID_REFINER_H_
