// DensityMonitor: continuous discovery of dense grid cells.
//
// The paper lists grid-based aggregate/dense-area queries (Hadjieleftheriou
// et al., SSTD 2003) among the query classes a shared grid supports. The
// monitor piggybacks on the engine's grid: after each evaluation period it
// diffs the set of cells whose object count reaches a threshold against
// the previously reported dense set and emits only the +/- cell updates —
// the same incremental paradigm as the object-level queries.

#ifndef STQ_CORE_DENSITY_MONITOR_H_
#define STQ_CORE_DENSITY_MONITOR_H_

#include <cstddef>
#include <set>
#include <vector>

#include "stq/core/types.h"
#include "stq/grid/grid_index.h"

namespace stq {

struct DenseCellUpdate {
  CellCoord cell;
  UpdateSign sign = UpdateSign::kPositive;
  size_t count = 0;  // object entries in the cell at evaluation time

  friend bool operator==(const DenseCellUpdate& a, const DenseCellUpdate& b) {
    return a.cell == b.cell && a.sign == b.sign && a.count == b.count;
  }
};

class DensityMonitor {
 public:
  // Cells holding >= `threshold` object entries are dense. `grid` must
  // outlive the monitor. Note: a predictive object contributes one entry
  // per cell its trajectory footprint is clipped into, so density counts
  // measure *expected presence*, not instantaneous headcount.
  DensityMonitor(const GridIndex* grid, size_t threshold);

  // Re-scans the grid and returns the delta against the previously
  // reported dense set, ordered by (y, x). Call once per evaluation
  // period, after QueryProcessor::EvaluateTick.
  std::vector<DenseCellUpdate> Tick();

  size_t threshold() const { return threshold_; }
  size_t num_dense_cells() const { return dense_.size(); }

  // Whether `c` was dense at the last Tick (the reported set, not a live
  // recount).
  bool IsDense(const CellCoord& c) const { return dense_.count(Key(c)) != 0; }

  // The currently reported dense cells, in (y, x) order.
  std::vector<CellCoord> DenseCells() const;

 private:
  static std::pair<int, int> Key(const CellCoord& c) { return {c.y, c.x}; }

  const GridIndex* grid_;
  size_t threshold_;
  std::set<std::pair<int, int>> dense_;
};

}  // namespace stq

#endif  // STQ_CORE_DENSITY_MONITOR_H_
