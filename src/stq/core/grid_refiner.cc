#include "stq/core/grid_refiner.h"

#include "stq/common/check.h"

namespace stq {

GridRefiner::GridRefiner(const AdaptiveGridOptions& options, GridIndex* grid)
    : options_(options),
      grid_(grid),
      last_change_(static_cast<size_t>(grid->cells_x()) *
                       static_cast<size_t>(grid->cells_y()),
                   // Far enough in the past that the first tick is never
                   // cooldown-gated.
                   -static_cast<int64_t>(options.cooldown_ticks)) {
  STQ_CHECK(options_.Validate()) << "invalid AdaptiveGridOptions";
}

GridRefiner::StepStats GridRefiner::Tick(const ObjectStore& objects,
                                         const QueryStore& queries) {
  ++tick_;

  auto object_geometry = [&](ObjectId id) {
    const ObjectRecord* o = objects.Find(id);
    STQ_CHECK(o != nullptr) << "grid holds unknown object " << id;
    GridIndex::ObjectPlacement placement;
    placement.predictive = o->predictive;
    placement.loc = o->loc;
    placement.footprint = o->footprint;
    return placement;
  };
  auto query_geometry = [&](QueryId id) {
    const QueryRecord* q = queries.Find(id);
    STQ_CHECK(q != nullptr) << "grid holds unknown query " << id;
    return q->grid_footprint;
  };

  StepStats stats;
  for (int cy = 0; cy < grid_->cells_y(); ++cy) {
    for (int cx = 0; cx < grid_->cells_x(); ++cx) {
      const CellCoord c{cx, cy};
      const size_t idx = static_cast<size_t>(cy) *
                             static_cast<size_t>(grid_->cells_x()) +
                         static_cast<size_t>(cx);
      if (tick_ - last_change_[idx] < options_.cooldown_ticks) continue;
      const int level = grid_->CellLevel(c);
      // Split: the densest slot still costs >= split_threshold entries
      // per candidate scan. At level 0 the slot is the whole cell;
      // deeper levels keep splitting only while some leaf stays hot.
      if (level < options_.max_level &&
          grid_->MaxLeafObjectEntries(c) >= options_.split_threshold) {
        grid_->SetCellLevel(c, level + 1, object_geometry, query_geometry);
        last_change_[idx] = tick_;
        ++stats.splits;
      } else if (level > 0 &&
                 grid_->ObjectCountInCell(c) <= options_.merge_threshold) {
        grid_->SetCellLevel(c, level - 1, object_geometry, query_geometry);
        last_change_[idx] = tick_;
        ++stats.merges;
      }
    }
  }
  return stats;
}

}  // namespace stq
