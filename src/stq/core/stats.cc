#include "stq/core/stats.h"

#include <algorithm>
#include <sstream>

#include "stq/core/query_processor.h"
#include "stq/core/sharded_server.h"

namespace stq {

std::string EngineStats::DebugString() const {
  std::ostringstream os;
  os << "objects=" << num_objects << " (predictive="
     << num_predictive_objects << ") queries=" << num_queries << " (range="
     << num_range_queries << " knn=" << num_knn_queries
     << " predictive=" << num_predictive_queries
     << " circle=" << num_circle_queries << ")"
     << " answers=" << total_answer_entries
     << " mean_answer=" << mean_answer_size
     << " max_answer=" << max_answer_size
     << " grid_object_entries=" << grid.num_object_entries
     << " grid_query_stubs=" << grid.num_query_entries << " approx_mem="
     << approx_memory_bytes / 1024 << "KiB";
  return os.str();
}

EngineStats ComputeEngineStats(const QueryProcessor& processor) {
  EngineStats stats;

  processor.ForEachObjectInfo([&](const QueryProcessor::ObjectInfo& o) {
    ++stats.num_objects;
    if (o.predictive) ++stats.num_predictive_objects;
    stats.total_qlist_entries += o.qlist_size;
  });
  size_t knn_answer_entries = 0;
  processor.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    ++stats.num_queries;
    switch (q.kind) {
      case QueryKind::kRange:
        ++stats.num_range_queries;
        break;
      case QueryKind::kKnn:
        ++stats.num_knn_queries;
        knn_answer_entries += q.answer_size;
        break;
      case QueryKind::kPredictiveRange:
        ++stats.num_predictive_queries;
        break;
      case QueryKind::kCircleRange:
        ++stats.num_circle_queries;
        break;
    }
    stats.total_answer_entries += q.answer_size;
    stats.max_answer_size = std::max(stats.max_answer_size, q.answer_size);
  });
  stats.mean_answer_size =
      stats.num_queries == 0
          ? 0.0
          : static_cast<double>(stats.total_answer_entries) /
                static_cast<double>(stats.num_queries);
  size_t cells = 0;
  if (!processor.sharded()) {
    stats.grid = processor.grid().ComputeStats();
    cells = static_cast<size_t>(processor.grid().cells_x()) *
            static_cast<size_t>(processor.grid().cells_y());
  } else {
    // Sum the per-shard grids; in sharded mode the QLists live inside
    // the shard stores, so mirror them with the committed answer count
    // (k-NN answers live at the front, in no QList).
    const ShardedEngine& engine = *processor.sharded_engine();
    stats.total_qlist_entries = stats.total_answer_entries - knn_answer_entries;
    for (int s = 0; s < engine.num_shards(); ++s) {
      const GridStats gs = engine.shard(s).grid().ComputeStats();
      stats.grid.num_object_entries += gs.num_object_entries;
      stats.grid.num_query_entries += gs.num_query_entries;
      stats.grid.max_objects_in_cell =
          std::max(stats.grid.max_objects_in_cell, gs.max_objects_in_cell);
      stats.grid.max_queries_in_cell =
          std::max(stats.grid.max_queries_in_cell, gs.max_queries_in_cell);
      cells += static_cast<size_t>(engine.shard(s).grid().cells_x()) *
               static_cast<size_t>(engine.shard(s).grid().cells_y());
    }
  }

  // Rough per-entry footprints: object/query records, answer-set and
  // QList entries, grid id entries, and the cell array itself.
  constexpr size_t kObjectRecordBytes = sizeof(ObjectRecord) + 32;
  constexpr size_t kQueryRecordBytes = sizeof(QueryRecord) + 32;
  constexpr size_t kSetEntryBytes = 24;  // hash-set node estimate
  constexpr size_t kIdBytes = sizeof(ObjectId);
  stats.approx_memory_bytes =
      stats.num_objects * kObjectRecordBytes +
      stats.num_queries * kQueryRecordBytes +
      stats.total_answer_entries * kSetEntryBytes +
      stats.total_qlist_entries * kIdBytes +
      (stats.grid.num_object_entries + stats.grid.num_query_entries) *
          kIdBytes +
      cells * 2 * sizeof(void*) * 3;
  return stats;
}

}  // namespace stq
