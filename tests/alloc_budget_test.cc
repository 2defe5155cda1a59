// Regression gate on allocations per tick: a fixed small workload must
// reach a steady state in which one EvaluateTick performs at most a
// budgeted constant number of heap allocations. The flat-container +
// scratch-reuse work (see DESIGN.md, "Memory layout & allocation
// discipline") got the steady-state tick down to near-zero allocations;
// this test keeps it there.
//
// The budget is deliberately generous (it gates regressions of the
// "allocate per element per tick" kind, which show up as thousands of
// allocations, not tens) so benign library changes don't trip it.

#include <cstdint>
#include <cstdio>

#include "gtest/gtest.h"
#include "stq/common/alloc_stats.h"
#include "stq/common/random.h"
#include "stq/core/query_processor.h"
#include "stq/gen/workload.h"

namespace stq {
namespace {

NetworkWorkloadOptions SmallWorkload(uint64_t seed) {
  NetworkWorkloadOptions options;
  options.city.rows = 12;
  options.city.cols = 12;
  options.city.seed = seed;
  options.num_objects = 2000;
  options.num_queries = 1000;
  options.query_side_length = 0.04;
  options.moving_query_fraction = 1.0;
  options.tick_seconds = 5.0;
  options.num_ticks = 12;
  options.object_update_fraction = 0.5;
  options.query_update_fraction = 0.1;
  options.seed = seed;
  options.route = NetworkGenerator::RouteStrategy::kRandomWalk;
  return options;
}

// `knn_queries` 8-NN queries ride along with the workload's range
// queries (ids after the workload's), about a tenth of them moved per
// tick, so the k-NN searches and the router's refresh are budgeted too.
uint64_t SteadyStateAllocsPerTick(int num_shards, int workers,
                                  size_t knn_queries) {
  const NetworkWorkloadOptions workload_options = SmallWorkload(4242);
  const Workload workload = Workload::GenerateNetwork(workload_options);
  QueryProcessorOptions options;
  options.grid_cells_per_side = 32;
  options.num_shards = num_shards;
  options.worker_threads = workers;
  QueryProcessor qp(options);
  workload.ApplyInitial(&qp);
  Xorshift128Plus rng(77);
  const QueryId first_knn = workload_options.num_queries + 1;
  for (size_t i = 0; i < knn_queries; ++i) {
    EXPECT_TRUE(qp.RegisterKnnQuery(first_knn + i,
                                    Point{rng.NextDouble(), rng.NextDouble()},
                                    8)
                    .ok());
  }
  qp.EvaluateTick(0.0);

  // Warm up: the first few ticks legitimately allocate while containers
  // and scratch buffers grow to the workload's high-water mark.
  const size_t warmup = 6;
  uint64_t worst = 0;
  for (size_t i = 0; i < workload.ticks().size(); ++i) {
    workload.ApplyTick(&qp, i);
    for (size_t q = 0; q < knn_queries; ++q) {
      if (!rng.NextBool(0.1)) continue;
      EXPECT_TRUE(qp.MoveKnnQuery(first_knn + q,
                                  Point{rng.NextDouble(), rng.NextDouble()})
                      .ok());
    }
    const TickResult tick = qp.EvaluateTick(workload.ticks()[i].time);
    if (i < warmup) continue;
    if (tick.stats.heap_allocations > worst) {
      worst = tick.stats.heap_allocations;
    }
  }
  return worst;
}

TEST(AllocBudgetTest, SteadyStateTickStaysUnderBudget) {
  if (!AllocCountingEnabled()) {
    GTEST_SKIP() << "built without STQ_ALLOC_COUNTING";
  }
  const uint64_t worst = SteadyStateAllocsPerTick(/*num_shards=*/1,
                                                  /*workers=*/1,
                                                  /*knn_queries=*/0);
  std::printf("steady-state worst allocs/tick (single grid): %llu\n",
              static_cast<unsigned long long>(worst));
  // ~3000 object reports + ~1100 query moves per tick at this scale: the
  // node-container engine allocated tens of thousands of times per tick.
  // The flat engine's steady state is orders of magnitude below this cap.
  EXPECT_LE(worst, 512u);
}

TEST(AllocBudgetTest, ShardedSteadyStateTickStaysUnderBudget) {
  if (!AllocCountingEnabled()) {
    GTEST_SKIP() << "built without STQ_ALLOC_COUNTING";
  }
  const uint64_t worst = SteadyStateAllocsPerTick(/*num_shards=*/4,
                                                  /*workers=*/4,
                                                  /*knn_queries=*/0);
  std::printf("steady-state worst allocs/tick (4 shards): %llu\n",
              static_cast<unsigned long long>(worst));
  // With per-shard sub-batches, leaf streams, reduction-tree buffers and
  // result envelopes all living in the router's TickScratch, the sharded
  // steady state sits within a few dozen allocations of the single-grid
  // engine's (the remainder is std::function dispatch in the pool). Keep
  // it there: the old per-tick router buffers cost ~700 extra
  // allocations per tick at this scale.
  EXPECT_LE(worst, 256u);
}

// The same budgets with 100 8-NN queries: every dirty k-NN query is
// searched into a slot of one reused result buffer, so the searches and
// the answer diffs add no per-query allocations.
TEST(AllocBudgetTest, KnnSteadyStateTickStaysUnderBudget) {
  if (!AllocCountingEnabled()) {
    GTEST_SKIP() << "built without STQ_ALLOC_COUNTING";
  }
  const uint64_t worst = SteadyStateAllocsPerTick(/*num_shards=*/1,
                                                  /*workers=*/1,
                                                  /*knn_queries=*/100);
  std::printf("steady-state worst allocs/tick (single grid, k-NN): %llu\n",
              static_cast<unsigned long long>(worst));
  EXPECT_LE(worst, 512u);
}

TEST(AllocBudgetTest, ShardedKnnSteadyStateTickStaysUnderBudget) {
  if (!AllocCountingEnabled()) {
    GTEST_SKIP() << "built without STQ_ALLOC_COUNTING";
  }
  const uint64_t worst = SteadyStateAllocsPerTick(/*num_shards=*/4,
                                                  /*workers=*/4,
                                                  /*knn_queries=*/100);
  std::printf("steady-state worst allocs/tick (4 shards, k-NN): %llu\n",
              static_cast<unsigned long long>(worst));
  EXPECT_LE(worst, 256u);
}

}  // namespace
}  // namespace stq
