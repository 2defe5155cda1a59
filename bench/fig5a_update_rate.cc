// Figure 5(a): answer size vs. object update rate.
//
// "Figure 5a gives the effect of the number of moving objects that
// reported a change of location within the last 5 seconds. The size of
// the complete answer is constant and is orders of magnitude of the size
// of the worst-case incremental answer."
//
// Setup per the paper: network-based generator, 100K moving objects, 100K
// moving square queries, evaluation every 5 seconds. The x-axis sweeps
// the fraction of objects that report per period; y is KBytes shipped per
// period — the incremental update stream vs. the complete answers. The
// table (and --json output) additionally reports tick throughput and the
// steady-state allocation count per tick, the metrics the flat-container
// work optimizes (see DESIGN.md, "Memory layout & allocation
// discipline").
//
// Expected shape: complete is flat; incremental grows with the update
// rate and stays far below complete.

#include <chrono>
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  const stq_bench::BenchScale scale = stq_bench::BenchScale::FromEnv();
  constexpr double kQuerySide = 0.02;

  stq_bench::BenchReport report("fig5a_update_rate", argc, argv);
  stq_bench::ReportScale(&report, scale);
  report.Param("query_side_length", kQuerySide);
  report.Param("tick_seconds", 5.0);
  report.Param("seed", 5150);

  std::printf("Figure 5(a): answer size vs. object update rate\n");
  std::printf("objects=%zu queries=%zu side=%.3f T=5s ticks=%zu\n\n",
              scale.num_objects, scale.num_queries, kQuerySide,
              scale.num_ticks);
  std::printf("%-12s %18s %18s %10s %12s %14s\n", "update_rate",
              "incremental_KB", "complete_KB", "ratio", "ticks/sec",
              "allocs/tick");

  for (int rate_pct = 10; rate_pct <= 100; rate_pct += 10) {
    const stq::Workload workload = stq::Workload::GenerateNetwork(
        stq_bench::PaperWorkloadOptions(scale, kQuerySide, rate_pct / 100.0,
                                        /*seed=*/5150));
    stq::QueryProcessorOptions options;
    options.grid_cells_per_side = 64;
    stq::QueryProcessor qp(options);
    workload.ApplyInitial(&qp);
    qp.EvaluateTick(0.0);

    double incremental_kb = 0.0;
    double complete_kb = 0.0;
    double tick_seconds = 0.0;
    stq::TickStats phase_sums;
    for (size_t i = 0; i < workload.ticks().size(); ++i) {
      workload.ApplyTick(&qp, i);
      const auto start = std::chrono::steady_clock::now();
      const stq::TickResult tick = qp.EvaluateTick(workload.ticks()[i].time);
      tick_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      incremental_kb += stq_bench::ToKb(tick.WireBytes(options.wire_cost));
      complete_kb += stq_bench::ToKb(stq_bench::CompleteAnswerBytes(qp));
      phase_sums.removals_seconds += tick.stats.removals_seconds;
      phase_sums.upserts_seconds += tick.stats.upserts_seconds;
      phase_sums.query_changes_seconds += tick.stats.query_changes_seconds;
      phase_sums.query_pass_seconds += tick.stats.query_pass_seconds;
      phase_sums.object_match_seconds += tick.stats.object_match_seconds;
      phase_sums.knn_search_seconds += tick.stats.knn_search_seconds;
      phase_sums.knn_apply_seconds += tick.stats.knn_apply_seconds;
      phase_sums.heap_allocations += tick.stats.heap_allocations;
      // Footprint, not churn: the last tick's resident answer bytes.
      phase_sums.bytes_resident = tick.stats.bytes_resident;
    }
    const double ticks = static_cast<double>(workload.ticks().size());
    incremental_kb /= ticks;
    complete_kb /= ticks;
    const double ticks_per_sec = tick_seconds > 0 ? ticks / tick_seconds : 0.0;
    const double allocs_per_tick =
        static_cast<double>(phase_sums.heap_allocations) / ticks;
    std::printf("%-11d%% %18.1f %18.1f %9.1fx %12.2f %14.1f\n", rate_pct,
                incremental_kb, complete_kb,
                incremental_kb > 0 ? complete_kb / incremental_kb : 0.0,
                ticks_per_sec, allocs_per_tick);

    report.BeginRow();
    stq_bench::ReportResilienceCounters(&report);
    report.Value("update_rate_pct", rate_pct);
    report.Value("incremental_kb", incremental_kb);
    report.Value("complete_kb", complete_kb);
    report.Value("ticks_per_sec", ticks_per_sec);
    report.Value("allocs_per_tick", allocs_per_tick);
    stq_bench::ReportTickStats(&report, phase_sums);
  }
  return report.Write() ? 0 : 1;
}
