// Ablation A4 — incremental k-NN maintenance vs. periodic re-evaluation.
//
// A continuous k-NN query is stored as the smallest circle containing its
// k nearest objects; only queries whose circle was disturbed are
// re-evaluated. The baseline recomputes every k-NN query from the grid
// each period (snapshot behaviour). Sweep: object update rate.
// Expected shape: the number of dirty-query re-evaluations (and hence
// latency) tracks the update rate, while the snapshot cost is flat at
// #queries; shipped bytes follow the same pattern as Figure 5(a).
//
// Both engines see identical reports, so it is also a correctness gate:
// every period, each query's incremental answer must equal the snapshot
// answer, or the bench exits non-zero.

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "stq/baseline/snapshot_processor.h"
#include "stq/gen/network_generator.h"
#include "stq/gen/road_network.h"

namespace {
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  const size_t num_objects = stq_bench::EnvSize("STQ_BENCH_OBJECTS", 20000);
  const size_t num_queries = stq_bench::EnvSize("STQ_BENCH_QUERIES", 2000);
  constexpr int kK = 5;
  constexpr int kTicks = 3;

  stq_bench::BenchReport report("ablation_knn", argc, argv);
  report.Param("num_objects", num_objects);
  report.Param("num_queries", num_queries);
  report.Param("k", kK);
  report.Param("num_ticks", kTicks);

  std::printf("Ablation A4: incremental k-NN maintenance (k=%d)\n", kK);
  std::printf("objects=%zu knn_queries=%zu, mean per period over %d "
              "periods\n\n",
              num_objects, num_queries, kTicks);
  std::printf("%-12s %10s %12s %14s %14s\n", "update_rate", "updates",
              "reevals", "incr_ms", "snapshot_ms");
  size_t compared = 0, mismatches = 0;

  for (int rate_pct : {1, 2, 5, 10, 30, 60, 90}) {
    stq::RoadNetwork::GridCityOptions city_options;
    city_options.rows = 30;
    city_options.cols = 30;
    const stq::RoadNetwork city =
        stq::RoadNetwork::MakeGridCity(city_options);
    stq::NetworkGenerator::Options object_options;
    object_options.num_objects = num_objects;
    object_options.seed = 7;
    object_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    stq::NetworkGenerator objects(&city, object_options);
    stq::NetworkGenerator::Options focal_options;
    focal_options.num_objects = num_queries;
    focal_options.seed = 8;
    focal_options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
    stq::NetworkGenerator focal_points(&city, focal_options);

    stq::QueryProcessorOptions options;
    options.grid_cells_per_side = 64;
    stq::QueryProcessor incremental(options);
    stq::SnapshotProcessor snapshot(options);
    for (const stq::ObjectReport& r : objects.InitialReports(0.0)) {
      incremental.UpsertObject(r.id, r.loc, r.t);
      snapshot.UpsertObject(r.id, r.loc, r.t);
    }
    for (size_t q = 0; q < num_queries; ++q) {
      const stq::Point center = focal_points.LocationOf(q + 1);
      incremental.RegisterKnnQuery(q + 1, center, kK);
      snapshot.RegisterKnnQuery(q + 1, center, kK);
    }
    incremental.EvaluateTick(0.0);

    size_t updates = 0, reevals = 0;
    double incr_ms = 0.0, snap_ms = 0.0;
    for (int tick = 1; tick <= kTicks; ++tick) {
      const double now = tick * 5.0;
      for (const stq::ObjectReport& r :
           objects.Step(now, 5.0, rate_pct / 100.0)) {
        incremental.UpsertObject(r.id, r.loc, r.t);
        snapshot.UpsertObject(r.id, r.loc, r.t);
      }
      for (const stq::ObjectReport& r :
           focal_points.Step(now, 5.0, 0.3)) {
        incremental.MoveKnnQuery(r.id, r.loc);
        snapshot.MoveKnnQuery(r.id, r.loc);
      }

      Clock::time_point start = Clock::now();
      const stq::TickResult result = incremental.EvaluateTick(now);
      incr_ms += MillisSince(start);
      updates += result.updates.size();
      reevals += result.stats.knn_reevaluations;

      start = Clock::now();
      const stq::SnapshotResult truth = snapshot.EvaluateTick(now);
      snap_ms += MillisSince(start);

      for (const auto& [qid, answer] : truth.answers) {
        ++compared;
        const stq::Result<std::vector<stq::ObjectId>> incr =
            incremental.CurrentAnswer(qid);
        if (!incr.ok() || *incr != answer) {
          if (mismatches++ < 5) {
            std::fprintf(stderr,
                         "MISMATCH: rate %d%% period %d query %llu: the "
                         "incremental answer differs from the snapshot\n",
                         rate_pct, tick,
                         static_cast<unsigned long long>(qid));
          }
        }
      }
    }
    std::printf("%-11d%% %10zu %12zu %14.2f %14.2f\n", rate_pct,
                updates / kTicks, reevals / kTicks, incr_ms / kTicks,
                snap_ms / kTicks);

    report.BeginRow();
    stq_bench::ReportResilienceCounters(&report);
    report.Value("update_rate_pct", rate_pct);
    report.Value("updates_per_tick", updates / kTicks);
    report.Value("reevals_per_tick", reevals / kTicks);
    report.Value("incremental_ms", incr_ms / kTicks);
    report.Value("snapshot_ms", snap_ms / kTicks);
  }
  std::printf("\ncompared %zu answers with the snapshot: %zu mismatches\n",
              compared, mismatches);
  report.Param("answers_compared", compared);
  report.Param("answer_mismatches", mismatches);
  const bool written = report.Write();
  return written && mismatches == 0 ? 0 : 1;
}
