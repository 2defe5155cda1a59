// Ablation: spatially sharded shared-execution tick — shard scaling.
//
// The universe splits into S rectangular shards, each owning its own
// grid and stores and ticking independently on a thread pool; a router
// deduplicates cross-shard updates and merges the per-shard streams into
// the canonical order. This binary sweeps shard counts over the paper's
// fig-5a network workload (worker_threads == num_shards so every shard
// can tick concurrently) and reports ticks/sec, speedup over the
// single-grid engine, the per-shard busy/critical-path/merge wall-time
// split from TickStats, and a CRC32 of the canonical update stream —
// which must agree across all rows and trials (the sharded engine is
// byte-identical to the single grid by construction; the differential
// tests pin the same property, this bench re-checks it at benchmark
// scale). Each row is the median of stq_bench::kTrials in-process runs,
// printed with the [min-max] spread across them.
//
// Expected shape on a multi-core host: shard_busy spreads across the
// pool so the tick's critical path drops toward shard_max + merge;
// speedup > 2x at 4 shards on the fig-5a workload. On a single-core
// host the shards serialize and the sweep degenerates to measuring
// router overhead.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "stq/common/crc32.h"

namespace {

struct RunResult {
  double seconds = 0.0;     // total EvaluateTick wall time
  double shard_busy = 0.0;  // summed per-shard tick wall time
  double shard_max = 0.0;   // summed slowest-shard (critical path) time
  double merge = 0.0;       // stream merge + canonicalization
  double route = 0.0;       // router dispatch (clip + dedup bookkeeping)
  uint32_t stream_crc = 0;  // CRC32 of all canonical update streams
  size_t ticks = 0;
  uint64_t allocs = 0;      // summed TickStats.heap_allocations
  size_t bytes_resident = 0;  // last tick's resident answer bytes
};

RunResult RunWorkload(const stq::Workload& workload, int shards) {
  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = 64;
  options.num_shards = shards;
  options.worker_threads = std::max(1, shards);
  stq::QueryProcessor qp(options);
  workload.ApplyInitial(&qp);
  qp.EvaluateTick(0.0);  // drain the initial load outside the timed region

  RunResult result;
  std::string stream;
  for (size_t i = 0; i < workload.ticks().size(); ++i) {
    workload.ApplyTick(&qp, i);
    const auto start = std::chrono::steady_clock::now();
    const stq::TickResult tick = qp.EvaluateTick(workload.ticks()[i].time);
    result.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.shard_busy += tick.stats.shard_tick_busy_seconds;
    result.shard_max += tick.stats.shard_tick_max_seconds;
    result.merge += tick.stats.shard_merge_seconds;
    result.route += tick.stats.shard_route_seconds;
    result.allocs += tick.stats.heap_allocations;
    result.bytes_resident = tick.stats.bytes_resident;
    stream.clear();
    for (const stq::Update& u : tick.updates) {
      stream += u.DebugString();
      stream += '\n';
    }
    result.stream_crc = stq::Crc32c(stream.data(), stream.size()) ^
                        (result.stream_crc * 31);
    ++result.ticks;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  stq_bench::BenchScale scale = stq_bench::BenchScale::FromEnv();
  scale.num_queries = stq_bench::EnvSize("STQ_BENCH_QUERIES", 10000);
  bool assert_scaling = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-scaling") == 0) assert_scaling = true;
  }

  stq_bench::BenchReport report("ablation_shards", argc, argv);
  stq_bench::ReportScale(&report, scale);
  report.Param("query_side_length", 0.02);
  report.Param("object_update_fraction", 0.5);
  report.Param("seed", 5150);
  report.Param("trials", stq_bench::kTrials);

  std::printf("Ablation: shard scaling of the shared-execution tick\n");
  std::printf("objects=%zu queries=%zu T=5s ticks=%zu (fig-5a workload)\n\n",
              scale.num_objects, scale.num_queries, scale.num_ticks);

  const stq::Workload workload = stq::Workload::GenerateNetwork(
      stq_bench::PaperWorkloadOptions(scale, /*query_side=*/0.02,
                                      /*object_update_fraction=*/0.5,
                                      /*seed=*/5150));

  std::printf("%-8s %10s %15s %9s %12s %12s %12s %12s %14s %12s\n", "shards",
              "ticks/sec", "[min-max]", "speedup", "shard_busy", "shard_max",
              "merge_s", "route_s", "allocs/tick", "stream_crc");

  constexpr int kShardCounts[] = {1, 2, 4, 8};
  const std::vector<stq_bench::TrialRow<RunResult>> rows =
      stq_bench::RunTrials(std::size(kShardCounts), [&](size_t i) {
        return RunWorkload(workload, kShardCounts[i]);
      });

  double single_seconds = 0.0;
  uint32_t single_crc = 0;
  bool crc_mismatch = false;
  std::map<int, double> speedups;
  for (size_t i = 0; i < rows.size(); ++i) {
    const int shards = kShardCounts[i];
    const stq_bench::TrialRow<RunResult>& row = rows[i];
    const RunResult& r = row.median;
    crc_mismatch |= !row.trials_agree;
    if (shards == 1) {
      single_seconds = r.seconds;
      single_crc = r.stream_crc;
    } else if (r.stream_crc != single_crc) {
      crc_mismatch = true;
    }
    const double ticks_per_sec = stq_bench::TicksPerSec(r.ticks, r.seconds);
    const double ticks_per_sec_min =
        stq_bench::TicksPerSec(r.ticks, row.max_seconds);
    const double ticks_per_sec_max =
        stq_bench::TicksPerSec(r.ticks, row.min_seconds);
    const double allocs_per_tick =
        r.ticks > 0 ? static_cast<double>(r.allocs) / r.ticks : 0.0;
    speedups[shards] = r.seconds > 0 ? single_seconds / r.seconds : 0.0;
    std::printf(
        "%-8d %10.2f [%6.2f-%6.2f] %8.2fx %12.4f %12.4f %12.4f %12.4f "
        "%14.1f   0x%08x\n",
        shards, ticks_per_sec, ticks_per_sec_min, ticks_per_sec_max,
        speedups[shards], r.shard_busy, r.shard_max, r.merge, r.route,
        allocs_per_tick, r.stream_crc);

    report.BeginRow();
    stq_bench::ReportResilienceCounters(&report);
    report.Value("shards", shards);
    report.Value("ticks_per_sec", ticks_per_sec);
    report.Value("ticks_per_sec_min", ticks_per_sec_min);
    report.Value("ticks_per_sec_max", ticks_per_sec_max);
    report.Value("speedup", speedups[shards]);
    report.Value("shard_busy_seconds", r.shard_busy);
    report.Value("shard_max_seconds", r.shard_max);
    report.Value("merge_seconds", r.merge);
    report.Value("route_seconds", r.route);
    report.Value("allocs_per_tick", allocs_per_tick);
    report.Value("bytes_resident", r.bytes_resident);
    report.Value("stream_crc", r.stream_crc);
  }

  if (crc_mismatch) {
    std::printf(
        "\nFAIL: update streams diverged across shard counts or trials\n");
    return 1;
  }
  std::printf("\nupdate streams byte-identical across all shard counts\n");

  // --assert-scaling: the CI perf-smoke gate, judged on the median
  // trials. Thresholds carry generous slack below the expected multi-core
  // shape (shards=2 well above break-even, shards=4 approaching 2x on
  // fig-5a) so runner noise does not flake the gate, while a return to
  // the pre-fix regression (shards=2 around 0.8x) still fails it.
  // Parallel speedup cannot exist without parallel hardware, so hosts
  // with fewer than 4 CPUs skip.
  if (assert_scaling) {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      std::printf("assert-scaling: skipped (%u hardware threads < 4)\n", hw);
    } else {
      bool ok = true;
      auto check = [&](int shards, double min_speedup) {
        if (speedups[shards] < min_speedup) {
          std::printf(
              "FAIL: shards=%d speedup %.2fx below required %.2fx\n", shards,
              speedups[shards], min_speedup);
          ok = false;
        }
      };
      check(/*shards=*/2, /*min_speedup=*/1.0);
      check(/*shards=*/4, /*min_speedup=*/1.5);
      if (!ok) return 1;
      std::printf("assert-scaling: passed (2 shards %.2fx, 4 shards %.2fx)\n",
                  speedups[2], speedups[4]);
    }
  }
  return report.Write() ? 0 : 1;
}
