// Ablation: adaptive partitioning under skew — uniform grid vs adaptive
// refinement on a Zipf-hotspot world.
//
// The workload is the adaptive layer's reason to exist: objects pile
// onto a handful of drifting Zipf-weighted hotspots, and the monitoring
// queries concentrate on the same hotspots (watchers go where the action
// is). On a uniform coarse grid the hot cells carry most of the
// population AND most of the query stubs, so every grid upsert lands in
// an overloaded cell and every object report in a hot cell scans a long
// stub list; with adaptive refinement the hot cells split into leaves.
// The batch match pass already makes the stub scan cheap (one kernel
// call per slot and query), so most of what refinement saves here is
// grid upsert work (the per-phase sums printed under each row).
//
// Rows sweep the engine configuration over the same pre-rolled workload:
// uniform baseline, adaptive single-shard, and adaptive sharded with
// online rebalance. Each row is the median of stq_bench::kTrials
// in-process runs. The stream CRC must agree across every row and trial
// — the differential battery (ctest -L skew) pins byte-identity at unit
// scale, this bench re-checks it at benchmark scale while measuring the
// payoff.
//
// --assert-speedup is the CI perf-smoke gate: adaptive's median must
// beat the uniform grid's median by >= kSpeedupFloor ticks/sec on this
// workload. The comparison is single-threaded and single-shard on both
// sides, so it holds on a single-core host (unlike the shard-scaling
// gate, which needs parallel hardware).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "stq/common/crc32.h"
#include "stq/gen/skewed_generator.h"

namespace {

struct EngineConfig {
  const char* name;
  bool adaptive = false;
  int shards = 1;
  bool rebalance = false;
};

struct RunResult {
  double seconds = 0.0;      // total EvaluateTick wall time
  double removals = 0.0;
  double upserts = 0.0;
  double match = 0.0;
  double qpass = 0.0;
  double adapt_seconds = 0.0;
  double rebalance_seconds = 0.0;
  size_t cells_split = 0;
  size_t cells_merged = 0;
  size_t rebalances = 0;
  uint32_t stream_crc = 0;
  size_t ticks = 0;
  uint64_t allocs = 0;
  size_t bytes_resident = 0;  // last tick's resident answer bytes
};

RunResult RunWorkload(const stq::Workload& workload,
                      const EngineConfig& config) {
  stq::QueryProcessorOptions options;
  // Deliberately coarse: the hot cells are overloaded until the adaptive
  // layer splits them.
  options.grid_cells_per_side = 8;
  options.num_shards = config.shards;
  options.worker_threads = 1;
  if (config.adaptive) {
    options.adaptive.enabled = true;
    options.adaptive.split_threshold = 32;
    options.adaptive.merge_threshold = 12;
    options.adaptive.max_level = 4;
    options.adaptive.cooldown_ticks = 2;
    options.adaptive.rebalance = config.rebalance && config.shards > 1;
    options.adaptive.rebalance_cooldown_ticks = 3;
    options.adaptive.rebalance_imbalance = 1.2;
  }
  stq::QueryProcessor qp(options);
  workload.ApplyInitial(&qp);
  qp.EvaluateTick(0.0);  // drain the initial load outside the timed region

  // Steady-state measurement: the first few ticks are warmup (the
  // refiner descends one level per cooldown window, so the adaptive
  // structure needs a handful of ticks to converge; the uniform engine
  // is in steady state from tick one either way).
  const size_t warmup = std::min<size_t>(4, workload.ticks().size() / 2);
  RunResult result;
  std::string stream;
  for (size_t i = 0; i < workload.ticks().size(); ++i) {
    workload.ApplyTick(&qp, i);
    const bool timed = i >= warmup;
    const auto start = std::chrono::steady_clock::now();
    const stq::TickResult tick = qp.EvaluateTick(workload.ticks()[i].time);
    if (timed) {
      result.seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    }
    result.removals += tick.stats.removals_seconds;
    result.upserts += tick.stats.upserts_seconds;
    result.match += tick.stats.object_match_seconds;
    result.qpass += tick.stats.query_pass_seconds;
    result.adapt_seconds += tick.stats.adapt_seconds;
    result.rebalance_seconds += tick.stats.rebalance_seconds;
    result.cells_split += tick.stats.cells_split;
    result.cells_merged += tick.stats.cells_merged;
    result.rebalances += tick.stats.shard_rebalances;
    result.allocs += tick.stats.heap_allocations;
    result.bytes_resident = tick.stats.bytes_resident;
    stream.clear();
    for (const stq::Update& u : tick.updates) {
      stream += u.DebugString();
      stream += '\n';
    }
    result.stream_crc = stq::Crc32c(stream.data(), stream.size()) ^
                        (result.stream_crc * 31);
    if (timed) ++result.ticks;
  }
  return result;
}

// The --assert-speedup floor. At 20000 objects x 2000 queries x 12
// periods, 11 Release runs on a 4-thread Xeon container (gcc 12) gave
// adaptive/uniform medians of 1.34-1.79x (median 1.67x); the floor sits
// below the lowest so noise does not fail it, while a regression of
// refinement to parity still does.
constexpr double kSpeedupFloor = 1.15;

using RowResult = stq_bench::TrialRow<RunResult>;
using stq_bench::TicksPerSec;

// Prints one row (ticks/sec as median [min-max] over the trials) and
// records it in the JSON report.
void EmitRow(const char* name, int shards, const RowResult& row,
             double baseline_seconds, stq_bench::BenchReport* report) {
  const RunResult& r = row.median;
  const double ticks_per_sec = TicksPerSec(r.ticks, r.seconds);
  const double speedup = r.seconds > 0 ? baseline_seconds / r.seconds : 0.0;
  const double allocs_per_tick =
      r.ticks > 0 ? static_cast<double>(r.allocs) / r.ticks : 0.0;
  std::printf(
      "%-18s %8.2f [%5.2f-%5.2f] %7.2fx %7zu %7zu %5zu %9.4f %11.1f   "
      "0x%08x\n",
      name, ticks_per_sec, TicksPerSec(r.ticks, row.max_seconds),
      TicksPerSec(r.ticks, row.min_seconds), speedup, r.cells_split,
      r.cells_merged, r.rebalances, r.adapt_seconds, allocs_per_tick,
      r.stream_crc);
  std::printf(
      "  phases: removals=%.3f upserts=%.3f match=%.3f qpass=%.3f\n",
      r.removals, r.upserts, r.match, r.qpass);

  report->BeginRow();
  report->Value("engine", name);
  report->Value("shards", shards);
  report->Value("ticks_per_sec", ticks_per_sec);
  report->Value("ticks_per_sec_min", TicksPerSec(r.ticks, row.max_seconds));
  report->Value("ticks_per_sec_max", TicksPerSec(r.ticks, row.min_seconds));
  report->Value("speedup", speedup);
  report->Value("cells_split", r.cells_split);
  report->Value("cells_merged", r.cells_merged);
  report->Value("rebalances", r.rebalances);
  report->Value("adapt_seconds", r.adapt_seconds);
  report->Value("rebalance_seconds", r.rebalance_seconds);
  report->Value("upserts_seconds", r.upserts);
  report->Value("match_seconds", r.match);
  report->Value("allocs_per_tick", allocs_per_tick);
  report->Value("bytes_resident", r.bytes_resident);
  report->Value("stream_crc", r.stream_crc);
}

// The Zipf-hotspot workload with hotspot-following queries: object
// movement comes from SkewedGenerator; each query is pinned near a
// Zipf-chosen hotspot (watchers crowd the busy spots the same way the
// watched do).
stq::Workload MakeSkewWorkload(const stq_bench::BenchScale& scale,
                               uint64_t seed) {
  stq::SkewedGenerator::Options gen_options;
  gen_options.scenario = stq::SkewedGenerator::Scenario::kZipfHotspot;
  gen_options.num_objects = scale.num_objects;
  gen_options.seed = seed;
  gen_options.num_hotspots = 4;
  gen_options.zipf_s = 1.5;
  gen_options.hotspot_sigma = 0.02;
  gen_options.hotspot_drift = 0.002;
  gen_options.speed = 0.001;
  stq::SkewedGenerator gen(gen_options);

  std::vector<stq::ObjectReport> initial_objects = gen.InitialReports(0.0);

  stq::Xorshift128Plus qrng(seed ^ 0x9E3779B97F4A7C15ull);
  const double half = 0.01;  // query side 0.02
  std::vector<stq::QueryRegionReport> initial_queries;
  initial_queries.reserve(scale.num_queries);
  for (size_t i = 0; i < scale.num_queries; ++i) {
    stq::Point c;
    if (qrng.NextBool(0.8)) {
      // Zipf-weighted hotspot pick mirroring the object law.
      double norm = 0.0;
      for (size_t k = 0; k < gen_options.num_hotspots; ++k) {
        norm += std::pow(static_cast<double>(k + 1), -gen_options.zipf_s);
      }
      const double u = qrng.NextDouble(0.0, norm);
      double acc = 0.0;
      size_t pick = gen_options.num_hotspots - 1;
      for (size_t k = 0; k < gen_options.num_hotspots; ++k) {
        acc += std::pow(static_cast<double>(k + 1), -gen_options.zipf_s);
        if (u <= acc) {
          pick = k;
          break;
        }
      }
      const stq::Point& h = gen.hotspots()[pick];
      c = stq::Point{h.x + 0.04 * qrng.NextGaussian(),
                     h.y + 0.04 * qrng.NextGaussian()};
    } else {
      c = stq::Point{qrng.NextDouble(), qrng.NextDouble()};
    }
    c.x = std::clamp(c.x, 0.0, 1.0);
    c.y = std::clamp(c.y, 0.0, 1.0);
    initial_queries.push_back(stq::QueryRegionReport{
        static_cast<stq::QueryId>(i + 1),
        stq::Rect{c.x - half, c.y - half, c.x + half, c.y + half}, 0.0});
  }

  std::vector<stq::WorkloadTick> ticks;
  ticks.reserve(scale.num_ticks);
  for (size_t k = 1; k <= scale.num_ticks; ++k) {
    stq::WorkloadTick tick;
    tick.time = static_cast<double>(k) * 5.0;
    tick.object_reports = gen.Step(tick.time, 5.0, /*update_fraction=*/0.5);
    ticks.push_back(std::move(tick));
  }
  return stq::Workload::FromParts(std::move(initial_objects),
                                  std::move(initial_queries),
                                  std::move(ticks), 5.0);
}

// Hot-cold migration workload: the whole population piles onto ONE
// drifting hotspot, so whichever shard owns the hotspot carries ~all of
// the home-shard load (max/mean approaches the shard count — far past
// any sane rebalance_imbalance gate), and the drift keeps relocating
// the mass so the quantile cuts have to chase it. This is the scenario
// that actually trips the online rebalancer at bench scale; the Zipf
// table above stays balanced enough that it never fires.
stq::Workload MakeHotColdWorkload(const stq_bench::BenchScale& scale,
                                  uint64_t seed) {
  stq::SkewedGenerator::Options gen_options;
  gen_options.scenario = stq::SkewedGenerator::Scenario::kZipfHotspot;
  gen_options.num_objects = scale.num_objects;
  gen_options.seed = seed;
  gen_options.num_hotspots = 1;
  gen_options.hotspot_sigma = 0.02;
  gen_options.hotspot_drift = 0.01;  // 0.05/tick at T=5s: cuts must chase
  gen_options.speed = 0.001;
  stq::SkewedGenerator gen(gen_options);

  std::vector<stq::ObjectReport> initial_objects = gen.InitialReports(0.0);

  stq::Xorshift128Plus qrng(seed ^ 0xD1B54A32D192ED03ull);
  const double half = 0.01;  // query side 0.02
  std::vector<stq::QueryRegionReport> initial_queries;
  initial_queries.reserve(scale.num_queries);
  for (size_t i = 0; i < scale.num_queries; ++i) {
    stq::Point c{qrng.NextDouble(), qrng.NextDouble()};
    initial_queries.push_back(stq::QueryRegionReport{
        static_cast<stq::QueryId>(i + 1),
        stq::Rect{c.x - half, c.y - half, c.x + half, c.y + half}, 0.0});
  }

  std::vector<stq::WorkloadTick> ticks;
  ticks.reserve(scale.num_ticks);
  for (size_t k = 1; k <= scale.num_ticks; ++k) {
    stq::WorkloadTick tick;
    tick.time = static_cast<double>(k) * 5.0;
    tick.object_reports = gen.Step(tick.time, 5.0, /*update_fraction=*/0.5);
    ticks.push_back(std::move(tick));
  }
  return stq::Workload::FromParts(std::move(initial_objects),
                                  std::move(initial_queries),
                                  std::move(ticks), 5.0);
}

}  // namespace

int main(int argc, char** argv) {
  stq_bench::BenchScale scale = stq_bench::BenchScale::FromEnv();
  bool assert_speedup = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-speedup") == 0) assert_speedup = true;
  }

  stq_bench::BenchReport report("ablation_skew", argc, argv);
  stq_bench::ReportScale(&report, scale);
  report.Param("scenario", "zipf_hotspot");
  report.Param("num_hotspots", 4);
  report.Param("zipf_s", 1.5);
  report.Param("grid_cells_per_side", 8);
  report.Param("seed", 707);
  report.Param("trials", stq_bench::kTrials);

  std::printf("Ablation: adaptive partitioning on a Zipf-hotspot world\n");
  std::printf(
      "objects=%zu queries=%zu ticks=%zu, 8x8 base grid, "
      "hotspot-following queries\n\n",
      scale.num_objects, scale.num_queries, scale.num_ticks);

  const stq::Workload workload = MakeSkewWorkload(scale, /*seed=*/707);

  const EngineConfig kConfigs[] = {
      {"uniform", /*adaptive=*/false, /*shards=*/1},
      {"adaptive", /*adaptive=*/true, /*shards=*/1},
      {"adaptive+2shards", /*adaptive=*/true, /*shards=*/2,
       /*rebalance=*/true},
  };

  std::printf("%-18s %8s %13s %8s %7s %7s %5s %9s %11s %12s\n", "engine",
              "ticks/s", "[min-max]", "speedup", "splits", "merges",
              "rebal", "adapt_s", "allocs/tick", "stream_crc");

  double uniform_seconds = 0.0;
  double adaptive_speedup = 0.0;
  uint32_t uniform_crc = 0;
  bool crc_mismatch = false;
  const std::vector<RowResult> rows =
      stq_bench::RunTrials(std::size(kConfigs), [&](size_t i) {
        return RunWorkload(workload, kConfigs[i]);
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineConfig& config = kConfigs[i];
    const RowResult& row = rows[i];
    const RunResult& r = row.median;
    crc_mismatch |= !row.trials_agree;
    if (std::strcmp(config.name, "uniform") == 0) {
      uniform_seconds = r.seconds;
      uniform_crc = r.stream_crc;
    } else if (r.stream_crc != uniform_crc) {
      crc_mismatch = true;
    }
    if (std::strcmp(config.name, "adaptive") == 0 && r.seconds > 0) {
      adaptive_speedup = uniform_seconds / r.seconds;
    }
    EmitRow(config.name, config.shards, row, uniform_seconds, &report);
  }

  if (crc_mismatch) {
    std::printf("\nFAIL: update streams diverged across engines\n");
    return 1;
  }
  std::printf("\nupdate streams byte-identical across all engines\n");

  // --- Hot-cold migration: the rebalancer-gate scenario -------------------
  std::printf(
      "\nHot-cold migration (1 drifting hotspot, whole population): "
      "static 2-shard split vs online rebalance\n");
  const stq::Workload hotcold = MakeHotColdWorkload(scale, /*seed=*/808);
  const EngineConfig kHotColdConfigs[] = {
      {"hotcold-static", /*adaptive=*/true, /*shards=*/2,
       /*rebalance=*/false},
      {"hotcold-rebalance", /*adaptive=*/true, /*shards=*/2,
       /*rebalance=*/true},
  };
  double static_seconds = 0.0;
  uint32_t static_crc = 0;
  size_t hotcold_rebalances = 0;
  const std::vector<RowResult> hotcold_rows =
      stq_bench::RunTrials(std::size(kHotColdConfigs), [&](size_t i) {
        return RunWorkload(hotcold, kHotColdConfigs[i]);
      });
  for (size_t i = 0; i < hotcold_rows.size(); ++i) {
    const EngineConfig& config = kHotColdConfigs[i];
    const RowResult& row = hotcold_rows[i];
    const RunResult& r = row.median;
    if (std::strcmp(config.name, "hotcold-static") == 0) {
      static_seconds = r.seconds;
      static_crc = r.stream_crc;
    } else {
      hotcold_rebalances = r.rebalances;
    }
    if (!row.trials_agree || r.stream_crc != static_crc) {
      std::printf("FAIL: hot-cold streams diverged across engines\n");
      return 1;
    }
    EmitRow(config.name, config.shards, row, static_seconds, &report);
  }
  // The point of the scenario: the imbalance gate must actually fire.
  // Deterministic (fixed seed, no timing dependence), so checked
  // unconditionally.
  if (hotcold_rebalances == 0) {
    std::printf("FAIL: hot-cold migration tripped zero shard rebalances\n");
    return 1;
  }
  std::printf("hot-cold migration tripped %zu shard rebalances\n",
              hotcold_rebalances);

  // --assert-speedup: the CI gate for the adaptive layer's payoff.
  if (assert_speedup) {
    if (adaptive_speedup < kSpeedupFloor) {
      std::printf("FAIL: adaptive speedup %.2fx below required %.2fx\n",
                  adaptive_speedup, kSpeedupFloor);
      return 1;
    }
    std::printf("assert-speedup: passed (adaptive %.2fx over uniform)\n",
                adaptive_speedup);
  }
  return report.Write() ? 0 : 1;
}
