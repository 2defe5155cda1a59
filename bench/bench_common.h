// Shared plumbing for the benchmark binaries: scale selection via
// environment variables, workload construction, and table formatting.
//
// Every figure-reproduction binary prints the series the paper reports.
// Default scale matches the paper (100K moving objects, 100K moving
// queries, T = 5 s); set STQ_BENCH_OBJECTS / STQ_BENCH_QUERIES /
// STQ_BENCH_TICKS to shrink for quick runs.

#ifndef STQ_BENCH_BENCH_COMMON_H_
#define STQ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "stq/common/alloc_stats.h"
#include "stq/core/query_processor.h"
#include "stq/core/session.h"
#include "stq/core/transport.h"
#include "stq/gen/workload.h"

namespace stq_bench {

inline size_t EnvSize(const char* name, size_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at bench startup
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

struct BenchScale {
  size_t num_objects = 100000;
  size_t num_queries = 100000;
  size_t num_ticks = 4;

  static BenchScale FromEnv() {
    BenchScale scale;
    scale.num_objects = EnvSize("STQ_BENCH_OBJECTS", scale.num_objects);
    scale.num_queries = EnvSize("STQ_BENCH_QUERIES", scale.num_queries);
    scale.num_ticks = EnvSize("STQ_BENCH_TICKS", scale.num_ticks);
    return scale;
  }
};

// The paper's evaluation setup: network-based moving objects and moving
// square queries, evaluated every 5 seconds. Random-walk routing keeps
// workload generation cheap at 100K scale without changing the movement
// statistics that matter (road-constrained, skewed, slow relative to the
// city).
inline stq::NetworkWorkloadOptions PaperWorkloadOptions(
    const BenchScale& scale, double query_side, double object_update_fraction,
    uint64_t seed) {
  stq::NetworkWorkloadOptions options;
  // A dense city: road spacing (~0.02) below the query sizes swept in
  // Figure 5(b), so answer cardinality scales with query area as in the
  // paper's Oldenburg workload.
  options.city.rows = 50;
  options.city.cols = 50;
  options.city.seed = seed;
  options.num_objects = scale.num_objects;
  options.num_queries = scale.num_queries;
  options.query_side_length = query_side;
  options.moving_query_fraction = 1.0;
  options.tick_seconds = 5.0;
  options.num_ticks = scale.num_ticks;
  options.object_update_fraction = object_update_fraction;
  options.query_update_fraction = 0.1;
  options.seed = seed;
  options.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  return options;
}

// Bytes a complete-answer server would ship this period: every query's
// full current answer. Computed from the (verified-correct) incremental
// engine state so size comparisons use identical answers.
inline size_t CompleteAnswerBytes(const stq::QueryProcessor& qp) {
  size_t total = 0;
  const stq::WireCostModel& cost = qp.options().wire_cost;
  qp.ForEachQueryInfo([&](const stq::QueryProcessor::QueryInfo& q) {
    total += cost.CompleteAnswerBytes(q.answer_size);
  });
  return total;
}

inline double ToKb(size_t bytes) { return static_cast<double>(bytes) / 1024.0; }

// Repeated in-process trials of a table's rows. A single timed run is
// at the mercy of host noise (a first run after an idle spell, or a
// neighbour's burst, can halve it), so rows report — and gates judge —
// the median trial, with the spread across all of them.
constexpr int kTrials = 3;

// One row's trials: the median trial by `seconds`, the fastest and
// slowest seconds, and whether every trial reproduced the median's
// stream CRC.
template <typename Run>
struct TrialRow {
  Run median;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  bool trials_agree = true;
};

// Runs kTrials rounds over a table of `rows` rows, calling
// `run_once(row)` once per row per round; its result type needs
// `seconds` (the timed wall time) and `stream_crc` members. Rounds
// interleave the rows, so a noisy spell of the host lands on one trial
// of every row instead of on all trials of one row, and ratios between
// row medians (speedups) stay stable.
template <typename RunOnce>
auto RunTrials(size_t rows, const RunOnce& run_once)
    -> std::vector<TrialRow<decltype(run_once(size_t{0}))>> {
  using Run = decltype(run_once(size_t{0}));
  std::vector<std::vector<Run>> trials(rows);
  for (int t = 0; t < kTrials; ++t) {
    for (size_t r = 0; r < rows; ++r) trials[r].push_back(run_once(r));
  }
  std::vector<TrialRow<Run>> table;
  for (std::vector<Run>& runs : trials) {
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.seconds < b.seconds;
    });
    TrialRow<Run> row;
    row.median = runs[kTrials / 2];
    row.min_seconds = runs.front().seconds;
    row.max_seconds = runs.back().seconds;
    for (const Run& t : runs) {
      row.trials_agree &= t.stream_crc == row.median.stream_crc;
    }
    table.push_back(row);
  }
  return table;
}

// Ticks per second of `ticks` timed ticks over `seconds` (0 when
// nothing was timed).
inline double TicksPerSec(size_t ticks, double seconds) {
  return seconds > 0 ? static_cast<double>(ticks) / seconds : 0.0;
}

// Machine-readable results: every benchmark binary accepts
// `--json <path>` (or `--json=<path>`) and mirrors its printed series
// into a JSON document of the form
//
//   {"bench": <name>, "stamp": {...}, "params": {...},
//    "rows": [{...}, ...]}
//
// `stamp` records the build and host the numbers came from (compiler,
// build type, STQ_ALLOC_COUNTING, hardware threads as `nproc`), under the
// names of perfbench's `# stamp` lines. `params` holds the workload
// configuration, one `rows` entry per table line (sweep point). Nothing
// is written unless the flag is present, so the interactive table output
// stays the default.
class BenchReport {
 public:
  BenchReport(const char* name, int argc, char** argv) : name_(name) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      }
    }
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { Write(); }

  bool enabled() const { return !path_.empty(); }

  template <typename T>
  void Param(const char* key, T value) {
    params_.emplace_back(key, Encode(value));
  }
  void Param(const char* key, const char* value) {
    params_.emplace_back(key, Quoted(value));
  }

  void BeginRow() { rows_.emplace_back(); }
  template <typename T>
  void Value(const char* key, T value) {
    rows_.back().emplace_back(key, Encode(value));
  }
  void Value(const char* key, const char* value) {
    rows_.back().emplace_back(key, Quoted(value));
  }

  // Idempotent; also invoked by the destructor. Returns false (after
  // printing the error) when the file cannot be written.
  bool Write() {
    if (!enabled() || written_) return true;
    written_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench JSON to %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"stamp\": ",
                 Quoted(name_).c_str());
    WriteFields(f, Stamp(), "  ");
    std::fprintf(f, ",\n  \"params\": ");
    WriteFields(f, params_, "  ");
    std::fprintf(f, ",\n  \"rows\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    ", i == 0 ? "" : ",");
      WriteFields(f, rows_[i], "    ");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("bench JSON written to %s\n", path_.c_str());
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  template <typename T>
  static std::string Encode(T value) {
    static_assert(std::is_arithmetic_v<T>, "use the const char* overload");
    char buf[64];
    if constexpr (std::is_floating_point_v<T>) {
      // %.17g round-trips doubles; JSON has no Inf/NaN literals.
      if (value != value || value == std::numeric_limits<T>::infinity() ||
          value == -std::numeric_limits<T>::infinity()) {
        return "null";
      }
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(value));
    }
    return buf;
  }

  static Fields Stamp() {
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    return {{"compiler", Quoted(compiler)},
            {"build_type", Quoted(STQ_BENCH_BUILD_TYPE)},
            {"STQ_ALLOC_COUNTING", stq::AllocCountingEnabled() ? "1" : "0"},
            {"nproc", Encode(nproc)}};
  }

  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  static void WriteFields(std::FILE* f, const Fields& fields,
                          const char* indent) {
    std::fprintf(f, "{");
    for (size_t i = 0; i < fields.size(); ++i) {
      std::fprintf(f, "%s\n%s  %s: %s", i == 0 ? "" : ",", indent,
                   Quoted(fields[i].first).c_str(), fields[i].second.c_str());
    }
    std::fprintf(f, "\n%s}", indent);
  }

  std::string name_;
  std::string path_;
  Fields params_;
  std::vector<Fields> rows_;
  bool written_ = false;
};

// Adds the standard workload params to a report.
inline void ReportScale(BenchReport* report, const BenchScale& scale) {
  report->Param("num_objects", scale.num_objects);
  report->Param("num_queries", scale.num_queries);
  report->Param("num_ticks", scale.num_ticks);
}

// Mirrors the per-phase TickStats wall-time split (summed over a run)
// and the allocation counter into the current row.
inline void ReportTickStats(BenchReport* report, const stq::TickStats& stats) {
  report->Value("removals_seconds", stats.removals_seconds);
  report->Value("upserts_seconds", stats.upserts_seconds);
  report->Value("query_changes_seconds", stats.query_changes_seconds);
  report->Value("query_pass_seconds", stats.query_pass_seconds);
  report->Value("object_match_seconds", stats.object_match_seconds);
  report->Value("knn_search_seconds", stats.knn_search_seconds);
  report->Value("knn_apply_seconds", stats.knn_apply_seconds);
  report->Value("heap_allocations", stats.heap_allocations);
  report->Value("bytes_resident", stats.bytes_resident);
}

// One sample of the session/transport resilience counters (see
// stq/core/session.h for the three vantage points). Default-constructed
// = all zeros, for benches that drive the engine without a session
// layer.
struct ResilienceSample {
  stq::TransportCounters transport;
  stq::SessionCounters session;
  stq::ClientSession::Counters clients;
};

// Mirrors the resilience counters into the current row. Every bench
// emits the same keys so the JSON schema is uniform across binaries;
// transports that never drop (or no transport at all) report zeros.
inline void ReportResilienceCounters(BenchReport* report,
                                     const ResilienceSample& s = {}) {
  report->Value("envelopes_sent", s.session.envelopes_sent);
  report->Value("heartbeats_sent", s.session.heartbeats_sent);
  report->Value("envelopes_dropped", s.transport.dropped);
  report->Value("envelopes_delayed", s.transport.delayed);
  report->Value("partition_blocked", s.transport.partition_blocked);
  report->Value("resyncs_served",
                s.session.resyncs_served_diff + s.session.resyncs_served_full);
  report->Value("resyncs_applied", s.clients.resyncs_applied);
  report->Value("gaps_detected", s.clients.gaps_detected);
  report->Value("queue_overflows", s.session.queue_overflows);
  report->Value("flush_deferred", s.session.flush_deferred);
  report->Value("commits_gated", s.session.commits_gated);
}

}  // namespace stq_bench

#endif  // STQ_BENCH_BENCH_COMMON_H_
