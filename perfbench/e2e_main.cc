// stq_e2e: the repository benchmark.
//
// Runs one workload end to end through the public API:
//
//   Server / PersistentServer ingest
//     -> SessionManager::Tick (evaluation, envelopes, flush)
//     -> Transport -> ClientSession / Client apply
//
// as one single-threaded closed loop: each simulated period feeds that
// period's reports (generated beforehand, outside the timed region),
// then ticks, back to back. The workload seed is an argument; the
// engine receives only the generated inputs.
//
//   stq_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--sha STR] [--expect-fingerprint HEX] [--trace-out PATH]
//           [--bare]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: decorators time each layer (layers.h), spans go to a
// Chrome trace (--trace-out), and tracing is switched on for every other
// period so the traced-minus-untraced cycle time is the tracing
// overhead. --bare drops every decorator (no metrics, fingerprint only),
// to check that decorated runs produce the same stream and counters.
//
// Every run ends with the correctness gate: the stream/counter
// fingerprint at the pinned seed, every client's answers against
// CurrentAnswer after a quiet settle, and a seeded sample of queries
// against EvaluateFromScratch. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when the gate passed.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "layers.h"
#include "stq/common/crc32.h"
#include "stq/common/random.h"
#include "stq/core/server.h"
#include "stq/core/session.h"
#include "stq/core/sharded_server.h"
#include "stq/core/transport.h"
#include "stq/storage/persistent_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kSetupRepeats = 3;   // set-up runs per untraced run
constexpr size_t kOracleSamples = 64;
constexpr size_t kMaxSettleTicks = 12;
constexpr size_t kMinMeasuredPeriods = 6;
constexpr size_t kTraceCapacity = 1 << 20;
constexpr double kPredictiveWindowEnd = 1e12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool bare = false;
  std::string sha = "unknown";
  std::string expect_fingerprint;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--bare") {
      a->bare = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--sha") {
      a->sha = v;
    } else if (k == "--expect-fingerprint") {
      a->expect_fingerprint = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, in place.
double Percentile(std::vector<float>* v, double p) {
  if (v->empty()) return 0.0;
  const size_t rank = std::min(
      v->size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(v->size()))) - 1);
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Freshness: report accepted -> client applied ---------------------------

// Per applied update, the wall time from the earliest report this period
// that produced it (its object's or its query's; the period start when
// neither reported) to the moment its client applied the envelope that
// carried it. Updates a client could not apply in their own period
// (dropped envelope, partition, demotion) are held as debts and settled
// by the late envelope or the resync that finally brings them in.
// Time spent in checkpoints, which run outside the timed cycle, is taken
// off the clock, so a delayed update does not count a checkpoint that
// happened to fall between its report and its resync.
//
// Samples are grouped by the period whose reports produced them, and a
// percentile is reported as the median over periods of that period's
// percentile. The updates of one period share its ingest and tick, so
// they are not independent samples: pooled, the tail would be set by the
// one slowest period of the run, i.e. by host noise.
class FreshnessTracker final : public ApplyObserver {
 public:
  explicit FreshnessTracker(size_t num_clients) : marks_(num_clients + 1) {}

  void BeginPeriod(int64_t period, stq::Timestamp time) {
    period_ = period;
    time_ = time;
    period_paused_ns_ = paused_ns_;
  }
  void Pause(int64_t ns) { paused_ns_ += ns; }
  void set_first_measured(int64_t p) { first_measured_ = p; }

  void OnTickApplied(stq::ClientId cid, stq::Timestamp tick_time,
                     int64_t now_ns) override {
    now_ns -= paused_ns_;
    Mark& m = marks_[cid];
    if (tick_time == time_) {
      m.tick_period = period_;
      m.tick_ns = now_ns;
    }
    Settle(&m, tick_time, now_ns);
  }

  void OnResyncApplied(stq::ClientId cid, int64_t now_ns) override {
    now_ns -= paused_ns_;
    Mark& m = marks_[cid];
    m.resync_period = period_;
    m.resync_ns = now_ns;
    Settle(&m, std::numeric_limits<double>::infinity(), now_ns);
  }

  // One update of the period just ticked, owned by `cid`.
  void AddUpdate(stq::ClientId cid, int64_t origin_ns) {
    origin_ns -= period_paused_ns_;
    Mark& m = marks_[cid];
    if (m.tick_period == period_) {
      Sample(period_, m.tick_ns - origin_ns);
    } else if (m.resync_period == period_) {
      Sample(period_, m.resync_ns - origin_ns);
    } else {
      m.debts.push_back(Debt{period_, time_, origin_ns});
    }
  }

  // Median over measured periods of each period's `q`-quantile.
  double MedianOfPeriods(double q) {
    std::vector<double> per_period;
    for (std::vector<float>& v : by_period_) {
      if (!v.empty()) per_period.push_back(Percentile(&v, q));
    }
    return Median(std::move(per_period));
  }
  size_t samples() const {
    size_t n = 0;
    for (const std::vector<float>& v : by_period_) n += v.size();
    return n;
  }
  size_t outstanding() const {
    size_t n = 0;
    for (const Mark& m : marks_) n += m.debts.size();
    return n;
  }

 private:
  struct Debt {
    int64_t period;
    stq::Timestamp time;
    int64_t origin_ns;
  };
  struct Mark {
    int64_t tick_period = -1;
    int64_t tick_ns = 0;
    int64_t resync_period = -1;
    int64_t resync_ns = 0;
    std::vector<Debt> debts;
  };

  void Sample(int64_t period, int64_t ns) {
    const size_t i = static_cast<size_t>(period - first_measured_);
    if (i >= by_period_.size()) by_period_.resize(i + 1);
    by_period_[i].push_back(static_cast<float>(static_cast<double>(ns) / 1e6));
  }

  void Settle(Mark* m, stq::Timestamp upto, int64_t now_ns) {
    if (m->debts.empty()) return;
    size_t kept = 0;
    for (const Debt& d : m->debts) {
      if (d.time <= upto) {
        if (d.period >= first_measured_) Sample(d.period, now_ns - d.origin_ns);
      } else {
        m->debts[kept++] = d;
      }
    }
    m->debts.resize(kept);
  }

  std::vector<Mark> marks_;
  std::vector<std::vector<float>> by_period_;
  int64_t period_ = 0;
  stq::Timestamp time_ = 0.0;
  int64_t first_measured_ = 1 << 30;
  int64_t paused_ns_ = 0;
  int64_t period_paused_ns_ = 0;
};

// --- The assembled program ------------------------------------------------------

// Declaration order is destruction order reversed: sessions and the
// manager go first, then the transports and backends they point at.
struct Pipeline {
  std::string dir;
  std::unique_ptr<TimedEnv> env;
  std::unique_ptr<stq::Server> server;
  std::unique_ptr<stq::PersistentServer> persistent;
  std::unique_ptr<stq::SessionBackend> backend;
  std::unique_ptr<TimedBackend> timed_backend;
  std::unique_ptr<stq::Transport> inner_transport;
  stq::FaultInjectionTransport* faults = nullptr;  // when lossy
  std::unique_ptr<MeteredTransport> transport;
  std::unique_ptr<stq::SessionManager> manager;
  std::vector<std::unique_ptr<stq::ClientSession>> sessions;

  stq::Server& srv() { return persistent ? persistent->server() : *server; }

  ~Pipeline() {
    sessions.clear();
    manager.reset();
    if (persistent) (void)persistent->Close();
    persistent.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

// Counts every API call and every non-OK status on a valid call.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected_reports = 0;

  void Check(const stq::Status& s, bool is_report = false) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      if (is_report) ++rejected_reports;
      if (failed <= 5) {
        std::fprintf(stderr, "operation failed: %s\n", s.ToString().c_str());
      }
    }
  }
};

template <typename S>
stq::Status ReportObject(S* s, const stq::ObjectReport& r, bool predictive) {
  return predictive ? s->ReportPredictiveObject(r.id, r.loc, r.vel, r.t)
                    : s->ReportObject(r.id, r.loc, r.t);
}

template <typename S>
stq::Status Register(S* s, const QuerySpec& q) {
  switch (q.shape) {
    case QueryShape::kRange:
      return s->RegisterRangeQuery(q.id, q.client, q.region);
    case QueryShape::kCircle:
      return s->RegisterCircleQuery(q.id, q.client, q.center, q.radius);
    case QueryShape::kKnn:
      return s->RegisterKnnQuery(q.id, q.client, q.center, q.k);
    case QueryShape::kPredictive:
      return s->RegisterPredictiveQuery(q.id, q.client, q.region, 0.0,
                                        kPredictiveWindowEnd);
  }
  return stq::Status::InvalidArgument("unknown shape");
}

template <typename S>
stq::Status Move(S* s, const QueryMove& m) {
  switch (m.shape) {
    case QueryShape::kRange:
      return s->MoveRangeQuery(m.id, m.region);
    case QueryShape::kCircle:
      return s->MoveCircleQuery(m.id, m.center);
    case QueryShape::kKnn:
      return s->MoveKnnQuery(m.id, m.center);
    case QueryShape::kPredictive:
      return s->MovePredictiveQuery(m.id, m.region);
  }
  return stq::Status::InvalidArgument("unknown shape");
}

struct Mode {
  bool trace = false;
  bool bare = false;
};

// Builds the program for `spec` and runs its set-up: open (durable),
// attach clients and sessions, initial ingest and registration, and the
// first tick (the initial answer build, delivered to every client).
std::unique_ptr<Pipeline> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                const Mode& mode, const std::string& dir,
                                const std::vector<stq::ObjectReport>& objects,
                                const std::vector<QuerySpec>& queries,
                                SpanRecorder* rec, ApplyObserver* observer,
                                Ops* ops) {
  auto p = std::make_unique<Pipeline>();
  ScopedSpan span(rec, SpanKind::kSetup);
  stq::Server::Options server_options;
  server_options.processor = spec.engine;
  if (spec.durable) {
    p->dir = dir;
    stq::PersistentServer::Options po;
    po.server = server_options;
    po.dir = dir;
    po.sync_every_tick = true;
    if (mode.trace) {
      p->env = std::make_unique<TimedEnv>(stq::Env::Default(), rec);
      po.env = p->env.get();
    }
    p->persistent = std::make_unique<stq::PersistentServer>(po);
    ops->Check(p->persistent->Open());
    p->backend = std::make_unique<stq::PersistentServer::SessionBackendAdapter>(
        p->persistent.get());
  } else {
    p->server = std::make_unique<stq::Server>(server_options);
    p->backend = std::make_unique<stq::PlainSessionBackend>(p->server.get());
  }
  stq::SessionBackend* backend = p->backend.get();
  if (mode.trace) {
    p->timed_backend = std::make_unique<TimedBackend>(backend, rec);
    backend = p->timed_backend.get();
  }
  if (spec.drop_rate > 0.0 || spec.partition_share > 0.0) {
    auto fi = std::make_unique<stq::FaultInjectionTransport>(seed * 7919 + 3);
    stq::ChaosProfile chaos;
    chaos.drop = spec.drop_rate;
    fi->SetChaosProfile(chaos);
    p->faults = fi.get();
    p->inner_transport = std::move(fi);
  } else {
    p->inner_transport = std::make_unique<stq::PerfectTransport>();
  }
  stq::Transport* transport = p->inner_transport.get();
  if (!mode.bare) {
    p->transport = std::make_unique<MeteredTransport>(
        transport, mode.trace ? rec : nullptr, observer);
    transport = p->transport.get();
  }
  const stq::SessionOptions session_options;
  p->manager = std::make_unique<stq::SessionManager>(backend, transport,
                                                     session_options);
  p->sessions.reserve(spec.num_clients);
  for (stq::ClientId cid = 1; cid <= spec.num_clients; ++cid) {
    ops->Check(p->persistent ? p->persistent->AttachClient(cid)
                             : p->server->AttachClient(cid));
    p->sessions.push_back(std::make_unique<stq::ClientSession>(
        cid, p->manager.get(), transport, session_options));
    ops->Check(p->manager->AttachSession(p->sessions.back().get()));
  }
  {
    ScopedSpan ingest(rec, SpanKind::kIngest);
    for (const stq::ObjectReport& r : objects) {
      ops->Check(p->persistent
                     ? ReportObject(p->persistent.get(), r, spec.predictive_objects)
                     : ReportObject(p->server.get(), r, spec.predictive_objects),
                 /*is_report=*/true);
    }
    for (const QuerySpec& q : queries) {
      ops->Check(p->persistent ? Register(p->persistent.get(), q)
                               : Register(p->server.get(), q));
    }
  }
  {
    ScopedSpan tick(rec, SpanKind::kSessionTick);
    p->manager->Tick(0.0);
  }
  ++ops->attempted;
  return p;
}

// CRC of the canonical update stream, chained across periods.
uint32_t ChainStream(uint32_t crc, const std::vector<stq::Update>& updates) {
  std::vector<char> buf;
  buf.reserve(updates.size() * 17);
  for (const stq::Update& u : updates) {
    char rec[17];
    std::memcpy(rec, &u.query, 8);
    std::memcpy(rec + 8, &u.object, 8);
    rec[16] = static_cast<char>(u.sign);
    buf.insert(buf.end(), rec, rec + 17);
  }
  return stq::Crc32c(crc, buf.data(), buf.size());
}

// Program-exported counters, captured after set-up and after the last
// period so count metrics cover exactly the loop's periods.
struct Counts {
  stq::SessionCounters session;
  stq::TransportCounters transport;
  stq::ClientSession::Counters clients;
  StorageStats storage;
};

Counts Snapshot(Pipeline* p) {
  Counts c;
  c.session = p->manager->counters();
  c.transport = p->inner_transport->counters();
  std::vector<stq::ClientSession*> raw;
  for (auto& s : p->sessions) raw.push_back(s.get());
  c.clients = stq::SumSessionCounters(raw);
  if (p->env) c.storage = p->env->stats();
  return c;
}

// The stream CRC plus every program-exported counter that a faithful
// decorator must leave untouched.
uint32_t Fingerprint(uint32_t stream_crc, Pipeline* p) {
  const Counts c = Snapshot(p);
  const stq::SessionCounters& s = c.session;
  const stq::TransportCounters& t = c.transport;
  const stq::ClientSession::Counters& k = c.clients;
  const uint64_t v[] = {
      stream_crc, s.envelopes_sent, s.heartbeats_sent, s.resyncs_served_diff,
      s.resyncs_served_full, s.resyncs_deferred, s.queue_high_water,
      s.queue_overflows, s.flush_deferred, s.stale_envelopes_dropped,
      s.acks_received, s.commits_gated, t.sent, t.control_sent, t.delivered,
      t.dropped, t.duplicated, t.reordered, t.delayed, t.truncated,
      t.partition_blocked, k.envelopes_applied, k.duplicates_suppressed,
      k.gaps_detected, k.gaps_repaired, k.corrupt_envelopes,
      k.out_of_sync_transitions, k.resync_requests, k.backoff_retries,
      k.resyncs_applied, k.ignored_while_out_of_sync,
      p->srv().total_bytes_shipped(), p->srv().committed().size()};
  return stq::Crc32c(v, sizeof v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Run(const Args& args) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int workers = static_cast<int>(std::min(4u, hw));
  std::unique_ptr<WorkloadSource> source =
      MakeWorkload(args.workload, args.seed, workers);
  if (source == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = source->spec();
  const Mode mode{args.trace, args.bare};

  std::printf("# stamp git_sha %s\n", args.sha.c_str());
  std::printf("# stamp compiler %s\n", CompilerString().c_str());
  std::printf("# stamp build_type %s\n", STQ_E2E_BUILD_TYPE);
  std::printf("# stamp STQ_SIMD %d\n", STQ_E2E_SIMD);
  std::printf("# stamp STQ_ALLOC_COUNTING %d\n", STQ_E2E_ALLOC_COUNTING);
  std::printf("# stamp nproc %u\n", hw);
  std::printf("# stamp workers %d\n", workers);
  std::printf("# stamp workload %s\n", spec.name.c_str());
  std::printf("# stamp seed %llu\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("# stamp mode %s\n",
              args.bare ? "bare" : (args.trace ? "traced" : "untraced"));
  std::fflush(stdout);

  // Workload generation: outside every timed region.
  std::vector<stq::ObjectReport> init_objects;
  std::vector<QuerySpec> init_queries;
  source->Initial(&init_objects, &init_queries);
  stq::ObjectId max_object = 0;
  for (const auto& r : init_objects) max_object = std::max(max_object, r.id);
  std::vector<stq::ClientId> owner(init_queries.size() + 1, 0);
  for (const QuerySpec& q : init_queries) {
    if (q.id >= owner.size()) owner.resize(q.id + 1, 0);
    owner[q.id] = q.client;
  }

  SpanRecorder recorder(args.trace ? kTraceCapacity : 0);
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  FreshnessTracker fresh(spec.num_clients);
  ApplyObserver* observer = (args.trace || args.bare) ? nullptr : &fresh;
  Ops ops;

  const std::filesystem::path tmp_root =
      std::filesystem::current_path() / ".bench_build" / "perfbench" / "tmp";
  auto dir_for = [&](size_t i) {
    return (tmp_root / (spec.name + "-" + std::to_string(getpid()) + "-" +
                       std::to_string(i)))
        .string();
  };
  if (spec.durable) std::filesystem::create_directories(tmp_root);

  // --- Set-up, repeated; the last one is kept ------------------------------
  const size_t setups = (args.trace || args.bare) ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> p;
  for (size_t i = 0; i < setups; ++i) {
    p.reset();
    recorder.set_on(args.trace);
    const int64_t t0 = NowNs();
    p = SetUp(spec, args.seed, mode, dir_for(i), init_objects, init_queries,
              rec, observer, &ops);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    recorder.set_on(false);
  }
  uint32_t stream_crc = ChainStream(0, p->srv().last_tick().updates);
  const Counts c0 = Snapshot(p.get());

  // --- The closed loop --------------------------------------------------------
  std::vector<int32_t> obj_period(max_object + 1, -1);
  std::vector<int64_t> obj_accept(max_object + 1, 0);
  std::vector<int32_t> qry_period(owner.size(), -1);
  std::vector<int64_t> qry_accept(owner.size(), 0);
  std::vector<int64_t> chunk_ns;
  constexpr size_t kChunk = 256;

  const size_t warmup = spec.warmup_periods;
  const size_t round = std::max<size_t>(1, spec.checkpoint_every);
  uint32_t fingerprint = 0;
  PeriodInput in;
  int64_t measure_start_ns = 0;
  size_t measured = 0;
  uint64_t measured_reports = 0;
  uint64_t measured_bytes = 0;
  uint64_t measured_updates = 0;
  std::vector<double> cycle_ms, cycle_on_ms, cycle_off_ms;
  stq::TickStats sum;  // measured periods
  size_t cells_split = 0, cells_merged = 0, rebalances = 0;
  uint64_t heap_allocs = 0;
  uint64_t all_reports = 0;
  uint64_t traced_reports = 0;
  uint64_t traced_checkpoints = 0;
  double checkpoint_s = 0.0;  // measured periods' checkpoints
  size_t periods = 0;
  // Traced-period accumulators (span-derived).
  size_t traced = 0;
  std::array<int64_t, SpanRecorder::kLayers> self_acc{};
  std::array<int64_t, SpanRecorder::kKinds> kind_acc{};
  uint64_t traced_updates_applied = 0;
  int64_t traced_append_ns = 0, traced_sync_ns = 0;

  auto client_updates_applied = [&]() {
    uint64_t n = 0;
    for (auto& s : p->sessions) n += s->client().updates_applied();
    return n;
  };

  for (int64_t period = 1;; ++period) {
    const bool is_measured = static_cast<size_t>(period) > warmup;
    // Stop on a whole number of checkpoint rounds, so every run measures
    // the same mix of checkpoint and plain periods.
    if (is_measured && measured >= kMinMeasuredPeriods &&
        measured % round == 0 &&
        static_cast<double>(NowNs() - measure_start_ns) / 1e9 >=
            args.seconds) {
      break;
    }
    if (is_measured && measured == 0) {
      measure_start_ns = NowNs();
      fresh.set_first_measured(period);
    }
    source->NextPeriod(&in);
    if (p->faults != nullptr) {
      p->faults->ClearPartitions();
      if (!in.partitioned.empty()) {
        const uint64_t next = p->manager->tick_index() + 1;
        p->faults->AddPartition(next, next + 1, in.partitioned);
      }
    }
    const bool on = args.trace && period % 2 == 1;
    recorder.set_on(on);
    const auto self0 = recorder.self_ns();
    const auto kind0 = recorder.total_ns();
    const uint64_t ckpt0 =
        recorder.count()[static_cast<size_t>(SpanKind::kCheckpoint)];
    const StorageStats st0 = p->env ? p->env->stats() : StorageStats{};
    const uint64_t applied0 = on ? client_updates_applied() : 0;
    const uint64_t bytes0 = p->transport ? p->transport->bytes() : 0;
    fresh.BeginPeriod(period, in.time);
    chunk_ns.clear();

    // Timed: ingest, then tick.
    const int64_t t0 = NowNs();
    recorder.Begin(SpanKind::kPeriod, static_cast<uint32_t>(period));
    recorder.Begin(SpanKind::kIngest);
    size_t n = 0;
    for (const stq::ObjectReport& r : in.objects) {
      ops.Check(p->persistent
                    ? ReportObject(p->persistent.get(), r, spec.predictive_objects)
                    : ReportObject(p->server.get(), r, spec.predictive_objects),
                true);
      if (++n % kChunk == 0) chunk_ns.push_back(NowNs());
    }
    for (const QueryMove& m : in.queries) {
      ops.Check(p->persistent ? Move(p->persistent.get(), m)
                              : Move(p->server.get(), m),
                true);
      if (++n % kChunk == 0) chunk_ns.push_back(NowNs());
    }
    recorder.End();
    const int64_t t1 = NowNs();
    chunk_ns.push_back(t1);
    {
      ScopedSpan tick(rec, SpanKind::kSessionTick);
      p->manager->Tick(in.time);
    }
    recorder.End();
    const int64_t t2 = NowNs();
    ++ops.attempted;
    ++periods;

    // Checkpoints run between periods, outside the timed cycle: their
    // cost is dominated by the filesystem freeing the truncated WAL's
    // blocks, which varies severalfold from run to run on a shared host
    // and would swamp every end-to-end metric. The traced run still
    // times them (storage.checkpoint_ms).
    if (spec.checkpoint_every > 0 && period % spec.checkpoint_every == 0) {
      const int64_t c0 = NowNs();
      {
        ScopedSpan ck(rec, SpanKind::kCheckpoint);
        if (p->env) p->env->set_in_checkpoint(true);
        ops.Check(p->persistent->Checkpoint());
        if (p->env) p->env->set_in_checkpoint(false);
      }
      const int64_t ck_ns = NowNs() - c0;
      fresh.Pause(ck_ns);
      if (is_measured) checkpoint_s += static_cast<double>(ck_ns) / 1e9;
    }

    // Bookkeeping, outside the timed region.
    const stq::TickResult& tick = p->srv().last_tick();
    const stq::TickStats& ts = tick.stats;
    const size_t reports = in.objects.size() + in.queries.size();
    all_reports += reports;
    cells_split += ts.cells_split;
    cells_merged += ts.cells_merged;
    rebalances += ts.shard_rebalances;
    if (static_cast<size_t>(period) <= warmup) {
      stream_crc = ChainStream(stream_crc, tick.updates);
      if (static_cast<size_t>(period) == warmup) {
        fingerprint = Fingerprint(stream_crc, p.get());
      }
    }
    if (!is_measured) continue;
    ++measured;
    measured_reports += reports;
    measured_updates += tick.updates.size();
    if (p->transport) measured_bytes += p->transport->bytes() - bytes0;
    const double cyc = static_cast<double>(t2 - t0) / 1e6;
    cycle_ms.push_back(cyc);
    (on ? cycle_on_ms : cycle_off_ms).push_back(cyc);
    heap_allocs += ts.heap_allocations;
    sum.object_match_seconds += ts.object_match_seconds;
    sum.object_apply_seconds += ts.object_apply_seconds;
    sum.query_pass_seconds += ts.query_pass_seconds;
    sum.query_changes_seconds += ts.query_changes_seconds;
    sum.upserts_seconds += ts.upserts_seconds;
    sum.removals_seconds += ts.removals_seconds;
    sum.knn_search_seconds += ts.knn_search_seconds;
    sum.knn_apply_seconds += ts.knn_apply_seconds;
    sum.adapt_seconds += ts.adapt_seconds;
    sum.rebalance_seconds += ts.rebalance_seconds;
    sum.shard_route_seconds += ts.shard_route_seconds;
    sum.shard_merge_seconds += ts.shard_merge_seconds;
    sum.shard_knn_seconds += ts.shard_knn_seconds;
    sum.shard_tick_wall_seconds += ts.shard_tick_wall_seconds;
    sum.shard_tick_busy_seconds += ts.shard_tick_busy_seconds;
    sum.shard_tick_max_seconds += ts.shard_tick_max_seconds;
    sum.bytes_resident = ts.bytes_resident;

    if (on) {
      ++traced;
      traced_reports += reports;
      traced_checkpoints += recorder.count()[static_cast<size_t>(
                                SpanKind::kCheckpoint)] -
                            ckpt0;
      const auto& self1 = recorder.self_ns();
      const auto& kind1 = recorder.total_ns();
      for (size_t i = 0; i < self_acc.size(); ++i) {
        self_acc[i] += self1[i] - self0[i];
      }
      for (size_t i = 0; i < kind_acc.size(); ++i) {
        kind_acc[i] += kind1[i] - kind0[i];
      }
      traced_updates_applied += client_updates_applied() - applied0;
      if (p->env) {
        traced_append_ns += p->env->stats().append_ns - st0.append_ns;
        traced_sync_ns += p->env->stats().sync_ns - st0.sync_ns;
      }
    }

    if (observer != nullptr) {
      // Accept time of each report: the end of its 256-report chunk.
      size_t i = 0;
      for (const stq::ObjectReport& r : in.objects) {
        obj_period[r.id] = static_cast<int32_t>(period);
        obj_accept[r.id] = chunk_ns[i++ / kChunk];
      }
      for (const QueryMove& m : in.queries) {
        qry_period[m.id] = static_cast<int32_t>(period);
        qry_accept[m.id] = chunk_ns[i++ / kChunk];
      }
      for (const stq::Update& u : tick.updates) {
        int64_t origin = INT64_MAX;
        if (u.object < obj_period.size() && obj_period[u.object] == period) {
          origin = obj_accept[u.object];
        }
        if (u.query < qry_period.size() && qry_period[u.query] == period) {
          origin = std::min(origin, qry_accept[u.query]);
        }
        if (origin == INT64_MAX) origin = t0;
        fresh.AddUpdate(owner[u.query], origin);
      }
    }
  }
  recorder.set_on(false);
  const stq::Timestamp last_time = in.time;
  const Counts c1 = Snapshot(p.get());

  // --- Correctness gate ---------------------------------------------------------
  uint64_t gate_failures = 0;
  char fp_hex[16];
  std::snprintf(fp_hex, sizeof fp_hex, "0x%08x", fingerprint);
  std::printf("# fingerprint %s (stream crc over set-up + %zu periods)\n",
              fp_hex, warmup);
  if (!args.expect_fingerprint.empty()) {
    ++ops.attempted;
    if (args.expect_fingerprint != fp_hex) {
      std::printf("# FAIL fingerprint %s != pinned %s\n", fp_hex,
                  args.expect_fingerprint.c_str());
      ++gate_failures;
    }
  }
  if (p->persistent && p->persistent->degraded()) {
    std::printf("# FAIL persistent server degraded: %s\n",
                p->persistent->error().ToString().c_str());
    ++gate_failures;
  }

  // A seeded sample of queries against the from-scratch oracle, at the
  // last period.
  {
    stq::Xorshift128Plus pick(args.seed ^ 0x5eedull);
    const stq::QueryProcessor& qp = p->srv().processor();
    size_t bad = 0;
    for (size_t i = 0; i < kOracleSamples; ++i) {
      const QuerySpec& q = init_queries[pick.NextUint64(init_queries.size())];
      auto cur = qp.CurrentAnswer(q.id);
      auto truth = qp.EvaluateFromScratch(q.id);
      ++ops.attempted;
      if (!cur.ok() || !truth.ok()) {
        ++bad;
        continue;
      }
      std::vector<stq::ObjectId> a = cur.value(), b = truth.value();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) ++bad;
    }
    if (bad > 0) std::printf("# FAIL %zu oracle mismatches\n", bad);
    gate_failures += bad;
  }

  // Quiesce: no faults, no reports; tick until every session is caught up.
  if (p->faults != nullptr) {
    p->faults->SetChaosProfile(stq::ChaosProfile{});
    p->faults->ClearPartitions();
  }
  size_t settle = 0;
  auto caught_up = [&]() {
    for (auto& s : p->sessions) {
      if (s->state() != stq::ClientSession::State::kConnected ||
          p->manager->IsDemoted(s->id()) ||
          p->manager->QueueLength(s->id()) != 0) {
        return false;
      }
    }
    return true;
  };
  do {
    ++settle;
    fresh.BeginPeriod(static_cast<int64_t>(periods) + 1 + settle,
                      last_time + 5.0 * static_cast<double>(settle));
    p->manager->Tick(last_time + 5.0 * static_cast<double>(settle));
    ++ops.attempted;
  } while (settle < kMaxSettleTicks && !caught_up());
  size_t diverged = 0;
  for (const QuerySpec& q : init_queries) {
    auto truth = p->srv().processor().CurrentAnswer(q.id);
    ++ops.attempted;
    if (!truth.ok() ||
        p->sessions[q.client - 1]->client().SortedAnswerOf(q.id) !=
            truth.value()) {
      ++diverged;
    }
  }
  if (diverged > 0) {
    std::printf("# FAIL %zu client answers differ from CurrentAnswer\n",
                diverged);
  }
  gate_failures += diverged;
  const uint64_t failed = ops.failed + gate_failures;
  const uint64_t attempted = std::max<uint64_t>(1, ops.attempted);
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  size_t resident_pairs = 0;
  p->srv().processor().ForEachQueryInfo(
      [&](const stq::QueryProcessor::QueryInfo& q) {
        resident_pairs += q.answer_size;
      });
  std::printf("# resident answer pairs %zu, updates per measured period %.0f\n",
              resident_pairs,
              static_cast<double>(measured_updates) /
                  static_cast<double>(std::max<size_t>(1, measured)));
  std::printf("# settle_ticks %zu, outstanding freshness debts %zu\n", settle,
              fresh.outstanding());
  std::printf("error_rate %.6g fraction\n", error_rate);

  // --- Metrics ----------------------------------------------------------------
  std::vector<Metric> metrics;
  const double m = static_cast<double>(std::max<size_t>(1, measured));
  const double tp = static_cast<double>(std::max<size_t>(1, traced));
  double cycle_s_total = 0.0;
  for (double c : cycle_ms) cycle_s_total += c / 1e3;
  const double ms = 1e3;

  if (!args.trace) {
    const size_t n_samples = fresh.samples();
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back(
        {"reports_per_s", static_cast<double>(measured_reports) / cycle_s_total,
         "reports/s"});
    metrics.push_back({"cycle_ms.p50", Median(cycle_ms), "ms"});
    const double p50 = fresh.MedianOfPeriods(0.50);
    const double p99 = fresh.MedianOfPeriods(0.99);
    metrics.push_back({"freshness_ms.p50", p50, "ms"});
    metrics.push_back({"freshness_ms.p99", p99, "ms"});
    metrics.push_back({"delivered_kb_per_tick",
                       static_cast<double>(measured_bytes) / m / 1024.0, "KB"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    std::printf("# measured_periods %zu, freshness samples %zu, setups %zu\n",
                measured, n_samples, setup_s.size());
  } else {
    auto K = [&](SpanKind k) {
      return static_cast<double>(kind_acc[static_cast<size_t>(k)]) / 1e6 / tp;
    };
    auto L = [&](Layer l) {
      return static_cast<double>(self_acc[static_cast<size_t>(l)]) / 1e6 / tp;
    };
    auto D = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
    const stq::SessionCounters& s0 = c0.session;
    const stq::SessionCounters& s1 = c1.session;
    const stq::TransportCounters& t0 = c0.transport;
    const stq::TransportCounters& t1 = c1.transport;
    const StorageStats& st0 = c0.storage;
    const StorageStats& st1 = c1.storage;
    // The single grid also fills the TickStats execution breakdown (as
    // one "shard"); the shard layer exists only under the sharded engine.
    const bool sharded = p->srv().processor().sharded();
    const double sh = sharded ? ms / m : 0.0;
    const double wall =
        sum.shard_route_seconds + sum.shard_tick_wall_seconds +
        sum.shard_merge_seconds + sum.shard_knn_seconds;
    const size_t shards = static_cast<size_t>(spec.engine.num_shards);
    size_t moved = 0;
    if (const stq::ShardedEngine* se =
            p->srv().processor().sharded_engine()) {
      for (const auto& ev : se->rebalance_history()) moved += ev.moved_objects;
    }
    metrics = {
        {"server.ingest_ms", K(SpanKind::kIngest), "ms"},
        {"server.ns_per_report",
         static_cast<double>(kind_acc[static_cast<size_t>(SpanKind::kIngest)]) /
             static_cast<double>(std::max<uint64_t>(1, traced_reports)),
         "ns"},
        {"server.rejected", static_cast<double>(ops.rejected_reports), "count"},
        {"qp.eval_ms", L(Layer::kQp), "ms"},
        {"qp.object_match_ms", sum.object_match_seconds * ms / m, "ms"},
        // Share of the server's busy time, checkpoints included.
        {"qp.object_match_share",
         sum.object_match_seconds / (cycle_s_total + checkpoint_s),
         "fraction"},
        {"qp.object_apply_ms", sum.object_apply_seconds * ms / m, "ms"},
        {"qp.query_pass_ms", sum.query_pass_seconds * ms / m, "ms"},
        {"qp.query_changes_ms", sum.query_changes_seconds * ms / m, "ms"},
        {"qp.upserts_ms", sum.upserts_seconds * ms / m, "ms"},
        {"qp.knn_search_ms", sum.knn_search_seconds * ms / m, "ms"},
        {"qp.knn_apply_ms", sum.knn_apply_seconds * ms / m, "ms"},
        {"qp.updates_per_tick", static_cast<double>(measured_updates) / m,
         "count"},
        {"qp.heap_allocs_per_tick", static_cast<double>(heap_allocs) / m,
         "count"},
        {"qp.answer_bytes_resident", static_cast<double>(sum.bytes_resident),
         "bytes"},
        {"shard.route_ms", sum.shard_route_seconds * sh, "ms"},
        {"shard.merge_ms", sum.shard_merge_seconds * sh, "ms"},
        {"shard.knn_ms", sum.shard_knn_seconds * sh, "ms"},
        {"shard.tick_wall_ms", sum.shard_tick_wall_seconds * sh, "ms"},
        {"shard.tick_max_ms", sum.shard_tick_max_seconds * sh, "ms"},
        {"shard.tick_busy_ms", sum.shard_tick_busy_seconds * sh, "ms"},
        {"shard.serial_share",
         sharded && wall > 0
             ? (sum.shard_route_seconds + sum.shard_merge_seconds) / wall
             : 0.0,
         "fraction"},
        {"shard.balance",
         sharded && sum.shard_tick_max_seconds > 0
             ? sum.shard_tick_busy_seconds /
                   (static_cast<double>(shards) * sum.shard_tick_max_seconds)
             : 0.0,
         "fraction"},
        {"adapt.refine_ms", sum.adapt_seconds * ms / m, "ms"},
        {"adapt.cells_split", static_cast<double>(cells_split), "count"},
        {"adapt.cells_merged", static_cast<double>(cells_merged), "count"},
        {"adapt.rebalance_ms", sum.rebalance_seconds * ms / m, "ms"},
        {"adapt.rebalances", static_cast<double>(rebalances), "count"},
        {"adapt.rebalance_moved_objects", static_cast<double>(moved), "count"},
        {"session.flush_ms",
         K(SpanKind::kSessionTick) - K(SpanKind::kBackendTick) -
             K(SpanKind::kClientApply) - K(SpanKind::kReconnect),
         "ms"},
        {"session.ticks", static_cast<double>(periods), "count"},
        {"session.envelopes", D(s0.envelopes_sent, s1.envelopes_sent),
         "count"},
        {"session.heartbeats", D(s0.heartbeats_sent, s1.heartbeats_sent),
         "count"},
        {"session.queue_high_water", static_cast<double>(s1.queue_high_water),
         "count"},
        {"session.commits_gated", D(s0.commits_gated, s1.commits_gated),
         "count"},
        {"session.resync_ms", K(SpanKind::kReconnect), "ms"},
        {"session.resyncs_served",
         D(s0.resyncs_served_diff + s0.resyncs_served_full,
           s1.resyncs_served_diff + s1.resyncs_served_full),
         "count"},
        {"transport.bytes_per_tick",
         static_cast<double>(measured_bytes) / m, "bytes"},
        {"transport.envelopes",
         D(t0.sent + t0.control_sent, t1.sent + t1.control_sent), "count"},
        {"transport.dropped",
         D(t0.dropped + t0.partition_blocked, t1.dropped + t1.partition_blocked),
         "count"},
        {"client.apply_ms", K(SpanKind::kClientApply), "ms"},
        {"client.ns_per_update",
         traced_updates_applied > 0
             ? static_cast<double>(
                   kind_acc[static_cast<size_t>(SpanKind::kClientApply)]) /
                   static_cast<double>(traced_updates_applied)
             : 0.0,
         "ns"},
        {"client.gaps", D(c0.clients.gaps_detected, c1.clients.gaps_detected),
         "count"},
        {"client.resyncs_applied",
         D(c0.clients.resyncs_applied, c1.clients.resyncs_applied), "count"},
        {"storage.append_ms", static_cast<double>(traced_append_ns) / 1e6 / tp,
         "ms"},
        {"storage.append_calls", D(st0.append_calls, st1.append_calls),
         "count"},
        {"storage.bytes_per_report",
         D(st0.append_bytes, st1.append_bytes) /
             static_cast<double>(std::max<uint64_t>(1, all_reports)),
         "bytes"},
        {"storage.sync_ms", static_cast<double>(traced_sync_ns) / 1e6 / tp,
         "ms"},
        {"storage.syncs", D(st0.syncs, st1.syncs), "count"},
        {"storage.checkpoint_ms",
         static_cast<double>(
             kind_acc[static_cast<size_t>(SpanKind::kCheckpoint)]) /
             1e6 / static_cast<double>(std::max<uint64_t>(1, traced_checkpoints)),
         "ms"},
        {"storage.checkpoint_bytes",
         D(st0.checkpoint_bytes, st1.checkpoint_bytes), "bytes"},
        {"trace.self_ms.server", L(Layer::kServer), "ms"},
        {"trace.self_ms.qp", L(Layer::kQp), "ms"},
        {"trace.self_ms.session", L(Layer::kSession), "ms"},
        {"trace.self_ms.client", L(Layer::kClient), "ms"},
        {"trace.self_ms.storage", L(Layer::kStorage), "ms"},
        {"trace.unattributed_ms", L(Layer::kLoop), "ms"},
        {"trace.overhead_pct",
         cycle_off_ms.empty()
             ? 0.0
             : (Median(cycle_on_ms) / Median(cycle_off_ms) - 1.0) * 100.0,
         "%"},
        {"trace.traced_periods", static_cast<double>(traced), "count"},
    };
    std::printf("# spans recorded %zu, dropped %llu\n", recorder.recorded(),
                static_cast<unsigned long long>(recorder.dropped()));
    if (!args.trace_out.empty()) {
      char meta[512];
      std::snprintf(meta, sizeof meta,
                    "{\"workload\":\"%s\",\"seed\":%llu,\"git_sha\":\"%s\","
                    "\"spans_dropped\":%llu}",
                    spec.name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.sha.c_str(),
                    static_cast<unsigned long long>(recorder.dropped()));
      if (!recorder.WriteChromeTrace(args.trace_out, meta)) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     args.trace_out.c_str());
      } else {
        std::printf("# chrome trace written to %s\n", args.trace_out.c_str());
      }
    }
  }

  for (const Metric& x : metrics) {
    std::printf("%s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stq_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--sha STR] [--expect-fingerprint HEX] "
                 "[--trace-out PATH] [--bare]\n");
    return 2;
  }
  return perfbench::Run(args);
}
