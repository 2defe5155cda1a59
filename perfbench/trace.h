// Span recorder for the traced benchmark run.
//
// Spans are opened and closed on the benchmark's main thread around
// calls into each layer's public interface (the engine's worker threads
// are never instrumented). Closed spans go into a buffer preallocated at
// construction; when it is full, further spans are still accounted but
// no longer stored. Calls too frequent for a span each (WAL appends) are
// charged with AddChildTime: their time counts for their layer and is
// subtracted from the enclosing span's self time, without a record.
//
// Self time — a span's duration minus the part its children cover — is
// accumulated per layer as spans close, so per-layer totals need no
// post-processing. WriteChromeTrace exports the buffer as Chrome
// trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open offline.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kLoop,  // the benchmark loop itself: the unattributed remainder
  kServer,
  kQp,
  kSession,
  kClient,
  kStorage,
  kCount
};

inline const char* LayerName(Layer l) {
  static const char* const kNames[] = {"loop",    "server", "qp",
                                       "session", "client", "storage"};
  return kNames[static_cast<size_t>(l)];
}

enum class SpanKind : uint8_t {
  kSetup,        // loop: one pipeline set-up
  kPeriod,       // loop: one simulated period
  kIngest,       // server: the period's report calls
  kCheckpoint,   // storage: PersistentServer::Checkpoint
  kSessionTick,  // session: SessionManager::Tick
  kBackendTick,  // qp: SessionBackend::Tick (evaluation + routing)
  kReconnect,    // session: SessionBackend::ReconnectClient (resync)
  kClientApply,  // client: ClientSession::OnEnvelope
  kEnvSync,      // storage: WritableFile::Sync
  kEnvRename,    // storage: Env::RenameFile
  kEnvAppend,    // storage: WritableFile::Append (AddChildTime only)
  kCount
};

inline Layer LayerOf(SpanKind k) {
  static const Layer kLayers[] = {
      Layer::kLoop,    Layer::kLoop, Layer::kServer,  Layer::kStorage,
      Layer::kSession, Layer::kQp,   Layer::kSession, Layer::kClient,
      Layer::kStorage, Layer::kStorage, Layer::kStorage};
  return kLayers[static_cast<size_t>(k)];
}

inline const char* SpanName(SpanKind k) {
  static const char* const kNames[] = {
      "setup",        "period",       "server.ingest", "storage.checkpoint",
      "session.tick", "backend.tick", "backend.reconnect", "client.apply",
      "env.sync",     "env.rename",   "env.append"};
  return kNames[static_cast<size_t>(k)];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
  static constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);

  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
    stack_.reserve(16);
  }

  // Spans are recorded only while on; Begin/End are no-ops otherwise.
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void Begin(SpanKind kind, uint32_t arg = 0) {
    if (!on_) return;
    stack_.push_back(Frame{kind, arg, NowNs(), 0});
  }

  void End() {
    if (!on_ || stack_.empty()) return;
    const int64_t end = NowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t dur = end - f.begin_ns;
    const size_t k = static_cast<size_t>(f.kind);
    total_ns_[k] += dur;
    ++count_[k];
    self_ns_[static_cast<size_t>(LayerOf(f.kind))] += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (spans_.size() < capacity_) {
      spans_.push_back(Span{f.kind, static_cast<uint8_t>(stack_.size()), f.arg,
                            f.begin_ns, end});
    } else {
      ++dropped_;
    }
  }

  // Charges `ns` spent in a `kind` call to its layer and to the enclosing
  // span's children, without recording a span.
  void AddChildTime(SpanKind kind, int64_t ns) {
    if (!on_) return;
    const size_t k = static_cast<size_t>(kind);
    total_ns_[k] += ns;
    ++count_[k];
    self_ns_[static_cast<size_t>(LayerOf(kind))] += ns;
    if (!stack_.empty()) stack_.back().child_ns += ns;
  }

  // Cumulative since construction (snapshot and difference per period).
  const std::array<int64_t, kLayers>& self_ns() const { return self_ns_; }
  const std::array<int64_t, kKinds>& total_ns() const { return total_ns_; }
  const std::array<uint64_t, kKinds>& count() const { return count_; }
  size_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Chrome trace-event JSON; timestamps relative to the first span.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t base = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (i == 0 || spans_[i].begin_ns < base) base = spans_[i].begin_ns;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                 "\"traceEvents\":[\n", metadata_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%u,"
                   "\"depth\":%u}}\n",
                   i == 0 ? "" : ",", SpanName(s.kind),
                   LayerName(LayerOf(s.kind)), (s.begin_ns - base) / 1e3,
                   (s.end_ns - s.begin_ns) / 1e3, s.arg,
                   static_cast<unsigned>(s.depth));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    SpanKind kind;
    uint32_t arg;
    int64_t begin_ns;
    int64_t child_ns;
  };
  struct Span {
    SpanKind kind;
    uint8_t depth;
    uint32_t arg;
    int64_t begin_ns;
    int64_t end_ns;
  };

  size_t capacity_;
  bool on_ = false;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::array<int64_t, kLayers> self_ns_{};
  std::array<int64_t, kKinds> total_ns_{};
  std::array<uint64_t, kKinds> count_{};
};

// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind, uint32_t arg = 0) : rec_(rec) {
    if (rec_ != nullptr) rec_->Begin(kind, arg);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
