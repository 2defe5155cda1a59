// Layer-timing decorators: forwarding implementations of the program's
// public seams, so the benchmark can count and time each layer from
// outside without touching the library.
//
//   TimedEnv / TimedWritableFile  storage: WAL + snapshot I/O
//   TimedBackend                  the SessionBackend (evaluation, resync)
//   MeteredTransport + ApplySink  the Transport, with a sink bound in
//                                 front of each ClientSession
//
// Every decorator forwards each call unchanged, so a decorated run
// produces the same update stream and counters as an undecorated one
// (stq_e2e's fingerprint checks this). Counting is always on; timing
// happens only while the SpanRecorder is on.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stq/core/session.h"
#include "stq/core/transport.h"
#include "stq/storage/env.h"
#include "trace.h"

namespace perfbench {

// --- Storage ----------------------------------------------------------------

struct StorageStats {
  // Outside checkpoints (the WAL path).
  uint64_t append_calls = 0;
  uint64_t append_bytes = 0;
  uint64_t syncs = 0;
  int64_t append_ns = 0;  // timed only while tracing
  int64_t sync_ns = 0;
  // Inside checkpoints (snapshot write, WAL reset).
  uint64_t checkpoint_bytes = 0;
};

class TimedEnv;

class TimedWritableFile final : public stq::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<stq::WritableFile> inner, TimedEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  using stq::WritableFile::Append;
  stq::Status Append(const char* data, size_t n) override;
  stq::Status Flush() override { return inner_->Flush(); }
  stq::Status Sync() override;
  stq::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<stq::WritableFile> inner_;
  TimedEnv* env_;
};

class TimedEnv final : public stq::Env {
 public:
  TimedEnv(stq::Env* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  // Set by stq_e2e around PersistentServer::Checkpoint, so snapshot
  // I/O is not counted as WAL traffic.
  void set_in_checkpoint(bool on) { in_checkpoint_ = on; }
  const StorageStats& stats() const { return stats_; }

  stq::Status NewWritableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<stq::WritableFile>* file) override {
    std::unique_ptr<stq::WritableFile> inner;
    stq::Status s = inner_->NewWritableFile(path, truncate, &inner);
    if (s.ok()) *file = std::make_unique<TimedWritableFile>(std::move(inner), this);
    return s;
  }
  stq::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<stq::SequentialFile>* file) override {
    return inner_->NewSequentialFile(path, file);
  }
  stq::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    ScopedSpan span(rec_, SpanKind::kEnvRename);
    return inner_->RenameFile(from, to);
  }
  stq::Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  stq::Status TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  stq::Status SyncDir(const std::string& dir) override {
    ScopedSpan span(rec_, SpanKind::kEnvSync);
    return inner_->SyncDir(dir);
  }
  stq::Status CreateDir(const std::string& dir) override {
    return inner_->CreateDir(dir);
  }
  stq::Status ListDir(const std::string& dir,
                      std::vector<std::string>* names) override {
    return inner_->ListDir(dir, names);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  stq::Status GetFileSize(const std::string& path, uint64_t* size) override {
    return inner_->GetFileSize(path, size);
  }

 private:
  friend class TimedWritableFile;

  stq::Env* inner_;
  SpanRecorder* rec_;
  bool in_checkpoint_ = false;
  StorageStats stats_;
};

inline stq::Status TimedWritableFile::Append(const char* data, size_t n) {
  StorageStats& st = env_->stats_;
  if (env_->in_checkpoint_) {
    st.checkpoint_bytes += n;
    if (!env_->rec_->on()) return inner_->Append(data, n);
    const int64_t t0 = NowNs();
    stq::Status s = inner_->Append(data, n);
    env_->rec_->AddChildTime(SpanKind::kEnvAppend, NowNs() - t0);
    return s;
  }
  ++st.append_calls;
  st.append_bytes += n;
  if (!env_->rec_->on()) return inner_->Append(data, n);
  const int64_t t0 = NowNs();
  stq::Status s = inner_->Append(data, n);
  const int64_t ns = NowNs() - t0;
  st.append_ns += ns;
  env_->rec_->AddChildTime(SpanKind::kEnvAppend, ns);
  return s;
}

inline stq::Status TimedWritableFile::Sync() {
  StorageStats& st = env_->stats_;
  if (env_->in_checkpoint_) {
    ScopedSpan span(env_->rec_, SpanKind::kEnvSync);
    return inner_->Sync();
  }
  ++st.syncs;
  if (!env_->rec_->on()) return inner_->Sync();
  const int64_t t0 = NowNs();
  stq::Status s;
  {
    ScopedSpan span(env_->rec_, SpanKind::kEnvSync);
    s = inner_->Sync();
  }
  st.sync_ns += NowNs() - t0;
  return s;
}

// --- Session backend ----------------------------------------------------------

class TimedBackend final : public stq::SessionBackend {
 public:
  TimedBackend(stq::SessionBackend* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  stq::Server& server() override { return inner_->server(); }
  std::vector<stq::Server::Delivery> Tick(stq::Timestamp now) override {
    ScopedSpan span(rec_, SpanKind::kBackendTick);
    return inner_->Tick(now);
  }
  stq::Result<stq::Server::Delivery> ReconnectClient(
      stq::ClientId cid) override {
    ScopedSpan span(rec_, SpanKind::kReconnect, static_cast<uint32_t>(cid));
    return inner_->ReconnectClient(cid);
  }
  stq::Status DisconnectClient(stq::ClientId cid) override {
    return inner_->DisconnectClient(cid);
  }

 private:
  stq::SessionBackend* inner_;
  SpanRecorder* rec_;
};

// --- Transport ----------------------------------------------------------------

// Told when a client session actually applied something (not when an
// envelope was parked, suppressed or found corrupt).
class ApplyObserver {
 public:
  virtual ~ApplyObserver() = default;
  // A tick envelope: `tick_time` is the newest tick the client now holds.
  virtual void OnTickApplied(stq::ClientId cid, stq::Timestamp tick_time,
                             int64_t now_ns) = 0;
  virtual void OnResyncApplied(stq::ClientId cid, int64_t now_ns) = 0;
};

// Forwards every call to `inner`; counts the encoded bytes put on the
// wire, and binds an ApplySink in front of each ClientSession so client
// apply is timed and observed where it happens.
class MeteredTransport final : public stq::Transport {
 public:
  MeteredTransport(stq::Transport* inner, SpanRecorder* rec,
                   ApplyObserver* observer)
      : inner_(inner), rec_(rec), observer_(observer) {}

  uint64_t bytes() const { return bytes_; }

  void Bind(stq::ClientId cid, stq::TransportSink* sink) override {
    auto* session = dynamic_cast<stq::ClientSession*>(sink);
    if (session == nullptr) {
      inner_->Bind(cid, sink);
      return;
    }
    auto& slot = sinks_[cid];
    slot = std::make_unique<ApplySink>(session, this);
    inner_->Bind(cid, slot.get());
  }
  void Unbind(stq::ClientId cid) override {
    inner_->Unbind(cid);
    sinks_.erase(cid);
  }
  void Send(stq::ClientId cid, const std::string& encoded) override {
    bytes_ += encoded.size();
    inner_->Send(cid, encoded);
  }
  void SendControl(stq::ClientId cid, const std::string& encoded) override {
    bytes_ += encoded.size();
    inner_->SendControl(cid, encoded);
  }
  void Pump(uint64_t now_tick) override { inner_->Pump(now_tick); }
  bool UplinkUp(stq::ClientId cid) const override {
    return inner_->UplinkUp(cid);
  }

 private:
  class ApplySink final : public stq::TransportSink {
   public:
    ApplySink(stq::ClientSession* session, MeteredTransport* owner)
        : session_(session), owner_(owner) {}

    void OnEnvelope(const std::string& encoded) override {
      const stq::ClientSession::Counters& c = session_->counters();
      const uint64_t applied = c.envelopes_applied;
      const uint64_t resyncs = c.resyncs_applied;
      {
        ScopedSpan span(owner_->rec_, SpanKind::kClientApply,
                        static_cast<uint32_t>(session_->id()));
        session_->OnEnvelope(encoded);
      }
      if (owner_->observer_ == nullptr) return;
      if (c.resyncs_applied != resyncs) {
        owner_->observer_->OnResyncApplied(session_->id(), NowNs());
      } else if (c.envelopes_applied != applied) {
        owner_->observer_->OnTickApplied(
            session_->id(), session_->last_applied_tick_time(), NowNs());
      }
    }

   private:
    stq::ClientSession* session_;
    MeteredTransport* owner_;
  };

  stq::Transport* inner_;
  SpanRecorder* rec_;
  ApplyObserver* observer_;
  std::unordered_map<stq::ClientId, std::unique_ptr<ApplySink>> sinks_;
  uint64_t bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
