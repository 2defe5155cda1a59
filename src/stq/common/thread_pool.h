// ThreadPool: the engine's data-parallel fork/join primitive.
//
// The pool owns `num_workers - 1` persistent threads; the calling thread
// always executes shard 0, so a pool of 1 worker never spawns a thread
// and runs everything inline. RunShards splits an index range [0, n)
// into `num_workers` contiguous shards and blocks until every shard has
// finished — a structured fork/join, never fire-and-forget.
//
// Contract for deterministic use (see DESIGN.md, "Threading model"):
// shard functions must only READ state shared with other shards and
// write exclusively to per-shard outputs; any merge of those outputs
// happens on the calling thread after RunShards returns, in shard
// order. Under that contract the merged result is byte-identical for
// every worker count, including 1.
//
// One RunShards call may be in flight per pool at a time (the engine's
// tick is itself serial); RunShards is not reentrant.
//
// The workers never own the caller's callable: they borrow a pointer to
// it plus a trampoline that knows its type, which is safe because every
// call blocks until all shards have run. No call allocates.

#ifndef STQ_COMMON_THREAD_POOL_H_
#define STQ_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "stq/common/annotations.h"
#include "stq/common/mutex.h"

namespace stq {

class ThreadPool {
 public:
  // `num_workers` >= 1 (1 = fully inline). Capped only by the caller;
  // ResolveWorkers maps a 0/negative request to the hardware width.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return num_workers_; }

  // Runs fn(shard, begin, end) for every non-empty contiguous shard of
  // [0, n), shard 0 on the calling thread, and returns once all shards
  // completed. Shard boundaries depend only on (n, num_workers).
  template <typename Fn>
  void RunShards(size_t n, const Fn& fn) STQ_EXCLUDES(mu_) {
    if (n == 0) return;
    if (num_workers_ == 1) {
      fn(0, 0, n);
      return;
    }
    Fork(n, &fn, [](const void* f, int shard, size_t begin, size_t end) {
      (*static_cast<const Fn*>(f))(shard, begin, end);
    });
  }

  // Work-stealing variant: runs fn(i) exactly once for every i in
  // [0, n), but items are claimed dynamically — each idle worker
  // (including the caller) grabs the next unclaimed index, so one slow
  // item never serializes the batch behind a static partition. Which
  // worker runs which item is nondeterministic; callers keep results
  // deterministic by writing only to per-item output slots (the same
  // read-only/per-slot contract as RunShards). Blocks until all n items
  // completed; not reentrant (it is built on RunShards).
  template <typename Fn>
  void RunDynamic(size_t n, const Fn& fn) STQ_EXCLUDES(mu_) {
    if (n == 0) return;
    if (num_workers_ == 1 || n == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    // One claiming loop per worker: RunShards hands each worker exactly
    // one "slot" and the slots drain a shared atomic cursor. The
    // fork/join barriers in RunShards give every write made inside fn a
    // happens-before edge to the caller's code after this returns.
    std::atomic<size_t> next{0};
    RunShards(std::min(n, static_cast<size_t>(num_workers_)),
              [&](int, size_t, size_t) {
                for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
                     i < n;
                     i = next.fetch_add(1, std::memory_order_relaxed)) {
                  fn(i);
                }
              });
  }

  // The shard [begin, end) that `shard` receives for a range of n items.
  // Exposed so callers can pre-size per-shard outputs.
  void ShardBounds(size_t n, int shard, size_t* begin, size_t* end) const;

  // Maps a configuration knob to a concrete worker count: values >= 1
  // pass through; 0 and negatives resolve to the hardware concurrency
  // (at least 1).
  static int ResolveWorkers(int requested);

 private:
  // Calls the borrowed callable `fn` on one shard.
  using Trampoline = void (*)(const void* fn, int shard, size_t begin,
                              size_t end);

  // The type-erased body of RunShards for more than one worker.
  void Fork(size_t n, const void* fn, Trampoline call) STQ_EXCLUDES(mu_);
  void WorkerLoop(int worker_index);

  const int num_workers_;

  // mu_ guards the fork/join handoff state below: the caller publishes a
  // job under the lock, workers read it under the lock and run it outside
  // (the job itself only touches per-shard state, per the class contract).
  Mutex mu_;
  CondVar work_ready_;
  CondVar work_done_;
  // Generation counter: bumped once per RunShards call; workers run the
  // current job exactly once per generation.
  uint64_t generation_ STQ_GUARDED_BY(mu_) = 0;
  const void* job_fn_ STQ_GUARDED_BY(mu_) = nullptr;
  Trampoline job_call_ STQ_GUARDED_BY(mu_) = nullptr;
  size_t job_n_ STQ_GUARDED_BY(mu_) = 0;
  int shards_outstanding_ STQ_GUARDED_BY(mu_) = 0;
  bool shutting_down_ STQ_GUARDED_BY(mu_) = false;

  std::vector<std::thread> threads_;  // num_workers_ - 1 entries
};

}  // namespace stq

#endif  // STQ_COMMON_THREAD_POOL_H_
