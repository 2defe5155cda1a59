#include "stq/common/thread_pool.h"

#include <algorithm>

#include "stq/common/check.h"

namespace stq {

ThreadPool::ThreadPool(int num_workers) : num_workers_(num_workers) {
  STQ_CHECK(num_workers >= 1) << "ThreadPool needs at least one worker";
  threads_.reserve(static_cast<size_t>(num_workers_ - 1));
  for (int i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::ResolveWorkers(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::ShardBounds(size_t n, int shard, size_t* begin,
                             size_t* end) const {
  const size_t w = static_cast<size_t>(num_workers_);
  const size_t s = static_cast<size_t>(shard);
  const size_t chunk = n / w;
  const size_t remainder = n % w;
  // The first `remainder` shards take one extra item.
  *begin = s * chunk + std::min(s, remainder);
  *end = *begin + chunk + (s < remainder ? 1 : 0);
}

void ThreadPool::Fork(size_t n, const void* fn, Trampoline call) {
  {
    MutexLock lock(&mu_);
    STQ_CHECK(shards_outstanding_ == 0) << "RunShards is not reentrant";
    job_fn_ = fn;
    job_call_ = call;
    job_n_ = n;
    shards_outstanding_ = num_workers_ - 1;
    ++generation_;
  }
  work_ready_.NotifyAll();

  size_t begin = 0, end = 0;
  ShardBounds(n, /*shard=*/0, &begin, &end);
  if (begin < end) call(fn, 0, begin, end);

  MutexLock lock(&mu_);
  while (shards_outstanding_ != 0) work_done_.Wait(mu_);
  job_fn_ = nullptr;
  job_call_ = nullptr;
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t last_generation = 0;
  for (;;) {
    const void* fn = nullptr;
    Trampoline call = nullptr;
    size_t n = 0;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && generation_ == last_generation) {
        work_ready_.Wait(mu_);
      }
      if (shutting_down_) return;
      last_generation = generation_;
      fn = job_fn_;
      call = job_call_;
      n = job_n_;
    }
    size_t begin = 0, end = 0;
    ShardBounds(n, worker_index, &begin, &end);
    if (begin < end) call(fn, worker_index, begin, end);
    {
      MutexLock lock(&mu_);
      if (--shards_outstanding_ == 0) work_done_.NotifyOne();
    }
  }
}

}  // namespace stq
