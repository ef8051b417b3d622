#include "common/parallel.h"

#include <algorithm>

#include "obs/metrics.h"

namespace influmax {

namespace {

// WorkerPool telemetry (docs/observability.md). Only the threaded
// dispatch path records, plus one count per caller that found the pool
// held; the inline path (no spawned threads or total <= 1) stays
// untouched — it is the determinism escape hatch and runs per tiny job.
// Worker utilization over a window is pool.busy_ns / (window * workers).
struct PoolMetrics {
  Counter* jobs;
  Counter* items;
  Counter* busy_ns;
  Counter* busy_fallbacks;
  Timer* queue_wait;
  Timer* job_latency;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return PoolMetrics{
        reg.FindOrCreateCounter("pool.jobs"),
        reg.FindOrCreateCounter("pool.items"),
        reg.FindOrCreateCounter("pool.busy_ns"),
        reg.FindOrCreateCounter("pool.busy_fallbacks"),
        reg.FindOrCreateTimer("pool.queue_wait"),
        reg.FindOrCreateTimer("pool.job_latency"),
    };
  }();
  return metrics;
}

}  // namespace

std::size_t EffectiveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelForChunked(
    std::size_t total, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (total == 0) return;
  const std::size_t workers =
      std::min(EffectiveThreadCount(num_threads), total);
  if (workers == 1) {
    body(0, 0, total);
    return;
  }
  const std::size_t chunk = (total + workers - 1) / workers;
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(begin + chunk, total);
    if (begin >= end) break;
    threads.emplace_back([&body, t, begin, end] { body(t, begin, end); });
  }
  // The calling thread is worker 0: N workers cost N - 1 spawns.
  body(0, 0, std::min(chunk, total));
  for (auto& th : threads) th.join();
}

void ParallelForDynamic(
    std::size_t total, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (total == 0) return;
  const std::size_t workers =
      std::min(EffectiveThreadCount(num_threads), total);
  if (workers == 1) {
    for (std::size_t i = 0; i < total; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&body, &next, total](std::size_t t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      body(t, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    threads.emplace_back([&drain, t] { drain(t); });
  }
  // The calling thread is worker 0: N workers cost N - 1 spawns.
  drain(0);
  for (auto& th : threads) th.join();
}

WorkerPool::WorkerPool(std::size_t num_threads) {
  (void)GetPoolMetrics();
  const std::size_t workers = EffectiveThreadCount(num_threads);
  threads_.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
  // Return only once every worker is parked: from then on a worker
  // takes a lock only for a job.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return started_ == threads_.size(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& th : threads_) th.join();
}

void WorkerPool::WorkerLoop(std::size_t worker_index) {
  // A thread's first metric write claims its shard under the registry
  // mutex. Claim it now, before the constructor returns, so a process
  // that forks between jobs never forks while a worker holds that lock.
  if constexpr (kObsEnabled) GetPoolMetrics().busy_ns->Add(0);
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  ++started_;
  done_cv_.notify_all();
  for (;;) {
    job_cv_.wait(lock, [&] { return stop_ || job_seq_ != seen; });
    if (stop_) return;
    seen = job_seq_;
    const std::shared_ptr<Job> job = job_;
    lock.unlock();
    if constexpr (kObsEnabled) {
      GetPoolMetrics().queue_wait->Record(MonotonicNowNs() - job->publish_ns);
    }
    Drain(*job, worker_index);
    lock.lock();
  }
}

void WorkerPool::Drain(Job& job, std::size_t worker_index) {
  if constexpr (kObsEnabled) {
    const std::uint64_t t0 = MonotonicNowNs();
    DrainLoop(job, worker_index);
    GetPoolMetrics().busy_ns->Add(MonotonicNowNs() - t0);
    return;
  }
  DrainLoop(job, worker_index);
}

void WorkerPool::DrainLoop(Job& job, std::size_t worker_index) {
  for (;;) {
    const std::size_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.total) return;
    (*job.body)(worker_index, i);
    // acq_rel: releases this body's writes to the caller's acquire read
    // of `completed` below.
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.total) {
      // Last index done: release the caller. The empty lock pairs with
      // the caller's under-lock predicate check, so the notify cannot
      // land between its check and its sleep.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

bool WorkerPool::TryParallelFor(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (threads_.empty() || total <= 1) {
    for (std::size_t i = 0; i < total; ++i) body(0, i);
    return true;
  }
  if (busy_.exchange(true, std::memory_order_acquire)) {
    if constexpr (kObsEnabled) GetPoolMetrics().busy_fallbacks->Increment();
    return false;
  }
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->total = total;
  if constexpr (kObsEnabled) {
    const PoolMetrics& metrics = GetPoolMetrics();
    metrics.jobs->Increment();
    metrics.items->Add(total);
    job->publish_ns = MonotonicNowNs();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_seq_;
  }
  job_cv_.notify_all();
  // The calling thread is worker 0.
  Drain(*job, 0);
  // Wait for finished *indices*, not woken workers: once every body has
  // returned, `body` cannot dangle (late workers find the cursor
  // exhausted and never touch it), so the caller leaves without paying
  // for parked threads' wakeups.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) == job->total;
    });
  }
  if constexpr (kObsEnabled) {
    GetPoolMetrics().job_latency->Record(MonotonicNowNs() - job->publish_ns);
  }
  busy_.store(false, std::memory_order_release);
  return true;
}

void WorkerPool::ParallelFor(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (TryParallelFor(total, body)) return;
  for (std::size_t i = 0; i < total; ++i) body(0, i);
}

}  // namespace influmax
