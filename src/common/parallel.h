#ifndef INFLUMAX_COMMON_PARALLEL_H_
#define INFLUMAX_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace influmax {

/// Returns the degree of parallelism to use when the caller passes 0
/// ("auto"): hardware concurrency, at least 1.
std::size_t EffectiveThreadCount(std::size_t requested);

/// Runs `body(thread_index, begin, end)` over a static partition of
/// [0, total) across `num_threads` workers (0 = auto). Blocks until all
/// workers finish.
///
/// Inline guarantee: when the resolved worker count is 1 — because
/// num_threads == 1, total <= 1, or EffectiveThreadCount(0) resolves to 1
/// — no thread is spawned and the body runs on the calling thread, which
/// the tests use for determinism. With more workers the calling thread
/// participates as worker 0, so N workers spawn only N - 1 threads.
///
/// The Monte Carlo engines use the thread_index to pick an independent
/// RNG stream, so results are reproducible for a fixed thread count.
void ParallelForChunked(
    std::size_t total, std::size_t num_threads,
    const std::function<void(std::size_t thread_index, std::size_t begin,
                             std::size_t end)>& body);

/// Dynamic work-stealing variant: workers repeatedly grab the next index
/// from a shared counter and run `body(thread_index, index)`. Better for
/// heavily skewed per-item costs (e.g. per-action scans). Same inline
/// guarantee and caller participation as ParallelForChunked; with one
/// resolved worker the indices run inline in ascending order.
void ParallelForDynamic(
    std::size_t total, std::size_t num_threads,
    const std::function<void(std::size_t thread_index, std::size_t index)>&
        body);

/// Persistent worker pool: the loops above spawn their workers per call,
/// which is fine for scans that run for milliseconds but not for a
/// serving fan-out that runs per query. A WorkerPool spawns its threads
/// once and parks them on a condition variable between jobs, so
/// steady-state jobs spawn zero threads. A GenerationManager owns one
/// and every session's ShardRouter fans its per-shard commits, resets
/// and batched gains out on it (docs/parallelism.md).
///
/// A job has ParallelForDynamic's semantics: workers repeatedly claim
/// the next index from a shared counter and run
/// `body(thread_index, index)`; the calling thread participates as
/// worker 0, spawned threads are workers 1..num_workers()-1. With no
/// spawned threads (a pool built on a 1-thread request or a 1-core
/// machine) or total <= 1, the body runs inline on the caller in
/// ascending index order.
///
/// Concurrency contract: the pool is shared by try-acquire. It runs one
/// job at a time; a caller that finds it held — by another thread, or
/// by its own job when it calls from inside a body — never waits:
/// TryParallelFor returns false and ParallelFor runs the indices inline.
/// So any number of threads may share one pool, nested calls cannot
/// deadlock, and the pool never adds more than num_workers() - 1
/// threads however many callers there are.
///
/// Fork safety: every worker claims its metrics shard (src/obs/) before
/// the constructor returns and is parked when it does, so a parked
/// worker holds no lock a forked child could need.
class WorkerPool {
 public:
  /// Spawns EffectiveThreadCount(num_threads) - 1 persistent threads
  /// (0 = all hardware threads).
  explicit WorkerPool(std::size_t num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers a job runs on: spawned threads + the caller.
  std::size_t num_workers() const { return threads_.size() + 1; }

  /// Runs `body(thread_index, index)` over [0, total) on the pool and
  /// returns true once every index has completed. Returns false without
  /// running anything when the job needs the pool's threads and another
  /// job holds them (including the caller's own, from inside a body).
  bool TryParallelFor(
      std::size_t total,
      const std::function<void(std::size_t thread_index, std::size_t index)>&
          body);

  /// TryParallelFor, or, when the pool is held, every index inline on
  /// the caller (thread_index 0, ascending). Never blocks on another
  /// caller. Blocks until every index has completed.
  void ParallelFor(
      std::size_t total,
      const std::function<void(std::size_t thread_index, std::size_t index)>&
          body);

 private:
  /// One dispatched job. Completion is counted per finished *index*
  /// (not per woken worker), so ParallelFor returns as soon as the last
  /// index's body returns — a parked worker that loses the race for a
  /// small job never adds its scheduler wakeup to the caller's latency.
  /// Shared-ptr owned: a late worker still holds the job alive, finds
  /// the cursor exhausted (completed == total implies cursor >= total),
  /// and never dereferences the caller's `body` after it returned.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t total = 0;
    // MonotonicNowNs at publication; workers subtract it on wakeup to
    // record pool.queue_wait (src/obs/). Written before the job is
    // published under mu_, read after workers acquire mu_.
    std::uint64_t publish_ns = 0;
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> completed{0};
  };

  void WorkerLoop(std::size_t worker_index);
  void Drain(Job& job, std::size_t worker_index);
  void DrainLoop(Job& job, std::size_t worker_index);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable job_cv_;   // workers wait here between jobs
  std::condition_variable done_cv_;  // the caller waits here per job
  // Guarded by mu_: bumping job_seq_ publishes job_ to workers.
  std::uint64_t job_seq_ = 0;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  std::size_t started_ = 0;  // workers parked at least once (constructor)
  // Held by the one job in flight: the try-acquire of TryParallelFor.
  std::atomic<bool> busy_{false};
};

}  // namespace influmax

#endif  // INFLUMAX_COMMON_PARALLEL_H_
