#include "loadgen.h"

#include <thread>

#include "common/rng.h"
#include "stats.h"

namespace perfbench {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

RungResult RunOpenLoopRung(double rate_ops_s, std::size_t ops,
                           std::uint64_t seed, double p99_limit_us,
                           const std::function<bool(std::size_t)>& op) {
  RungResult result;
  result.rate_ops_s = rate_ops_s;
  result.ops = ops;
  if (ops == 0) return result;

  // Poisson arrivals: exponential gaps with mean 1/rate.
  influmax::Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_ops_s;
  std::vector<std::uint64_t> offset(ops);
  double t = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    t += rng.NextExponential(mean_gap_ns);
    offset[i] = static_cast<std::uint64_t>(t);
  }

  // One thread is both generator and worker: a FIFO queue with a single
  // server behaves the same whichever thread releases the arrivals, and
  // a second spinning thread would take a CPU from the servers. The
  // worker spins until an arrival is due (sleeping would wake late on a
  // virtual machine) and, when behind, takes the next one at once.
  result.latency_us.resize(ops);
  result.queue_wait_us.resize(ops);
  const std::uint64_t t0 = NowNs() + 1000000;
  std::uint64_t last_done = t0;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t intended = t0 + offset[i];
    std::uint64_t start = NowNs();
    while (start < intended) {
      CpuRelax();
      start = NowNs();
    }
    // Idle before this arrival: any delay past its due time is the
    // generator's own lateness, not queueing.
    if (last_done <= intended) {
      result.late_us.push_back(static_cast<double>(start - intended) * 1e-3);
    }
    if (!op(i)) ++result.failed;
    last_done = NowNs();
    result.latency_us[i] = static_cast<double>(last_done - intended) * 1e-3;
    result.queue_wait_us[i] = static_cast<double>(start - intended) * 1e-3;
  }

  result.delivered_ops_s =
      static_cast<double>(ops) / (static_cast<double>(last_done - t0) * 1e-9);
  const std::size_t tail = std::max<std::size_t>(1, ops / 10);
  const std::vector<double> last_tenth(result.queue_wait_us.end() -
                                           static_cast<std::ptrdiff_t>(tail),
                                       result.queue_wait_us.end());
  result.backlog_grew = Median(last_tenth) > p99_limit_us;
  result.generator_late =
      WindowedQuantile(result.late_us, 0.99) > p99_limit_us / 10;
  result.passed = result.failed == 0 && !result.backlog_grew &&
                  !result.generator_late &&
                  WindowedQuantile(result.latency_us, 0.99) <= p99_limit_us;
  return result;
}

}  // namespace perfbench
