#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generator: operations arrive on a seeded Poisson
// schedule and one worker (the calling thread) executes them in arrival
// order. Latency is charged from each operation's intended send time,
// so a stall is billed to every operation it delays (no coordinated
// omission).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct RungResult {
  double rate_ops_s = 0.0;       // offered (intended) rate
  std::size_t ops = 0;
  std::size_t failed = 0;        // op() returned false
  std::vector<double> latency_us;     // completion - intended
  std::vector<double> queue_wait_us;  // start - intended
  std::vector<double> late_us;  // start - intended, for arrivals that
                                // found the worker idle (generator lag)
  double delivered_ops_s = 0.0;  // ops / (last completion - first intended)
  bool backlog_grew = false;     // last tenth waited longer than the limit
  bool generator_late = false;   // rung invalid: the generator fell behind
  bool passed = false;  // valid, no failures, no backlog, and the
                        // windowed p99 (stats.h) within the limit
};

/// Runs `ops` operations at `rate_ops_s` offered load. `op(i)` executes
/// operation i and returns false when it failed or answered wrongly.
/// The schedule is a pure function of `seed`.
RungResult RunOpenLoopRung(double rate_ops_s, std::size_t ops,
                           std::uint64_t seed, double p99_limit_us,
                           const std::function<bool(std::size_t)>& op);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
