#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Small helpers shared by the benchmark's files: raw-sample quantiles,
// a steady-clock stopwatch, and the ordered metric list a run prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Quantile q (in [0, 1]) of raw samples, smoothed: the mean of the
/// samples whose rank lies within +-0.5% of q's nearest rank (just that
/// sample for small sets). Sub-microsecond latencies sit on a coarse
/// clock grid, so a bare order statistic would read the same grid value
/// on every run; the window keeps every digit and damps single
/// outliers. 0 when empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index =
      std::min(rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1, n - 1);
  const std::size_t half = n / 200;
  const std::size_t lo = index > half ? index - half : 0;
  const std::size_t hi = std::min(n, index + half + 1);
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// A run's figure from its repetitions (serving rounds or build cycles),
/// each already summarized: the faster quartile — the lower quartile of
/// the repetitions for a time, the upper one for a rate. On a shared
/// virtual machine the same round runs at one of a few speeds up to 25%
/// apart, switching every few seconds whatever the code does (see
/// README.md), and a median over a run reads whichever speed held most
/// of that run.
inline double FastQuartile(const std::vector<double>& per_rep,
                           bool higher_is_better = false) {
  return Quantile(per_rep, higher_is_better ? 0.75 : 0.25);
}

/// Tail quantile robust to rare host stalls: the samples (in time order)
/// are cut into `windows` consecutive windows and the median of the
/// windows' Quantile(q) is returned. On a shared virtual machine a
/// stall of a few milliseconds lands in one window instead of deciding
/// the whole run's p99.
inline double WindowedQuantile(const std::vector<double>& samples, double q,
                               std::size_t windows = 10) {
  if (samples.size() < windows) return Quantile(samples, q);
  std::vector<double> per_window;
  const std::size_t n = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(
                                                  w * n / windows),
                            samples.begin() + static_cast<std::ptrdiff_t>(
                                                  (w + 1) * n / windows)),
        q));
  }
  return Median(per_window);
}

/// One reported metric: name, value, unit, and the number of samples
/// its value summarizes (0 for counts and derived values).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
