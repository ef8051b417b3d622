#ifndef INFLUMAX_OBS_METRICS_H_
#define INFLUMAX_OBS_METRICS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

#ifndef INFLUMAX_OBS_OFF
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#endif

namespace influmax {

/// Compile-time switch for the observability layer. Building with
/// -DINFLUMAX_OBS_OFF (CMake option INFLUMAX_OBS_OFF) replaces every
/// class in this header with an inline no-op stub: handles still exist,
/// Add/Record compile to nothing, Scrape returns an empty snapshot.
/// Instrumentation sites guard their clock reads with
/// `if constexpr (kObsEnabled)` so an OFF build pays literally zero.
#ifdef INFLUMAX_OBS_OFF
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Sampling period shared by the per-gain probes (query engine, shard
/// router): 1 in kObsSampleEvery gain queries takes the clock-timed path
/// and flushes counters in units of kObsSampleEvery, amortizing the
/// ~40 ns of two steady_clock reads down to well under 1% of the ~250 ns
/// gain query (see BM_MetricsOverhead and docs/observability.md). 256
/// keeps the probe under ~2 ns even for gains of a few tens of ns
/// (BM_GainKernelExact's dense fixture). Consequence: counters fed by
/// sampled probes have a granularity of kObsSampleEvery - 1 per
/// recording thread.
inline constexpr std::uint64_t kObsSampleEvery = 256;

/// Monotonic wall time in nanoseconds (steady_clock) — the timestamp
/// base for every span and timer in this layer.
inline std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Point-in-time copy of every metric in a registry, produced by
/// MetricsRegistry::Scrape(). Plain data — safe to hold across further
/// recording, feed to PrometheusText / AppendMetricsJsonRecords, or
/// print. Identical in ON and OFF builds (OFF scrapes are just empty).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct TimerValue {
    std::string name;
    LatencyHistogram hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<TimerValue> timers;

  const CounterValue* FindCounter(std::string_view name) const {
    for (const CounterValue& c : counters) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }
  const GaugeValue* FindGauge(std::string_view name) const {
    for (const GaugeValue& g : gauges) {
      if (g.name == name) return &g;
    }
    return nullptr;
  }
  const TimerValue* FindTimer(std::string_view name) const {
    for (const TimerValue& t : timers) {
      if (t.name == name) return &t;
    }
    return nullptr;
  }
};

#ifndef INFLUMAX_OBS_OFF

class MetricsRegistry;

namespace obs_internal {

/// Per-thread histogram storage for one timer: an atomic bucket array
/// mirroring LatencyHistogram's layout plus running sum/max. Allocated
/// lazily on a thread's first Record of that timer (~15 KiB each), owned
/// by the registry's shard, written by exactly one thread at a time (the
/// shard's current owner), read concurrently by Scrape.
struct TimerCell {
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::num_buckets()>
      counts{};
  std::atomic<std::uint64_t> sum{0};
  // Single-writer (the shard-owning thread), so a plain conditional
  // store is race-free for writers; Scrape only loads.
  std::atomic<std::uint64_t> max{0};
};

struct MetricShard;
struct ThreadShardReleaser;

/// One-entry thread-local cache mapping the most recently used registry
/// to its shard — the inline fast path for Counter::Add / Timer::Record.
/// Registry ids are never recycled, so a stale hit is impossible.
struct ShardCache {
  std::uint64_t registry_id = 0;  // 0 = empty
  MetricShard* shard = nullptr;
};
// Defined here, inline and constinit, so every access is a plain TLS
// access: an extern thread_local defined in another translation unit is
// reached through gcc's TLS wrapper function, on which UBSan reported a
// member access within a null pointer.
inline constinit thread_local ShardCache tls_shard_cache;

}  // namespace obs_internal

/// Monotonic counter handle. Copyable, trivially destructible, valid for
/// the registry's lifetime. Add/Increment are lock-free (one relaxed
/// fetch_add on the calling thread's shard) and allocation-free after
/// the thread's first touch of the registry.
class Counter {
 public:
  Counter() = default;
  inline void Add(std::uint64_t n);
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Last-value gauge handle. Set/Add/Value are single relaxed atomic ops
/// on one registry-level cell (gauges are "current state", not rates —
/// no per-thread sharding wanted).
class Gauge {
 public:
  Gauge() = default;
  void Set(std::int64_t v) { cell_->store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { cell_->fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Latency-histogram handle. Record is two relaxed fetch_adds plus a
/// conditional max store on the calling thread's TimerCell; Scrape folds
/// all threads' cells into one LatencyHistogram via AddBucketCount /
/// MergeSumMax, so the merged digest equals what a single thread
/// recording all samples would produce.
class Timer {
 public:
  Timer() = default;
  inline void Record(std::uint64_t ns);

 private:
  friend class MetricsRegistry;
  Timer(MetricsRegistry* registry, std::uint32_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t id_ = 0;
};

namespace obs_internal {

/// One thread's slice of a registry: inline counter cells plus lazily
/// allocated timer cells. A shard is owned by at most one live thread at
/// a time; when that thread exits the shard goes on the registry's free
/// list for the next new thread (values are kept — shards are part of
/// the cumulative totals and only die with the registry).
inline constexpr std::size_t kShardCounters = 128;
inline constexpr std::size_t kShardTimers = 64;

struct alignas(64) MetricShard {
  std::array<std::atomic<std::uint64_t>, kShardCounters> counters{};
  std::array<std::atomic<TimerCell*>, kShardTimers> timers{};
  ~MetricShard() {
    for (auto& cell : timers) delete cell.load(std::memory_order_relaxed);
  }
};

}  // namespace obs_internal

/// Registry of named counters, gauges, and timers with per-thread
/// sharded storage.
///
/// Contract:
///  * FindOrCreate* interns by name under a mutex (cold path, do it once
///    at static init of each subsystem) and returns a stable handle
///    pointer valid for the registry's lifetime.
///  * The record path (Counter::Add, Timer::Record, Gauge::Set) is
///    lock-free and allocation-free in steady state: each thread writes
///    its own cache-line-aligned shard, claimed on first touch.
///  * Scrape() merges every shard under the registry mutex into a
///    MetricsSnapshot. Concurrent recording is safe; a scrape taken
///    mid-Record may see a sample's bucket count without its sum (the
///    usual relaxed-counter tearing), never a torn value.
///  * Capacity is fixed (kMaxCounters/kMaxGauges/kMaxTimers); exceeding
///    it aborts via INFLUMAX_CHECK — metric names are a static,
///    code-reviewed set, not user data.
class MetricsRegistry {
 public:
  static constexpr std::size_t kMaxCounters = obs_internal::kShardCounters;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxTimers = obs_internal::kShardTimers;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem records into. Leaked on
  /// purpose: threads may record during static destruction.
  static MetricsRegistry& Global();

  Counter* FindOrCreateCounter(std::string_view name);
  Gauge* FindOrCreateGauge(std::string_view name);
  Timer* FindOrCreateTimer(std::string_view name);

  MetricsSnapshot Scrape() const;

  /// Shards ever created (== peak concurrent recording threads, since
  /// exited threads' shards are reused). Test/introspection only.
  std::size_t num_shards() const;

 private:
  friend class Counter;
  friend class Timer;
  friend struct obs_internal::ThreadShardReleaser;

  obs_internal::MetricShard* LocalShard() {
    obs_internal::ShardCache& cache = obs_internal::tls_shard_cache;
    if (cache.registry_id == id_) return cache.shard;
    return ClaimShard();
  }
  obs_internal::TimerCell* LocalCell(std::uint32_t id) {
    obs_internal::MetricShard* shard = LocalShard();
    obs_internal::TimerCell* cell =
        shard->timers[id].load(std::memory_order_acquire);
    if (cell != nullptr) return cell;
    return AllocateCell(shard, id);
  }

  obs_internal::MetricShard* ClaimShard();
  static obs_internal::TimerCell* AllocateCell(obs_internal::MetricShard* shard,
                                               std::uint32_t id);
  void ReleaseShard(obs_internal::MetricShard* shard);

  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> timer_names_;
  std::array<Counter, kMaxCounters> counters_;
  std::array<Gauge, kMaxGauges> gauges_;
  std::array<Timer, kMaxTimers> timers_;
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauge_cells_{};
  std::vector<std::unique_ptr<obs_internal::MetricShard>> shards_;
  std::vector<obs_internal::MetricShard*> free_shards_;
};

inline void Counter::Add(std::uint64_t n) {
  registry_->LocalShard()->counters[id_].fetch_add(n,
                                                   std::memory_order_relaxed);
}

inline void Timer::Record(std::uint64_t ns) {
  obs_internal::TimerCell* cell = registry_->LocalCell(id_);
  cell->counts[LatencyHistogram::BucketIndexOf(ns)].fetch_add(
      1, std::memory_order_relaxed);
  cell->sum.fetch_add(ns, std::memory_order_relaxed);
  if (ns > cell->max.load(std::memory_order_relaxed)) {
    cell->max.store(ns, std::memory_order_relaxed);
  }
}

#else  // INFLUMAX_OBS_OFF — inline no-op stubs, same surface.

class Counter {
 public:
  void Add(std::uint64_t) {}
  void Increment() {}
};

class Gauge {
 public:
  void Set(std::int64_t) {}
  void Add(std::int64_t) {}
  std::int64_t Value() const { return 0; }
};

class Timer {
 public:
  void Record(std::uint64_t) {}
};

class MetricsRegistry {
 public:
  static constexpr std::size_t kMaxCounters = 128;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxTimers = 64;

  static MetricsRegistry& Global() {
    static MetricsRegistry g;
    return g;
  }

  Counter* FindOrCreateCounter(std::string_view) { return &counter_; }
  Gauge* FindOrCreateGauge(std::string_view) { return &gauge_; }
  Timer* FindOrCreateTimer(std::string_view) { return &timer_; }

  MetricsSnapshot Scrape() const { return {}; }
  std::size_t num_shards() const { return 0; }

 private:
  Counter counter_;
  Gauge gauge_;
  Timer timer_;
};

#endif  // INFLUMAX_OBS_OFF

}  // namespace influmax

#endif  // INFLUMAX_OBS_METRICS_H_
