#ifndef INFLUMAX_OBS_OFF

#include "obs/metrics.h"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace influmax {
namespace obs_internal {

namespace {

/// Global liveness table mapping never-recycled registry ids to registry
/// pointers. Exiting threads go through it to return shards, so a shard
/// of an already-destroyed registry is silently dropped instead of
/// dereferenced. Leaked singleton — thread-exit destructors may run
/// arbitrarily late. Lock order: table mutex, then registry mutex.
struct RegistryTable {
  std::mutex mu;
  std::unordered_map<std::uint64_t, MetricsRegistry*> live;
  std::uint64_t next_id = 1;

  static RegistryTable& Instance() {
    static RegistryTable* table = new RegistryTable();
    return *table;
  }
};

}  // namespace

/// Per-thread list of (registry id, shard) claims. Its destructor is the
/// thread-exit hook that releases every claimed shard back to its (still
/// live) registry for reuse by future threads.
struct ThreadShardReleaser {
  std::vector<std::pair<std::uint64_t, MetricShard*>> claims;

  MetricShard* Find(std::uint64_t registry_id) const {
    for (const auto& [id, shard] : claims) {
      if (id == registry_id) return shard;
    }
    return nullptr;
  }

  ~ThreadShardReleaser() {
    tls_shard_cache = ShardCache{};
    RegistryTable& table = RegistryTable::Instance();
    std::lock_guard<std::mutex> table_lock(table.mu);
    for (const auto& [id, shard] : claims) {
      auto it = table.live.find(id);
      if (it != table.live.end()) it->second->ReleaseShard(shard);
    }
  }
};

namespace {
thread_local ThreadShardReleaser tls_thread_claims;
}  // namespace

}  // namespace obs_internal

namespace {

std::uint64_t AllocateRegistryId(MetricsRegistry* registry) {
  auto& table = obs_internal::RegistryTable::Instance();
  std::lock_guard<std::mutex> lock(table.mu);
  const std::uint64_t id = table.next_id++;
  table.live.emplace(id, registry);
  return id;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(AllocateRegistryId(this)) {
  counter_names_.reserve(kMaxCounters);
  gauge_names_.reserve(kMaxGauges);
  timer_names_.reserve(kMaxTimers);
}

MetricsRegistry::~MetricsRegistry() {
  auto& table = obs_internal::RegistryTable::Instance();
  std::lock_guard<std::mutex> lock(table.mu);
  table.live.erase(id_);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::FindOrCreateCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return &counters_[i];
  }
  INFLUMAX_CHECK(counter_names_.size() < kMaxCounters);
  const std::uint32_t id = static_cast<std::uint32_t>(counter_names_.size());
  counter_names_.emplace_back(name);
  counters_[id] = Counter(this, id);
  return &counters_[id];
}

Gauge* MetricsRegistry::FindOrCreateGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return &gauges_[i];
  }
  INFLUMAX_CHECK(gauge_names_.size() < kMaxGauges);
  const std::size_t id = gauge_names_.size();
  gauge_names_.emplace_back(name);
  gauges_[id] = Gauge(&gauge_cells_[id]);
  return &gauges_[id];
}

Timer* MetricsRegistry::FindOrCreateTimer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < timer_names_.size(); ++i) {
    if (timer_names_[i] == name) return &timers_[i];
  }
  INFLUMAX_CHECK(timer_names_.size() < kMaxTimers);
  const std::uint32_t id = static_cast<std::uint32_t>(timer_names_.size());
  timer_names_.emplace_back(name);
  timers_[id] = Timer(this, id);
  return &timers_[id];
}

obs_internal::MetricShard* MetricsRegistry::ClaimShard() {
  // Second-level thread-local lookup: this thread may have claimed a
  // shard of this registry already and merely lost the one-entry cache
  // to another registry.
  obs_internal::ThreadShardReleaser& claims = obs_internal::tls_thread_claims;
  obs_internal::MetricShard* shard = claims.Find(id_);
  if (shard == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_shards_.empty()) {
      shard = free_shards_.back();
      free_shards_.pop_back();
    } else {
      shards_.push_back(std::make_unique<obs_internal::MetricShard>());
      shard = shards_.back().get();
    }
    claims.claims.emplace_back(id_, shard);
  }
  obs_internal::tls_shard_cache = {id_, shard};
  return shard;
}

obs_internal::TimerCell* MetricsRegistry::AllocateCell(
    obs_internal::MetricShard* shard, std::uint32_t id) {
  // The shard belongs exclusively to the calling thread, so no CAS:
  // publish with release for the concurrent Scrape reader.
  auto* cell = new obs_internal::TimerCell();
  shard->timers[id].store(cell, std::memory_order_release);
  return cell;
}

void MetricsRegistry::ReleaseShard(obs_internal::MetricShard* shard) {
  // Called with the registry-table mutex held (lock order table -> mu_).
  // The shard keeps its values — they stay part of the cumulative totals
  // — and becomes claimable by the next new thread.
  std::lock_guard<std::mutex> lock(mu_);
  free_shards_.push_back(shard);
}

MetricsSnapshot MetricsRegistry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back({counter_names_[i], total});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back(
        {gauge_names_[i], gauge_cells_[i].load(std::memory_order_relaxed)});
  }
  snap.timers.reserve(timer_names_.size());
  for (std::size_t i = 0; i < timer_names_.size(); ++i) {
    MetricsSnapshot::TimerValue tv;
    tv.name = timer_names_[i];
    for (const auto& shard : shards_) {
      const obs_internal::TimerCell* cell =
          shard->timers[i].load(std::memory_order_acquire);
      if (cell == nullptr) continue;
      for (std::size_t b = 0; b < cell->counts.size(); ++b) {
        const std::uint64_t n = cell->counts[b].load(std::memory_order_relaxed);
        if (n != 0) tv.hist.AddBucketCount(b, n);
      }
      tv.hist.MergeSumMax(cell->sum.load(std::memory_order_relaxed),
                          cell->max.load(std::memory_order_relaxed));
    }
    snap.timers.push_back(std::move(tv));
  }
  return snap;
}

std::size_t MetricsRegistry::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

}  // namespace influmax

#endif  // INFLUMAX_OBS_OFF
