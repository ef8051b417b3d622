#include "shard/shard_router.h"

#include <array>

#include "common/logging.h"
#include "obs/metrics.h"

namespace influmax {

namespace {

// Router telemetry (docs/observability.md). Gain metrics come from the
// sampled TimedGainOf path (counters move in units of kObsSampleEvery);
// the query front records commits and top-k queries. Per-shard partial
// timers exist for the first kPerShardTimers shard indices — folds of
// higher shards still land in the aggregate shard.fold timer.
constexpr std::size_t kPerShardTimers = 8;

struct RouterMetrics {
  Counter* gain_queries;
  Timer* gain_latency;
  Timer* shard_fold;  // every shard's partial, aggregated
  std::array<Timer*, kPerShardTimers> shard_fold_by_index;
};

const RouterMetrics& GetRouterMetrics() {
  static const RouterMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    RouterMetrics m{};
    m.gain_queries = reg.FindOrCreateCounter("shard.router.gain_queries");
    m.gain_latency = reg.FindOrCreateTimer("shard.router.gain_latency");
    m.shard_fold = reg.FindOrCreateTimer("shard.fold.all");
    for (std::size_t i = 0; i < kPerShardTimers; ++i) {
      m.shard_fold_by_index[i] =
          reg.FindOrCreateTimer("shard.fold.s" + std::to_string(i));
    }
    return m;
  }();
  return metrics;
}

// thread_local for the same reason as the engine's tick: batched gain
// passes call the const GainOf from concurrent pool workers.
thread_local std::uint64_t t_router_tick = 0;

inline bool RouterTickFires() {
  return (++t_router_tick & (kObsSampleEvery - 1)) == 0;
}

}  // namespace

ShardRouter::ShardRouter(const ShardedSnapshot& shards, WorkerPool* pool)
    : pool_(pool), front_(this) {
  // Register the metric names up front so scrapes see them from the
  // first query, not only once the sampled probe first fires.
  (void)GetRouterMetrics();
  // A router over a subset of the shards would sum partial gains: only a
  // whole generation routes (a shard server builds its own engines).
  INFLUMAX_CHECK(!shards.views.empty() && shards.whole())
      << "ShardRouter needs every shard; opened [" << shards.first_shard
      << ", " << shards.end_shard() << ") of "
      << shards.manifest.num_shards();
  engines_.reserve(shards.views.size());
  // Each view divides by the global A_u; the first router derives its
  // quotient pool, and every later session's engines share it.
  for (const CreditSnapshotView& view : shards.views) {
    engines_.emplace_back(view);
  }
  // Frozen seeds agree across shards (OpenShardedSnapshot checks).
  front_.Bind(shards.manifest.au, shards.views[0].seeds());
}

void ShardRouter::ForEachShard(const std::function<void(std::size_t)>& body) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(engines_.size(),
                       [&body](std::size_t, std::size_t i) { body(i); });
    return;
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) body(i);
}

double ShardRouter::GainOf(NodeId x) const {
  if constexpr (kObsEnabled) {
    if (obs_enabled_ && RouterTickFires()) return TimedGainOf(x);
  }
  // The gain merge (docs/sharding.md): each shard's partial is an exact
  // fixed-point sum, so their sum is the same, bit for bit, in any
  // order.
  GainAccum mg = 0;
  for (const SnapshotQueryEngine& engine : engines_) {
    mg += engine.PartialGain(x);
  }
  return FromFixed(mg);
}

double ShardRouter::TimedGainOf(NodeId x) const {
  const RouterMetrics& m = GetRouterMetrics();
  const std::uint64_t q0 = MonotonicNowNs();
  // Same sum as the fast path, with each shard's partial timed: the
  // per-shard cost is the skew signal that tells an operator which
  // action range is hot.
  SpanRing* ring = front_.span_ring();
  GainAccum mg = 0;
  std::uint64_t t0 = q0;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    mg += engines_[i].PartialGain(x);
    const std::uint64_t t1 = MonotonicNowNs();
    const std::uint64_t dt = t1 - t0;
    m.shard_fold->Record(dt);
    if (i < kPerShardTimers) m.shard_fold_by_index[i]->Record(dt);
    if (ring != nullptr) ring->Push({kSpanRouterShardFold, 0, 0, t0, dt, i});
    t0 = t1;
  }
  const std::uint64_t q1 = MonotonicNowNs();
  m.gain_latency->Record(q1 - q0);
  m.gain_queries->Add(kObsSampleEvery);
  if (ring != nullptr) ring->Push({kSpanRouterGain, 0, 0, q0, q1 - q0, x});
  return FromFixed(mg);
}

Status ShardRouter::Gains(std::span<const NodeId> nodes, double* gains) {
  if (pool_ == nullptr || nodes.size() < 2) {
    for (std::size_t i = 0; i < nodes.size(); ++i) gains[i] = GainOf(nodes[i]);
    return Status::OK();
  }
  // GainOf is const (pure reads of the views, overlays and SC shadows)
  // and each node's gain lands in its own slot, so the batch fans out.
  pool_->ParallelFor(nodes.size(), [&](std::size_t, std::size_t i) {
    gains[i] = GainOf(nodes[i]);
  });
  return Status::OK();
}

Status ShardRouter::Commit(NodeId x) {
  // Algorithm 5 decomposes by action: each shard's commit touches only
  // its own overlay and SC shadow, so the fan-out is exact.
  ForEachShard([this, x](std::size_t i) { engines_[i].CommitSeed(x); });
  return Status::OK();
}

Status ShardRouter::Reset() {
  ForEachShard([this](std::size_t i) { engines_[i].ResetSession(); });
  return Status::OK();
}

std::uint64_t ShardRouter::ApproxMemoryBytes() const {
  std::uint64_t total = front_.ApproxMemoryBytes();
  for (const SnapshotQueryEngine& engine : engines_) {
    total += engine.ApproxMemoryBytes();
  }
  return total;
}

}  // namespace influmax
