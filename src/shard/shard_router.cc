#include "shard/shard_router.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "obs/metrics.h"

namespace influmax {

namespace {

// Router telemetry (docs/observability.md). Gain metrics come from the
// sampled TimedMarginalGain path (counters move in units of
// kObsSampleEvery); commit/topk record exactly. Per-shard partial
// timers exist for the first kPerShardTimers shard indices — folds of
// higher shards still land in the aggregate shard.fold timer.
constexpr std::size_t kPerShardTimers = 8;

struct RouterMetrics {
  Counter* gain_queries;
  Timer* gain_latency;
  Timer* shard_fold;  // every shard's partial, aggregated
  std::array<Timer*, kPerShardTimers> shard_fold_by_index;
  Counter* commits;
  Timer* commit_latency;
  Counter* topk_queries;
  Timer* topk_latency;
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
    m.commits = reg.FindOrCreateCounter("shard.router.commits");
    m.commit_latency = reg.FindOrCreateTimer("shard.router.commit_latency");
    m.topk_queries = reg.FindOrCreateCounter("shard.router.topk_queries");
    m.topk_latency = reg.FindOrCreateTimer("shard.router.topk_latency");
    return m;
  }();
  return metrics;
}

// thread_local for the same reason as the engine's tick: the CELF
// passes call the const MarginalGain from concurrent pool workers.
thread_local std::uint64_t t_router_tick = 0;

inline bool RouterTickFires() {
  return (++t_router_tick & (kObsSampleEvery - 1)) == 0;
}

}  // namespace

ShardRouter::ShardRouter(const ShardedSnapshot& shards, WorkerPool* pool)
    : shards_(&shards),
      pool_(pool),
      num_users_(shards.manifest.num_users),
      au_(shards.manifest.au) {
  // Register the metric names up front so scrapes see them from the
  // first query, not only once the sampled probe first fires.
  (void)GetRouterMetrics();
  INFLUMAX_CHECK(!shards.views.empty());
  engines_.reserve(shards.views.size());
  for (std::size_t i = 0; i < shards.views.size(); ++i) {
    // Each engine divides by the global A_u, so it also needs the
    // global-au quotient pool OpenShardedSnapshot derived (the blob's
    // stored pool divides by local au) — shared, not re-derived per
    // session.
    engines_.emplace_back(shards.views[i], au_, shards.shard_quotient(i));
  }
  is_seed_.assign(num_users_, 0);
  // Frozen seeds agree across shards (OpenShardedSnapshot checks).
  for (NodeId s : shards.views[0].seeds()) is_seed_[s] = 1;
  memo_gain_.assign(num_users_, 0.0);
  memo_stamp_.assign(num_users_, 0);
}

void ShardRouter::ForEachShard(const std::function<void(std::size_t)>& body) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(engines_.size(),
                       [&body](std::size_t, std::size_t i) { body(i); });
    return;
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) body(i);
}

double ShardRouter::MarginalGain(NodeId x) const {
  if constexpr (kObsEnabled) {
    if (obs_enabled_ && RouterTickFires()) return TimedMarginalGain(x);
  }
  if (x >= num_users_ || is_seed_[x] || au_[x] == 0) return 0.0;
  // The gain merge (docs/sharding.md): each shard's partial is an exact
  // fixed-point sum, so their sum is the monolithic engine's, bit for
  // bit, in any order.
  GainAccum mg = 0;
  for (const SnapshotQueryEngine& engine : engines_) {
    mg += engine.PartialGain(x);
  }
  return FromFixed(mg);
}

double ShardRouter::TimedMarginalGain(NodeId x) const {
  const RouterMetrics& m = GetRouterMetrics();
  const std::uint64_t q0 = MonotonicNowNs();
  GainAccum mg = 0;
  if (x < num_users_ && !is_seed_[x] && au_[x] != 0) {
    // Same sum as the fast path, with each shard's partial timed: the
    // per-shard cost is the skew signal that tells an operator which
    // action range is hot.
    std::uint64_t t0 = q0;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      mg += engines_[i].PartialGain(x);
      const std::uint64_t t1 = MonotonicNowNs();
      const std::uint64_t dt = t1 - t0;
      m.shard_fold->Record(dt);
      if (i < kPerShardTimers) m.shard_fold_by_index[i]->Record(dt);
      if (ring_ != nullptr) {
        ring_->Push({kSpanRouterShardFold, 0, 0, t0, dt, i});
      }
      t0 = t1;
    }
  }
  const std::uint64_t q1 = MonotonicNowNs();
  m.gain_latency->Record(q1 - q0);
  m.gain_queries->Add(kObsSampleEvery);
  if (ring_ != nullptr) ring_->Push({kSpanRouterGain, 0, 0, q0, q1 - q0, x});
  return FromFixed(mg);
}

void ShardRouter::CommitSeed(NodeId x) {
  if (x >= num_users_ || is_seed_[x]) return;
  const RouterMetrics& m = GetRouterMetrics();
  m.commits->Increment();
  ObsSpan span(ring_, kSpanRouterCommit, x, m.commit_latency);
  // Algorithm 5 decomposes by action: each shard's commit touches only
  // its own overlay and SC shadow, so the fan-out is exact (and each
  // engine's internal commit stays serial — gain_threads defaults to 1).
  ForEachShard([this, x](std::size_t i) { engines_[i].CommitSeed(x); });
  is_seed_[x] = 1;
  committed_.push_back(x);
}

double ShardRouter::SpreadOf(std::span<const NodeId> seeds) {
  // Theorem 3 telescopes, exactly as in SnapshotQueryEngine::SpreadOf.
  ResetSession();
  double total = 0.0;
  for (NodeId seed : seeds) {
    total += MarginalGain(seed);
    CommitSeed(seed);
  }
  return total;
}

SnapshotSeedSelection ShardRouter::TopKSeeds(NodeId k, double spread_budget) {
  // The monolithic engine's TopKSeeds with the router's gain merge and
  // fan-out commit plugged into the shared CELF driver: same initial
  // pass over active users, same heap build order, same consumption
  // discipline (RunCelfGreedyWith), so seeds, gains, and evaluation
  // counts are bit-identical for any shard count and any pool size.
  const RouterMetrics& m = GetRouterMetrics();
  m.topk_queries->Increment();
  ObsSpan span(ring_, kSpanRouterTopk, k, m.topk_latency);
  ResetSession();
  SnapshotSeedSelection selection;
  const auto au = au_;
  RunCelfTopK(
      k, spread_budget, pool_ == nullptr ? 1 : pool_->num_workers(),
      num_users_,
      [this](std::size_t total,
             const std::function<void(std::size_t, std::size_t)>& body) {
        if (pool_ != nullptr) {
          pool_->ParallelFor(total, body);
        } else {
          for (std::size_t i = 0; i < total; ++i) body(0, i);
        }
      },
      [au](NodeId x) { return au[x] != 0; },
      [this](NodeId x) { return MarginalGain(x); },
      [this](NodeId x) { CommitSeed(x); }, &heap_, &memo_gain_, &memo_stamp_,
      &batch_, &gains_, &selection);
  return selection;
}

void ShardRouter::ResetSession() {
  ForEachShard([this](std::size_t i) { engines_[i].ResetSession(); });
  for (NodeId x : committed_) is_seed_[x] = 0;
  committed_.clear();
}

std::uint64_t ShardRouter::ApproxMemoryBytes() const {
  auto bytes_of = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(v[0]);
  };
  std::uint64_t total = 0;
  for (const SnapshotQueryEngine& engine : engines_) {
    total += engine.ApproxMemoryBytes();
  }
  return total + bytes_of(is_seed_) + bytes_of(committed_) + bytes_of(heap_) +
         bytes_of(batch_) + bytes_of(memo_gain_) + bytes_of(memo_stamp_) +
         bytes_of(gains_);
}

}  // namespace influmax
