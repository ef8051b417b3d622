#ifndef INFLUMAX_SHARD_SHARD_ROUTER_H_
#define INFLUMAX_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/types.h"
#include "core/celf.h"
#include "obs/span.h"
#include "serve/query_engine.h"
#include "shard/shard_manifest.h"

namespace influmax {

/// One serving session over an action-range sharded snapshot: a
/// SnapshotQueryEngine per shard (each fed the manifest's *global* A_u),
/// queries answered by merging per-shard gains (docs/sharding.md).
///
/// Bit-identity contract — the reason this router can replace the
/// monolithic engine transparently: credit in the CD model is additive
/// over actions (Goyal et al., Algorithm 2/4), so a user's marginal gain
/// is a sum of per-slot terms, and every engine sums them in fixed point
/// (core/fixed_gain.h). Integer addition is associative, so adding the
/// shard engines' PartialGain values in any order gives the monolithic
/// engine's sum — gains, TopKSeeds (built on the shared RunCelfTopK),
/// and gain_evaluations are all bit-identical to SnapshotQueryEngine on
/// the unsharded snapshot (tested for shard counts {1, 2, 3, 7}).
/// CommitSeed decomposes the same way: Algorithm 5's updates for one
/// slot touch only that slot's action, so per-shard commits are exact
/// and independent — they fan out across the pool.
///
/// Concurrency contract: like the engine, one router per serving thread;
/// const queries (MarginalGain) may run concurrently with each other but
/// not with mutating calls. The optional WorkerPool accelerates
/// CommitSeed fan-out and TopKSeeds gain passes; with a persistent
/// pool, steady-state queries spawn zero threads. The
/// pool must not be shared with another router running concurrently.
class ShardRouter {
 public:
  /// `shards` (and `pool`, when given) must outlive the router.
  explicit ShardRouter(const ShardedSnapshot& shards,
                       WorkerPool* pool = nullptr);

  /// Marginal gain of x against the session seed set: the sum of the
  /// shard engines' partials. Const and safe to call concurrently (the
  /// CELF passes do); identical bits to the monolithic engine.
  double MarginalGain(NodeId x) const;

  /// Commits x in every shard (Algorithm 5 against each shard's
  /// overlay), fanned out over the pool. No-op when x is already a seed.
  void CommitSeed(NodeId x);

  /// sigma_cd of `seeds` committed in order over a fresh session.
  double SpreadOf(std::span<const NodeId> seeds);

  /// CELF greedy top-k from a fresh session; matches the monolithic
  /// engine's TopKSeeds bit for bit (seeds, gains, evaluation counts).
  SnapshotSeedSelection TopKSeeds(
      NodeId k,
      double spread_budget = std::numeric_limits<double>::infinity());

  /// Rewinds every shard session in O(touched).
  void ResetSession();

  std::span<const NodeId> session_seeds() const { return committed_; }
  std::size_t num_shards() const { return engines_.size(); }
  NodeId num_users() const { return num_users_; }

  /// Per-shard engine, for per-shard benchmarking/diagnostics.
  const SnapshotQueryEngine& shard_engine(std::size_t i) const {
    return engines_[i];
  }

  /// Attaches a session span ring (src/obs/span.h): the sampled gain
  /// probe pushes one router.gain span plus a router.shard_fold span per
  /// shard, CommitSeed/TopKSeeds push always-on spans. Not owned;
  /// nullptr (the default) disables span capture. A Session::Refresh
  /// rebuilds the router, so re-attach after a generation swap (the
  /// serving CLIs do).
  void set_span_ring(SpanRing* ring) { ring_ = ring; }
  SpanRing* span_ring() const { return ring_; }

  /// Telemetry switch, mirroring SnapshotQueryEngine::set_obs_enabled:
  /// gates the router's sampled gain probe (the per-query metrics and
  /// spans of coarse operations stay on — they are not on a hot path).
  void set_obs_enabled(bool enabled) { obs_enabled_ = enabled; }

  /// Sum of the shard engines' workspaces plus router scratch — the
  /// per-session cost on top of the shared mappings.
  std::uint64_t ApproxMemoryBytes() const;

 private:
  /// Runs body(i) over shards: pool fan-out when available, else serial.
  void ForEachShard(const std::function<void(std::size_t)>& body);

  /// MarginalGain's sampled slow path: the same sum with each shard's
  /// partial clock-timed (shard.fold.* timers + span ring).
  double TimedMarginalGain(NodeId x) const;

  const ShardedSnapshot* shards_;
  WorkerPool* pool_;
  NodeId num_users_ = 0;
  std::span<const std::uint32_t> au_;  // manifest global A_u

  std::vector<SnapshotQueryEngine> engines_;  // one per shard
  SpanRing* ring_ = nullptr;
  bool obs_enabled_ = true;

  // Router-level session seed set (mirrors each engine's, so const gain
  // checks never touch a shard).
  std::vector<std::uint8_t> is_seed_;  // [U]
  std::vector<NodeId> committed_;

  // CELF scratch, mirroring SnapshotQueryEngine's (docs/parallelism.md).
  std::vector<CelfQueueEntry> heap_;
  std::vector<CelfQueueEntry> batch_;
  std::vector<double> memo_gain_;          // [U]
  std::vector<std::uint64_t> memo_stamp_;  // [U]
  std::vector<double> gains_;              // initial-pass gather array
};

}  // namespace influmax

#endif  // INFLUMAX_SHARD_SHARD_ROUTER_H_
