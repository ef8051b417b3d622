#ifndef INFLUMAX_SHARD_SHARD_ROUTER_H_
#define INFLUMAX_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/types.h"
#include "obs/span.h"
#include "serve/query_engine.h"
#include "shard/query_front.h"
#include "shard/shard_manifest.h"

namespace influmax {

/// One serving session over an action-range sharded snapshot: the query
/// front (shard/query_front.h) over a SnapshotQueryEngine per shard,
/// each fed the manifest's *global* A_u (docs/sharding.md). A 1-shard
/// generation is monolithic serving.
///
/// Bit-identity contract: credit in the CD model is additive over
/// actions (Goyal et al., Algorithm 2/4), so a user's marginal gain is a
/// sum of per-slot terms, and every engine sums them in fixed point
/// (core/fixed_gain.h). Integer addition is associative, so adding the
/// shard engines' PartialGain values in any order gives the same sum —
/// gains, TopKSeeds and gain_evaluations are bit-identical to the live
/// model for every shard count (tested for {1, 2, 3, 7}). CommitSeed
/// decomposes the same way: Algorithm 5's updates for one slot touch
/// only that slot's action, so per-shard commits are exact and
/// independent — they fan out across the pool.
///
/// Concurrency contract: one router per serving thread; const queries
/// (MarginalGain) may run concurrently with each other but not with
/// mutating calls. The optional WorkerPool fans out commits, resets and
/// batched gain passes; a single gain stays on the caller. The pool may
/// be shared: every GenerationManager session's router uses its
/// manager's pool, and a router that finds it busy runs its shards
/// inline, with the same bits (common/parallel.h).
class ShardRouter final : private ShardBackend {
 public:
  /// `shards` (and `pool`, when given) must outlive the router, and must
  /// hold every shard of its manifest (CHECK-enforced). Without a pool
  /// the router runs every shard on the caller.
  explicit ShardRouter(const ShardedSnapshot& shards,
                       WorkerPool* pool = nullptr);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Marginal gain of x against the session seed set: the sum of the
  /// shard engines' partials, 0 for a non-candidate. Const and safe to
  /// call concurrently.
  double MarginalGain(NodeId x) const {
    return front_.IsCandidate(x) ? GainOf(x) : 0.0;
  }

  /// Commits x in every shard (Algorithm 5 against each shard's
  /// overlay), fanned out over the pool. No-op when x is already a seed.
  void CommitSeed(NodeId x) { (void)front_.CommitSeed(x); }

  /// sigma_cd of `seeds` committed in order over a fresh session.
  double SpreadOf(std::span<const NodeId> seeds) {
    return front_.SpreadOf(seeds).value();
  }

  /// CELF greedy top-k from a fresh session; the live model's
  /// SelectSeeds runs this same call over its own image.
  SnapshotSeedSelection TopKSeeds(
      NodeId k,
      double spread_budget = std::numeric_limits<double>::infinity()) {
    return front_.TopKSeeds(k, spread_budget).value();
  }

  /// Rewinds every shard session in O(touched).
  void ResetSession() { (void)front_.ResetSession(); }

  /// The query front itself, with its Status-returning queries (the
  /// serving REPL, tools/serve_repl.h).
  QueryFront& front() { return front_; }

  std::span<const NodeId> session_seeds() const {
    return front_.session_seeds();
  }
  std::size_t num_shards() const { return engines_.size(); }
  NodeId num_users() const { return front_.num_users(); }

  /// Per-shard engine, for per-shard benchmarking/diagnostics.
  const SnapshotQueryEngine& shard_engine(std::size_t i) const {
    return engines_[i];
  }

  /// Attaches a session span ring (src/obs/span.h): the sampled gain
  /// probe pushes one router.gain span plus a router.shard_fold span per
  /// shard, CommitSeed/TopKSeeds push always-on spans. Not owned;
  /// nullptr (the default) disables span capture. A Session::Refresh
  /// rebuilds the router, so re-attach after a generation swap (the
  /// serving CLI does).
  void set_span_ring(SpanRing* ring) { front_.set_span_ring(ring); }
  SpanRing* span_ring() const { return front_.span_ring(); }

  /// Telemetry switch, mirroring SnapshotQueryEngine::set_obs_enabled:
  /// off, neither the router's gain probe, nor its engines, nor its
  /// front's commit and top-k metrics record. The live model's router
  /// runs this way: its greedy is not a served query.
  void set_obs_enabled(bool enabled) {
    obs_enabled_ = enabled;
    for (SnapshotQueryEngine& e : engines_) e.set_obs_enabled(enabled);
  }

  /// Sum of the shard engines' workspaces plus the front's — the
  /// per-session cost on top of the shared mappings.
  std::uint64_t ApproxMemoryBytes() const;

 private:
  // ShardBackend: the in-process transport.
  Status Gains(std::span<const NodeId> nodes, double* gains) override;
  Status Commit(NodeId x) override;
  Status Reset() override;
  std::size_t gain_workers() const override {
    return pool_ == nullptr ? 1 : pool_->num_workers();
  }
  bool obs_enabled() const override { return obs_enabled_; }

  /// The sum of every shard's partial for a candidate x, through the
  /// sampled telemetry probe.
  double GainOf(NodeId x) const;

  /// GainOf's sampled slow path: the same sum with each shard's partial
  /// clock-timed (shard.fold.* timers + span ring).
  double TimedGainOf(NodeId x) const;

  /// Runs body(i) over shards: pool fan-out when there is a pool and it
  /// is free, else serial.
  void ForEachShard(const std::function<void(std::size_t)>& body);

  WorkerPool* pool_;
  std::vector<SnapshotQueryEngine> engines_;  // one per shard
  bool obs_enabled_ = true;
  QueryFront front_;
};

}  // namespace influmax

#endif  // INFLUMAX_SHARD_SHARD_ROUTER_H_
