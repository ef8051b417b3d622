#ifndef INFLUMAX_SHARD_QUERY_FRONT_H_
#define INFLUMAX_SHARD_QUERY_FRONT_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/celf.h"
#include "obs/span.h"

namespace influmax {

/// The query front's name for the one CELF result type (core/celf.h).
using SnapshotSeedSelection = SeedSelection;

/// The narrow seam between the query front and the shards that hold the
/// credits (docs/sharding.md). Two transports implement it: ShardRouter
/// over in-process shard engines, RemoteShardRouter over shard_server
/// connections. The front has already applied every guard, so a backend
/// only sums, commits and rewinds.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// gains[i] = nodes[i]'s marginal gain against the session seed set:
  /// the sum of every shard's fixed-point partial (exact, so the sum is
  /// the same in any order). `nodes` holds only candidates. May fan the
  /// batch out over gain_workers() workers.
  virtual Status Gains(std::span<const NodeId> nodes, double* gains) = 0;

  /// Commits x on every shard (Algorithm 5).
  virtual Status Commit(NodeId x) = 0;

  /// Rewinds every shard's session to the generation's base state.
  virtual Status Reset() = 0;

  /// Workers one Gains call runs on; above 1 the CELF greedy batches its
  /// stale re-evaluations (docs/parallelism.md).
  virtual std::size_t gain_workers() const = 0;

  /// Whether the front records its commit and top-k metrics.
  virtual bool obs_enabled() const { return true; }
};

/// The one query front over any ShardBackend: Algorithm 3's greedy +
/// CELF (RunCelfTopK), Theorem 3's telescoping spread, and the guards
/// and seed set every query needs, written once for both transports and
/// for the live model, which selects through a 1-shard ShardRouter.
///
/// The front owns the session seed set: the generation's frozen seeds
/// plus the session's commits in commit order (a remote backend replays
/// them on reconnect). A candidate is a node x < U that is not a seed
/// and has acted (A_x != 0); any other node's gain is 0 and never
/// reaches the backend. Gains are sums of exact per-shard partials, so
/// every answer is bit-identical for any backend, shard count, worker
/// count, replica or failover.
///
/// Errors are sticky where a half-applied state could leak into an
/// answer: a failed commit poisons the session until ResetSession(),
/// and an unbound front (Unbind, e.g. after a failed remote refresh)
/// refuses every query, ResetSession included, until the next Bind.
/// A query answers a value only when every shard answered.
///
/// Concurrency contract: one front per session thread; IsCandidate is
/// const and safe to call concurrently with itself.
class QueryFront {
 public:
  /// `backend` must outlive the front. The front starts unbound.
  explicit QueryFront(ShardBackend* backend);

  /// Adopts a generation's user space: its global A_u (one count per
  /// user; must outlive the binding) and its frozen seeds, with an empty
  /// session. The backend's sessions must already be fresh.
  void Bind(std::span<const std::uint32_t> au,
            std::span<const NodeId> frozen_seeds);

  /// Drops the user space: every query answers `status` (non-OK) until
  /// the next Bind.
  void Unbind(Status status);

  /// Whether x's gain needs the shards: x < U, not a seed, A_x != 0.
  bool IsCandidate(NodeId x) const {
    return x < num_users_ && !is_seed_[x] && au_[x] != 0;
  }

  /// Marginal gain sigma_cd(S + x) - sigma_cd(S) against the session
  /// seed set S (Theorem 3); 0 for a non-candidate.
  Result<double> MarginalGain(NodeId x);

  /// Commits x into the session. No-op for a seed or x >= U.
  Status CommitSeed(NodeId x);

  /// Rewinds the session on every shard and clears a poisoned session.
  Status ResetSession();

  /// sigma_cd of `seeds`, committed in order over a fresh session (the
  /// session is left holding them, so follow-up gains answer "gain given
  /// this set").
  Result<double> SpreadOf(std::span<const NodeId> seeds);

  /// CELF greedy top-k from a fresh session (Algorithm 3); also the live
  /// model's CreditDistributionModel::SelectSeeds(k). A finite
  /// `spread_budget` stops before any pick that would push cumulative
  /// spread beyond it. The session is left holding the selection.
  Result<SnapshotSeedSelection> TopKSeeds(
      NodeId k,
      double spread_budget = std::numeric_limits<double>::infinity());

  NodeId num_users() const { return num_users_; }

  /// Seeds committed in this session (excluding frozen ones), in order.
  std::span<const NodeId> session_seeds() const { return committed_; }

  /// Attaches a session span ring (src/obs/span.h): commits and top-k
  /// queries push one span each. Not owned; nullptr disables capture.
  void set_span_ring(SpanRing* ring) { ring_ = ring; }
  SpanRing* span_ring() const { return ring_; }

  /// Heap bytes of the seed set and the CELF workspaces.
  std::uint64_t ApproxMemoryBytes() const;

 private:
  /// OK, or why no query may run: unbound, or poisoned by a commit.
  Status Usable() const;

  /// gains[i] for every node of `nodes`: 0 for a non-candidate, the
  /// backend's sum for the rest in one Gains call.
  Status GainsOf(std::span<const NodeId> nodes, double* gains);

  ShardBackend* backend_;
  SpanRing* ring_ = nullptr;

  std::span<const std::uint32_t> au_;  // [U], global A_u
  NodeId num_users_ = 0;
  Status unbound_;   // non-OK while no user space is bound
  Status poisoned_;  // non-OK after a failed commit, until a reset

  std::vector<std::uint8_t> is_seed_;  // [U] frozen + session seeds
  std::vector<NodeId> committed_;      // session seeds, commit order

  // GainsOf's candidate subset when a batch holds non-candidates.
  std::vector<NodeId> candidates_;
  std::vector<double> candidate_gains_;
  CelfScratch celf_;
};

}  // namespace influmax

#endif  // INFLUMAX_SHARD_QUERY_FRONT_H_
