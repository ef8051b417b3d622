#ifndef INFLUMAX_SERVE_QUERY_ENGINE_H_
#define INFLUMAX_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/cd_model.h"
#include "core/fixed_gain.h"
#include "serve/snapshot_view.h"

namespace influmax {

/// Algorithm 5 over the frozen layout: the per-shard backend of the
/// query front (shard/query_front.h, docs/serving.md), for served
/// generations and the live model's 1-shard router (core/cd_model.h).
///
/// The engine answers any number of sessions against one immutable
/// snapshot, mapped from a file or held in memory: committed seeds live
/// in a per-engine copy-on-write overlay plus an SC shadow array, both
/// rewound in O(touched) by ResetSession(). The overlay is
/// slot-granular: a commit copies a forward row only when Algorithm 5
/// is about to write it (the rows of x's live creditors) and marks x's
/// own rows erased without copying them. The query path is allocation-free in steady state and
/// performs no hash-table lookups: node -> slot is an O(log A_u) binary
/// search over the mmap'd CSR, everything else is direct indexing.
///
/// Gains are fixed-point sums (core/fixed_gain.h), where addition order
/// does not matter, so any partition of the credits into shards adds up
/// to the same bits; a credit that Algorithm 5 brings down to
/// kZeroEpsilon or below is erased (stored as 0.0). The greedy, the
/// spread and the session's seed order live in the query front; a
/// 1-shard ShardRouter is monolithic serving.
///
/// Concurrency contract: one engine per thread. The underlying view is
/// shared freely; an engine's session state is neither locked nor
/// thread-safe, but the const gain methods may run concurrently with
/// each other (see docs/serving.md).
class SnapshotQueryEngine {
 public:
  /// Workspaces are sized to the view once, here. `view` must outlive
  /// the engine. Every gain formula divides by view.gain_au() — for an
  /// action-range shard, the generation's global A_u, as Theorem 3
  /// wants (docs/sharding.md) — and sums the view's quotient pool, which
  /// the first engine over the view derives. Seeds frozen into the
  /// snapshot are permanent: they survive ResetSession() (their credit
  /// updates are already baked into the snapshot's UC/SC arrays).
  explicit SnapshotQueryEngine(const CreditSnapshotView& view);

  /// Marginal gain sigma_cd(S + x) - sigma_cd(S) of x against the
  /// current session seed set S (Algorithm 4 / Theorem 3); 0 when x is
  /// a seed or never acted. Non-destructive, and const: it only reads
  /// the view, the overlay, and the SC shadow, so concurrent calls are
  /// safe whenever no mutating method (CommitSeed / ResetSession) runs.
  double MarginalGain(NodeId x) const;

  /// The fixed-point sum underneath MarginalGain: x's per-slot terms
  /// `mg_a(x) * (1 - SC(x, a))` over this engine's slots, exact
  /// (core/fixed_gain.h) — MarginalGain(x) is FromFixed(PartialGain(x))
  /// behind the seed/inactive checks. A router adds its shards' partials
  /// in any order and gets the same bits (docs/sharding.md). Const like
  /// MarginalGain, same concurrency contract. The caller owns the
  /// seed/range checks (the query front keeps the global seed set).
  GainAccum PartialGain(NodeId x) const;

  /// `acc` + this engine's partial gain of x, as a double: the per-shard
  /// pass of perfbench's gain-layer probe.
  double AccumulateGainTerms(NodeId x, double acc) const;

  /// Commits x into the session seed set (Algorithm 5 against the
  /// overlay). No-op when x is already a seed.
  void CommitSeed(NodeId x);

  /// Rewinds the session to the snapshot's base state in O(touched).
  void ResetSession();

  /// Slot s's forward-row credits as this session sees them: the view's
  /// row with Algorithm 5's updates applied, 0.0 where an entry was
  /// erased. With SessionSc, what the live model serializes after its
  /// commits.
  std::span<const double> SessionRow(std::uint64_t s) const {
    return {RowOf(s), view_->fwd_count()[s]};
  }

  /// Slot s's SC, Gamma_{S,x}(a), in this session.
  double SessionSc(std::uint64_t s) const { return sc_cur_[s]; }

  /// Algorithm 5 erases a credit that falls to or below this: credits
  /// are sums of path products, so exact arithmetic never takes them
  /// negative, and the float dust of an exact zero is clamped.
  static constexpr double kZeroEpsilon = 1e-12;

  /// Telemetry switch (src/obs/, docs/observability.md): when on (the
  /// default), queries record into MetricsRegistry::Global() —
  /// MarginalGain through a sampled 1-in-kObsSampleEvery latency probe,
  /// the coarse operations (CommitSeed / ResetSession) exactly. BM_MetricsOverhead's baseline row turns it off;
  /// builds with INFLUMAX_OBS_OFF compile all of it out regardless.
  void set_obs_enabled(bool enabled) { obs_enabled_ = enabled; }
  bool obs_enabled() const { return obs_enabled_; }

  /// Heap bytes of the engine's workspaces (overlay high-water included);
  /// the per-thread cost to add on top of the shared view mapping.
  std::uint64_t ApproxMemoryBytes() const;

 private:
  /// CommitSeed's scratch: row snapshots and the epoch-stamped credited
  /// set of the slot under update.
  struct CommitScratch {
    struct LiveEntry {
      NodeId node;
      double credit;
    };
    // A live creditor of x, carrying its own slot so Lemma 2 writes the
    // creditor's row without repeating the SlotOf binary search.
    struct LiveCreditor {
      std::uint64_t slot;
      double credit;
    };
    std::vector<LiveEntry> credited;
    std::vector<LiveCreditor> creditors;
    // Credited-user stamps (epoch-tagged so clearing is free), [U].
    std::vector<std::uint64_t> stamp_epoch;
    std::vector<double> stamp_credit;
    std::uint64_t epoch = 0;
  };

  /// Credits of slot s's forward row, indexed by (entry - fwd_begin[s]):
  /// the row's overlay copy when this session wrote it, the shared zero
  /// row once it was erased, the view's base credits otherwise.
  const double* RowOf(std::uint64_t s) const;

  /// Slot s's overlay row, copied from the view (and logged for the
  /// rewind) on first write. Never called on an erased row: an erased
  /// row reads all 0.0, so its user is never a live creditor.
  double* WritableRow(std::uint64_t s);

  /// Room for an n-entry row copy in the overlay blocks: bump-allocated
  /// from the block being filled, moving to the next block (kept from an
  /// earlier session, else allocated) when it does not fit.
  double* AllocateRow(std::uint32_t n);

  /// Appends the live creditors of slot s (positive credit to the slot's
  /// user, read through the overlay) to `*out`, in backward-record order.
  void CollectLiveCreditors(
      std::uint64_t s, std::vector<CommitScratch::LiveCreditor>* out) const;

  /// Algorithm 5 for one slot of x (one action): Lemma 2 subtractions +
  /// column erase against the creditors' overlay rows, Lemma 3 SC folds
  /// (touched SC slots logged for the rewind). x's own row erase is left
  /// to CommitSeed.
  void CommitOneSlot(std::uint64_t s, NodeId x);

  /// MarginalGain's sampled slow path: the same gain, clock-timed, with
  /// the deferred counters flushed in units of kObsSampleEvery.
  double TimedMarginalGain(NodeId x) const;

  const CreditSnapshotView* view_;

  // A_u divisors for every gain formula: the view's gain_au().
  std::span<const std::uint32_t> au_;

  // The view's quotient pool, q[e] = ToFixed(fwd_credit[e] /
  // au_[fwd_node[e]]) ([E]).
  std::span<const FixedGain> quot_;
  bool obs_enabled_ = true;

  // Copy-on-write credit overlay, one forward row per written slot:
  // ovl_row_[s] is nullptr while the row reads from the view, zero_row_
  // (sized to the view's largest fwd_count) once its user became a seed,
  // else the row's copy in an overlay block.
  std::vector<double*> ovl_row_;           // [S]
  std::vector<std::uint64_t> ovl_slots_;   // written, for O(touched) reset
  std::vector<double> zero_row_;

  // Overlay blocks of ovl_block_entries_ doubles each. ResetSession
  // rewinds them and keeps them; nothing reallocates or frees a block
  // before the engine dies, so a session's overlay costs its high-water
  // mark once, whichever pool worker runs the engine's commits (a
  // growing vector left its old buffers in every worker's malloc arena).
  static constexpr std::size_t kOverlayBlockEntries = std::size_t{1} << 16;
  std::vector<std::unique_ptr<double[]>> ovl_blocks_;
  std::size_t ovl_block_entries_ = 0;
  std::size_t ovl_blocks_used_ = 0;  // blocks opened this session
  std::size_t ovl_block_fill_ = 0;   // entries used in the last of them
  std::uint64_t ovl_entries_ = 0;    // entries copied this session

  // SC shadow: base values copied at construction, per-slot undo log.
  std::vector<double> sc_cur_;             // [S]
  std::vector<std::uint64_t> sc_touched_;  // slots to rewind
  std::vector<std::uint8_t> sc_dirty_;     // [S] dedup flag for the log

  // Session seed set. Snapshot-frozen seeds are marked here once at
  // construction and never appear in committed_.
  std::vector<std::uint8_t> is_seed_;      // [U]
  std::vector<NodeId> committed_;          // session commits, in order

  CommitScratch commit_scratch_;
};

/// Statistics of one IncrementalRescan run.
struct RescanStats {
  ActionId unchanged_actions = 0;  // copied verbatim from the snapshot
  ActionId rescanned_actions = 0;  // old actions with appended tuples
  ActionId new_actions = 0;        // actions absent from the snapshot
  std::uint64_t replayed_tuples = 0;  // activations actually re-scanned
};

/// Replays only the log records appended since `view` was frozen and
/// writes the resulting (full, self-contained) snapshot to `out_path`.
///
/// `log` must be an append-only extension of the snapshotted log: same
/// users, same dense ids for old actions, and each old action's scanned
/// trace must be a prefix of its new trace (verified per action against
/// the snapshot's trace hashes — any rewrite of history is rejected as
/// Corruption). `graph` must fingerprint-match the snapshot, `config`'s
/// truncation threshold must equal the snapshot's lambda, and the
/// snapshot must not contain committed seeds (their Algorithm 5 updates
/// cannot be replayed forward). Unchanged actions are copied from the
/// mmap'd arrays without rebuilding anything; extended actions rebuild
/// their table from the snapshot and resume Algorithm 2 at the first
/// appended position — bit-identical to a full rescan of the new log.
Status IncrementalRescan(const CreditSnapshotView& view, const Graph& graph,
                         const ActionLog& log,
                         const DirectCreditModel& credit_model,
                         const CdConfig& config, const std::string& out_path,
                         RescanStats* stats = nullptr);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_QUERY_ENGINE_H_
