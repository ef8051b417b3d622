#ifndef INFLUMAX_SERVE_QUERY_ENGINE_H_
#define INFLUMAX_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/cd_model.h"
#include "core/celf.h"
#include "serve/gain_kernel.h"
#include "serve/snapshot_view.h"

namespace influmax {

/// Seed-selection result of the snapshot query engine; field-for-field
/// the shape of CreditDistributionModel::SeedSelection, and — on the same
/// log, graph, and lambda — bit-for-bit the same values.
struct SnapshotSeedSelection {
  std::vector<NodeId> seeds;              // in pick order
  std::vector<double> marginal_gains;     // gain of each pick
  std::vector<double> cumulative_spread;  // sigma_cd of each prefix
  std::uint64_t gain_evaluations = 0;     // CELF computeMG calls
};

/// Non-destructive CELF greedy over a CreditSnapshotView.
///
/// Where the live model's SelectSeeds() consumes its credit store (one
/// shot per Build), the engine answers any number of queries against one
/// immutable snapshot: committed seeds live in a per-engine
/// copy-on-write overlay plus an SC shadow array, both rewound in
/// O(touched) by ResetSession(). The overlay is slot-granular: a commit
/// copies a forward row only when Algorithm 5 is about to write it (the
/// rows of x's live creditors) and marks x's own rows erased without
/// copying them. The query path is allocation-free in steady state and
/// performs no hash-table lookups: node -> slot is an O(log A_u) binary
/// search over the mmap'd CSR, everything else is direct indexing.
///
/// Results are bit-identical to the live model because the snapshot
/// preserves forward-adjacency order (floating-point summation order),
/// the overlay replicates SubtractCredit's epsilon-erase (entries at 0.0
/// are "erased"), and the greedy replays Algorithm 3's exact queue
/// discipline including tie-breaks.
///
/// Concurrency contract: one engine per thread. The underlying view is
/// shared freely; an engine's session state is neither locked nor
/// thread-safe (see docs/serving.md). TopKSeeds can additionally fan its
/// internal marginal-gain passes out over set_gain_threads() workers —
/// safe because MarginalGain is read-only — without changing any result
/// bit (docs/parallelism.md).
class SnapshotQueryEngine {
 public:
  /// Workspaces are sized to the view once, here. `view` must outlive
  /// the engine. Seeds frozen into the snapshot are permanent: they
  /// survive ResetSession() (their credit updates are already baked into
  /// the snapshot's UC/SC arrays).
  explicit SnapshotQueryEngine(const CreditSnapshotView& view);

  /// Shard-serving constructor (docs/sharding.md): `au_override` (length
  /// >= the view's user count, outliving the engine) replaces the view's
  /// own A_u array in every gain formula. An action-range shard stores
  /// only the slots of its own actions, so its local au says "actions in
  /// this shard" — but Theorem 3 divides by the user's *global* action
  /// count, which the ShardRouter supplies from the shard manifest.
  SnapshotQueryEngine(const CreditSnapshotView& view,
                      std::span<const std::uint32_t> au_override);

  /// Like the au-override constructor, but with the matching quotient
  /// pool (q[e] = fwd_credit[e] / au_override[fwd_node[e]], length ==
  /// the view's entry count, outliving the engine) supplied by the
  /// caller — OpenShardedSnapshot derives one per shard so every router
  /// session shares it instead of re-deriving O(E) doubles per engine.
  /// An empty span makes the engine derive (and own) the pool itself.
  SnapshotQueryEngine(const CreditSnapshotView& view,
                      std::span<const std::uint32_t> au_override,
                      std::span<const double> quotient_override);

  /// Marginal gain sigma_cd(S + x) - sigma_cd(S) of x against the
  /// current session seed set S (Algorithm 4 / Theorem 3); 0 when x is
  /// a seed or never acted. Non-destructive, and const: it only reads
  /// the view, the overlay, and the SC shadow, so concurrent calls are
  /// safe whenever no mutating method (CommitSeed / SpreadOf /
  /// TopKSeeds / ResetSession) runs — the property the parallel gain
  /// passes below rely on.
  double MarginalGain(NodeId x) const;

  /// The gain fold underneath MarginalGain, exposed for the ShardRouter
  /// (docs/sharding.md): folds x's per-slot terms
  /// `mg_a(x) * (1 - SC(x, a))` into `acc` in ascending-action order and
  /// returns the result — MarginalGain(x) is AccumulateGainTerms(x, 0.0)
  /// behind the seed/inactive checks. Because a router's shards cover
  /// contiguous ascending action ranges, chaining the fold through every
  /// shard's engine replays the monolithic engine's floating-point
  /// addition sequence exactly; summing per-shard partials instead would
  /// reassociate it. Const like MarginalGain, same concurrency contract.
  /// The caller owns the seed/range checks (the router keeps its own
  /// global seed set).
  double AccumulateGainTerms(NodeId x, double acc) const;

  /// Appends x's per-slot gain terms to `*out` (same terms the fold
  /// above adds, in the same order) so a router can compute shards'
  /// terms in parallel and fold the buffered terms serially — identical
  /// bits, fan-out latency (docs/sharding.md).
  void AppendGainTerms(NodeId x, std::vector<double>* out) const;

  /// Commits x into the session seed set (Algorithm 5 against the
  /// overlay). No-op when x is already a seed. The per-action updates
  /// write disjoint overlay rows and disjoint SC-shadow slots, so they
  /// fan out over gain_threads() workers (after a serial pre-pass that
  /// copies the live creditors' rows), with per-worker touched-slot logs
  /// merged in action order — bit-identical to the serial commit for any
  /// thread count (docs/parallelism.md). With the default
  /// gain_threads() == 1 the serial path runs, copies each row as it is
  /// first written, and never allocates per-worker scratch.
  void CommitSeed(NodeId x);

  /// sigma_cd of `seeds` (committed in order over a fresh session; the
  /// session is left holding them, so follow-up MarginalGain calls
  /// answer "gain given this set").
  double SpreadOf(std::span<const NodeId> seeds);

  /// CELF greedy top-k from a fresh session: replays Algorithm 3 and
  /// matches CreditDistributionModel::SelectSeeds(k) exactly. A finite
  /// `spread_budget` additionally stops before any pick that would push
  /// cumulative spread beyond the budget ("best seeds under budget").
  /// The session is left holding the selection.
  SnapshotSeedSelection TopKSeeds(
      NodeId k,
      double spread_budget = std::numeric_limits<double>::infinity());

  /// Rewinds the session to the snapshot's base state in O(touched).
  void ResetSession();

  /// Worker threads for TopKSeeds' marginal-gain passes (the initial
  /// CELF pass and batched stale re-evaluations), 0 = all hardware
  /// threads. Defaults to 1 — serving deployments run one engine per
  /// thread, and an engine that spawns by default would oversubscribe
  /// them. Results are bit-identical for any value; see
  /// docs/parallelism.md.
  void set_gain_threads(std::size_t threads) { gain_threads_ = threads; }
  std::size_t gain_threads() const { return gain_threads_; }

  /// Gain kernel for every query this engine answers — MarginalGain,
  /// both CELF passes, the router's chained fold (src/serve/gain_kernel.h,
  /// docs/gain_kernel.md). kExact (default) keeps the bit-identity
  /// contract; kFastMath vectorizes the per-slot quotient sums within
  /// kFastMathRelErrorBound. Slots whose rows this session wrote always
  /// take the exact divide path (their precomputed quotients are stale);
  /// every other slot folds the pool in the selected mode. Not a
  /// concurrent-safe setter: set it between queries, like the other
  /// session mutations.
  void set_kernel_mode(GainKernelMode mode) { kernel_mode_ = mode; }
  GainKernelMode kernel_mode() const { return kernel_mode_; }

  /// Telemetry switch (src/obs/, docs/observability.md): when on (the
  /// default), queries record into MetricsRegistry::Global() —
  /// MarginalGain through a sampled 1-in-kObsSampleEvery latency probe,
  /// the coarse operations (TopKSeeds / CommitSeed / ResetSession /
  /// SpreadOf) exactly. BM_MetricsOverhead's baseline row turns it off;
  /// builds with INFLUMAX_OBS_OFF compile all of it out regardless.
  void set_obs_enabled(bool enabled) { obs_enabled_ = enabled; }
  bool obs_enabled() const { return obs_enabled_; }

  /// Seeds committed in this session (excluding snapshot-frozen ones).
  std::span<const NodeId> session_seeds() const { return committed_; }

  /// Heap bytes of the engine's workspaces (overlay high-water included);
  /// the per-thread cost to add on top of the shared view mapping.
  std::uint64_t ApproxMemoryBytes() const;

 private:
  /// Per-worker scratch of the (possibly parallel) CommitSeed: row
  /// snapshots, the epoch-stamped credited set of the slot under update,
  /// and — on the parallel path — the deferred touched-SC-slot log.
  /// Slot 0 exists from construction (the serial path uses it); further
  /// slots appear on the first parallel commit and are reused across
  /// commits.
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
    // Credited-user stamps (epoch-tagged so clearing is free), sized [U]
    // lazily by EnsureScratch.
    std::vector<std::uint64_t> stamp_epoch;
    std::vector<double> stamp_credit;
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> sc_touched;  // parallel path: deferred log
  };

  /// Credits of slot s's forward row, indexed by (entry - fwd_begin[s]):
  /// the row's overlay copy when this session wrote it, the shared zero
  /// row once it was erased, the view's base credits otherwise.
  const double* RowOf(std::uint64_t s) const;

  /// Slot s's overlay row, copied from the view (and logged for the
  /// rewind) on first write. Never called on an erased row: an erased
  /// row reads all 0.0, so its user is never a live creditor.
  double* WritableRow(std::uint64_t s);

  /// Appends the live creditors of slot s (positive credit to the slot's
  /// user, read through the overlay) to `*out`, in backward-record order.
  void CollectLiveCreditors(
      std::uint64_t s, std::vector<CommitScratch::LiveCreditor>* out) const;

  /// Algorithm 5 for one slot of x (one action): Lemma 2 subtractions +
  /// column erase against the creditors' overlay rows, Lemma 3 SC folds.
  /// Touched SC slots are logged to `*touched_out` (&sc_touched_ on the
  /// serial path; the scratch's own log on the parallel path, merged in
  /// action order afterwards). x's own row erase is left to CommitSeed.
  void CommitOneSlot(std::uint64_t s, NodeId x, CommitScratch* scratch,
                     std::vector<std::uint64_t>* touched_out);

  /// Sizes a scratch's stamp arrays to [U] on first use.
  void EnsureScratch(CommitScratch* scratch);

  /// Calls `term(value)` for each of x's slots in ascending-action
  /// order; shared by the fold, the term buffer, and MarginalGain.
  template <typename TermFn>
  void ForEachGainTerm(NodeId x, TermFn&& term) const;

  /// MarginalGain's sampled slow path: the same gain, clock-timed, with
  /// the deferred counters flushed in units of kObsSampleEvery.
  double TimedMarginalGain(NodeId x) const;

  const CreditSnapshotView* view_;

  // A_u divisors for every gain formula: the view's au section, or the
  // router-supplied global override (see the sharding constructor).
  std::span<const std::uint32_t> au_;

  // Precomputed q[e] = fwd_credit[e] / au_[fwd_node[e]] ([E], matching
  // au_): the view's stored pool, a caller-shared override, or own_quot_
  // when the engine had to derive it (au override without a pool).
  std::span<const double> quot_;
  std::vector<double> own_quot_;
  GainKernelMode kernel_mode_ = GainKernelMode::kExact;
  bool obs_enabled_ = true;

  // Copy-on-write credit overlay, one forward row per written slot:
  // offset of the row's copy in ovl_buf_, kNotOverlaid while the row
  // reads from the view, kErased once its user became a seed (the row
  // then reads zero_row_, sized to the view's largest fwd_count).
  static constexpr std::uint64_t kNotOverlaid = ~0ULL;
  static constexpr std::uint64_t kErased = ~0ULL - 1;
  std::vector<std::uint64_t> ovl_offset_;  // [S]
  std::vector<double> ovl_buf_;            // bump-allocated row copies
  std::vector<std::uint64_t> ovl_slots_;   // written, for O(touched) reset
  std::vector<double> zero_row_;

  // SC shadow: base values copied at construction, per-slot undo log.
  std::vector<double> sc_cur_;             // [S]
  std::vector<std::uint64_t> sc_touched_;  // slots to rewind
  std::vector<std::uint8_t> sc_dirty_;     // [S] dedup flag for the log

  // Session seed set. Snapshot-frozen seeds are marked here once at
  // construction and never appear in seed_touched_.
  std::vector<std::uint8_t> is_seed_;      // [U]
  std::vector<NodeId> committed_;          // session commits, in order

  // CommitSeed workspaces: scratch per worker (see CommitScratch) and
  // the parallel path's per-action ArenaSlice refs for the
  // deterministic touched-log merge.
  std::vector<CommitScratch> commit_scratch_;
  std::vector<ArenaSlice> touched_slices_;

  // CELF speculation memo (TopKSeeds): gain of a node re-evaluated in a
  // parallel batch, valid only while |S| + 1 == the stamp.
  std::size_t gain_threads_ = 1;
  std::vector<double> memo_gain_;           // [U]
  std::vector<std::uint64_t> memo_stamp_;   // [U]

  // Reused scratch (never shrunk, so steady-state queries do not
  // allocate).
  std::vector<CelfQueueEntry> heap_;
  std::vector<CelfQueueEntry> batch_;
  std::vector<double> gains_;  // initial-pass gather array
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
