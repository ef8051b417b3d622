#ifndef INFLUMAX_CORE_CD_MODEL_H_
#define INFLUMAX_CORE_CD_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "core/celf.h"
#include "core/credit_store.h"
#include "core/direct_credit.h"
#include "graph/graph.h"

namespace influmax {

class CreditSnapshotView;
class PropagationDag;
struct SnapshotData;

/// Scan / greedy configuration for the credit-distribution model.
struct CdConfig {
  /// Truncation threshold lambda (Section 5.3): credits below this are
  /// discarded during the scan, bounding UC memory. The paper uses 0.001
  /// as its default and studies the trade-off in Table 4. Set to 0 for an
  /// exact scan (tests do this).
  double truncation_threshold = 0.001;

  /// Worker threads for the scan (0 = all hardware threads), in Build()
  /// and IncrementalRescan. Actions are scanned and frozen independently,
  /// one action per worker at a time, so frozen images are
  /// byte-identical for any thread count; a single huge action is
  /// scanned by one worker (docs/parallelism.md).
  std::size_t scan_threads = 0;

  /// Validated, but SelectSeeds runs the greedy on one thread whatever
  /// its value: more threads measured slower (docs/parallelism.md).
  /// Existing configs set it, so it stays until they stop (ROADMAP).
  std::size_t select_threads = 1;

  /// Thread-count knobs above this are rejected by Validate(): a
  /// negative int cast through std::size_t lands far beyond it, and no
  /// real machine is within orders of magnitude of it.
  static constexpr std::size_t kMaxThreads = std::size_t{1} << 16;

  /// Rejects nonsensical configurations (negative truncation threshold,
  /// thread counts that are negative ints in disguise) as
  /// InvalidArgument. Build() calls this first.
  Status Validate() const;
};

/// Influence maximization under the Credit Distribution model
/// (Problem 2 + Algorithms 2-5 of the paper).
///
/// Lifecycle: Build() scans the action log once (Algorithm 2) and
/// freezes each action into the snapshot layout right after scanning it
/// (serve/snapshot_writer.h: forward rows in first-touch order, backward
/// rows by creditor id); the per-action hash table is scan scratch only.
/// That image is served as a whole 1-shard generation by a ShardRouter:
/// SelectSeeds(), MarginalGain() and CommitSeed() are one session of the
/// query front that serves snapshots (Algorithm 3's CELF greedy over
/// Theorem 3's gains and Algorithm 5's updates), kept out of the serving
/// metrics, so the model and the served snapshot agree by construction.
/// SelectSeeds starts from an empty session, so it runs once per Build,
/// before any CommitSeed; greedy selection is incremental, so one call
/// with the largest k of interest yields seeds for every smaller k.
///
/// The model's definitions live in the shard library (influmax_shard),
/// beside the router and the snapshot writer they use; link it.
class CreditDistributionModel {
 public:
  /// Scans `log` over `graph` under `credit_model`; `log` must outlive
  /// the returned object. InvalidArgument for a log that does not match
  /// the graph, a bad config, or credits the fixed-point gain cannot
  /// hold (docs/gain_kernel.md).
  static Result<CreditDistributionModel> Build(
      const Graph& graph, const ActionLog& log,
      const DirectCreditModel& credit_model, const CdConfig& config);

  CreditDistributionModel(CreditDistributionModel&&) noexcept;
  CreditDistributionModel& operator=(CreditDistributionModel&&) noexcept;
  ~CreditDistributionModel();

  /// Result of the greedy + CELF selection (core/celf.h).
  using SeedSelection = influmax::SeedSelection;

  /// Picks up to `k` seeds (fewer if gains hit zero or candidates run
  /// out) and leaves them committed. FailedPrecondition while the
  /// session holds any commit (an earlier selection or CommitSeed).
  Result<SeedSelection> SelectSeeds(NodeId k);

  /// Marginal gain sigma_cd(S + x) - sigma_cd(S) of candidate `x` against
  /// the *current* internal seed set (Algorithm 4 / Theorem 3); 0 when x
  /// is already a seed or never acted. Const and safe to call
  /// concurrently while no commit runs.
  double MarginalGain(NodeId x) const;

  /// Commits `x` as a seed: applies Algorithm 5's UC/SC updates to the
  /// router's copy-on-write session. No-op when x is already a seed or
  /// out of range.
  void CommitSeed(NodeId x);

  /// Live UC entries: the frozen scan's count, less the entries commits
  /// have erased since.
  std::uint64_t credit_entries() const;

  /// Approximate heap bytes: the frozen image, its quotient pool and the
  /// router's workspaces.
  std::uint64_t ApproxMemoryBytes() const;

  /// The credits as the scan froze them (commits live in the router's
  /// session, not here): an in-memory CreditSnapshotView, with no seeds.
  const CreditSnapshotView& frozen() const;

  /// The model's credits with its commits applied, as a snapshot image:
  /// erased entries dropped, SC and seeds included — what WriteSnapshot
  /// serializes.
  SnapshotData ToSnapshotData() const;

  /// The log this model was built over.
  const ActionLog& log() const { return *log_; }

  /// Seeds committed so far (by SelectSeeds or manual CommitSeed calls),
  /// in commit order.
  std::span<const NodeId> committed_seeds() const;

  /// Serializes ToSnapshotData() into a mmap-able snapshot file
  /// (src/serve/snapshot_format.h; narrative spec in docs/serving.md).
  Status WriteSnapshot(const std::string& path) const;

 private:
  struct Frozen;  // the frozen image, its view and the router over it

  explicit CreditDistributionModel(const ActionLog& log);

  const ActionLog* log_;
  std::unique_ptr<Frozen> frozen_;
};

/// Algorithm 2's inner loop over one action DAG: accumulates credits for
/// activations at positions [begin_pos, dag.size()) into `table` under
/// truncation threshold `lambda`. `creditor_scratch` is caller-owned
/// scratch (creditor lists are snapshotted into it so no span into the
/// table outlives a mutation). Build() runs it from position 0; the
/// serving layer's IncrementalRescan replays only appended positions.
void ScanDagRange(const PropagationDag& dag,
                  const DirectCreditModel& credit_model, double lambda,
                  NodeId begin_pos, ActionCreditTable* table,
                  std::vector<CreditEntry>* creditor_scratch);

}  // namespace influmax

#endif  // INFLUMAX_CORE_CD_MODEL_H_
