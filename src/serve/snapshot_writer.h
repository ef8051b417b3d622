#ifndef INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
#define INFLUMAX_SERVE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "common/types.h"
#include "core/credit_store.h"
#include "core/fixed_gain.h"
#include "graph/graph.h"

namespace influmax {

/// In-memory image of a credit snapshot, section for section (see
/// src/serve/snapshot_format.h). CreditDistributionModel::Build freezes
/// each action into one right after scanning it (FreezeAction);
/// IncrementalRescan assembles one piecewise (copied slices for
/// unchanged actions, freshly scanned and frozen tables for extended
/// ones); WriteSnapshotFile() serializes one.
///
/// Invariants the query engine relies on:
///  * slots are user-major (user_offsets CSR over users, actions ascending
///    within a user — exactly ActionLog::UserActions order);
///  * entries are action-major (action_entry_begin CSR) so an action's
///    credits are one contiguous slice (the shard slicer and the
///    incremental rescan copy actions whole), and each slot's forward
///    row is contiguous within it — the unit the query engine's
///    copy-on-write overlay shadows;
///  * forward lists keep the scan's first-touch order. Gains do not
///    depend on it — they are fixed-point sums (core/fixed_gain.h) — but
///    the full build and the incremental rescan both emit it, so their
///    bytes agree;
///  * backward lists are canonicalized to ascending creditor id (the
///    scan's backward order is insertion-dependent but never affects
///    results), which makes snapshots reproducible byte-for-byte across
///    full builds and incremental rescans.
struct SnapshotData {
  NodeId num_users = 0;
  ActionId num_actions = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t log_fingerprint = 0;
  double truncation_threshold = 0.0;

  std::vector<std::uint32_t> au;                  // [U]
  std::vector<std::uint64_t> user_offsets;        // [U+1]
  std::vector<ActionId> slot_action;              // [S]
  std::vector<double> slot_sc;                    // [S]
  std::vector<std::uint64_t> action_entry_begin;  // [A+1]
  std::vector<std::uint64_t> fwd_begin;           // [S]
  std::vector<std::uint32_t> fwd_count;           // [S]
  std::vector<std::uint64_t> bwd_begin;           // [S]
  std::vector<std::uint32_t> bwd_count;           // [S]
  std::vector<NodeId> fwd_node;                   // [E]
  std::vector<double> fwd_credit;                 // [E]
  std::vector<NodeId> bwd_node;                   // [E]
  std::vector<std::uint64_t> bwd_entry;           // [E]
  std::vector<std::uint32_t> action_size;         // [A]
  std::vector<std::uint64_t> action_trace_hash;   // [A]
  std::vector<NodeId> seeds;                      // committed before freeze

  /// Slot index of (u, a), found by binary search over u's action ids;
  /// the pair must exist (u performed a).
  std::uint64_t SlotOf(NodeId u, ActionId a) const;
};

/// Order-sensitive fingerprint of the social graph's CSR structure.
std::uint64_t FingerprintGraph(const Graph& graph);

/// Fingerprint of the action log: num_users/num_actions plus the chained
/// per-action trace hashes. Two logs fingerprint equal iff they contain
/// the same traces in the same dense-action order.
std::uint64_t FingerprintActionLog(const ActionLog& log);

/// The same chain computed from already-hashed traces (num_actions is
/// `trace_hashes.size()`). FingerprintActionLog(log) ==
/// FingerprintTraceHashes(log.num_users(), per-action HashActionTrace) —
/// which lets the shard writer stamp a shard blob with the fingerprint
/// of its restricted log using only the snapshot's kActionTraceHash
/// section, so a sliced shard is byte-identical to one built from
/// ActionLog::RestrictToActions directly (tested).
std::uint64_t FingerprintTraceHashes(NodeId num_users,
                                     std::span<const std::uint64_t>
                                         trace_hashes);

/// Order-sensitive hash of one action trace (user + activation time of
/// every tuple). IncrementalRescan uses it to prove that a new log is an
/// append-only extension of the snapshotted one, action by action.
std::uint64_t HashActionTrace(std::span<const ActionTuple> trace);

/// Initializes `data`'s slot universe from `log`: au, user_offsets,
/// slot_action (SC zeroed), and the per-slot/per-action arrays sized and
/// zeroed, ready for per-action appends. Entry pools start empty.
void InitSnapshotSlots(const ActionLog& log, SnapshotData* data);

/// Per-worker scratch of FreezeAction, reused across actions so steady
/// state does not allocate.
struct FreezeScratch {
  std::vector<std::uint32_t> position_of;  // [U] trace position + 1, or 0
  std::vector<std::uint64_t> slot_at;      // slot of each trace position
  std::vector<std::uint64_t> cursor;       // backward fill cursor per position
  std::vector<std::pair<NodeId, std::uint32_t>> by_user;  // (user, position)
};

/// Freezes one scanned action table: writes the action's slot entries
/// (fwd_begin/fwd_count/bwd_begin/bwd_count) into `slots`, whose slot
/// universe InitSnapshotSlots set up, and appends its forward and
/// backward records to `entries`' four entry pools, with begins and
/// bwd_entry indices into those pools. `slots` and `entries` may be the
/// same image; a parallel build gives each worker its own `entries` and
/// rebases when it gathers them in action order. `trace` must be the
/// action's scanned trace: forward rows follow it, each in first-touch
/// order; backward rows follow it too, each in ascending creditor id.
/// Each credit is read once and no lookup structure is built: backward
/// rows are counted while the forward rows are written and filled from
/// them afterwards. Corruption if the table credits a user who is not in
/// `trace` (a scan never does; a table refilled from a forged snapshot
/// can); `slots` and `entries` are then partly written and must be
/// dropped, and `scratch` stays reusable.
Status FreezeAction(const ActionCreditTable& table, ActionId a,
                    std::span<const ActionTuple> trace, FreezeScratch* scratch,
                    SnapshotData* slots, SnapshotData* entries);

/// InvalidArgument for the values of `data` CreditSnapshotView::Open
/// would refuse: a negative or non-finite credit, a quotient
/// fwd_credit[e] / au[fwd_node[e]] past the fixed-point headroom, or a
/// slot whose mg_a(x) would overflow a FixedGain (docs/gain_kernel.md).
/// Allocates no quotient pool.
Status CheckGainHeadroom(const SnapshotData& data);

/// Serializes `data` to `path` in the snapshot_format.h layout.
Status WriteSnapshotFile(const SnapshotData& data, const std::string& path);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
