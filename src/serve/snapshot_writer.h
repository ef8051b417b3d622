#ifndef INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
#define INFLUMAX_SERVE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cd_model.h"
#include "core/credit_store.h"
#include "graph/graph.h"

namespace influmax {

/// In-memory image of a credit snapshot, section for section (see
/// src/serve/snapshot_format.h). Produced by BuildSnapshotData() from a
/// scanned UserCreditStore, or assembled piecewise by IncrementalRescan()
/// (copied slices for unchanged actions, freshly scanned tables for
/// extended ones), then serialized with WriteSnapshotFile().
///
/// Invariants the query engine relies on:
///  * slots are user-major (user_offsets CSR over users, actions ascending
///    within a user — exactly ActionLog::UserActions order);
///  * entries are action-major (action_entry_begin CSR) so an action's
///    credits are one contiguous slice (the shard slicer and the
///    incremental rescan copy actions whole), and each slot's forward
///    row is contiguous within it — the unit the query engine's
///    copy-on-write overlay shadows;
///  * forward lists preserve the live ActionCreditTable adjacency order
///    (the scan's first-touch order) with stale ids dropped, which keeps
///    floating-point summation order — and therefore every marginal gain —
///    bit-identical to the live model;
///  * backward lists are canonicalized to ascending creditor id (the live
///    backward order is insertion-dependent but never affects results),
///    which makes snapshots reproducible byte-for-byte across full builds
///    and incremental rescans.
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

/// Flattens one scanned action table into `data` (entries appended, slot
/// arrays written in place). `trace` must be the action's scanned trace;
/// participants are visited in trace order. Exposed for the incremental
/// rescan, which mixes this with verbatim copies of unchanged actions.
void AppendActionFromTable(const ActionCreditTable& table, ActionId a,
                           std::span<const ActionTuple> trace,
                           SnapshotData* data);

/// Flattens the whole store. `log` must be the log the store was scanned
/// from (it defines the slot universe), `graph` the scanned graph.
SnapshotData BuildSnapshotData(const UserCreditStore& store,
                               const Graph& graph, const ActionLog& log,
                               double truncation_threshold,
                               std::span<const NodeId> committed_seeds);

/// Serializes `data` to `path` in the snapshot_format.h layout.
Status WriteSnapshotFile(const SnapshotData& data, const std::string& path);

/// Convenience: BuildSnapshotData + WriteSnapshotFile for a built model.
Status WriteCreditSnapshot(const CreditDistributionModel& model,
                           const std::string& path);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_WRITER_H_
