#ifndef INFLUMAX_SERVE_SNAPSHOT_VIEW_H_
#define INFLUMAX_SERVE_SNAPSHOT_VIEW_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/memory.h"
#include "common/status.h"
#include "common/types.h"
#include "core/fixed_gain.h"

namespace influmax {

struct SnapshotData;

/// Read-only, zero-copy view of a credit snapshot
/// (src/serve/snapshot_format.h). Open() memory-maps a file, validates
/// the prelude, section structure, and cross-array index bounds once, and
/// then exposes every section as a typed span pointing straight into the
/// mapping — no hash tables, no copies, no allocation after Open.
/// InMemory() spans an image a build holds in memory instead (the live
/// model's frozen scan), with the same accessors.
///
/// Lookup model (all O(1) or O(log A_u), all hash-free):
///  * user u's slots: [user_offsets()[u], user_offsets()[u+1]) — one slot
///    per action u performed, action ids ascending in slot_action();
///  * SlotOf(u, a): binary search of a in u's slot range;
///  * slot s's credited users: fwd_node()/fwd_credit() at
///    [fwd_begin()[s], fwd_begin()[s] + fwd_count()[s]);
///  * action a's entries are contiguous:
///    [action_entry_begin()[a], action_entry_begin()[a+1]).
///
/// Concurrency: the view is immutable after Open and safe to share across
/// any number of threads; per-thread mutable state lives in
/// SnapshotQueryEngine (src/serve/query_engine.h).
class CreditSnapshotView {
 public:
  CreditSnapshotView() = default;
  CreditSnapshotView(CreditSnapshotView&&) = default;
  CreditSnapshotView& operator=(CreditSnapshotView&&) = default;

  /// Maps and validates `path`. Corruption with the failing byte offset
  /// when the file is truncated, mis-typed, or internally inconsistent,
  /// including any value the fixed-point gain cannot hold: a negative or
  /// non-finite credit, a non-finite SC, a quotient that is not the
  /// rounding of its credit / au, or a slot past the gain headroom.
  static Result<CreditSnapshotView> Open(const std::string& path);

  /// A view over an in-memory image: every section spans `data`'s
  /// vectors, and the quotient pool spans `quotient`, which must hold
  /// ToFixed(fwd_credit / au) per entry (DeriveQuotientPool). Both must
  /// outlive the view. Nothing is validated — the image comes from this
  /// process's own build, not from a file.
  static CreditSnapshotView InMemory(const SnapshotData& data,
                                     std::span<const FixedGain> quotient);

  NodeId num_users() const { return num_users_; }
  ActionId num_actions() const { return num_actions_; }
  /// Total (user, action) participation slots == log tuples scanned.
  std::uint64_t num_slots() const { return num_slots_; }
  /// Live UC credit entries frozen into the snapshot.
  std::uint64_t num_entries() const { return num_entries_; }
  std::uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  std::uint64_t log_fingerprint() const { return log_fingerprint_; }
  /// Truncation threshold lambda the store was scanned with.
  double truncation_threshold() const { return truncation_threshold_; }

  std::span<const std::uint32_t> au() const { return au_; }
  std::span<const std::uint64_t> user_offsets() const {
    return user_offsets_;
  }
  std::span<const ActionId> slot_action() const { return slot_action_; }
  std::span<const double> slot_sc() const { return slot_sc_; }
  std::span<const std::uint64_t> action_entry_begin() const {
    return action_entry_begin_;
  }
  std::span<const std::uint64_t> fwd_begin() const { return fwd_begin_; }
  std::span<const std::uint32_t> fwd_count() const { return fwd_count_; }
  std::span<const std::uint64_t> bwd_begin() const { return bwd_begin_; }
  std::span<const std::uint32_t> bwd_count() const { return bwd_count_; }
  std::span<const NodeId> fwd_node() const { return fwd_node_; }
  std::span<const double> fwd_credit() const { return fwd_credit_; }
  /// Derived division-free gain pool: fwd_quotient()[e] equals
  /// ToFixed(fwd_credit()[e] / au()[fwd_node()[e]]) (core/fixed_gain.h;
  /// validated at Open). The gain sum adds this stream instead of
  /// dividing and gathering per entry (docs/gain_kernel.md).
  std::span<const FixedGain> fwd_quotient() const { return fwd_quotient_; }
  std::span<const NodeId> bwd_node() const { return bwd_node_; }
  std::span<const std::uint64_t> bwd_entry() const { return bwd_entry_; }
  std::span<const std::uint32_t> action_size() const { return action_size_; }
  std::span<const std::uint64_t> action_trace_hash() const {
    return action_trace_hash_;
  }
  /// Seeds committed before the snapshot was frozen (commit order).
  std::span<const NodeId> seeds() const { return seeds_; }

  /// Sentinel returned by SlotOf when u never performed a.
  static constexpr std::uint64_t kNoSlot = ~0ULL;

  /// Slot index of (u, a): O(log A_u) binary search, kNoSlot if absent.
  std::uint64_t SlotOf(NodeId u, ActionId a) const;

  /// Serving-side memory footprint: the mapped file (resident pages are
  /// an upper bound; the kernel shares them across processes) — the
  /// number the ROADMAP's truncation-aware memory budgeting targets — or
  /// the section bytes of an in-memory image.
  std::uint64_t ApproxMemoryBytes() const {
    return file_.size() + in_memory_bytes_;
  }

 private:
  MmapFile file_;
  std::uint64_t in_memory_bytes_ = 0;

  NodeId num_users_ = 0;
  ActionId num_actions_ = 0;
  std::uint64_t num_slots_ = 0;
  std::uint64_t num_entries_ = 0;
  std::uint64_t graph_fingerprint_ = 0;
  std::uint64_t log_fingerprint_ = 0;
  double truncation_threshold_ = 0.0;

  std::span<const std::uint32_t> au_;
  std::span<const std::uint64_t> user_offsets_;
  std::span<const ActionId> slot_action_;
  std::span<const double> slot_sc_;
  std::span<const std::uint64_t> action_entry_begin_;
  std::span<const std::uint64_t> fwd_begin_;
  std::span<const std::uint32_t> fwd_count_;
  std::span<const std::uint64_t> bwd_begin_;
  std::span<const std::uint32_t> bwd_count_;
  std::span<const NodeId> fwd_node_;
  std::span<const double> fwd_credit_;
  std::span<const FixedGain> fwd_quotient_;
  std::span<const NodeId> bwd_node_;
  std::span<const std::uint64_t> bwd_entry_;
  std::span<const std::uint32_t> action_size_;
  std::span<const std::uint64_t> action_trace_hash_;
  std::span<const NodeId> seeds_;
};

/// The first slot whose mg_a(x) — ToFixed(1/A_x) plus its non-negative
/// pool quotients, none of them above `max_q` — would overflow a
/// FixedGain, in user-major slot order, or kNoSlot. Shared by the
/// snapshot writer, which refuses to write such a slot, and
/// CreditSnapshotView::Open, which refuses to serve one
/// (docs/gain_kernel.md). Ranges must be in bounds.
std::uint64_t FindSlotPastGainHeadroom(
    std::span<const std::uint32_t> au,
    std::span<const std::uint64_t> user_offsets,
    std::span<const std::uint64_t> fwd_begin,
    std::span<const std::uint32_t> fwd_count,
    std::span<const FixedGain> pool, FixedGain max_q);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_VIEW_H_
