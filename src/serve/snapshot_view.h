#ifndef INFLUMAX_SERVE_SNAPSHOT_VIEW_H_
#define INFLUMAX_SERVE_SNAPSHOT_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

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
/// mapping — no hash tables, no copies. InMemory() spans an image a build
/// holds in memory instead (the live model's frozen scan), with the same
/// accessors. The one heap structure is the quotient pool, derived from
/// the credits on the first fwd_quotient() call.
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
/// Concurrency: the view is immutable after Open (and DivideGainsBy) and
/// safe to share across any number of threads — the pool's derivation
/// runs once, whichever thread asks first; per-thread mutable state lives
/// in SnapshotQueryEngine (src/serve/query_engine.h).
class CreditSnapshotView {
 public:
  CreditSnapshotView() = default;
  CreditSnapshotView(CreditSnapshotView&&) = default;
  CreditSnapshotView& operator=(CreditSnapshotView&&) = default;

  /// Maps and validates `path`. Corruption with the failing byte offset
  /// when the file is truncated, mis-typed, or internally inconsistent,
  /// including any value the fixed-point gain cannot hold: a negative or
  /// non-finite credit, a non-finite SC, a quotient credit / au past the
  /// headroom, or a slot past the gain headroom.
  static Result<CreditSnapshotView> Open(const std::string& path);

  /// A view over an in-memory image: every section spans `data`'s
  /// vectors, which must outlive the view. Nothing is validated — the
  /// image comes from this process's own build, not from a file.
  static CreditSnapshotView InMemory(const SnapshotData& data);

  /// Makes `au` the A_u this view's gains divide by: a generation's
  /// global A_u for one of its action-range shards (docs/sharding.md),
  /// where au() counts only the shard's own actions. `au` must hold
  /// num_users() values, each at least au()'s — so every quotient stays
  /// inside the headroom Open checked — and outlive the view. Call it
  /// before the view is shared, and before the first fwd_quotient().
  void DivideGainsBy(std::span<const std::uint32_t> au);

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
  /// The A_u every gain formula divides by: au(), unless DivideGainsBy
  /// named a generation's global A_u.
  std::span<const std::uint32_t> gain_au() const { return gain_au_; }
  /// Division-free gain pool: fwd_quotient()[e] equals
  /// ToFixed(fwd_credit()[e] / gain_au()[fwd_node()[e]])
  /// (core/fixed_gain.h). Derived on the heap by the first call, from
  /// any thread, and shared by every later one; the file stores no pool.
  /// The gain sum adds this stream instead of dividing and gathering per
  /// entry (docs/gain_kernel.md).
  std::span<const FixedGain> fwd_quotient() const;
  /// Heap bytes of the quotient pool: 0 until fwd_quotient() derives it.
  std::uint64_t pool_bytes() const;
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
  /// the section bytes of an in-memory image. The derived pool is
  /// pool_bytes(), not part of this.
  std::uint64_t ApproxMemoryBytes() const {
    return file_.size() + in_memory_bytes_;
  }

 private:
  /// The lazily derived quotient pool, behind a pointer so the view
  /// stays movable.
  struct QuotientPool {
    std::once_flag once;
    std::vector<FixedGain> quotients;
    std::atomic<bool> derived{false};
  };

  MmapFile file_;
  std::uint64_t in_memory_bytes_ = 0;
  std::unique_ptr<QuotientPool> pool_ = std::make_unique<QuotientPool>();

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
  std::span<const std::uint32_t> gain_au_;
  std::span<const NodeId> bwd_node_;
  std::span<const std::uint64_t> bwd_entry_;
  std::span<const std::uint32_t> action_size_;
  std::span<const std::uint64_t> action_trace_hash_;
  std::span<const NodeId> seeds_;
};

/// The first slot whose mg_a(x) — ToFixed(1/A_x) plus its entries'
/// quotients ToFixed(credit / au), all non-negative and none above
/// `max_q` — would overflow a FixedGain, in user-major slot order, or
/// kNoSlot. Rounds the quotients as it goes, so it needs no pool. Shared
/// by the snapshot writer, which refuses to write such a slot, and
/// CreditSnapshotView::Open, which refuses to serve one
/// (docs/gain_kernel.md). `view`'s ranges must be in bounds.
std::uint64_t FindSlotPastGainHeadroom(const CreditSnapshotView& view,
                                       FixedGain max_q);

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_VIEW_H_
