#ifndef INFLUMAX_TESTS_REFERENCE_CD_H_
#define INFLUMAX_TESTS_REFERENCE_CD_H_

// Test-only reference implementation of Algorithms 3-5 on mutable
// hash tables — the credit store the live model ran on before it moved
// onto the frozen layout (serve/query_engine.h). It shares only the
// scan (core/cd_model.h: ScanDagRange), the CELF loop (core/celf.h)
// and the fixed-point rounding (core/fixed_gain.h) with the library;
// Algorithm 5, the gains and the snapshot flatten are its own. The
// differential suites check the library against it bit for bit.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "actionlog/action_log.h"
#include "actionlog/propagation_dag.h"
#include "common/flat_hash.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "core/cd_model.h"
#include "core/celf.h"
#include "core/credit_store.h"
#include "core/direct_credit.h"
#include "core/fixed_gain.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "serve/snapshot_writer.h"

namespace influmax {
namespace reference {

/// Sparse per-action credit matrix UC[v][u][a] with Algorithm 5's
/// mutations: (v, u) -> credit in a flat hash map plus forward and
/// backward adjacency lists, so an update touches only affected pairs.
///
/// Adjacency lists may contain *stale* entries after erasures; readers
/// treat Credit() == 0 as "no entry". Lists that ever reach
/// kCompactMinListSize ids are registered as "big"; once erasures since
/// the last sweep outnumber the live entries (majority-stale in
/// aggregate), all big lists are compacted in one pass. Spans returned
/// by CreditedUsers()/Creditors() are invalidated by any mutation; use
/// the Snapshot* methods when mutating while iterating. AddCredit must
/// not re-create an erased pair.
class CreditTable {
 public:
  double Credit(NodeId v, NodeId u) const {
    const double* credit = credit_.Find(Key(v, u));
    return credit == nullptr ? 0.0 : *credit;
  }

  void AddCredit(NodeId v, NodeId u, double delta) {
    auto [credit, inserted] = credit_.TryEmplace(Key(v, u));
    if (inserted) {
      *credit = delta;
      forward_.Append(v, u);
      backward_.Append(u, v);
    } else {
      *credit += delta;
    }
  }

  /// Subtracts `delta` from an existing (v, u) credit; erases the entry
  /// when it falls to kZeroEpsilon or below.
  void SubtractCredit(NodeId v, NodeId u, double delta) {
    double* credit = credit_.Find(Key(v, u));
    if (credit == nullptr) return;  // truncated away earlier; stays 0
    *credit -= delta;
    if (*credit <= kZeroEpsilon) {
      credit_.EraseSlot(credit);
      NoteErased();
    }
  }

  /// Removes the (v, u) entry if present.
  void Erase(NodeId v, NodeId u) {
    if (credit_.Erase(Key(v, u))) NoteErased();
  }

  std::span<const NodeId> CreditedUsers(NodeId v) const {
    return AdjacencySpan(forward_, v);
  }
  std::span<const NodeId> Creditors(NodeId u) const {
    return AdjacencySpan(backward_, u);
  }

  /// Appends the live (u, Credit(v, u)) entries of v's forward list.
  void SnapshotCredited(NodeId v, std::vector<CreditEntry>* out) const {
    for (NodeId u : CreditedUsers(v)) {
      if (const double* credit = credit_.Find(Key(v, u))) {
        out->push_back({u, *credit});
      }
    }
  }

  /// Appends the live (w, Credit(w, u)) entries of u's backward list.
  void SnapshotCreditors(NodeId u, std::vector<CreditEntry>* out) const {
    for (NodeId w : Creditors(u)) {
      if (const double* credit = credit_.Find(Key(w, u))) {
        out->push_back({w, *credit});
      }
    }
  }

  std::size_t num_entries() const { return credit_.size(); }

  std::uint64_t ApproxMemoryBytes() const {
    return credit_.ApproxMemoryBytes() + forward_.ApproxMemoryBytes() +
           backward_.ApproxMemoryBytes();
  }

  static constexpr double kZeroEpsilon = 1e-12;
  static_assert(kZeroEpsilon == SnapshotQueryEngine::kZeroEpsilon);
  static constexpr std::uint32_t kCompactMinListSize = 16;
  static constexpr std::uint64_t kCompactMinErasures = 16;

 private:
  using AdjList = SmallVector<NodeId, 4>;

  struct AdjIndex {
    FlatHashMap<NodeId, std::uint32_t> index;
    std::vector<AdjList> pool;
    // (owner, pool slot) of the lists a sweep visits.
    std::vector<std::pair<NodeId, std::uint32_t>> big;

    const AdjList* Find(NodeId id) const {
      const std::uint32_t* slot = index.Find(id);
      return slot == nullptr ? nullptr : &pool[*slot];
    }
    void Append(NodeId owner, NodeId other) {
      auto [slot, inserted] = index.TryEmplace(owner);
      if (inserted) {
        *slot = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
      }
      AdjList& list = pool[*slot];
      list.push_back(other);
      if (list.size() == kCompactMinListSize) big.emplace_back(owner, *slot);
    }
    std::uint64_t ApproxMemoryBytes() const {
      std::uint64_t bytes = index.ApproxMemoryBytes() +
                            pool.capacity() * sizeof(AdjList) +
                            big.capacity() * sizeof(big[0]);
      for (const AdjList& list : pool) bytes += list.HeapBytes();
      return bytes;
    }
  };

  static std::uint64_t Key(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  static std::span<const NodeId> AdjacencySpan(const AdjIndex& adj,
                                               NodeId id) {
    const AdjList* list = adj.Find(id);
    return list == nullptr
               ? std::span<const NodeId>()
               : std::span<const NodeId>(list->data(), list->size());
  }

  void NoteErased() {
    ++erased_since_sweep_;
    if (erased_since_sweep_ >= kCompactMinErasures &&
        erased_since_sweep_ > credit_.size()) {
      SweepStaleAdjacency();
    }
  }

  // Compacts every registered big list (drops ids whose entry is gone).
  void SweepStaleAdjacency() {
    for (AdjIndex* adj : {&forward_, &backward_}) {
      const bool forward = adj == &forward_;
      std::size_t kept = 0;
      for (const auto& [owner, slot] : adj->big) {
        AdjList& list = adj->pool[slot];
        list.RemoveIf([&](NodeId other) {
          return !credit_.Contains(forward ? Key(owner, other)
                                           : Key(other, owner));
        });
        if (list.size() >= kCompactMinListSize) adj->big[kept++] = {owner, slot};
      }
      adj->big.resize(kept);
    }
    erased_since_sweep_ = 0;
  }

  FlatHashMap<std::uint64_t, double> credit_;
  AdjIndex forward_;
  AdjIndex backward_;
  std::uint64_t erased_since_sweep_ = 0;
};

/// One CreditTable per action plus SC[x][a] = Gamma_{S,x}(a), sharded by
/// key hash across kScShards flat maps.
class CreditStore {
 public:
  CreditStore() = default;
  explicit CreditStore(ActionId num_actions) : tables_(num_actions) {}

  ActionId num_actions() const {
    return static_cast<ActionId>(tables_.size());
  }
  CreditTable& table(ActionId a) { return tables_[a]; }
  const CreditTable& table(ActionId a) const { return tables_[a]; }

  double SetCredit(NodeId x, ActionId a) const {
    const std::uint64_t key = Key(x, a);
    const double* credit = sc_[ShardOf(key)].Find(key);
    return credit == nullptr ? 0.0 : *credit;
  }
  void AddSetCredit(NodeId x, ActionId a, double delta) {
    const std::uint64_t key = Key(x, a);
    *sc_[ShardOf(key)].TryEmplace(key).first += delta;
  }

  std::uint64_t total_entries() const {
    std::uint64_t total = 0;
    for (const CreditTable& t : tables_) total += t.num_entries();
    return total;
  }

  std::uint64_t ApproxMemoryBytes() const {
    std::uint64_t bytes = 0;
    for (const auto& shard : sc_) bytes += shard.ApproxMemoryBytes();
    for (const CreditTable& t : tables_) bytes += t.ApproxMemoryBytes();
    return bytes;
  }

  static constexpr std::size_t kScShards = 16;

 private:
  static std::uint64_t Key(NodeId x, ActionId a) {
    return (static_cast<std::uint64_t>(x) << 32) | a;
  }
  static std::size_t ShardOf(std::uint64_t key) {
    return HashMix64(key) >> 60;  // top bits: the maps mask the low ones
  }

  std::vector<CreditTable> tables_;
  std::array<FlatHashMap<std::uint64_t, double>, kScShards> sc_;
};

/// Algorithms 3-5 on the hash-table store, serial throughout.
class CdModel {
 public:
  /// Scans every action with the library's Algorithm 2 and copies the
  /// credits into the reference tables in first-touch order.
  CdModel(const Graph& graph, const ActionLog& log,
          const DirectCreditModel& credit_model, double lambda)
      : graph_(&graph),
        log_(&log),
        lambda_(lambda),
        store_(log.num_actions()),
        is_seed_(log.num_users(), 0) {
    std::vector<CreditEntry> scratch;
    for (ActionId a = 0; a < log.num_actions(); ++a) {
      const auto trace = log.ActionTrace(a);
      ActionCreditTable scanned;
      ScanDagRange(BuildPropagationDag(graph, trace), credit_model, lambda,
                   /*begin_pos=*/0, &scanned, &scratch);
      for (const ActionTuple& t : trace) {
        for (const ActionCreditTable::Link& link :
             scanned.CreditedUsers(t.user)) {
          store_.table(a).AddCredit(t.user, link.node,
                                    scanned.Credit(t.user, link.node));
        }
      }
    }
  }

  const CreditStore& store() const { return store_; }
  const ActionLog& log() const { return *log_; }
  const std::vector<NodeId>& committed_seeds() const { return seeds_; }

  /// Theorem 3: sum_a (1 - SC(x, a)) * (1/A_x + sum_u credit / A_u), in
  /// the same fixed point as the library (core/fixed_gain.h).
  double MarginalGain(NodeId x) const {
    if (x >= log_->num_users() || is_seed_[x]) return 0.0;
    const std::uint32_t ax = log_->ActionsPerformedBy(x);
    if (ax == 0) return 0.0;
    const FixedGain inv_ax = ToFixed(1.0 / ax);
    GainAccum mg = 0;
    for (const UserAction& ua : log_->UserActions(x)) {
      const CreditTable& table = store_.table(ua.action);
      GainAccum mga = inv_ax;
      for (NodeId u : table.CreditedUsers(x)) {
        const double credit = table.Credit(x, u);
        if (credit > 0.0) {
          mga += ToFixed(credit / log_->ActionsPerformedBy(u));
        }
      }
      mg += SlotTerm(mga, store_.SetCredit(x, ua.action));
    }
    return FromFixed(mg);
  }

  /// Algorithm 5 for every action x performed: fold x's credit into SC
  /// (Lemma 3), subtract the through-x paths from every (v, u) pair
  /// (Lemma 2), then drop x's row and column. No-op for a seed.
  void CommitSeed(NodeId x) {
    if (x >= log_->num_users() || is_seed_[x]) return;
    std::vector<CreditEntry> credited;
    std::vector<CreditEntry> creditors;
    for (const UserAction& ua : log_->UserActions(x)) {
      CreditTable& table = store_.table(ua.action);
      const double sc_x = store_.SetCredit(x, ua.action);
      credited.clear();
      creditors.clear();
      table.SnapshotCredited(x, &credited);
      table.SnapshotCreditors(x, &creditors);
      for (const CreditEntry& cu : credited) {
        for (const CreditEntry& cv : creditors) {
          table.SubtractCredit(cv.node, cu.node, cv.credit * cu.credit);
        }
        store_.AddSetCredit(cu.node, ua.action, cu.credit * (1.0 - sc_x));
      }
      for (const CreditEntry& cu : credited) table.Erase(x, cu.node);
      for (const CreditEntry& cv : creditors) table.Erase(cv.node, x);
    }
    is_seed_[x] = 1;
    seeds_.push_back(x);
  }

  /// Greedy + CELF (Algorithm 3) through the shared RunCelfTopK, one worker.
  CreditDistributionModel::SeedSelection SelectSeeds(NodeId k) {
    CreditDistributionModel::SeedSelection selection;
    CelfScratch scratch;
    RunCelfTopK(
        k, std::numeric_limits<double>::infinity(), /*num_workers=*/1,
        log_->num_users(),
        [this](NodeId x) { return log_->ActionsPerformedBy(x) != 0; },
        [this](std::span<const NodeId> nodes, double* gains) {
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            gains[i] = MarginalGain(nodes[i]);
          }
        },
        [this](NodeId x) { CommitSeed(x); }, &scratch, &selection);
    return selection;
  }

  /// The store flattened into a snapshot image: participants in trace
  /// order, forward lists in adjacency order with stale ids dropped,
  /// backward lists sorted by creditor, each backward record pointing at
  /// its pair's forward entry through a hash map.
  SnapshotData ToSnapshotData() const {
    SnapshotData data;
    InitSnapshotSlots(*log_, &data);
    data.truncation_threshold = lambda_;
    data.graph_fingerprint = FingerprintGraph(*graph_);
    data.log_fingerprint = FingerprintActionLog(*log_);
    for (NodeId u = 0; u < log_->num_users(); ++u) {
      std::uint64_t s = data.user_offsets[u];
      for (const UserAction& ua : log_->UserActions(u)) {
        data.slot_sc[s++] = store_.SetCredit(u, ua.action);
      }
    }
    for (ActionId a = 0; a < log_->num_actions(); ++a) {
      const auto trace = log_->ActionTrace(a);
      const CreditTable& table = store_.table(a);
      data.action_entry_begin[a] = data.fwd_node.size();
      data.action_size[a] = static_cast<std::uint32_t>(trace.size());
      data.action_trace_hash[a] = HashActionTrace(trace);
      FlatHashMap<std::uint64_t, std::uint64_t> entry_of;
      for (const ActionTuple& t : trace) {
        const std::uint64_t s = data.SlotOf(t.user, a);
        data.fwd_begin[s] = data.fwd_node.size();
        std::uint32_t count = 0;
        for (NodeId u : table.CreditedUsers(t.user)) {
          const double credit = table.Credit(t.user, u);
          if (credit > 0.0) {
            *entry_of.TryEmplace(PairKey(t.user, u)).first =
                data.fwd_node.size();
            data.fwd_node.push_back(u);
            data.fwd_credit.push_back(credit);
            ++count;
          }
        }
        data.fwd_count[s] = count;
      }
      std::vector<NodeId> creditors;
      for (const ActionTuple& t : trace) {
        const std::uint64_t s = data.SlotOf(t.user, a);
        creditors.clear();
        for (NodeId w : table.Creditors(t.user)) {
          if (table.Credit(w, t.user) > 0.0) creditors.push_back(w);
        }
        std::sort(creditors.begin(), creditors.end());
        data.bwd_begin[s] = data.bwd_node.size();
        data.bwd_count[s] = static_cast<std::uint32_t>(creditors.size());
        for (NodeId w : creditors) {
          data.bwd_node.push_back(w);
          data.bwd_entry.push_back(*entry_of.Find(PairKey(w, t.user)));
        }
      }
    }
    data.action_entry_begin[log_->num_actions()] = data.fwd_node.size();
    data.seeds = seeds_;
    return data;
  }

 private:
  static std::uint64_t PairKey(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  const Graph* graph_;
  const ActionLog* log_;
  double lambda_;
  CreditStore store_;
  std::vector<std::uint8_t> is_seed_;
  std::vector<NodeId> seeds_;
};

/// Gamma_{v,u}(a) as a snapshot image holds it: 0 when v did not perform
/// a or does not credit u.
inline double CreditIn(const SnapshotData& data, ActionId a, NodeId v,
                       NodeId u) {
  const auto first = data.slot_action.begin() + data.user_offsets[v];
  const auto last = data.slot_action.begin() + data.user_offsets[v + 1];
  const auto it = std::lower_bound(first, last, a);
  if (it == last || *it != a) return 0.0;
  const auto s = static_cast<std::uint64_t>(it - data.slot_action.begin());
  for (std::uint64_t e = data.fwd_begin[s];
       e < data.fwd_begin[s] + data.fwd_count[s]; ++e) {
    if (data.fwd_node[e] == u) return data.fwd_credit[e];
  }
  return 0.0;
}

}  // namespace reference
}  // namespace influmax

#endif  // INFLUMAX_TESTS_REFERENCE_CD_H_
