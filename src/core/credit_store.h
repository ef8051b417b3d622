#ifndef INFLUMAX_CORE_CREDIT_STORE_H_
#define INFLUMAX_CORE_CREDIT_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "common/small_vector.h"
#include "common/types.h"

namespace influmax {

/// A (node, credit) pair produced by snapshotting an adjacency list; the
/// scan iterates these instead of holding spans into a table it is adding
/// to.
struct CreditEntry {
  NodeId node;
  double credit;
};

/// Sparse per-action credit matrix: UC[v][u][a] of Algorithm 2, for one
/// action a, while the scan builds it. Keys are user ids. Each (v, u)
/// pair owns one entry — its credit, in a dense array in first-touch
/// order — found through a flat hash index, and both endpoints' adjacency
/// lists (v -> credited users, u -> creditors) link to it by entry id,
/// so walking a list reads credits without hashing: the scan reads
/// creditor lists, and the freeze (serve/snapshot_writer.h) walks
/// forward lists in first-touch order. The table is scan-time scratch
/// only: once an action is scanned it is frozen into the snapshot
/// layout, which is what Algorithm 5 updates (serve/query_engine.h),
/// and the table is dropped.
///
/// Span validity: spans returned by CreditedUsers()/Creditors() are
/// invalidated by AddCredit. Use SnapshotCreditors() when adding while
/// iterating.
class ActionCreditTable {
 public:
  /// One adjacency-list element: the pair's other user, and the entry
  /// holding the pair's credit.
  struct Link {
    NodeId node;
    std::uint32_t entry;
  };

  /// Gamma credit from v to u, or 0 when absent.
  double Credit(NodeId v, NodeId u) const {
    const std::uint32_t* entry = index_.Find(Key(v, u));
    return entry == nullptr ? 0.0 : credits_[*entry];
  }

  /// Credit of an entry a Link names.
  double credit(std::uint32_t entry) const { return credits_[entry]; }

  /// Adds `delta` (> 0) to the (v, u) credit, creating the entry and
  /// adjacency on first touch.
  void AddCredit(NodeId v, NodeId u, double delta) {
    auto [entry, inserted] = index_.TryEmplace(Key(v, u));
    if (inserted) {
      const auto id = static_cast<std::uint32_t>(credits_.size());
      *entry = id;
      credits_.push_back(delta);
      forward_.Append(v, {u, id});
      backward_.Append(u, {v, id});
    } else {
      credits_[*entry] += delta;
    }
  }

  /// Users that v credits, in first-touch order.
  std::span<const Link> CreditedUsers(NodeId v) const {
    return AdjacencySpan(forward_, v);
  }

  /// Users crediting u, in first-touch order.
  std::span<const Link> Creditors(NodeId u) const {
    return AdjacencySpan(backward_, u);
  }

  /// Appends the (w, Credit(w, u)) entries of u's backward list to
  /// `*out` (not cleared first). Safe to add credits afterwards.
  void SnapshotCreditors(NodeId u, std::vector<CreditEntry>* out) const {
    for (const Link& link : Creditors(u)) {
      out->push_back({link.node, credits_[link.entry]});
    }
  }

  /// Credit entries.
  std::size_t num_entries() const { return credits_.size(); }

  /// Approximate heap bytes (index, credits, adjacency lists).
  std::uint64_t ApproxMemoryBytes() const;

 private:
  using AdjList = SmallVector<Link, 2>;

  // node id -> adjacency list, as a flat index over a dense pool: the
  // hash slots stay tiny (8 bytes + 1 metadata byte) while the lists
  // themselves pack contiguously, one pool entry per *present* node
  // instead of one padded hash slot per table slot.
  struct AdjIndex {
    FlatHashMap<NodeId, std::uint32_t> index;
    std::vector<AdjList> pool;

    const AdjList* Find(NodeId id) const {
      const std::uint32_t* slot = index.Find(id);
      return slot == nullptr ? nullptr : &pool[*slot];
    }
    void Append(NodeId owner, Link link) {
      auto [slot, inserted] = index.TryEmplace(owner);
      if (inserted) {
        *slot = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
      }
      pool[*slot].push_back(link);
    }
    std::uint64_t ApproxMemoryBytes() const {
      std::uint64_t bytes =
          index.ApproxMemoryBytes() + pool.capacity() * sizeof(AdjList);
      for (const AdjList& list : pool) bytes += list.HeapBytes();
      return bytes;
    }
  };

  static std::uint64_t Key(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  static std::span<const Link> AdjacencySpan(const AdjIndex& adj,
                                             NodeId id) {
    const AdjList* list = adj.Find(id);
    return list == nullptr
               ? std::span<const Link>()
               : std::span<const Link>(list->data(), list->size());
  }

  FlatHashMap<std::uint64_t, std::uint32_t> index_;  // (v, u) -> entry
  std::vector<double> credits_;                       // entry -> credit
  AdjIndex forward_;
  AdjIndex backward_;
};

}  // namespace influmax

#endif  // INFLUMAX_CORE_CREDIT_STORE_H_
