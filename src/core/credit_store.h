#ifndef INFLUMAX_CORE_CREDIT_STORE_H_
#define INFLUMAX_CORE_CREDIT_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

/// Append-only arena of CreditEntry rows with *stable addresses*: memory
/// comes in geometrically growing chunks that never move or shrink while
/// rows are open, so a finished row stays readable from other threads
/// while this arena keeps growing — the property the wavefront scan's
/// cross-level reads depend on (a worker at level L reads rows that
/// workers finished at levels < L while appending its own).
///
/// Exactly one row is open at a time. The open row is contiguous: when it
/// outgrows the current chunk it is copied to the front of a larger fresh
/// chunk (the stale partial copy is abandoned; geometric chunk growth
/// bounds the total waste by one chunk). Finished rows never move.
class RowArena {
 public:
  /// Starts a new row at the current cursor.
  void OpenRow() {
    if (chunks_.empty()) AddChunk(kMinChunkEntries);
    row_begin_ = cursor_;
  }

  /// Appends one entry to the open row.
  void Push(CreditEntry entry) {
    if (cursor_ == chunk_end_) Spill();
    *cursor_++ = entry;
  }

  /// The open row's entry at `index` (for in-place accumulation).
  CreditEntry& At(std::uint32_t index) { return row_begin_[index]; }

  /// Entries appended to the open row so far.
  std::uint32_t RowSize() const {
    return static_cast<std::uint32_t>(cursor_ - row_begin_);
  }

  /// Closes the open row and returns its stable span.
  std::span<const CreditEntry> FinishRow() {
    std::span<const CreditEntry> row(row_begin_, cursor_);
    row_begin_ = cursor_;
    return row;
  }

  /// Drops every row but keeps the single largest chunk, so steady-state
  /// reuse (across actions, or across Build() calls via ScanArenaPool)
  /// stops allocating once the high-water chunk is big enough.
  void Reset();

 private:
  static constexpr std::size_t kMinChunkEntries = 1024;

  void AddChunk(std::size_t entries);
  void Spill();  // moves the open row to the front of a larger chunk

  std::vector<std::pair<std::unique_ptr<CreditEntry[]>, std::size_t>>
      chunks_;  // (storage, capacity)
  CreditEntry* row_begin_ = nullptr;
  CreditEntry* cursor_ = nullptr;
  CreditEntry* chunk_end_ = nullptr;
};

/// Reusable per-thread scratch for the Algorithm 2 scan: each worker
/// snapshots creditor lists into its own arena, and the wavefront merge
/// builds its per-row sub-tables here — so no path holds a span into a
/// table it is mutating, and none allocates in steady state.
struct ScanArena {
  std::vector<CreditEntry> creditors;

  // Wavefront merge (ScanDagRangeSharded phase B): this worker's per-row
  // sub-tables, and the creditor-id -> row-slot index of the row under
  // construction. The index value packs (row epoch << 32 | slot): a
  // stale epoch reads as "absent", so switching rows is one counter
  // bump instead of an O(capacity) Clear() — the map is only cleared
  // (and the epoch reset) once per sharded scan.
  RowArena rows;
  FlatHashMap<NodeId, std::uint64_t> row_index;
  std::uint32_t row_epoch = 0;
};

/// A contiguous slice of one worker's arena: which worker produced it,
/// where it starts, and how long it is. The build records one per action
/// as it freezes the action into its worker's entry pools, so the
/// gather can lay the slices out in action order.
struct ArenaSlice {
  std::uint32_t worker = 0;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};

/// Pool of scan arenas that survives across Build() calls so
/// back-to-back scans (multi-dataset batching: bench_table4's
/// one-Build-per-lambda loop, dataset presets sharing a graph) reuse the
/// arena allocations instead of re-growing them from zero each time. Not
/// thread-safe: one Build() borrows the pool at a time.
class ScanArenaPool {
 public:
  /// Moves `n` arenas out of the pool (default-constructing any the pool
  /// does not hold yet). Buffer capacities survive the moves; arenas the
  /// pool holds beyond `n` stay pooled for a wider later Build().
  std::vector<ScanArena> Acquire(std::size_t n) {
    std::vector<ScanArena> out;
    out.reserve(n);
    while (out.size() < n && !arenas_.empty()) {
      out.push_back(std::move(arenas_.back()));
      arenas_.pop_back();
    }
    out.resize(n);
    return out;
  }

  /// Returns arenas to the pool for the next Build().
  void Release(std::vector<ScanArena> arenas) {
    for (ScanArena& arena : arenas) arenas_.push_back(std::move(arena));
  }

  std::size_t size() const { return arenas_.size(); }

 private:
  std::vector<ScanArena> arenas_;
};

}  // namespace influmax

#endif  // INFLUMAX_CORE_CREDIT_STORE_H_
