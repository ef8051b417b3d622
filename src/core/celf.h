#ifndef INFLUMAX_CORE_CELF_H_
#define INFLUMAX_CORE_CELF_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace influmax {

/// Max-heap entry of Algorithm 3's lazy-forward queue. The order is
/// total — gain first, then smaller node id — so the pop sequence (and
/// therefore every selection built on it) is deterministic regardless
/// of heap internals.
struct CelfQueueEntry {
  double gain;
  NodeId node;
  NodeId iteration;
  bool operator<(const CelfQueueEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;  // deterministic tie-break: smaller id wins
  }
};

/// Stale heap tops speculatively re-evaluated per worker in one CELF
/// batch. Larger batches expose more parallelism but waste more work
/// when a commit lands before the memoized gains are consumed.
inline constexpr std::size_t kCelfBatchPerWorker = 4;

/// Caller-owned workspaces of RunCelfTopK, reused across calls so
/// steady-state queries do not allocate. Needs no initialization:
/// RunCelfTopK sizes and clears what it reads.
struct CelfScratch {
  std::vector<CelfQueueEntry> heap;
  std::vector<CelfQueueEntry> batch;   // stale tops of one memo batch
  std::vector<NodeId> nodes;           // nodes of one batched gain call
  std::vector<double> gains;           // their gains
  std::vector<double> memo_gain;       // [U] speculative gains
  std::vector<std::uint64_t> memo_stamp;  // [U] |S| + 1 they are valid at

  std::uint64_t ApproxMemoryBytes() const {
    return heap.capacity() * sizeof(CelfQueueEntry) +
           batch.capacity() * sizeof(CelfQueueEntry) +
           nodes.capacity() * sizeof(NodeId) +
           gains.capacity() * sizeof(double) +
           memo_gain.capacity() * sizeof(double) +
           memo_stamp.capacity() * sizeof(std::uint64_t);
  }
};

/// What RunCelfTopK fills; also named CreditDistributionModel::
/// SeedSelection and SnapshotSeedSelection.
struct SeedSelection {
  std::vector<NodeId> seeds;              // in pick order
  std::vector<double> marginal_gains;     // gain of each pick
  std::vector<double> cumulative_spread;  // sigma_cd of each prefix
  std::uint64_t gain_evaluations = 0;     // CELF computeMG calls
};

/// Algorithm 3's greedy + CELF lazy-forward top-k. Its one library
/// caller is QueryFront::TopKSeeds, which serves snapshots and runs the
/// live model's SelectSeeds alike; the test reference
/// (tests/reference_cd.h) replays it over the hash-table Algorithm 5.
///
/// The initial pass asks `gains_of` for every active candidate's gain in
/// one batch (is_active(x) for x in [0, num_users)); the heap is built
/// from the answers in node order — the serial push sequence — with one
/// counted evaluation each. Queue entries carry the iteration (|S|
/// value) their gain was computed at; by submodularity a stale gain is
/// an upper bound, so an entry that stays on top after recomputation is
/// the true argmax.
///
/// Stale re-evaluations are batched when `num_workers` > 1: the run of
/// consecutive stale tops goes to `gains_of` in one call against the
/// current S and is parked in a memo stamped |S| + 1; the greedy then
/// consumes memoized gains one pop at a time, each counted as one
/// evaluation exactly when the serial loop would have computed it. A
/// commit bumps |S| and thereby invalidates the memo, so speculative
/// values are only ever consumed against the seed set they were computed
/// for, and unconsumed ones are never counted — seeds, gains, and
/// evaluation counts are bit-identical to the serial greedy for any
/// worker count (docs/parallelism.md). With one worker every stale top
/// is re-evaluated alone, as a one-node `gains_of` call.
///
/// `gains_of(std::span<const NodeId> nodes, double* gains)` writes the
/// gain of every node against the current seed set; it may fan the
/// batch out over `num_workers` workers. `commit(x)` adds x to the seed
/// set; it never runs while a gain call is in flight. Picks are appended
/// to `selection` and evaluations added to it.
template <typename ActiveFn, typename GainsFn, typename CommitFn>
void RunCelfTopK(NodeId k, double spread_budget, std::size_t num_workers,
                 NodeId num_users, const ActiveFn& is_active,
                 const GainsFn& gains_of, const CommitFn& commit,
                 CelfScratch* scratch, SeedSelection* selection) {
  std::vector<CelfQueueEntry>& heap = scratch->heap;
  std::vector<NodeId>& nodes = scratch->nodes;
  std::vector<double>& gains = scratch->gains;
  heap.clear();
  nodes.clear();
  for (NodeId x = 0; x < num_users; ++x) {
    if (is_active(x)) nodes.push_back(x);  // an inactive gain is always 0
  }
  gains.resize(nodes.size());
  gains_of(std::span<const NodeId>(nodes), gains.data());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    heap.push_back({gains[i], nodes[i], 0});
  }
  selection->gain_evaluations += nodes.size();
  std::make_heap(heap.begin(), heap.end());

  const std::size_t workers = std::min<std::size_t>(
      num_workers == 0 ? 1 : num_workers, heap.empty() ? 1 : heap.size());
  std::vector<double>& memo_gain = scratch->memo_gain;
  std::vector<std::uint64_t>& memo_stamp = scratch->memo_stamp;
  if (workers > 1) {
    // Stamps encode |S| + 1, which restarts at 1 every call, so the
    // fill invalidates any previous run's speculation.
    memo_gain.resize(num_users);
    memo_stamp.assign(num_users, 0);
  }
  double spread = 0.0;
  while (selection->seeds.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    CelfQueueEntry top = heap.back();
    heap.pop_back();
    const NodeId current_size = static_cast<NodeId>(selection->seeds.size());
    const std::uint64_t stamp = static_cast<std::uint64_t>(current_size) + 1;
    if (top.iteration == current_size) {
      if (top.gain <= 0.0) break;  // nothing left to gain
      if (spread + top.gain > spread_budget) break;  // budget exhausted
      commit(top.node);
      spread += top.gain;
      selection->seeds.push_back(top.node);
      selection->marginal_gains.push_back(top.gain);
      selection->cumulative_spread.push_back(spread);
      continue;
    }
    if (workers > 1 && memo_stamp[top.node] != stamp) {
      // Drain the run of stale tops and re-evaluate the batch in one
      // call; everything below the top goes back unchanged, leaving the
      // heap exactly as the serial path would, with the speculative gains
      // parked in the memo.
      std::vector<CelfQueueEntry>& batch = scratch->batch;
      batch.clear();
      batch.push_back(top);
      const std::size_t budget = kCelfBatchPerWorker * workers;
      while (batch.size() < budget && !heap.empty() &&
             heap.front().iteration != current_size &&
             memo_stamp[heap.front().node] != stamp) {
        std::pop_heap(heap.begin(), heap.end());
        batch.push_back(heap.back());
        heap.pop_back();
      }
      nodes.clear();
      for (const CelfQueueEntry& e : batch) nodes.push_back(e.node);
      gains.resize(nodes.size());
      gains_of(std::span<const NodeId>(nodes), gains.data());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        memo_gain[nodes[i]] = gains[i];
        memo_stamp[nodes[i]] = stamp;
      }
      for (std::size_t i = 1; i < batch.size(); ++i) {
        heap.push_back(batch[i]);
        std::push_heap(heap.begin(), heap.end());
      }
    }
    if (workers > 1 && memo_stamp[top.node] == stamp) {
      top.gain = memo_gain[top.node];
    } else {
      gains_of(std::span<const NodeId>(&top.node, 1), &top.gain);
    }
    top.iteration = current_size;
    heap.push_back(top);
    std::push_heap(heap.begin(), heap.end());
    ++selection->gain_evaluations;
  }
}

}  // namespace influmax

#endif  // INFLUMAX_CORE_CELF_H_
