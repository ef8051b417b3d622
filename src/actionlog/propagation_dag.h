#ifndef INFLUMAX_ACTIONLOG_PROPAGATION_DAG_H_
#define INFLUMAX_ACTIONLOG_PROPAGATION_DAG_H_

#include <span>
#include <vector>

#include "actionlog/action_log.h"
#include "common/types.h"
#include "graph/graph.h"

namespace influmax {

/// The propagation graph G(a) of one action (Section 4, "Data Model"):
/// nodes are the users who performed the action; there is an edge
/// (v -> u) iff (v, u) is a social edge and t(v, a) < t(u, a) strictly.
/// G(a) is always a DAG (the time constraint forbids cycles); positions
/// 0..size-1 below are a topological order (chronological order of the
/// trace, ties broken by user id).
///
/// Only *parent* (incoming) adjacency is materialized: every consumer in
/// the paper — credit DP (Eq. 5), EM responsibilities, initiator tests —
/// walks parents in topological order.
class PropagationDag {
 public:
  /// Number of participants |V(a)|.
  NodeId size() const { return static_cast<NodeId>(users_.size()); }

  /// User at topological position `pos`.
  NodeId UserAt(NodeId pos) const { return users_[pos]; }

  /// Activation time at position `pos`.
  Timestamp TimeAt(NodeId pos) const { return times_[pos]; }

  /// Positions of the parents of position `pos` — N_in(u, a) of the paper.
  std::span<const NodeId> Parents(NodeId pos) const {
    return {parents_.data() + parent_offsets_[pos],
            parents_.data() + parent_offsets_[pos + 1]};
  }

  /// Out-edge indexes (into the social graph) of the parent edges of
  /// `pos`, aligned with Parents(pos). Lets consumers look up per-edge
  /// learned parameters (EM probabilities, tau delays) without a search.
  std::span<const EdgeIndex> ParentEdges(NodeId pos) const {
    return {parent_edges_.data() + parent_offsets_[pos],
            parent_edges_.data() + parent_offsets_[pos + 1]};
  }

  /// d_in(u, a): number of potential influencers of the user at `pos`.
  std::uint32_t InDegree(NodeId pos) const {
    return static_cast<std::uint32_t>(parent_offsets_[pos + 1] -
                                      parent_offsets_[pos]);
  }

  /// True iff position `pos` is an initiator (no parents).
  bool IsInitiator(NodeId pos) const { return InDegree(pos) == 0; }

  /// User ids of all initiators, in chronological order. These are the
  /// ground-truth seed sets of the spread-prediction experiments.
  std::vector<NodeId> InitiatorUsers() const;

  /// Position of `user` in this DAG, or kInvalidNode if absent. O(size).
  NodeId PositionOf(NodeId user) const;

  /// Total number of parent edges |E(a)|.
  std::size_t num_edges() const { return parents_.size(); }

 private:
  friend PropagationDag BuildPropagationDag(const Graph& g,
                                            std::span<const ActionTuple>
                                                trace);

  std::vector<NodeId> users_;
  std::vector<Timestamp> times_;
  std::vector<std::uint32_t> parent_offsets_;  // size+1
  std::vector<NodeId> parents_;                // positions, ascending
  std::vector<EdgeIndex> parent_edges_;        // aligned with parents_
};

/// Builds G(a) from a chronological trace (as returned by
/// ActionLog::ActionTrace). Tuples with equal timestamps are treated as
/// simultaneous: neither can be the other's parent.
PropagationDag BuildPropagationDag(const Graph& g,
                                   std::span<const ActionTuple> trace);

}  // namespace influmax

#endif  // INFLUMAX_ACTIONLOG_PROPAGATION_DAG_H_
