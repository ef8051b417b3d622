#include "actionlog/propagation_dag.h"

#include <algorithm>

#include "common/flat_hash.h"

namespace influmax {

std::vector<NodeId> PropagationDag::InitiatorUsers() const {
  std::vector<NodeId> out;
  for (NodeId pos = 0; pos < size(); ++pos) {
    if (IsInitiator(pos)) out.push_back(users_[pos]);
  }
  return out;
}

NodeId PropagationDag::PositionOf(NodeId user) const {
  for (NodeId pos = 0; pos < size(); ++pos) {
    if (users_[pos] == user) return pos;
  }
  return kInvalidNode;
}

PropagationDag BuildPropagationDag(const Graph& g,
                                   std::span<const ActionTuple> trace) {
  PropagationDag dag;
  const NodeId n = static_cast<NodeId>(trace.size());
  dag.users_.reserve(n);
  dag.times_.reserve(n);
  dag.parent_offsets_.reserve(n + 1);
  dag.parent_offsets_.push_back(0);

  // Position of each user activated strictly before the current timestamp
  // group. Users in the current group are staged and committed when the
  // timestamp advances, so simultaneous activations never parent each
  // other.
  FlatHashMap<NodeId, NodeId> activated;
  activated.Reserve(n);
  std::size_t group_begin = 0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0 && trace[i].time != trace[i - 1].time) {
      for (std::size_t j = group_begin; j < i; ++j) {
        auto [pos, inserted] = activated.TryEmplace(trace[j].user);
        if (inserted) *pos = static_cast<NodeId>(j);
      }
      group_begin = i;
    }
    const NodeId u = trace[i].user;
    dag.users_.push_back(u);
    dag.times_.push_back(trace[i].time);
    // Parents: in-neighbors of u in the social graph that are already
    // committed (strictly earlier time). InNeighbors is sorted by source
    // user id; we keep parent order sorted by *position* so the DP loops
    // read memory forward.
    const std::size_t before = dag.parents_.size();
    const EdgeIndex in_base = g.InEdgeBegin(u);
    const auto in_neighbors = g.InNeighbors(u);
    for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
      const NodeId* pos = activated.Find(in_neighbors[j]);
      if (pos != nullptr) {
        dag.parents_.push_back(*pos);
        dag.parent_edges_.push_back(g.InPosToOutEdge(in_base + j));
      }
    }
    // Joint sort of (parents, parent_edges) by parent position.
    const std::size_t added = dag.parents_.size() - before;
    if (added > 1) {
      std::vector<std::pair<NodeId, EdgeIndex>> pairs(added);
      for (std::size_t j = 0; j < added; ++j) {
        pairs[j] = {dag.parents_[before + j], dag.parent_edges_[before + j]};
      }
      std::sort(pairs.begin(), pairs.end());
      for (std::size_t j = 0; j < added; ++j) {
        dag.parents_[before + j] = pairs[j].first;
        dag.parent_edges_[before + j] = pairs[j].second;
      }
    }
    dag.parent_offsets_.push_back(
        static_cast<std::uint32_t>(dag.parents_.size()));
  }
  return dag;
}

}  // namespace influmax
