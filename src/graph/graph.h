#ifndef INFLUMAX_GRAPH_GRAPH_H_
#define INFLUMAX_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace influmax {

/// Immutable directed graph in compressed sparse row form, storing both
/// out- and in-adjacency. Nodes are dense 0..n-1. Edges carry no payload;
/// influence probabilities / weights live in parallel arrays indexed by
/// *out-edge index* (see EdgeProbabilities in src/propagation/).
///
/// The social graphs of the paper are directed: an edge (v, u) means v can
/// influence u (u "follows" v). Reciprocal ties are simply two edges.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes n.
  NodeId num_nodes() const { return static_cast<NodeId>(out_offsets_.empty()
                                     ? 0
                                     : out_offsets_.size() - 1); }

  /// Number of directed edges.
  EdgeIndex num_edges() const { return out_targets_.size(); }

  /// Average out-degree (== average in-degree).
  double average_degree() const {
    return num_nodes() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_nodes();
  }

  /// Successors of u (nodes u points to), sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// Predecessors of u (nodes pointing to u), sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId u) const {
    return {in_sources_.data() + in_offsets_[u],
            in_sources_.data() + in_offsets_[u + 1]};
  }

  std::uint32_t OutDegree(NodeId u) const {
    return static_cast<std::uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  std::uint32_t InDegree(NodeId u) const {
    return static_cast<std::uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
  }

  /// First out-edge index of u; out-edge e of u targets
  /// `out_targets()[OutEdgeBegin(u) + e]`.
  EdgeIndex OutEdgeBegin(NodeId u) const { return out_offsets_[u]; }

  /// First in-edge position of u in the in-CSR arrays.
  EdgeIndex InEdgeBegin(NodeId u) const { return in_offsets_[u]; }

  /// For in-CSR position `pos` (as produced by InEdgeBegin + offset),
  /// returns the out-edge index of the same directed edge, so per-edge
  /// arrays indexed by out-edge index can be read while iterating
  /// predecessors.
  EdgeIndex InPosToOutEdge(EdgeIndex pos) const {
    return in_to_out_edge_[pos];
  }

  /// Returns the out-edge index of edge (u, v), or num_edges() if absent.
  /// Binary search over the sorted out-neighbor list: O(log deg(u)).
  EdgeIndex FindOutEdge(NodeId u, NodeId v) const;

  /// True iff the directed edge (u, v) exists.
  bool HasEdge(NodeId u, NodeId v) const {
    return FindOutEdge(u, v) != num_edges();
  }

  /// Flat access to the CSR arrays (used by performance-sensitive loops).
  const std::vector<NodeId>& out_targets() const { return out_targets_; }

  /// Returns the transpose graph (every edge reversed).
  Graph Transposed() const;

  /// Approximate heap footprint in bytes (CSR arrays only).
  std::uint64_t MemoryBytes() const;

 private:
  friend class GraphBuilder;

  std::vector<EdgeIndex> out_offsets_;  // size n+1
  std::vector<NodeId> out_targets_;     // size m, sorted per node
  std::vector<EdgeIndex> in_offsets_;   // size n+1
  std::vector<NodeId> in_sources_;      // size m, sorted per node
  std::vector<EdgeIndex> in_to_out_edge_;  // size m
};

/// Accumulates an edge list and freezes it into a Graph. Self-loops and
/// duplicate edges are dropped (the propagation models have no use for
/// either). Thread-compatible, not thread-safe.
class GraphBuilder {
 public:
  /// Creates a builder for a graph with exactly `num_nodes` nodes.
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Queues the directed edge (from, to). Out-of-range endpoints are
  /// reported at Build() time.
  void AddEdge(NodeId from, NodeId to) { edges_.emplace_back(from, to); }

  /// Queues both (a, b) and (b, a).
  void AddReciprocalEdge(NodeId a, NodeId b) {
    AddEdge(a, b);
    AddEdge(b, a);
  }

  /// Sorts, deduplicates, validates, and produces the immutable Graph.
  /// The builder is left empty and reusable.
  Result<Graph> Build();

 private:
  NodeId num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Summary statistics used for Table 1 of the paper.
struct GraphStats {
  NodeId num_nodes = 0;
  EdgeIndex num_edges = 0;
  double average_degree = 0.0;
  std::uint32_t max_out_degree = 0;
  std::uint32_t max_in_degree = 0;
  NodeId isolated_nodes = 0;  // neither in- nor out-edges
};

/// Computes summary statistics of `g` in one pass.
GraphStats ComputeGraphStats(const Graph& g);

}  // namespace influmax

#endif  // INFLUMAX_GRAPH_GRAPH_H_
