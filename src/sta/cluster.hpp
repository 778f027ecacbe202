// Combinational clusters (paper Section 7): "a maximal connected network of
// combinational logic elements.  All inputs to a cluster are synchronising
// element outputs and all outputs from a cluster are synchronising element
// inputs."
//
// Since the timing graph contains no arcs through synchronising elements,
// clusters are exactly the connected components of the timing graph's arc
// set.  Boundary pins (latch D/Q pins, ports, enable-path control pins)
// belong to the cluster their arcs touch.
//
// Each cluster carries a *local* CSR adjacency over its own node list:
// arc endpoints are pre-translated to cluster-local indices, so the pass
// kernels (sta/analysis_pass) sweep flat arrays with no global-id lookups.
// Because `nodes` follows the graph's level-ordered topological order, every
// internal arc goes from a lower local index to a higher one — ascending
// local index IS forward topological (wavefront) order.
#pragma once

#include <vector>

#include "sta/sync_model.hpp"
#include "sta/timing_graph.hpp"

namespace hb {

struct Cluster {
  /// Member nodes in global topological order (level-monotone; see
  /// TimingGraph::topo_order).
  std::vector<TNodeId> nodes;
  /// Arc indices internal to the cluster.
  std::vector<std::uint32_t> arcs;
  /// Member nodes carrying launch instances (cluster inputs) and capture
  /// instances (cluster outputs).
  std::vector<TNodeId> source_nodes;
  std::vector<TNodeId> sink_nodes;

  // -- Local CSR adjacency (indices into `nodes`) -------------------------
  // Slices follow the graph CSR's deterministic (endpoint, arc-id) order.
  std::vector<std::uint32_t> out_offsets;  // [nodes.size() + 1]
  std::vector<std::uint32_t> out_arc;      // global arc index
  std::vector<std::uint32_t> out_local;    // local index of the arc's head
  std::vector<std::uint32_t> in_offsets;   // [nodes.size() + 1]
  std::vector<std::uint32_t> in_arc;
  std::vector<std::uint32_t> in_local;     // local index of the arc's tail
  /// Per local index: the node's role blocks combinational propagation
  /// (kSyncDataIn / kSyncControl).
  std::vector<char> blocked;
};

class ClusterSet {
 public:
  ClusterSet(const TimingGraph& graph, const SyncModel& sync);

  std::size_t num_clusters() const { return clusters_.size(); }
  const Cluster& cluster(ClusterId id) const { return clusters_.at(id.index()); }
  /// Cluster containing a node; invalid for isolated nodes.
  ClusterId cluster_of(TNodeId node) const { return of_node_.at(node.index()); }

 private:
  std::vector<Cluster> clusters_;
  std::vector<ClusterId> of_node_;
};

}  // namespace hb
