#include "sta/cluster.hpp"

#include <numeric>

namespace hb {
namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

ClusterSet::ClusterSet(const TimingGraph& graph, const SyncModel& sync) {
  UnionFind uf(graph.num_nodes());
  for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
    const TArcRec& arc = graph.arc(a);
    uf.unite(arc.from.value(), arc.to.value());
  }

  // Also place arc-less boundary instances (a latch output wired to nothing,
  // a port with no net) nowhere: only components containing at least one arc
  // become clusters.
  std::vector<ClusterId> root_to_cluster(graph.num_nodes(), ClusterId::invalid());
  of_node_.assign(graph.num_nodes(), ClusterId::invalid());

  for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
    const std::uint32_t root = uf.find(graph.arc(a).from.value());
    if (!root_to_cluster[root].valid()) {
      root_to_cluster[root] = ClusterId(static_cast<std::uint32_t>(clusters_.size()));
      clusters_.emplace_back();
    }
  }

  // Nodes in global topological order so per-cluster node lists stay sorted
  // topologically.
  for (TNodeId n : graph.topo_order()) {
    const std::uint32_t root = uf.find(n.value());
    const ClusterId c = root_to_cluster[root];
    if (!c.valid()) continue;
    clusters_[c.index()].nodes.push_back(n);
    of_node_[n.index()] = c;
  }
  for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
    const ClusterId c = of_node_[graph.arc(a).from.index()];
    clusters_[c.index()].arcs.push_back(static_cast<std::uint32_t>(a));
  }
  for (Cluster& cl : clusters_) {
    for (TNodeId n : cl.nodes) {
      if (!sync.launches_at(n).empty()) cl.source_nodes.push_back(n);
      if (!sync.captures_at(n).empty()) cl.sink_nodes.push_back(n);
    }
  }

  // Local CSR adjacency: every arc incident to a cluster node is internal to
  // the cluster (components are arc-closed), so per-node slices are exactly
  // the graph CSR slices with endpoints translated to local indices.
  std::vector<std::uint32_t> local(graph.num_nodes(), 0);
  for (Cluster& cl : clusters_) {
    const std::size_t n = cl.nodes.size();
    for (std::uint32_t i = 0; i < n; ++i) local[cl.nodes[i].index()] = i;
    cl.out_offsets.assign(n + 1, 0);
    cl.in_offsets.assign(n + 1, 0);
    cl.blocked.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const TNodeId node = cl.nodes[i];
      cl.out_offsets[i + 1] =
          cl.out_offsets[i] + static_cast<std::uint32_t>(graph.fanout(node).size());
      cl.in_offsets[i + 1] =
          cl.in_offsets[i] + static_cast<std::uint32_t>(graph.fanin(node).size());
      const NodeRole role = graph.node(node).role;
      cl.blocked[i] =
          role == NodeRole::kSyncDataIn || role == NodeRole::kSyncControl;
    }
    cl.out_arc.resize(cl.out_offsets[n]);
    cl.out_local.resize(cl.out_offsets[n]);
    cl.in_arc.resize(cl.in_offsets[n]);
    cl.in_local.resize(cl.in_offsets[n]);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t k = cl.out_offsets[i];
      for (std::uint32_t ai : graph.fanout(cl.nodes[i])) {
        cl.out_arc[k] = ai;
        cl.out_local[k] = local[graph.arc(ai).to.index()];
        ++k;
      }
      k = cl.in_offsets[i];
      for (std::uint32_t ai : graph.fanin(cl.nodes[i])) {
        cl.in_arc[k] = ai;
        cl.in_local[k] = local[graph.arc(ai).from.index()];
        ++k;
      }
    }
  }
}

}  // namespace hb
