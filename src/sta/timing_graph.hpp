// Timing graph over the top module of a design.
//
// Nodes are pins: instance terminals plus top-level module ports.  Arcs are
//   * component arcs: the timing arcs of combinational library cells and the
//     combined arcs of combinational submodule instances (delay from the
//     DelayCalculator, unateness from the library);
//   * net arcs: driver pin -> sink pin, zero delay, positive unate (wire
//     delay is folded into the driver's load-dependent delay, as in the
//     paper's standard-cell experiments).
//
// Synchronising elements contribute NO arcs: their D->Q / CK->Q behaviour is
// modelled by terminal offsets (sta/sync_model), not by combinational
// propagation.  Consequently the graph restricted to arcs is exactly the
// union of the paper's combinational *clusters*.
//
// Adjacency is stored in CSR form (offset array + packed arc indices), with
// each node's slice sorted deterministically: fanout by (head node, arc id),
// fanin by (tail node, arc id).  Arc records themselves are stored in sweep
// order — sorted by (topological position of the tail, head node id) — so a
// node's fanout slice is a run of consecutive arc ids and a levelized
// forward sweep reads the arc array monotonically.  Both orders are a
// function of the graph alone, not of construction history, so rebuilds
// reproduce identical ids and traversals.
// Every node also carries its *level* — longest-path depth from the graph's
// sources — and `topo_order()` is level-monotone: all nodes of level L
// precede all nodes of level L+1 (ties broken by node id).  Propagation
// sweeps over a level-ordered node list are therefore levelized wavefronts.
// See docs/PERFORMANCE.md.
#pragma once

#include <vector>

#include "delay/calculator.hpp"
#include "netlist/design.hpp"

namespace hb {

enum class NodeRole {
  kCombPin,      // terminal of combinational logic
  kSyncDataIn,   // D of a synchronising element
  kSyncControl,  // CK of a synchronising element
  kSyncDataOut,  // Q of a synchronising element
  kPortIn,       // top-level data input port
  kPortOut,      // top-level output port
  kClockPort,    // top-level clock source port
};

struct TNode {
  NodeRole role = NodeRole::kCombPin;
  bool is_top_port = false;
  InstId inst;              // valid unless is_top_port
  std::uint32_t port = 0;   // cell/module port index, or top port index
  NetId net;                // net this pin connects to (may be invalid)
};

struct TArcRec {
  TNodeId from;
  TNodeId to;
  RiseFall delay;
  Unate unate = Unate::kPositive;
  bool is_net = false;
};

/// Immutable view over one node's slice of the CSR arc-index arrays.
/// Iterates like the `std::vector<std::uint32_t>` it replaced.
class ArcSpan {
 public:
  using value_type = std::uint32_t;
  constexpr ArcSpan() = default;
  constexpr ArcSpan(const std::uint32_t* data, std::size_t size)
      : data_(data), size_(size) {}
  const std::uint32_t* begin() const { return data_; }
  const std::uint32_t* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t operator[](std::size_t i) const { return data_[i]; }

 private:
  const std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
};

class TimingGraph {
 public:
  /// Build over design.top(); delays are evaluated once at build time.
  /// `quarantined` (optional, by InstId; see compute_quarantine) excises the
  /// marked instances for degraded-mode analysis: their pins keep nodes but
  /// lose their sync roles, contribute no component arcs and are dropped
  /// from net arcs, leaving them isolated (clusterless) in the graph.
  TimingGraph(const Design& design, const DelayCalculator& calc,
              const std::vector<bool>* quarantined = nullptr);

  const Design& design() const { return *design_; }

  /// True when `inst` was excluded by the quarantine mask.
  bool is_quarantined(InstId inst) const {
    return !quarantined_.empty() && quarantined_[inst.index()];
  }
  std::size_t num_quarantined() const { return num_quarantined_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_arcs() const { return arcs_.size(); }
  const TNode& node(TNodeId id) const { return nodes_.at(id.index()); }
  const TArcRec& arc(std::size_t i) const { return arcs_.at(i); }
  /// Unchecked base pointer for propagation kernels that index arcs through
  /// CSR slices (already validated at build time).
  const TArcRec* arcs_data() const { return arcs_.data(); }

  /// Arc indices leaving / entering a node (contiguous CSR slices).
  /// Fanout is ordered by (head node id, arc id), fanin by (tail node id,
  /// arc id) — deterministic across rebuilds.
  ArcSpan fanout(TNodeId id) const {
    const std::size_t i = id.index();
    return ArcSpan(fanout_arcs_.data() + fanout_offsets_.at(i),
                   fanout_offsets_[i + 1] - fanout_offsets_[i]);
  }
  ArcSpan fanin(TNodeId id) const {
    const std::size_t i = id.index();
    return ArcSpan(fanin_arcs_.data() + fanin_offsets_.at(i),
                   fanin_offsets_[i + 1] - fanin_offsets_[i]);
  }

  TNodeId pin_node(InstId inst, std::uint32_t port) const;
  TNodeId top_port_node(std::uint32_t port) const;

  /// Human-readable pin name, e.g. "u42.Y" or "port:clk".
  std::string node_name(TNodeId id) const;

  /// Topological order of all nodes w.r.t. arcs (sources first).  Sync pins
  /// have no through-arcs, so this always exists for valid designs.  The
  /// order is level-monotone: level-L nodes precede level-(L+1) nodes, with
  /// each level sorted by node id.
  const std::vector<TNodeId>& topo_order() const { return topo_; }

  /// Longest-path depth of a node from the arc graph's sources (0 for nodes
  /// with no fanin).  level(arc.from) < level(arc.to) for every arc.
  std::uint32_t level(TNodeId id) const { return level_.at(id.index()); }
  /// 1 + max level over all nodes (0 for an empty graph).
  std::uint32_t num_levels() const { return num_levels_; }

  /// Footprint of re-evaluating one instance's delays in place.
  struct DelayUpdate {
    /// Arcs whose delay actually changed (seed the analysis dirty cones).
    std::vector<std::uint32_t> changed_arcs;
    /// Sequential instances driving the updated instance's input nets:
    /// their D_cz / D_dz see the new load and must be refreshed in the
    /// SyncModel (SyncModel::refresh_element_delays).
    std::vector<InstId> affected_sequential;
  };

  /// Re-evaluate, in place, the component-arc delays of `inst` and of every
  /// instance driving one of its input nets (their loads changed with the
  /// instance's pin caps — e.g. after a cell resize to a variant with the
  /// same port layout).  Structure (nodes, arcs, topology) is unchanged, so
  /// the CSR arrays and levels stay valid: they index arcs, whose delays
  /// mutate in place.
  DelayUpdate update_instance_delays(InstId inst, const DelayCalculator& calc);
  /// Bumped by every update_instance_delays() that changed an arc delay, so
  /// a cache derived from delays can tell whether it is current.
  std::uint64_t delay_epoch() const { return delay_epoch_; }

  /// True when any node in `from` reaches a synchronising-element control
  /// pin through combinational arcs — i.e. a delay change at these nodes
  /// invalidates the SyncModel's control tracing, not just the slack state.
  bool reaches_control(const std::vector<TNodeId>& from) const;

 private:
  void add_arc(TNodeId from, TNodeId to, RiseFall delay, Unate unate, bool is_net);
  void build_csr();
  void compute_topo();
  /// Re-store arcs_ in sweep order (topo position of tail, head id, creation
  /// id) and rebuild the CSR arrays and per-instance arc-id lists on the new
  /// numbering.  Must run after compute_topo().
  void permute_arcs();

  const Design* design_;
  std::vector<TNode> nodes_;
  std::vector<TArcRec> arcs_;
  // CSR adjacency: per-node contiguous slices of arc indices.
  std::vector<std::uint32_t> fanout_offsets_;  // [num_nodes + 1]
  std::vector<std::uint32_t> fanout_arcs_;     // [num_arcs]
  std::vector<std::uint32_t> fanin_offsets_;
  std::vector<std::uint32_t> fanin_arcs_;
  // pin -> node maps
  std::vector<std::vector<TNodeId>> inst_pin_node_;  // [inst][port]
  std::vector<TNodeId> top_port_node_;
  std::vector<TNodeId> topo_;
  std::vector<std::uint32_t> level_;          // by node index
  std::uint32_t num_levels_ = 0;
  // Component arc ids of each instance, in the creation order of
  // DelayCalculator::arcs_of (CSR over instances; ids follow the sweep-order
  // numbering after permute_arcs).
  std::vector<std::uint32_t> inst_arc_offsets_;  // [num_insts + 1]
  std::vector<std::uint32_t> inst_arc_ids_;
  // Degraded mode: excluded instances by InstId (empty = none).
  std::vector<bool> quarantined_;
  std::size_t num_quarantined_ = 0;
  std::uint64_t delay_epoch_ = 0;
};

}  // namespace hb
