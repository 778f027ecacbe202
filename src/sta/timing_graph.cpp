#include "sta/timing_graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hb {

TimingGraph::TimingGraph(const Design& design, const DelayCalculator& calc,
                         const std::vector<bool>* quarantined)
    : design_(&design) {
  const Module& top = design.top();
  const ModuleId top_id = design.top_id();
  if (quarantined != nullptr &&
      std::find(quarantined->begin(), quarantined->end(), true) !=
          quarantined->end()) {
    quarantined_ = *quarantined;
    quarantined_.resize(top.insts().size(), false);
    num_quarantined_ = static_cast<std::size_t>(
        std::count(quarantined_.begin(), quarantined_.end(), true));
  }

  // Create instance pin nodes.  Quarantined instances keep their pin nodes
  // (so InstId/port lookups stay total) but are stripped of sync roles and
  // of every arc below — they end up isolated and clusterless.
  inst_pin_node_.resize(top.insts().size());
  for (std::uint32_t i = 0; i < top.insts().size(); ++i) {
    const Instance& inst = top.inst(InstId(i));
    inst_pin_node_[i].resize(inst.conn.size());
    const Cell* cell = inst.is_cell() ? &design.lib().cell(inst.cell) : nullptr;
    for (std::uint32_t p = 0; p < inst.conn.size(); ++p) {
      TNode node;
      node.inst = InstId(i);
      node.port = p;
      node.net = inst.conn[p];
      node.role = NodeRole::kCombPin;
      if (cell != nullptr && cell->is_sequential() &&
          !is_quarantined(InstId(i))) {
        const SyncSpec& sync = cell->sync();
        if (p == sync.data_in) {
          node.role = NodeRole::kSyncDataIn;
        } else if (p == sync.control) {
          node.role = NodeRole::kSyncControl;
        } else if (p == sync.data_out) {
          node.role = NodeRole::kSyncDataOut;
        }
      }
      inst_pin_node_[i][p] = TNodeId(static_cast<std::uint32_t>(nodes_.size()));
      nodes_.push_back(node);
    }
  }

  // Top-level port nodes.
  top_port_node_.resize(top.ports().size());
  for (std::uint32_t p = 0; p < top.ports().size(); ++p) {
    const ModulePort& port = top.port(p);
    TNode node;
    node.is_top_port = true;
    node.port = p;
    node.net = port.net;
    if (port.direction == PortDirection::kInput) {
      node.role = port.is_clock ? NodeRole::kClockPort : NodeRole::kPortIn;
    } else {
      node.role = NodeRole::kPortOut;
    }
    top_port_node_[p] = TNodeId(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(node);
  }

  // Component arcs of combinational instances (cells and submodules).  At
  // creation, instance i's arcs occupy the contiguous id range
  // [inst_arc_offsets_[i], inst_arc_offsets_[i+1]); permute_arcs() rewrites
  // inst_arc_ids_ to the final numbering while keeping creation order.
  inst_arc_offsets_.assign(top.insts().size() + 1, 0);
  for (std::uint32_t i = 0; i < top.insts().size(); ++i) {
    const Instance& inst = top.inst(InstId(i));
    inst_arc_offsets_[i] = static_cast<std::uint32_t>(arcs_.size());
    if (is_quarantined(InstId(i))) continue;
    if (inst.is_cell() && design.lib().cell(inst.cell).is_sequential()) continue;
    for (const TimingArc& arc : calc.arcs_of(inst)) {
      if (!inst.conn[arc.from_port].valid() || !inst.conn[arc.to_port].valid()) {
        continue;
      }
      add_arc(inst_pin_node_[i][arc.from_port], inst_pin_node_[i][arc.to_port],
              calc.arc_delay(top_id, InstId(i), arc), arc.unate, false);
    }
  }
  inst_arc_offsets_[top.insts().size()] = static_cast<std::uint32_t>(arcs_.size());
  inst_arc_ids_.resize(arcs_.size());
  for (std::uint32_t a = 0; a < inst_arc_ids_.size(); ++a) inst_arc_ids_[a] = a;

  // Net arcs: every driver pin to every sink pin of the net.  Top input
  // ports drive, top output ports sink.
  for (std::uint32_t n = 0; n < top.num_nets(); ++n) {
    const Net& net = top.net(NetId(n));
    std::vector<TNodeId> drivers, sinks;
    for (const PinRef& pin : net.pins) {
      if (is_quarantined(pin.inst)) continue;
      const Instance& inst = top.inst(pin.inst);
      if (design.target_port_dir(inst, pin.port) == PortDirection::kOutput) {
        drivers.push_back(inst_pin_node_[pin.inst.value()][pin.port]);
      } else {
        sinks.push_back(inst_pin_node_[pin.inst.value()][pin.port]);
      }
    }
    for (std::uint32_t p : net.module_ports) {
      if (top.port(p).direction == PortDirection::kInput) {
        drivers.push_back(top_port_node_[p]);
      } else {
        sinks.push_back(top_port_node_[p]);
      }
    }
    for (TNodeId d : drivers) {
      for (TNodeId s : sinks) {
        add_arc(d, s, RiseFall{0, 0}, Unate::kPositive, true);
      }
    }
  }

  build_csr();
  compute_topo();
  permute_arcs();
}

void TimingGraph::add_arc(TNodeId from, TNodeId to, RiseFall delay, Unate unate,
                          bool is_net) {
  arcs_.push_back(TArcRec{from, to, delay, unate, is_net});
}

void TimingGraph::build_csr() {
  const std::size_t n = nodes_.size();
  fanout_offsets_.assign(n + 1, 0);
  fanin_offsets_.assign(n + 1, 0);
  for (const TArcRec& a : arcs_) {
    ++fanout_offsets_[a.from.index() + 1];
    ++fanin_offsets_[a.to.index() + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    fanout_offsets_[i + 1] += fanout_offsets_[i];
    fanin_offsets_[i + 1] += fanin_offsets_[i];
  }
  fanout_arcs_.resize(arcs_.size());
  fanin_arcs_.resize(arcs_.size());
  std::vector<std::uint32_t> out_fill(fanout_offsets_.begin(),
                                      fanout_offsets_.end() - 1);
  std::vector<std::uint32_t> in_fill(fanin_offsets_.begin(),
                                     fanin_offsets_.end() - 1);
  for (std::uint32_t ai = 0; ai < arcs_.size(); ++ai) {
    fanout_arcs_[out_fill[arcs_[ai].from.index()]++] = ai;
    fanin_arcs_[in_fill[arcs_[ai].to.index()]++] = ai;
  }
  // Deterministic per-node ordering, a function of the graph alone: fanout
  // by (head node, arc id), fanin by (tail node, arc id).
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(fanout_arcs_.begin() + fanout_offsets_[i],
              fanout_arcs_.begin() + fanout_offsets_[i + 1],
              [this](std::uint32_t a, std::uint32_t b) {
                if (arcs_[a].to != arcs_[b].to) {
                  return arcs_[a].to.value() < arcs_[b].to.value();
                }
                return a < b;
              });
    std::sort(fanin_arcs_.begin() + fanin_offsets_[i],
              fanin_arcs_.begin() + fanin_offsets_[i + 1],
              [this](std::uint32_t a, std::uint32_t b) {
                if (arcs_[a].from != arcs_[b].from) {
                  return arcs_[a].from.value() < arcs_[b].from.value();
                }
                return a < b;
              });
  }
}

void TimingGraph::permute_arcs() {
  // Final arc numbering: by (topological position of the tail, head node id,
  // creation id).  Each node's fanout slice becomes a run of consecutive
  // ids already in (head, id) order, and a sweep over any level-ordered node
  // subsequence — a cluster — reads the arc array monotonically.  The order
  // depends only on the graph (topo_ is deterministic), not on construction
  // history.
  std::vector<std::uint32_t> topo_pos(nodes_.size(), 0);
  for (std::uint32_t i = 0; i < topo_.size(); ++i) {
    topo_pos[topo_[i].index()] = i;
  }
  std::vector<std::uint32_t> order(arcs_.size());
  for (std::uint32_t a = 0; a < order.size(); ++a) order[a] = a;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t fa = topo_pos[arcs_[a].from.index()];
              const std::uint32_t fb = topo_pos[arcs_[b].from.index()];
              if (fa != fb) return fa < fb;
              if (arcs_[a].to != arcs_[b].to) {
                return arcs_[a].to.value() < arcs_[b].to.value();
              }
              return a < b;
            });
  std::vector<std::uint32_t> new_id(arcs_.size());
  std::vector<TArcRec> reordered(arcs_.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    new_id[order[k]] = k;
    reordered[k] = arcs_[order[k]];
  }
  arcs_ = std::move(reordered);
  for (std::uint32_t& id : inst_arc_ids_) id = new_id[id];
  build_csr();
}

TNodeId TimingGraph::pin_node(InstId inst, std::uint32_t port) const {
  return inst_pin_node_.at(inst.index()).at(port);
}

TNodeId TimingGraph::top_port_node(std::uint32_t port) const {
  return top_port_node_.at(port);
}

std::string TimingGraph::node_name(TNodeId id) const {
  const TNode& n = node(id);
  if (n.is_top_port) return "port:" + design_->top().port(n.port).name;
  const Instance& inst = design_->top().inst(n.inst);
  return inst.name + "." + design_->target_port_name(inst, n.port);
}

TimingGraph::DelayUpdate TimingGraph::update_instance_delays(
    InstId inst, const DelayCalculator& calc) {
  const Module& top = design_->top();
  const ModuleId top_id = design_->top_id();
  DelayUpdate upd;

  // The instance itself plus the drivers of its input nets: a pin-cap change
  // on `inst` changes those drivers' output loads, nothing else.
  std::vector<InstId> affected{inst};
  const Instance& self = top.inst(inst);
  for (std::uint32_t p = 0; p < self.conn.size(); ++p) {
    if (!self.conn[p].valid()) continue;
    if (design_->target_port_dir(self, p) != PortDirection::kInput) continue;
    for (const PinRef& pin : top.net(self.conn[p]).pins) {
      const Instance& other = top.inst(pin.inst);
      if (design_->target_port_dir(other, pin.port) != PortDirection::kOutput) {
        continue;
      }
      if (std::find(affected.begin(), affected.end(), pin.inst) ==
          affected.end()) {
        affected.push_back(pin.inst);
      }
    }
  }

  for (InstId a : affected) {
    if (is_quarantined(a)) continue;  // no arcs to refresh (empty span)
    const Instance& ai = top.inst(a);
    if (ai.is_cell() && design_->lib().cell(ai.cell).is_sequential()) {
      if (a != inst) upd.affected_sequential.push_back(a);
      continue;  // element delays live in the SyncModel, not in arcs
    }
    // Walk the instance's arc-id list in the exact order the constructor
    // created it; the arc list of a same-port-layout variant matches 1:1.
    std::uint32_t cursor = inst_arc_offsets_.at(a.index());
    for (const TimingArc& arc : calc.arcs_of(ai)) {
      if (!ai.conn[arc.from_port].valid() || !ai.conn[arc.to_port].valid()) {
        continue;
      }
      const std::uint32_t idx = inst_arc_ids_.at(cursor++);
      TArcRec& rec = arcs_.at(idx);
      HB_ASSERT(rec.from == inst_pin_node_[a.index()][arc.from_port] &&
                rec.to == inst_pin_node_[a.index()][arc.to_port]);
      const RiseFall d = calc.arc_delay(top_id, a, arc);
      if (!(rec.delay == d)) {
        rec.delay = d;
        upd.changed_arcs.push_back(idx);
      }
    }
    HB_ASSERT(cursor == inst_arc_offsets_.at(a.index() + 1));
  }
  if (!upd.changed_arcs.empty()) ++delay_epoch_;
  return upd;
}

bool TimingGraph::reaches_control(const std::vector<TNodeId>& from) const {
  std::vector<char> visited(nodes_.size(), 0);
  std::vector<TNodeId> stack;
  for (TNodeId n : from) {
    if (!visited[n.index()]) {
      visited[n.index()] = 1;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    const TNodeId n = stack.back();
    stack.pop_back();
    const NodeRole role = nodes_[n.index()].role;
    if (role == NodeRole::kSyncControl) return true;
    if (role == NodeRole::kSyncDataIn) continue;  // no combinational path out
    for (std::uint32_t ai : fanout(n)) {
      const TNodeId to = arcs_[ai].to;
      if (!visited[to.index()]) {
        visited[to.index()] = 1;
        stack.push_back(to);
      }
    }
  }
  return false;
}

void TimingGraph::compute_topo() {
  // Kahn's algorithm processed strictly level by level: the initial frontier
  // is level 0, nodes whose last predecessor retires during level L join
  // level L+1.  Each frontier is sorted by node id, so the resulting order
  // is deterministic, topological, and level-monotone — `topo_` concatenates
  // the levels, and per-cluster node lists inherit the wavefront grouping.
  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> indeg(n, 0);
  for (const TArcRec& a : arcs_) ++indeg[a.to.index()];
  level_.assign(n, 0);
  topo_.clear();
  topo_.reserve(n);
  std::vector<TNodeId> frontier, next;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) frontier.push_back(TNodeId(i));
  }
  num_levels_ = 0;
  while (!frontier.empty()) {
    for (TNodeId u : frontier) {
      topo_.push_back(u);
      for (std::uint32_t ai : fanout(u)) {
        const TNodeId to = arcs_[ai].to;
        level_[to.index()] =
            std::max(level_[to.index()], level_[u.index()] + 1);
        if (--indeg[to.index()] == 0) next.push_back(to);
      }
    }
    ++num_levels_;
    std::sort(next.begin(), next.end(),
              [](TNodeId a, TNodeId b) { return a.value() < b.value(); });
    frontier.swap(next);
    next.clear();
  }
  if (topo_.size() != n) {
    raise("timing graph contains a combinational cycle (run validate() first)");
  }
}

}  // namespace hb
