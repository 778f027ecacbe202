#include "sta/sync_model.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace hb {
namespace {

const std::vector<SyncId> kNoInstances;

}  // namespace

SyncModel::SyncModel(const TimingGraph& graph, const ClockSet& clocks,
                     const DelayCalculator& calc, SyncModelOptions options)
    : graph_(&graph), clocks_(&clocks), options_(std::move(options)) {
  period_ = clocks.overall_period();
  // Guard against near-coprime clock periods: every element clocked at n x
  // the overall frequency expands into n generic instances, so an exploded
  // LCM means an exploded model.  Real synchronous designs stay far below
  // this bound (paper: harmonically related frequencies).
  for (std::uint32_t c = 0; c < clocks.num_clocks(); ++c) {
    const TimePs ratio = period_ / clocks.clock(ClockId(c)).period;
    if (ratio > 64) {
      raise("clock '" + clocks.clock(ClockId(c)).name + "' runs at " +
            std::to_string(ratio) +
            "x the overall frequency; the clock set is (nearly) non-harmonic");
    }
  }
  trace_controls();
  build_element_instances(calc);
  build_port_instances();
  compute_data_cones();
  build_enable_sinks();
  index_instances();
  reset_offsets();
  drain_changed_offsets();  // the initial state is nobody's "change"
}

// Propagate (clock, polarity, delay) from clock ports through combinational
// arcs in topological order.  validate() has already guaranteed every
// control cone is a monotonic function of exactly one clock, so conflicts
// here are internal errors for element control pins; data-side nodes touched
// by clock cones are simply recorded and never queried.
void SyncModel::trace_controls() {
  struct ClockCone {
    ClockId clock;
    int polarity = +1;
    RiseFall delay;
    bool conflict = false;
  };
  std::vector<std::optional<ClockCone>> cone(graph_->num_nodes());

  for (TNodeId n : graph_->topo_order()) {
    const TNode& node = graph_->node(n);
    if (node.role == NodeRole::kClockPort) {
      cone[n.index()] = ClockCone{clocks_->find(graph_->design().top().port(node.port).name),
                                  +1, RiseFall{0, 0}, false};
      if (!cone[n.index()]->clock.valid()) {
        raise("clock port '" + graph_->design().top().port(node.port).name +
              "' has no matching clock definition");
      }
      continue;
    }
    // Merge contributions from fanin arcs.
    for (std::uint32_t ai : graph_->fanin(n)) {
      const TArcRec& arc = graph_->arc(ai);
      const auto& in = cone[arc.from.index()];
      if (!in) continue;
      ClockCone next = *in;
      if (arc.unate == Unate::kNegative) next.polarity = -next.polarity;
      if (arc.unate == Unate::kNone) next.conflict = true;
      // Worst-case control delay: conservative scalar max over transitions.
      const TimePs worst = std::max(in->delay.max() + arc.delay.rise,
                                    in->delay.max() + arc.delay.fall);
      next.delay = {worst, worst};
      auto& slot = cone[n.index()];
      if (!slot) {
        slot = next;
      } else {
        if (slot->clock != next.clock || slot->polarity != next.polarity) {
          slot->conflict = true;
        }
        slot->delay = rf_max(slot->delay, next.delay);
        slot->conflict = slot->conflict || next.conflict;
      }
    }
  }

  for (std::uint32_t i = 0; i < graph_->num_nodes(); ++i) {
    const TNode& node = graph_->node(TNodeId(i));
    if (node.role != NodeRole::kSyncControl) continue;
    const auto& c = cone[i];
    if (!c) {
      raise("control pin " + graph_->node_name(TNodeId(i)) +
            " is not driven by any clock (run validate() first)");
    }
    if (c->conflict) {
      raise("control pin " + graph_->node_name(TNodeId(i)) +
            " is not a monotonic function of one clock (run validate() first)");
    }
    control_[node.inst.value()] = ControlInfo{c->clock, c->polarity, c->delay.max()};
  }
}

void SyncModel::build_element_instances(const DelayCalculator& calc) {
  const Design& design = graph_->design();
  const Module& top = design.top();
  const ModuleId top_id = design.top_id();

  for (std::uint32_t i = 0; i < top.insts().size(); ++i) {
    if (graph_->is_quarantined(InstId(i))) continue;  // degraded mode
    const Instance& inst = top.inst(InstId(i));
    if (!inst.is_cell()) continue;
    const Cell& cell = design.lib().cell(inst.cell);
    if (!cell.is_sequential()) continue;
    const SyncSpec& spec = cell.sync();
    const ControlInfo& ctrl = control_.at(i);

    // The element is *enabled* while its control input is high.  With
    // positive control polarity that is while the clock is high (for an
    // active-high element); inversions flip the interval.
    const bool use_high = (ctrl.polarity > 0) == spec.active_high;
    const std::vector<Interval> pulses = use_high
                                             ? clocks_->high_intervals(ctrl.clock)
                                             : clocks_->low_intervals(ctrl.clock);

    // Element delays, with the load on the output net included.
    TimePs dcz = 0, ddz = 0;
    for (const TimingArc& arc : cell.arcs()) {
      const RiseFall d = calc.arc_delay(top_id, InstId(i), arc);
      if (arc.from_port == spec.control) dcz = std::max(dcz, d.max());
      if (arc.from_port == spec.data_in) ddz = std::max(ddz, d.max());
    }

    const bool transparent = cell.kind() == CellKind::kTransparentLatch ||
                             cell.kind() == CellKind::kTristateDriver;

    for (std::uint32_t p = 0; p < pulses.size(); ++p) {
      const Interval& pulse = pulses[p];
      SyncInstance si;
      si.inst = InstId(i);
      si.pulse = p;
      si.transparent = transparent;
      si.data_in = graph_->pin_node(InstId(i), spec.data_in);
      si.data_out = graph_->pin_node(InstId(i), spec.data_out);
      si.setup = spec.setup;
      si.dcz = dcz;
      si.ddz = transparent ? ddz : 0;
      si.oac = ctrl.delay;
      si.width = pulse.width();
      si.label = inst.name + "#" + std::to_string(p);

      if (cell.kind() == CellKind::kEdgeTriggeredLatch) {
        const TimePs edge = spec.trigger == TriggerEdge::kLeading
                                ? pulse.lead
                                : mod_period(pulse.trail, period_);
        si.ideal_assert = mod_period(edge, period_);
        si.ideal_close = si.ideal_assert;
      } else {
        si.ideal_assert = pulse.lead;  // leading edge asserts the output
        si.ideal_close = mod_period(pulse.trail, period_);  // trailing closes
      }
      add_instance(std::move(si));
    }
  }
}

void SyncModel::build_port_instances() {
  const Module& top = graph_->design().top();

  auto find_spec = [](const std::vector<PortTimingSpec>& specs,
                      const std::string& name) -> const PortTimingSpec* {
    for (const PortTimingSpec& s : specs) {
      if (s.port == name) return &s;
    }
    return nullptr;
  };

  for (std::uint32_t p = 0; p < top.ports().size(); ++p) {
    const ModulePort& port = top.port(p);
    if (port.is_clock) continue;
    const TNodeId node = graph_->top_port_node(p);
    if (port.direction == PortDirection::kInput) {
      const PortTimingSpec* spec = find_spec(options_.input_arrivals, port.name);
      if (spec == nullptr && !options_.constrain_ports) continue;
      SyncInstance si;
      si.is_virtual = true;
      si.data_out = node;
      si.ideal_assert = spec != nullptr ? mod_period(spec->time, period_) : 0;
      si.v_offset = spec != nullptr ? spec->offset : 0;
      si.label = "in:" + port.name;
      add_instance(std::move(si));
    } else {
      const PortTimingSpec* spec = find_spec(options_.output_requireds, port.name);
      if (spec == nullptr && !options_.constrain_ports) continue;
      SyncInstance si;
      si.is_virtual = true;
      si.data_in = node;
      // Default: data must settle by the end of the overall period; time 0
      // linearises to T via the closure mapping.
      si.ideal_close = spec != nullptr ? mod_period(spec->time, period_) : 0;
      si.v_offset = spec != nullptr ? spec->offset : 0;
      si.label = "out:" + port.name;
      add_instance(std::move(si));
    }
  }
}

void SyncModel::compute_data_cones() {
  has_data_cone_.assign(graph_->num_nodes(), false);
  for (const SyncInstance& si : instances_) {
    if (si.data_out.valid()) has_data_cone_[si.data_out.index()] = true;
  }
  for (TNodeId n : graph_->topo_order()) {
    if (!has_data_cone_[n.index()]) continue;
    // Data does not flow *through* synchronising elements combinationally.
    const NodeRole role = graph_->node(n).role;
    if (role == NodeRole::kSyncDataIn || role == NodeRole::kSyncControl) continue;
    for (std::uint32_t ai : graph_->fanout(n)) {
      has_data_cone_[graph_->arc(ai).to.index()] = true;
    }
  }
}

// A control pin partly driven from synchronising-element outputs is an
// enable-path endpoint: the enable logic must settle before the leading edge
// of every control pulse of the element (conservative choice of "which of
// the clock edges is to be enabled/disabled").
void SyncModel::build_enable_sinks() {
  const Design& design = graph_->design();
  const Module& top = design.top();
  for (std::uint32_t i = 0; i < top.insts().size(); ++i) {
    if (graph_->is_quarantined(InstId(i))) continue;  // degraded mode
    const Instance& inst = top.inst(InstId(i));
    if (!inst.is_cell()) continue;
    const Cell& cell = design.lib().cell(inst.cell);
    if (!cell.is_sequential()) continue;
    const TNodeId ctrl_node = graph_->pin_node(InstId(i), cell.sync().control);
    if (!has_data_cone(ctrl_node)) continue;

    const ControlInfo& ctrl = control_.at(i);
    const bool use_high = (ctrl.polarity > 0) == cell.sync().active_high;
    const std::vector<Interval> pulses = use_high
                                             ? clocks_->high_intervals(ctrl.clock)
                                             : clocks_->low_intervals(ctrl.clock);
    for (std::uint32_t p = 0; p < pulses.size(); ++p) {
      SyncInstance si;
      si.is_virtual = true;
      si.inst = InstId(i);
      si.pulse = p;
      si.data_in = ctrl_node;
      si.ideal_close = mod_period(pulses[p].lead, period_);
      si.v_offset = -options_.enable_margin;
      si.label = "enable:" + inst.name + "#" + std::to_string(p);
      add_instance(std::move(si));
    }
  }
}

SyncId SyncModel::add_instance(SyncInstance si) {
  SyncId id(static_cast<std::uint32_t>(instances_.size()));
  instances_.push_back(std::move(si));
  return id;
}

void SyncModel::index_instances() {
  launches_by_node_.assign(graph_->num_nodes(), {});
  captures_by_node_.assign(graph_->num_nodes(), {});
  for (std::uint32_t i = 0; i < instances_.size(); ++i) {
    const SyncInstance& si = instances_[i];
    if (si.data_out.valid()) {
      launches_by_node_[si.data_out.index()].push_back(SyncId(i));
    }
    if (si.data_in.valid()) {
      captures_by_node_[si.data_in.index()].push_back(SyncId(i));
    }
  }
}

const std::vector<SyncId>& SyncModel::launches_at(TNodeId node) const {
  const auto& v = launches_by_node_.at(node.index());
  return v.empty() ? kNoInstances : v;
}

const std::vector<SyncId>& SyncModel::captures_at(TNodeId node) const {
  const auto& v = captures_by_node_.at(node.index());
  return v.empty() ? kNoInstances : v;
}

const SyncModel::ControlInfo& SyncModel::control_of(InstId inst) const {
  auto it = control_.find(inst.value());
  if (it == control_.end()) {
    raise("instance has no control information (not a synchronising element?)");
  }
  return it->second;
}

void SyncModel::reset_offsets() {
  for (std::uint32_t i = 0; i < instances_.size(); ++i) {
    SyncInstance& si = instances_[i];
    TimePs odz = 0, ozd = 0;
    if (!si.is_virtual && si.transparent) {
      // End-of-pulse initial state: input closes at the trailing edge
      // (O_dz = -D_dz, its upper bound), output asserts W - ... accordingly.
      odz = -si.ddz;
      ozd = si.width + odz + si.ddz;  // == si.width
    }
    if (si.odz != odz || si.ozd != ozd) {
      si.odz = odz;
      si.ozd = ozd;
      record_changed(SyncId(i));
    }
  }
}

void SyncModel::refresh_element_delays(InstId inst, const DelayCalculator& calc) {
  const Design& design = graph_->design();
  const Instance& top_inst = design.top().inst(inst);
  HB_ASSERT(top_inst.is_cell());
  const Cell& cell = design.lib().cell(top_inst.cell);
  HB_ASSERT(cell.is_sequential());
  const SyncSpec& spec = cell.sync();

  TimePs dcz = 0, ddz = 0;
  for (const TimingArc& arc : cell.arcs()) {
    const RiseFall d = calc.arc_delay(design.top_id(), inst, arc);
    if (arc.from_port == spec.control) dcz = std::max(dcz, d.max());
    if (arc.from_port == spec.data_in) ddz = std::max(ddz, d.max());
  }

  for (std::uint32_t i = 0; i < instances_.size(); ++i) {
    SyncInstance& si = instances_[i];
    if (si.inst != inst || si.is_virtual) continue;
    const TimePs new_ddz = si.transparent ? ddz : 0;
    if (si.dcz == dcz && si.ddz == new_ddz) continue;
    si.dcz = dcz;
    si.ddz = new_ddz;
    if (si.transparent) si.ozd = si.width + si.odz + si.ddz;
    record_changed(SyncId(i));
  }
}

void SyncModel::record_changed(SyncId id) {
  if (changed_flag_.size() != instances_.size()) {
    changed_flag_.assign(instances_.size(), 0);
  }
  char& flag = changed_flag_[id.index()];
  if (!flag) {
    flag = 1;
    changed_.push_back(id);
  }
}

std::vector<SyncId> SyncModel::drain_changed_offsets() {
  for (SyncId id : changed_) changed_flag_[id.index()] = 0;
  return std::exchange(changed_, {});
}

}  // namespace hb
