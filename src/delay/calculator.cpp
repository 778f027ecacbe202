#include "delay/calculator.hpp"

#include <cmath>
#include <optional>

namespace hb {

DelayCalculator::DelayCalculator(const Design& design, WireLoadModel wire)
    : design_(&design), wire_(wire) {}

double DelayCalculator::net_load_ff(ModuleId mod, NetId net) const {
  const Module& m = design_->module(mod);
  const Net& n = m.net(net);
  double cap = wire_.wire_cap_ff(n.pins.size());
  for (const PinRef& pin : n.pins) {
    const Instance& inst = m.inst(pin.inst);
    if (design_->target_port_dir(inst, pin.port) == PortDirection::kInput) {
      cap += input_cap_ff(mod, inst, pin.port);
    }
  }
  return cap;
}

double DelayCalculator::input_cap_ff(ModuleId /*mod*/, const Instance& inst,
                                     std::uint32_t port) const {
  if (inst.is_cell()) return design_->lib().cell(inst.cell).port(port).cap_ff;
  return module_timing(inst.module).port_cap_ff.at(port);
}

const std::vector<TimingArc>& DelayCalculator::arcs_of(const Instance& inst) const {
  if (inst.is_cell()) return design_->lib().cell(inst.cell).arcs();
  return module_timing(inst.module).arcs;
}

void DelayCalculator::set_derate(double factor) {
  if (!(factor > 0.0)) {
    raise("delay derate factor must be positive, got " + std::to_string(factor));
  }
  derate_ = factor;
  module_cache_.clear();  // combined module arcs bake the factor in
}

void DelayCalculator::adjust_instance(InstId inst, TimePs delta) {
  instance_adjust_[inst.value()] += delta;
}

TimePs DelayCalculator::instance_adjustment(InstId inst) const {
  auto it = instance_adjust_.find(inst.value());
  return it == instance_adjust_.end() ? 0 : it->second;
}

RiseFall DelayCalculator::arc_delay(ModuleId mod, InstId inst,
                                    const TimingArc& arc) const {
  const Module& m = design_->module(mod);
  const Instance& i = m.inst(inst);
  NetId out_net = i.conn.at(arc.to_port);
  const double load = out_net.valid() ? net_load_ff(mod, out_net) : 0.0;
  RiseFall d{
      arc.intrinsic_rise + static_cast<TimePs>(std::llround(arc.slope_rise * load)),
      arc.intrinsic_fall + static_cast<TimePs>(std::llround(arc.slope_fall * load))};
  if (derate_ != 1.0) {
    d.rise = static_cast<TimePs>(std::llround(static_cast<double>(d.rise) * derate_));
    d.fall = static_cast<TimePs>(std::llround(static_cast<double>(d.fall) * derate_));
  }
  // Per-instance adjustments apply to top-level instances only (inner
  // instances of combined modules are not individually addressable).
  if (mod == design_->top_id() && !instance_adjust_.empty()) {
    const TimePs delta = instance_adjustment(inst);
    if (delta != 0) {
      d.rise = std::max<TimePs>(0, d.rise + delta);
      d.fall = std::max<TimePs>(0, d.fall + delta);
    }
  }
  return d;
}

const DelayCalculator::ModuleTiming& DelayCalculator::module_timing(ModuleId id) const {
  auto it = module_cache_.find(id.value());
  if (it != module_cache_.end()) return it->second;
  auto [ins, ok] = module_cache_.emplace(id.value(), compute_module_timing(id));
  HB_ASSERT(ok);
  return ins->second;
}

DelayCalculator::ModuleTiming DelayCalculator::compute_module_timing(ModuleId id) const {
  const Module& m = design_->module(id);
  ModuleTiming out;

  // Input-port capacitance: the internal input pins on the port's net.
  out.port_cap_ff.assign(m.ports().size(), 0.0);
  for (std::uint32_t p = 0; p < m.ports().size(); ++p) {
    const ModulePort& port = m.port(p);
    if (port.direction != PortDirection::kInput || !port.net.valid()) continue;
    double cap = 0.0;
    for (const PinRef& pin : m.net(port.net).pins) {
      const Instance& inst = m.inst(pin.inst);
      if (design_->target_port_dir(inst, pin.port) == PortDirection::kInput) {
        cap += input_cap_ff(id, inst, pin.port);
      }
    }
    out.port_cap_ff[p] = cap;
  }

  // Topological order of instances (submodules are combinational, so Kahn
  // over all instances terminates; sequential cells would have been
  // rejected by validate()).
  const std::size_t ninst = m.insts().size();
  std::vector<int> indeg(ninst, 0);
  std::vector<std::vector<std::uint32_t>> succ(ninst);
  for (std::uint32_t i = 0; i < ninst; ++i) {
    const Instance& inst = m.inst(InstId(i));
    for (std::uint32_t p = 0; p < inst.conn.size(); ++p) {
      if (design_->target_port_dir(inst, p) != PortDirection::kOutput) continue;
      if (!inst.conn[p].valid()) continue;
      for (const PinRef& pin : m.net(inst.conn[p]).pins) {
        const Instance& sink = m.inst(pin.inst);
        if (design_->target_port_dir(sink, pin.port) == PortDirection::kInput) {
          succ[i].push_back(pin.inst.value());
          ++indeg[pin.inst.value()];
        }
      }
    }
  }
  std::vector<std::uint32_t> topo, stack;
  for (std::uint32_t i = 0; i < ninst; ++i) {
    if (indeg[i] == 0) stack.push_back(i);
  }
  while (!stack.empty()) {
    std::uint32_t i = stack.back();
    stack.pop_back();
    topo.push_back(i);
    for (std::uint32_t s : succ[i]) {
      if (--indeg[s] == 0) stack.push_back(s);
    }
  }
  if (topo.size() != ninst) {
    raise("module '" + m.name() + "': combinational cycle during delay combination");
  }

  // For each input port, propagate worst (rise, fall) arrival to every net.
  for (std::uint32_t p = 0; p < m.ports().size(); ++p) {
    const ModulePort& port = m.port(p);
    if (port.direction != PortDirection::kInput || !port.net.valid()) continue;

    std::vector<std::optional<RiseFall>> arrival(m.num_nets());
    arrival[port.net.index()] = RiseFall{0, 0};

    for (std::uint32_t i : topo) {
      const Instance& inst = m.inst(InstId(i));
      for (const TimingArc& arc : arcs_of(inst)) {
        if (!inst.conn[arc.from_port].valid() || !inst.conn[arc.to_port].valid()) {
          continue;
        }
        const auto& in = arrival[inst.conn[arc.from_port].index()];
        if (!in) continue;
        const RiseFall d = arc_delay(id, InstId(i), arc);
        const RiseFall cand = propagate_forward(*in, arc, d);
        auto& slot = arrival[inst.conn[arc.to_port].index()];
        slot = slot ? rf_max(*slot, cand) : cand;
      }
    }

    // Emit one combined arc per reachable output port.
    for (std::uint32_t q = 0; q < m.ports().size(); ++q) {
      const ModulePort& oport = m.port(q);
      if (oport.direction != PortDirection::kOutput || !oport.net.valid()) continue;
      const auto& arr = arrival[oport.net.index()];
      if (!arr) continue;

      // Slope of the internal driver of the output net, so the outer load
      // still matters.
      double slope_rise = 0.0, slope_fall = 0.0;
      for (const PinRef& pin : m.net(oport.net).pins) {
        const Instance& drv = m.inst(pin.inst);
        if (design_->target_port_dir(drv, pin.port) != PortDirection::kOutput) continue;
        for (const TimingArc& darc : arcs_of(drv)) {
          if (darc.to_port != pin.port) continue;
          slope_rise = std::max(slope_rise, darc.slope_rise);
          slope_fall = std::max(slope_fall, darc.slope_fall);
        }
      }

      TimingArc combined;
      combined.from_port = p;
      combined.to_port = q;
      combined.unate = Unate::kNone;  // conservative for an abstracted block
      combined.intrinsic_rise = arr->rise;
      combined.intrinsic_fall = arr->fall;
      combined.slope_rise = slope_rise;
      combined.slope_fall = slope_fall;
      out.arcs.push_back(combined);
    }
  }
  return out;
}

}  // namespace hb
