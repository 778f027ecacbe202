#include "netlist/validate.hpp"

#include <algorithm>
#include <unordered_map>

#include "netlist/flatten.hpp"

namespace hb {
namespace {

// Does any module reachable from `id` contain a sequential cell?
bool module_has_sequential(const Design& d, ModuleId id) {
  for (const Instance& inst : d.module(id).insts()) {
    if (inst.is_cell()) {
      if (d.lib().cell(inst.cell).is_sequential()) return true;
    } else if (module_has_sequential(d, inst.module)) {
      return true;
    }
  }
  return false;
}

class FlatChecker {
 public:
  FlatChecker(const Design& d, ValidationReport& report)
      : d_(d), top_(d.top()), report_(report) {}

  void run() {
    check_connections();
    check_drivers();
    check_comb_cycles();
    check_control_cones();
  }

 private:
  void finding(DiagCode code, std::string msg, std::vector<InstId> insts = {},
               std::vector<NetId> nets = {}) {
    ValidationFinding f;
    f.diag.code = code;
    f.diag.severity = Severity::kError;
    f.diag.message = std::move(msg);
    f.insts = std::move(insts);
    f.nets = std::move(nets);
    report_.findings.push_back(std::move(f));
  }

  void check_connections() {
    for (std::uint32_t i = 0; i < top_.insts().size(); ++i) {
      const Instance& inst = top_.inst(InstId(i));
      for (std::uint32_t p = 0; p < inst.conn.size(); ++p) {
        if (!inst.conn[p].valid()) {
          finding(DiagCode::kDesignUnconnected,
                  "instance '" + inst.name + "' port '" +
                      d_.target_port_name(inst, p) + "' is unconnected",
                  {InstId(i)});
        }
      }
    }
  }

  void check_drivers() {
    for (std::uint32_t n = 0; n < top_.num_nets(); ++n) {
      const Net& net = top_.net(NetId(n));
      int drivers = 0;
      int tristate_drivers = 0;
      std::vector<InstId> driver_insts;
      for (const PinRef& pin : net.pins) {
        const Instance& inst = top_.inst(pin.inst);
        if (d_.target_port_dir(inst, pin.port) == PortDirection::kOutput) {
          ++drivers;
          driver_insts.push_back(pin.inst);
          if (inst.is_cell() &&
              d_.lib().cell(inst.cell).kind() == CellKind::kTristateDriver) {
            ++tristate_drivers;
          }
        }
      }
      for (std::uint32_t p : net.module_ports) {
        if (top_.port(p).direction == PortDirection::kInput) ++drivers;
      }
      if (drivers == 0 && !net.pins.empty()) {
        finding(DiagCode::kDesignNoDriver, "net '" + net.name + "' has no driver",
                {}, {NetId(n)});
      }
      // Multiple drivers are legal only when all of them are clocked
      // tristate drivers (a shared bus).
      if (drivers > 1 && tristate_drivers != drivers) {
        finding(DiagCode::kDesignMultiDriver,
                "net '" + net.name + "' has " + std::to_string(drivers) +
                    " drivers (only tristate buses may have several)",
                std::move(driver_insts), {NetId(n)});
      }
    }
  }

  // Kahn's algorithm over combinational cells only; sequential cells break
  // the paths (their D->Q dependence is not a combinational arc).
  void check_comb_cycles() {
    const auto& insts = top_.insts();
    std::vector<int> indeg(insts.size(), 0);
    // adjacency: comb inst -> comb insts reading its output net
    std::vector<std::vector<std::uint32_t>> succ(insts.size());
    for (std::uint32_t i = 0; i < insts.size(); ++i) {
      const Instance& inst = insts[i];
      if (inst.is_cell() && d_.lib().cell(inst.cell).is_sequential()) continue;
      for (std::uint32_t p = 0; p < inst.conn.size(); ++p) {
        if (d_.target_port_dir(inst, p) != PortDirection::kOutput) continue;
        if (!inst.conn[p].valid()) continue;
        const Net& net = top_.net(inst.conn[p]);
        for (const PinRef& pin : net.pins) {
          const Instance& sink = top_.inst(pin.inst);
          if (d_.target_port_dir(sink, pin.port) != PortDirection::kInput) continue;
          if (sink.is_cell() && d_.lib().cell(sink.cell).is_sequential()) continue;
          succ[i].push_back(pin.inst.value());
          ++indeg[pin.inst.value()];
        }
      }
    }
    std::vector<std::uint32_t> queue;
    for (std::uint32_t i = 0; i < insts.size(); ++i) {
      if (indeg[i] == 0) queue.push_back(i);
    }
    std::size_t seen = 0;
    while (!queue.empty()) {
      std::uint32_t i = queue.back();
      queue.pop_back();
      ++seen;
      for (std::uint32_t s : succ[i]) {
        if (--indeg[s] == 0) queue.push_back(s);
      }
    }
    if (seen != insts.size()) {
      // Every residual instance is on a cycle or strictly downstream of one;
      // implicate them all so degraded mode can excise the whole knot.  Name
      // the first one to keep the message readable.
      std::vector<InstId> on_cycle;
      for (std::uint32_t i = 0; i < insts.size(); ++i) {
        if (indeg[i] > 0) on_cycle.push_back(InstId(i));
      }
      std::string msg = "combinational cycle through instance '" +
                        insts[on_cycle.front().value()].name + "' (" +
                        std::to_string(on_cycle.size()) + " instances involved)";
      finding(DiagCode::kDesignCombCycle, std::move(msg), std::move(on_cycle));
    }
  }

  // For every synchronising-element control pin, walk the input cone.
  // Sources must include exactly one clock port; every cell on a
  // clock-to-control path must have determinate unateness and the composed
  // polarity must be unique (the paper's "monotonic combinational logic
  // function of exactly one clock signal").  Cones may also include
  // synchronising element outputs (enable paths) — those do not carry clock
  // polarity.  A cone's verdict depends only on its control net, so each
  // net is walked once however many elements share it (a design's latches
  // mostly hang off a few clock nets).
  void check_control_cones() {
    cone_of_net_.assign(top_.num_nets(), -1);
    for (std::uint32_t i = 0; i < top_.insts().size(); ++i) {
      const Instance& inst = top_.inst(InstId(i));
      if (!inst.is_cell()) continue;
      const Cell& cell = d_.lib().cell(inst.cell);
      if (!cell.is_sequential()) continue;
      const std::uint32_t ctrl = cell.sync().control;
      if (!inst.conn[ctrl].valid()) continue;  // reported elsewhere
      trace_control(InstId(i), inst.name, inst.conn[ctrl]);
    }
  }

  struct ConeResult {
    int num_clocks = 0;
    std::string clock_name;
    bool monotonic = true;
  };

  void trace_control(InstId elem, const std::string& elem_name, NetId net) {
    int& memo = cone_of_net_[net.value()];
    if (memo < 0) {
      // Polarity of each net w.r.t. the clock: +1 positive, -1 negative.
      std::unordered_map<std::uint32_t, int> polarity;
      ConeResult walked;
      walk_cone(net, +1, polarity, walked);
      memo = static_cast<int>(cones_.size());
      cones_.push_back(std::move(walked));
    }
    const ConeResult& res = cones_[static_cast<std::size_t>(memo)];
    if (!res.monotonic) {
      finding(DiagCode::kDesignControlCone,
              "control input of '" + elem_name +
                  "' is not a monotonic function of one clock signal",
              {elem});
    } else if (res.num_clocks == 0) {
      finding(DiagCode::kDesignControlCone,
              "control input of '" + elem_name +
                  "' is not reachable from any clock port",
              {elem});
    } else if (res.num_clocks > 1) {
      finding(DiagCode::kDesignControlCone,
              "control input of '" + elem_name + "' depends on more than one clock",
              {elem});
    }
  }

  void walk_cone(NetId net_id, int pol,
                 std::unordered_map<std::uint32_t, int>& polarity,
                 ConeResult& res) {
    auto [it, inserted] = polarity.emplace(net_id.value(), pol);
    if (!inserted) {
      if (it->second != pol) res.monotonic = false;
      return;
    }
    const Net& net = top_.net(net_id);
    // Clock port driving this net?
    for (std::uint32_t p : net.module_ports) {
      const ModulePort& port = top_.port(p);
      if (port.direction == PortDirection::kInput && port.is_clock) {
        if (res.num_clocks == 0) {
          res.clock_name = port.name;
          ++res.num_clocks;
        } else if (res.clock_name != port.name) {
          ++res.num_clocks;
        }
      }
    }
    // Walk through combinational drivers.
    report_.control_cone_pins_visited += net.pins.size();
    for (const PinRef& pin : net.pins) {
      const Instance& inst = top_.inst(pin.inst);
      if (d_.target_port_dir(inst, pin.port) != PortDirection::kOutput) continue;
      if (inst.is_cell() && d_.lib().cell(inst.cell).is_sequential()) {
        continue;  // enable path source; carries no clock polarity
      }
      if (!inst.is_cell()) {
        // Flat designs only reach here if validate() was handed hierarchy;
        // treat module as opaque non-unate.
        res.monotonic = false;
        continue;
      }
      const Cell& cell = d_.lib().cell(inst.cell);
      for (const TimingArc& arc : cell.arcs()) {
        if (arc.to_port != pin.port) continue;
        if (!inst.conn[arc.from_port].valid()) continue;
        // Non-unate gates break monotonicity, but the cone walk continues so
        // clock reachability is still discovered and reported sensibly.
        if (arc.unate == Unate::kNone) res.monotonic = false;
        const int next = arc.unate == Unate::kNegative ? -pol : pol;
        walk_cone(inst.conn[arc.from_port], next, polarity, res);
      }
    }
  }

  const Design& d_;
  const Module& top_;
  ValidationReport& report_;
  std::vector<int> cone_of_net_;  // [net] index into cones_, or -1
  std::vector<ConeResult> cones_;
};

}  // namespace

std::string ValidationReport::to_string() const {
  std::string out;
  for (const ValidationFinding& f : findings) {
    out += f.diag.message;
    out += '\n';
  }
  return out;
}

ValidationReport validate(const Design& design) {
  ValidationReport report;

  // Hierarchy rule: instantiated submodules must be purely combinational.
  bool hierarchical = false;
  for (const Instance& inst : design.top().insts()) {
    if (!inst.is_cell()) {
      hierarchical = true;
      if (module_has_sequential(design, inst.module)) {
        ValidationFinding f;
        f.diag.code = DiagCode::kDesignHierarchy;
        f.diag.severity = Severity::kFatal;  // not salvageable by quarantine
        f.diag.message = "submodule '" + design.module(inst.module).name() +
                         "' contains synchronising elements";
        report.findings.push_back(std::move(f));
      }
    }
  }
  if (!report.ok()) return report;

  if (hierarchical) {
    Design flat = flatten(design);
    FlatChecker(flat, report).run();
  } else {
    FlatChecker(design, report).run();
  }
  return report;
}

std::vector<bool> compute_quarantine(const Design& flat_design,
                                     const ValidationReport& report) {
  const Module& top = flat_design.top();
  std::vector<bool> quarantined(top.insts().size(), false);
  std::vector<bool> dead(top.num_nets(), false);

  for (const ValidationFinding& f : report.findings) {
    for (InstId i : f.insts) {
      if (i.valid() && i.value() < quarantined.size()) quarantined[i.value()] = true;
    }
    for (NetId n : f.nets) {
      if (n.valid() && n.value() < dead.size()) dead[n.value()] = true;
    }
  }

  // Fixpoint: reading a dead net poisons the reader; a net all of whose
  // drivers are poisoned (and that no top-level input port drives) dies.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 0; i < top.insts().size(); ++i) {
      if (quarantined[i]) continue;
      const Instance& inst = top.inst(InstId(i));
      for (std::uint32_t p = 0; p < inst.conn.size(); ++p) {
        if (!inst.conn[p].valid()) continue;
        if (flat_design.target_port_dir(inst, p) != PortDirection::kInput) continue;
        if (dead[inst.conn[p].value()]) {
          quarantined[i] = true;
          changed = true;
          break;
        }
      }
    }
    for (std::uint32_t n = 0; n < top.num_nets(); ++n) {
      if (dead[n]) continue;
      const Net& net = top.net(NetId(n));
      bool port_driven = false;
      for (std::uint32_t p : net.module_ports) {
        if (top.port(p).direction == PortDirection::kInput) {
          port_driven = true;
          break;
        }
      }
      if (port_driven) continue;
      int drivers = 0;
      int dead_drivers = 0;
      for (const PinRef& pin : net.pins) {
        const Instance& inst = top.inst(pin.inst);
        if (flat_design.target_port_dir(inst, pin.port) == PortDirection::kOutput) {
          ++drivers;
          if (quarantined[pin.inst.value()]) ++dead_drivers;
        }
      }
      if (drivers > 0 && dead_drivers == drivers) {
        dead[n] = true;
        changed = true;
      }
    }
  }
  return quarantined;
}

}  // namespace hb
