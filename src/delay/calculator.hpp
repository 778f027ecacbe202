// Component propagation-delay estimation (paper Section 1: "By separating
// component delay-estimation and system-timing analysis, different
// delay-estimation methods may be combined").
//
// For library cells the delay of an arc instance is
//     intrinsic + slope * C_load(output net).
// For combinational submodule instances the calculator *combines* internal
// cell delays into module-level arcs ("For combinational logic modules the
// delays have been combined to generate estimates of the module propagation
// delays"): each (input port -> output port) pair with an internal path
// becomes one arc whose intrinsic part is the worst internal path delay
// (internal net loads included) and whose slope is the final internal
// driver's slope, so the outer net load is still accounted for.  Module
// arcs are conservatively non-unate.
#pragma once

#include <unordered_map>
#include <vector>

#include "delay/delay_model.hpp"
#include "netlist/design.hpp"

namespace hb {

class DelayCalculator {
 public:
  explicit DelayCalculator(const Design& design, WireLoadModel wire = {});

  const Design& design() const { return *design_; }

  /// Interactive-mode hooks (paper Section 8: "Adjustments may also be made
  /// to component delays"): a global derating factor and additive
  /// per-instance adjustments (top-level instances only).  Apply before
  /// building the timing graph; they affect every arc delay uniformly.
  void set_derate(double factor);
  double derate() const { return derate_; }
  void adjust_instance(InstId inst, TimePs delta);
  TimePs instance_adjustment(InstId inst) const;

  /// Capacitive load (fF) on a net of module `mod`: connected input-pin
  /// caps plus the statistical wire load.
  double net_load_ff(ModuleId mod, NetId net) const;

  /// Input capacitance presented by port `port` of whatever `inst`
  /// instantiates (cell pin cap, or the combined cap of a module port).
  double input_cap_ff(ModuleId mod, const Instance& inst, std::uint32_t port) const;

  /// Timing arcs of an instance's target: a cell's library arcs, or the
  /// combined arcs of a submodule (computed lazily and memoized).
  const std::vector<TimingArc>& arcs_of(const Instance& inst) const;

  /// Delay of one arc of instance `inst` living in module `mod`, given the
  /// load on the arc's output net.
  RiseFall arc_delay(ModuleId mod, InstId inst, const TimingArc& arc) const;

 private:
  struct ModuleTiming {
    std::vector<TimingArc> arcs;
    std::vector<double> port_cap_ff;  // input ports only; 0 for outputs
  };

  const ModuleTiming& module_timing(ModuleId id) const;
  ModuleTiming compute_module_timing(ModuleId id) const;

  const Design* design_;
  WireLoadModel wire_;
  double derate_ = 1.0;
  std::unordered_map<std::uint32_t, TimePs> instance_adjust_;
  mutable std::unordered_map<std::uint32_t, ModuleTiming> module_cache_;
};

}  // namespace hb
