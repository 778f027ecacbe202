// Shared test fixtures: the generator-network workload list and the
// byte-level comparison helpers used by the determinism sweeps
// (parallel_sweep_test), the BLIF round-trip differential suite
// (blif_roundtrip_test) and the incremental and corner differentials.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/alu.hpp"
#include "gen/des.hpp"
#include "gen/fig1.hpp"
#include "gen/filter.hpp"
#include "gen/fsm.hpp"
#include "gen/pipeline.hpp"
#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "sta/analysis_pass.hpp"
#include "sta/cluster.hpp"
#include "sta/report.hpp"
#include "sta/slack_engine.hpp"

namespace hb {

struct Workload {
  std::string name;
  Design design;
  ClockSet clocks;
};

/// One of every generator network, with its canonical clock set.
inline std::vector<Workload> all_generator_networks() {
  auto lib = make_standard_library();
  std::vector<Workload> out;
  {
    Fig1Config cfg;
    out.push_back({"fig1", make_fig1_design(lib, cfg), make_fig1_clocks(cfg)});
  }
  out.push_back({"fsm_flat", make_fsm_flat(lib), make_single_clock(ns(20), ns(8))});
  out.push_back({"alu", make_alu(lib), make_single_clock(ns(8), ps(3200))});
  out.push_back({"des", make_des(lib), make_single_clock(ns(6), ps(2400))});
  {
    PipelineSpec spec;
    spec.stage_depths = {6, 6, 6};
    spec.width = 6;
    out.push_back({"pipeline", make_pipeline(lib, spec),
                   make_two_phase_clocks(ns(6))});
  }
  {
    FilterSpec spec;
    spec.width = 8;
    spec.taps = 4;
    spec.reg_cell = "TLATCH";
    out.push_back({"filter", make_multirate_filter(lib, spec),
                   make_multirate_clocks(ns(8))});
  }
  {
    RandomNetworkSpec spec;
    spec.seed = 7;
    spec.num_clocks = 2;
    spec.banks = 4;
    spec.bank_width = 5;
    spec.gates_per_stage = 40;
    RandomNetwork net = make_random_network(lib, spec);
    out.push_back({"random", std::move(net.design), std::move(net.clocks)});
  }
  return out;
}

/// Two path lists agree exactly: slack, terminals and every step.
inline bool same_paths(const std::vector<SlowPath>& a,
                       const std::vector<SlowPath>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].slack != b[i].slack || a[i].capture != b[i].capture ||
        a[i].launch != b[i].launch || a[i].steps.size() != b[i].steps.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a[i].steps.size(); ++k) {
      const PathStep& x = a[i].steps[k];
      const PathStep& y = b[i].steps[k];
      if (x.node != y.node || x.arrival != y.arrival || x.rising != y.rising) {
        return false;
      }
    }
  }
  return true;
}

/// Raw bytes of every cached pass of every cluster, in a fixed order.
inline std::vector<std::uint8_t> pass_bytes(const SlackEngine& engine) {
  std::vector<std::uint8_t> out;
  const auto append = [&out](const PassSide& side) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(side.data());
    out.insert(out.end(), p, p + side.size() * sizeof(RiseFall));
  };
  for (std::uint32_t c = 0; c < engine.clusters().num_clusters(); ++c) {
    for (std::size_t p = 0; p < engine.num_passes(ClusterId(c)); ++p) {
      const PassResult& res = engine.cached_pass(ClusterId(c), p);
      append(res.ready);
      append(res.required);
    }
  }
  return out;
}

}  // namespace hb
