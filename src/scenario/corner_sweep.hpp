// K-lane corner-parallel analysis sweeps (docs/SCENARIOS.md).
//
// One levelized sweep evaluates eq. (1)/(2) under all K corners at once:
// the PassSide arrays are widened to K lanes per node (lane-major — the
// corner vector of a node is one contiguous run), and every fold kernel
// iteration processes that run against the arc's per-corner derated delays.
// Graph traversal — the CSR walks and the presence/blocked tests — is paid
// once and amortised across all corners, which is the whole point of the
// lane layout (bench_core's corner section measures the K-vs-1
// amortisation).
//
// Presence is structural (which launches reach a node, which captures are
// assigned), so it is identical across lanes: a slot is absent in every
// lane or in none, and the kernels test lane 0 exactly like the K=1
// kernels test the single slot.  Each lane keeps the full sentinel-absence
// semantics of PassSide — folds through absent values stay on the absent
// side of the threshold.
//
// One kernel pair, the K-lane forms of the single-corner forward scatter
// and backward gather, with the same fold sets and integer arithmetic: with
// K=1 identity derates the results are byte-identical to the single-corner
// kernels (tests/corner_test.cpp).
#pragma once

#include <vector>

#include "scenario/corner_set.hpp"
#include "sta/analysis_pass.hpp"

namespace hb {

/// Per-corner derated delays of every arc, lane-major: the K delays of arc
/// `a` live at data()[a * lanes() + 0 .. K-1], mirroring the PassSide lane
/// layout so kernels stream both arrays in lockstep.  Component arcs derate
/// by the corner's cell factor (per-cell override, else derate_pm), net
/// arcs by wire_pm; identity factors reproduce the nominal delay exactly.
class CornerDelays {
 public:
  CornerDelays() = default;
  CornerDelays(const TimingGraph& graph, const CornerSet& corners);

  std::size_t lanes() const { return lanes_; }
  std::size_t num_arcs() const { return lanes_ == 0 ? 0 : delay_.size() / lanes_; }
  /// The K-lane delay row of arc `a`.
  const RiseFall* row(std::size_t a) const { return &delay_[a * lanes_]; }
  const RiseFall* data() const { return delay_.data(); }

  /// Re-derate the rows of `arc_ids` from the graph's current delays (after
  /// an in-place delay update; structure unchanged).
  void refresh_arcs(const TimingGraph& graph, const CornerSet& corners,
                    const std::vector<std::uint32_t>& arc_ids);

 private:
  std::vector<RiseFall> delay_;  // [num_arcs * lanes_]
  std::size_t lanes_ = 0;
};

/// K-lane pass result: ready/required PassSides with `lanes` corner lanes
/// per node.  With lanes == 1 the buffers are byte-identical to PassResult.
struct CornerPassResult {
  PassSide ready;
  PassSide required;

  explicit CornerPassResult(std::size_t lanes = 1)
      : ready(-kInfinitePs, lanes), required(kInfinitePs, lanes) {}
};

/// K-lane mirror of run_analysis_pass_into: one serial forward and one
/// serial backward sweep settle all K corners of every node.  Launch/capture
/// seeds are schedule times (corner-independent — see docs/SCENARIOS.md on
/// "schedule once, sign off across corners"), broadcast to every lane.
void run_corner_pass_into(const TimingGraph& graph, const SyncModel& sync,
                          const Cluster& cluster,
                          const std::vector<std::uint32_t>& local_index,
                          const ClockEdgeGraph& edges, std::size_t break_node,
                          const std::vector<SyncId>& capture_insts,
                          const std::vector<bool>& assigned,
                          const CornerDelays& delays, CornerPassResult& res);

/// K-lane mirror of update_analysis_pass: re-derives exactly the forward/
/// backward cones of the seed sets in every lane at once, using the shared
/// passdetail cone sweeps.  Bit-identical per corner to a fresh
/// run_corner_pass_into (tests/corner_test.cpp holds them against each
/// other through the incremental orchestrator).
std::size_t update_corner_pass(const TimingGraph& graph, const SyncModel& sync,
                               const Cluster& cluster,
                               const ClockEdgeGraph& edges,
                               std::size_t break_node,
                               const std::vector<SyncId>& capture_insts,
                               const std::vector<bool>& assigned,
                               const CornerDelays& delays,
                               const std::vector<std::uint32_t>& fwd_seeds,
                               const std::vector<std::uint32_t>& bwd_seeds,
                               CornerPassResult& res, PassWorkspace& ws);

}  // namespace hb
