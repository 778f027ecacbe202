// Multi-corner sign-off (docs/SCENARIOS.md).
//
// Wraps a prepared SlackEngine and evaluates its analysis passes under all
// K corners of a CornerSet in single K-lane sweeps.  The engine's
// pre-processing — clusters, clock-edge graphs, break nodes, capture/pass
// assignment — depends only on the ideal clock schedule, never on delays,
// so it is shared verbatim across corners: the schedule is settled once
// (Algorithm 1 on the base corner) and signed off under every corner here.
//
// A CornerAnalysis is one-shot: construct it over the settled engine, call
// compute(), read the per-corner results, discard it.  The derated delay
// table is taken at construction.  Everything it computes runs through the
// engine's own code in src/sta with the lane and the delay table as
// parameters: the eq. (1)/(2) kernel pair, the node fold, the path tracer
// and the report format.  A K=1 identity CornerSet therefore reproduces the
// wrapped engine's passes, slacks, node timings and report text byte for
// byte (tests/corner_test.cpp).
//
// The worst-across-corners merge breaks ties by corner *index*, mirroring
// the (slack, SyncId) rule of the path reports.
#pragma once

#include <functional>
#include <string>

#include "scenario/corner_set.hpp"
#include "sta/hold_check.hpp"
#include "sta/report.hpp"

namespace hb {

/// Per-corner derated delays of every arc, lane-major: the K delays of arc
/// `a` live at data()[a * lanes() + 0 .. K-1], mirroring the PassSide lane
/// layout so the kernels stream both arrays in lockstep.  Component arcs
/// derate by the corner's cell factor (per-cell override, else derate_pm),
/// net arcs by wire_pm; identity factors reproduce the nominal delay
/// exactly.
class CornerDelays {
 public:
  CornerDelays(const TimingGraph& graph, const CornerSet& corners);

  std::size_t lanes() const { return lanes_; }
  const RiseFall* data() const { return delay_.data(); }

 private:
  std::vector<RiseFall> delay_;  // [num_arcs * lanes_]
  std::size_t lanes_ = 0;
};

/// A worst-across-corners merge result: the worst slack and the corner
/// index it came from (lowest index among equal-slack corners).
struct MergedSlack {
  TimePs slack = kInfinitePs;
  std::uint32_t corner = 0;
};

class CornerAnalysis {
 public:
  /// `engine` must stay alive and keep its pre-processing (it need not have
  /// been computed).  An empty `corners` stands for CornerSet::identity().
  CornerAnalysis(const SlackEngine& engine, CornerSet corners);

  std::size_t num_corners() const { return corners_.size(); }
  const CornerSet& corner_set() const { return corners_; }
  const SlackEngine& engine() const { return *engine_; }

  /// Evaluate every pass under all corners in K-lane sweeps at the engine's
  /// current offsets, then fold terminal and node results per corner.
  /// Pooling mirrors SlackEngine::compute: each pass is one pool task;
  /// results are byte-identical at every thread count.
  void compute(ThreadPool* pool = nullptr);

  // -- Per-corner results (valid after compute()) -------------------------
  TimePs launch_slack(std::size_t k, SyncId id) const {
    return launch_slack_[k * num_sync_ + id.index()];
  }
  TimePs capture_slack(std::size_t k, SyncId id) const {
    return capture_slack_[k * num_sync_ + id.index()];
  }
  TimePs worst_terminal_slack(std::size_t k) const;
  const std::vector<NodeTiming>& node_timings(std::size_t k) const {
    return node_[k];
  }

  /// Worst terminal slack over all corners (ties -> lowest corner index).
  MergedSlack merged_worst_slack() const;

  /// Corner-k slow paths: enumerate_slow_paths over corner k's capture
  /// slacks, traced through its lane of the K-lane passes and its derated
  /// delays.
  std::vector<SlowPath> slow_paths(std::size_t k,
                                   std::size_t max_paths = 10) const;

  /// Corner-k text report: timing_summary and format_paths over corner k's
  /// results, so a K=1 identity set reproduces Hummingbird::report().
  std::string report(std::size_t k, std::size_t max_paths = 10) const;

  /// Hold checks under corner k's derated delays: the engine's terminal
  /// table rows, each re-walked with corner k's lane.
  std::vector<HoldViolation> check_hold_times(std::size_t k,
                                              TimePs hold_margin = 0) const;

  /// K-lane result of one pass (exposed for the differential tests).
  const PassResult& cached_pass(ClusterId c, std::size_t pass) const {
    return passes_[c.index()].at(pass);
  }

 private:
  /// Corner k's results, as the shared reports read them.
  LaneResults lane(std::size_t k) const;
  /// Terminal slacks of every corner from cluster `c`'s passes: a capture
  /// reads its assigned pass, a launch takes the minimum over passes.
  void fold_terminals(ClusterId c);

  const SlackEngine* engine_;
  CornerSet corners_;
  CornerDelays delays_;

  std::vector<std::vector<PassResult>> passes_;  // [cluster][pass], K lanes
  /// Pool tasks of compute(), reused so a repeated compute() allocates
  /// nothing.
  std::vector<std::function<void()>> task_fns_;

  // Per-corner results: flat [corner * num_sync_ + SyncId] slacks and one
  // NodeTiming array per corner.
  std::size_t num_sync_ = 0;
  std::vector<TimePs> launch_slack_;
  std::vector<TimePs> capture_slack_;
  std::vector<std::vector<NodeTiming>> node_;
  /// One node's K lanes while they are folded, kept so that a repeated
  /// compute() allocates nothing.
  std::vector<NodeTiming> lane_fold_;
};

}  // namespace hb
