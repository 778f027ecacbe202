// Slow-path reporting: the analyser's first duty is to "find all paths that
// are too slow".  Paths are enumerated by tracing the critical (max-arrival)
// predecessor chain backward from each violating capture terminal in its
// assigned analysis pass, exactly the information a designer inspects when
// Hummingbird flags slow paths in the OCT database for viewing in VEM —
// here, flags land on Design nets via flag_slow_paths().
#pragma once

#include <string>
#include <vector>

#include "sta/slack_engine.hpp"

namespace hb {

struct PathStep {
  TNodeId node;
  TimePs arrival = 0;  // in the pass's linearised coordinates
  bool rising = true;  // transition direction at this node
};

struct SlowPath {
  TimePs slack = 0;        // negative
  SyncId capture;          // violating capture terminal
  SyncId launch;           // launch terminal the critical chain starts at
  std::vector<PathStep> steps;  // launch first, capture last
};

/// One lane of multi-lane results for the reports to read in place of the
/// engine's own (one corner of a CornerAnalysis): the lane's terminal slacks
/// by SyncId, the K-lane passes they came from by [cluster][pass], and the
/// lane-major arc delays those passes were swept with — lane `lane` of arc
/// `a` at arc_delay[a * stride + lane], the convention check_hold takes.
/// Set every field or none: a default LaneResults reads the engine's
/// terminal slacks, its cached passes and the graph's own delays.
struct LaneResults {
  std::size_t lane = 0;
  const TimePs* launch_slack = nullptr;
  const TimePs* capture_slack = nullptr;
  const std::vector<std::vector<PassResult>>* passes = nullptr;
  const RiseFall* arc_delay = nullptr;
  std::size_t stride = 1;
};

/// All capture terminals with slack below `slack_limit`, worst first by
/// (slack, SyncId), at most `max_paths` of them, each with its critical
/// path, traced through the assigned pass's cached ready times (valid after
/// compute()/update(), which every exit of Algorithms 1 and 2 performs).
std::vector<SlowPath> enumerate_slow_paths(const SlackEngine& engine,
                                           std::size_t max_paths,
                                           TimePs slack_limit = 0,
                                           const LaneResults& from = {});

/// Human-readable multi-line rendering.
std::string format_paths(const SlackEngine& engine,
                         const std::vector<SlowPath>& paths);

/// Mark every net traversed by the given paths as slow in the design
/// database (the paper's "flag all slow paths in the OCT data base").
void flag_slow_paths(Design& design, const TimingGraph& graph,
                     const std::vector<SlowPath>& paths);

/// One-screen summary: worst slack, violation counts, pass statistics.
std::string timing_summary(const SlackEngine& engine,
                           const LaneResults& from = {});

}  // namespace hb
