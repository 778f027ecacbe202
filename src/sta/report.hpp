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

/// All capture terminals with slack below `slack_limit`, worst first,
/// at most `max_paths` of them, each with its critical path, traced through
/// the engine's cached passes (valid after compute()/update(), which every
/// exit of Algorithms 1 and 2 performs).
std::vector<SlowPath> enumerate_slow_paths(const SlackEngine& engine,
                                           std::size_t max_paths,
                                           TimePs slack_limit = 0);

/// Human-readable multi-line rendering.
std::string format_paths(const SlackEngine& engine,
                         const std::vector<SlowPath>& paths);

/// Mark every net traversed by the given paths as slow in the design
/// database (the paper's "flag all slow paths in the OCT data base").
void flag_slow_paths(Design& design, const TimingGraph& graph,
                     const std::vector<SlowPath>& paths);

/// One-screen summary: worst slack, violation counts, pass statistics.
std::string timing_summary(const SlackEngine& engine);

}  // namespace hb
