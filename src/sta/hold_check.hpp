// EXTENSION (not part of the paper's algorithms): supplementary path
// constraint checking.
//
// The paper defines, for each combinational path ending at data input y,
//     dmin_p > D_p - O_x + O_y - T_p
// — data must not be updated more than one capture-pulse spacing before the
// input closure time — but states "Our algorithms do not detect these
// problems."  This module adds that detection as an optional extra: for
// every (launch instance, capture instance) pair connected by a path, the
// earliest possible arrival (minimum path delay from the *actual* assertion
// time) must not precede the *previous* closure of the capture element by
// more than -hold_margin.  Violations here typically indicate badly
// asymmetric control path delays (clock skew) or fast paths racing through
// transparent latches.
#pragma once

#include <vector>

#include "sta/slack_engine.hpp"

namespace hb {

struct HoldViolation {
  SyncId launch;
  SyncId capture;   // the capture instance whose *previous* closure races
  TimePs margin;    // actual_arrival - previous_closure; violation if < hold_margin
};

/// Check all launch/capture pairs with the current offsets.  `hold_margin`
/// is the minimum time data must arrive after the previous input closure.
/// The pairs and their minimum path delays come from the engine's terminal
/// delay table (SlackEngine::terminal_table): one row per launch node, each
/// sink it reaches with the least delay over its cone.  So, like
/// launch_slack(), the check reads delays as of the engine's last refresh;
/// a nominal check walks no node.  The result is sorted by (launch,
/// capture), one entry per pair.
///
/// `arc_delay` (optional) substitutes per-arc delays for the graph's own:
/// arc `a` reads arc_delay[a * stride + lane], the lane-major convention of
/// the pass kernels and the path tracer.  Each row is then re-walked over
/// its cone with that lane's delays (passdetail::sweep_cone).  The
/// multi-corner layer (src/scenario) passes its derated delay table here to
/// check hold under each corner; nullptr keeps the table's nominal delays.
std::vector<HoldViolation> check_hold(const SlackEngine& engine,
                                      TimePs hold_margin = 0,
                                      const RiseFall* arc_delay = nullptr,
                                      std::size_t stride = 1,
                                      std::size_t lane = 0);

}  // namespace hb
