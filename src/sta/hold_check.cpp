#include "sta/hold_check.hpp"

#include <algorithm>

namespace hb {

std::vector<HoldViolation> check_hold(const SlackEngine& engine,
                                      TimePs hold_margin,
                                      const RiseFall* arc_delay,
                                      std::size_t stride, std::size_t lane) {
  const ClusterSet& clusters = engine.clusters();
  const SyncModel& sync = engine.sync();
  const TimePs T = sync.overall_period();
  // Under a corner, each row is re-walked with the lane's delays; its min
  // delays land in `lane_min`, in the row's pair order.
  passdetail::ConeScratch scratch;
  std::vector<TimePs> lane_min;
  const auto lane_delay = [arc_delay, stride, lane](const TArcRec&,
                                                    std::uint32_t ai) {
    return arc_delay[ai * stride + lane];
  };

  std::vector<HoldViolation> out;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    const TerminalTable& t = engine.terminal_table(ClusterId(c));
    if (arc_delay != nullptr) scratch.ensure(cl.nodes.size());
    for (std::uint32_t r = 0; r + 1 < t.row_begin.size(); ++r) {
      const TNodeId src = cl.source_nodes[r];
      const std::uint32_t begin = t.row_begin[r];
      const TimePs* dmin = t.pair_min.data() + begin;
      if (arc_delay != nullptr) {
        lane_min.clear();
        passdetail::sweep_cone(
            cl, engine.graph().arcs_data(), t.row_local[r], lane_delay,
            scratch, [&](std::uint32_t li, RiseFall, TimePs m) {
              if (t.sink_of_local[li] != TerminalTable::kNone) {
                lane_min.push_back(m);
              }
            });
        dmin = lane_min.data();
      }
      for (std::uint32_t q = begin; q < t.row_begin[r + 1]; ++q) {
        const TNodeId sink = cl.sink_nodes[t.pair_sink[q]];
        const TimePs d = dmin[q - begin];
        for (SyncId li : sync.launches_at(src)) {
          const SyncInstance& launch = sync.at(li);
          for (SyncId cj : sync.captures_at(sink)) {
            const SyncInstance& cap = sync.at(cj);
            if (!cap.inst.valid() && cap.is_virtual) continue;  // PO: no race
            // Previous closure of the capture element relative to the
            // launch's assertion: the closure instance (of the same physical
            // element) at the smallest cyclic distance at-or-before the
            // launch edge.
            TimePs gap = kInfinitePs;
            TimePs prev_offset = 0;
            for (SyncId ck : sync.captures_at(sink)) {
              const SyncInstance& other = sync.at(ck);
              if (other.inst != cap.inst ||
                  other.is_virtual != cap.is_virtual) {
                continue;
              }
              const TimePs g =
                  mod_period(launch.ideal_assert - other.ideal_close, T);
              if (g < gap) {
                gap = g;
                prev_offset = other.close_offset();
              }
            }
            if (gap == kInfinitePs) continue;
            // Earliest arrival vs. previous closure, both in actual time.
            const TimePs margin = launch.assert_offset() + d + gap - prev_offset;
            if (margin < hold_margin) out.push_back({li, cj, margin});
          }
        }
      }
    }
  }

  // A launch instance sits at one node and a capture instance at one node,
  // so each (launch, capture) pair occurs once.
  std::sort(out.begin(), out.end(),
            [](const HoldViolation& a, const HoldViolation& b) {
              if (a.launch != b.launch) return a.launch < b.launch;
              return a.capture < b.capture;
            });
  return out;
}

}  // namespace hb
