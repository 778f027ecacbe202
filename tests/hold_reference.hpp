// Reference walks for the hold check and the Section 7 requirements, kept
// in the form they had before both moved onto the rows of the engine's
// terminal delay table (SlackEngine::terminal_table), the way bench_core
// keeps the pre-CSR engine:
//   * check_hold: per launch source, a min-delay sweep over the source's
//     whole cluster, then every (launch, capture) pair it reaches, sorted
//     and reduced to one worst margin per pair;
//   * cone / requirements: per source node, a depth-first search over the
//     graph's fanout, and one ordering requirement per connected (launch
//     instance, capture instance) pair.
// tests/hold_reference_test.cpp holds the engine against both.
#pragma once

#include <algorithm>
#include <vector>

#include "sta/hold_check.hpp"

namespace hb::reference {

/// check_hold(engine, hold_margin, arc_delay, stride, lane) by cluster-wide
/// sweeps: arc `a` reads arc_delay[a * stride + lane], or its graph delay
/// when `arc_delay` is null.
inline std::vector<HoldViolation> check_hold(const SlackEngine& engine,
                                             TimePs hold_margin,
                                             const RiseFall* arc_delay = nullptr,
                                             std::size_t stride = 1,
                                             std::size_t lane = 0) {
  const TimingGraph& graph = engine.graph();
  const SyncModel& sync = engine.sync();
  const ClusterSet& clusters = engine.clusters();
  const TimePs T = sync.overall_period();
  std::vector<HoldViolation> out;
  std::vector<TimePs> dmin;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    if (cl.sink_nodes.empty()) continue;
    for (TNodeId src : cl.source_nodes) {
      // Minimum delay (min over transitions) from the source to every node
      // of the cluster, swept over the local CSR in level order.
      dmin.assign(cl.nodes.size(), kInfinitePs);
      dmin[engine.local_index(src)] = 0;
      for (std::uint32_t li = 0; li < cl.nodes.size(); ++li) {
        const TimePs dn = dmin[li];
        if (dn == kInfinitePs || cl.blocked[li]) continue;
        for (std::uint32_t k = cl.out_offsets[li]; k < cl.out_offsets[li + 1];
             ++k) {
          const std::uint32_t ai = cl.out_arc[k];
          const RiseFall d = arc_delay != nullptr
                                 ? arc_delay[ai * stride + lane]
                                 : graph.arc(ai).delay;
          TimePs& slot = dmin[cl.out_local[k]];
          slot = std::min(slot, dn + d.min());
        }
      }
      for (TNodeId sink : cl.sink_nodes) {
        const TimePs d = dmin[engine.local_index(sink)];
        if (d == kInfinitePs) continue;
        for (SyncId li : sync.launches_at(src)) {
          const SyncInstance& launch = sync.at(li);
          for (SyncId cj : sync.captures_at(sink)) {
            const SyncInstance& cap = sync.at(cj);
            if (!cap.inst.valid() && cap.is_virtual) continue;
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
            const TimePs margin = launch.assert_offset() + d + gap - prev_offset;
            if (margin < hold_margin) out.push_back({li, cj, margin});
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HoldViolation& a, const HoldViolation& b) {
              if (a.launch != b.launch) return a.launch < b.launch;
              if (a.capture != b.capture) return a.capture < b.capture;
              return a.margin < b.margin;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const HoldViolation& a, const HoldViolation& b) {
                          return a.launch == b.launch &&
                                 a.capture == b.capture;
                        }),
            out.end());
  return out;
}

/// Nodes reachable from `src`, `src` included, by a depth-first search over
/// the graph's fanout that expands no kSyncDataIn or kSyncControl node.
inline std::vector<TNodeId> cone(const SlackEngine& engine, TNodeId src) {
  const TimingGraph& graph = engine.graph();
  const Cluster& cl = engine.clusters().cluster(engine.clusters().cluster_of(src));
  std::vector<char> visited(cl.nodes.size(), 0);
  std::vector<TNodeId> stack{src};
  std::vector<TNodeId> reached;
  visited[engine.local_index(src)] = 1;
  while (!stack.empty()) {
    const TNodeId n = stack.back();
    stack.pop_back();
    reached.push_back(n);
    const NodeRole role = graph.node(n).role;
    if (role == NodeRole::kSyncDataIn || role == NodeRole::kSyncControl) {
      continue;
    }
    for (std::uint32_t ai : graph.fanout(n)) {
      const TNodeId to = graph.arc(ai).to;
      char& v = visited[engine.local_index(to)];
      if (!v) {
        v = 1;
        stack.push_back(to);
      }
    }
  }
  return reached;
}

/// Cluster `c`'s Section 7 pre-processing from the depth-first search: the
/// number of distinct ordering requirements and the minimum break set.
struct Requirements {
  std::size_t count = 0;
  std::vector<std::size_t> breaks;
};

inline Requirements requirements(const SlackEngine& engine, ClusterId c) {
  const SyncModel& sync = engine.sync();
  const Cluster& cl = engine.clusters().cluster(c);
  std::vector<TimePs> times;
  for (TNodeId n : cl.source_nodes) {
    for (SyncId id : sync.launches_at(n)) times.push_back(sync.at(id).ideal_assert);
  }
  bool any_capture = false;
  for (TNodeId n : cl.sink_nodes) {
    for (SyncId id : sync.captures_at(n)) {
      times.push_back(sync.at(id).ideal_close);
      any_capture = true;
    }
  }
  if (cl.source_nodes.empty() || !any_capture) return {};
  ClockEdgeGraph edges(std::move(times), sync.overall_period());
  for (TNodeId src : cl.source_nodes) {
    for (TNodeId n : cone(engine, src)) {
      for (SyncId li : sync.launches_at(src)) {
        for (SyncId cj : sync.captures_at(n)) {
          edges.add_requirement(sync.at(li).ideal_assert,
                                sync.at(cj).ideal_close);
        }
      }
    }
  }
  return {edges.num_requirements(), edges.solve_min_breaks()};
}

}  // namespace hb::reference
