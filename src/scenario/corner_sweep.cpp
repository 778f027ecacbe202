#include "scenario/corner_sweep.hpp"

namespace hb {
namespace {

/// Ready-side presence threshold — same constant the single-corner kernels
/// and PassSide::has test against (see sta/analysis_pass.cpp).
constexpr TimePs kFwdAbsentHalf = -(kInfinitePs / 2);

RiseFall derate_rf(RiseFall d, std::uint32_t pm) {
  return {derate_time(d.rise, pm), derate_time(d.fall, pm)};
}

/// Derate factor of one arc under one corner: net arcs take wire_pm,
/// component arcs the per-cell override (by library cell name) else
/// derate_pm.  Submodule instances have no library cell name and take
/// derate_pm.
std::uint32_t arc_factor(const TimingGraph& graph, const TArcRec& arc,
                         const Corner& corner) {
  if (arc.is_net) return corner.wire_pm;
  if (corner.cell_pm.empty()) return corner.derate_pm;
  const TNode& head = graph.node(arc.to);
  if (head.is_top_port) return corner.derate_pm;
  const Instance& inst = graph.design().top().inst(head.inst);
  if (!inst.is_cell()) return corner.derate_pm;
  return corner.cell_factor(graph.design().lib().cell(inst.cell).name());
}

// K-lane sweep kernels.  Loop shapes mirror the single-corner kernels in
// sta/analysis_pass.cpp, with an inner lane loop folding each corner
// against its derated delay.  Presence tests read lane 0 — presence is
// structural and lane-uniform — and every lane is folded with the same
// integer arithmetic as the single-corner kernels, so K=1 with identity
// derates is byte-identical.

void corner_forward_scatter(const Cluster& cl, const TArcRec* arcs,
                            const RiseFall* dl, std::size_t K,
                            RiseFall* ready) {
  const std::size_t n = cl.nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) {
    if (ready[li * K].rise <= kFwdAbsentHalf || cl.blocked[li]) continue;
    const RiseFall* in = &ready[li * K];
    const std::uint32_t end = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < end; ++k) {
      const std::uint32_t ai = cl.out_arc[k];
      const TArcRec& arc = arcs[ai];
      const RiseFall* d = &dl[ai * K];
      RiseFall* dst = &ready[cl.out_local[k] * K];
      for (std::size_t c = 0; c < K; ++c) {
        dst[c] = rf_max(dst[c], propagate_forward(in[c], arc, d[c]));
      }
    }
  }
}

void corner_backward_gather(const Cluster& cl, const TArcRec* arcs,
                            const RiseFall* dl, std::size_t K,
                            RiseFall* required) {
  const auto n = static_cast<std::uint32_t>(cl.nodes.size());
  for (std::uint32_t li = n; li-- > 0;) {
    if (cl.blocked[li]) continue;
    RiseFall* row = &required[li * K];
    const std::uint32_t ke = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < ke; ++k) {
      const std::uint32_t ai = cl.out_arc[k];
      const TArcRec& arc = arcs[ai];
      const RiseFall* d = &dl[ai * K];
      const RiseFall* out = &required[cl.out_local[k] * K];
      for (std::size_t c = 0; c < K; ++c) {
        row[c] = rf_min(row[c], propagate_backward(out[c], arc, d[c]));
      }
    }
  }
}

/// Latest actual assertion at `node` in linear coordinates (same rule as
/// the single-corner seed; schedule times are corner-independent).
bool launch_seed(const SyncModel& sync, const ClockEdgeGraph& edges,
                 std::size_t break_node, TNodeId node, RiseFall& out) {
  const std::vector<SyncId>& launches = sync.launches_at(node);
  if (launches.empty()) return false;
  TimePs latest = -kInfinitePs;
  for (SyncId id : launches) {
    const SyncInstance& si = sync.at(id);
    const TimePs a =
        edges.linear_assert(si.ideal_assert, break_node) + si.assert_offset();
    latest = std::max(latest, a);
  }
  out = RiseFall{latest, latest};
  return true;
}

}  // namespace

CornerDelays::CornerDelays(const TimingGraph& graph, const CornerSet& corners)
    : lanes_(corners.size() == 0 ? 1 : corners.size()) {
  const std::size_t na = graph.num_arcs();
  delay_.resize(na * lanes_);
  for (std::size_t a = 0; a < na; ++a) {
    const TArcRec& arc = graph.arc(a);
    for (std::size_t c = 0; c < lanes_; ++c) {
      const std::uint32_t pm =
          corners.empty() ? kIdentityPm : arc_factor(graph, arc, corners.corner(c));
      delay_[a * lanes_ + c] = derate_rf(arc.delay, pm);
    }
  }
}

void CornerDelays::refresh_arcs(const TimingGraph& graph,
                                const CornerSet& corners,
                                const std::vector<std::uint32_t>& arc_ids) {
  for (std::uint32_t a : arc_ids) {
    const TArcRec& arc = graph.arc(a);
    for (std::size_t c = 0; c < lanes_; ++c) {
      const std::uint32_t pm =
          corners.empty() ? kIdentityPm : arc_factor(graph, arc, corners.corner(c));
      delay_[a * lanes_ + c] = derate_rf(arc.delay, pm);
    }
  }
}

void run_corner_pass_into(const TimingGraph& graph, const SyncModel& sync,
                          const Cluster& cluster,
                          const std::vector<std::uint32_t>& local_index,
                          const ClockEdgeGraph& edges, std::size_t break_node,
                          const std::vector<SyncId>& capture_insts,
                          const std::vector<bool>& assigned,
                          const CornerDelays& delays, CornerPassResult& res) {
  const std::size_t n = cluster.nodes.size();
  const std::size_t K = delays.lanes();
  const TArcRec* arcs = graph.arcs_data();
  const RiseFall* dl = delays.data();
  res.ready.reset(n);
  res.required.reset(n);
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();

  // Seed launch terminals; the schedule time is corner-independent, so the
  // seed broadcasts across all K lanes.
  for (TNodeId node : cluster.source_nodes) {
    RiseFall seed;
    if (launch_seed(sync, edges, break_node, node, seed)) {
      RiseFall* row = &ready[local_index[node.index()] * K];
      for (std::size_t c = 0; c < K; ++c) row[c] = seed;
    }
  }
  corner_forward_scatter(cluster, arcs, dl, K, ready);

  for (std::size_t k = 0; k < capture_insts.size(); ++k) {
    if (!assigned[k]) continue;
    const SyncInstance& si = sync.at(capture_insts[k]);
    const TimePs c =
        edges.linear_close(si.ideal_close, break_node) + si.close_offset();
    RiseFall* row = &required[local_index[si.data_in.index()] * K];
    for (std::size_t lane = 0; lane < K; ++lane) {
      row[lane] = rf_min(row[lane], RiseFall{c, c});
    }
  }
  corner_backward_gather(cluster, arcs, dl, K, required);
}

std::size_t update_corner_pass(const TimingGraph& graph, const SyncModel& sync,
                               const Cluster& cluster,
                               const ClockEdgeGraph& edges,
                               std::size_t break_node,
                               const std::vector<SyncId>& capture_insts,
                               const std::vector<bool>& assigned,
                               const CornerDelays& delays,
                               const std::vector<std::uint32_t>& fwd_seeds,
                               const std::vector<std::uint32_t>& bwd_seeds,
                               CornerPassResult& res, PassWorkspace& ws) {
  ws.ensure(cluster.nodes.size());
  const std::size_t K = delays.lanes();
  const TArcRec* arcs = graph.arcs_data();
  const RiseFall* dl = delays.data();
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();
  std::size_t retraced = 0;

  // Forward cone: re-derive every lane of each cone node from scratch by
  // max-folding its fanin — the K-lane mirror of update_analysis_pass.
  retraced += passdetail::sweep_forward(
      cluster, fwd_seeds, ws, [&](std::uint32_t li) {
        RiseFall init = res.ready.absent();
        launch_seed(sync, edges, break_node, cluster.nodes[li], init);
        RiseFall* row = &ready[li * K];
        for (std::size_t c = 0; c < K; ++c) row[c] = init;
        const std::uint32_t end = cluster.in_offsets[li + 1];
        for (std::uint32_t k = cluster.in_offsets[li]; k < end; ++k) {
          const std::uint32_t fl = cluster.in_local[k];
          if (cluster.blocked[fl]) continue;
          const std::uint32_t ai = cluster.in_arc[k];
          const TArcRec& arc = arcs[ai];
          const RiseFall* d = &dl[ai * K];
          const RiseFall* in = &ready[fl * K];
          for (std::size_t c = 0; c < K; ++c) {
            row[c] = rf_max(row[c], propagate_forward(in[c], arc, d[c]));
          }
        }
      });

  // Backward cone, in reverse topological order.
  retraced += passdetail::sweep_backward(
      cluster, bwd_seeds, ws, [&](std::uint32_t li) {
        RiseFall init = res.required.absent();
        const TNodeId node = cluster.nodes[li];
        if (!sync.captures_at(node).empty()) {
          for (std::size_t k = 0; k < capture_insts.size(); ++k) {
            if (!assigned[k]) continue;
            const SyncInstance& si = sync.at(capture_insts[k]);
            if (si.data_in != node) continue;
            const TimePs c = edges.linear_close(si.ideal_close, break_node) +
                             si.close_offset();
            init = rf_min(init, RiseFall{c, c});
          }
        }
        RiseFall* row = &required[li * K];
        for (std::size_t c = 0; c < K; ++c) row[c] = init;
        if (!cluster.blocked[li]) {
          const std::uint32_t end = cluster.out_offsets[li + 1];
          for (std::uint32_t k = cluster.out_offsets[li]; k < end; ++k) {
            const std::uint32_t ai = cluster.out_arc[k];
            const TArcRec& arc = arcs[ai];
            const RiseFall* d = &dl[ai * K];
            const RiseFall* out = &required[cluster.out_local[k] * K];
            for (std::size_t c = 0; c < K; ++c) {
              row[c] = rf_min(row[c], propagate_backward(out[c], arc, d[c]));
            }
          }
        }
      });

  return retraced;
}

}  // namespace hb
