#include "sta/analysis_pass.hpp"

namespace hb {
namespace {

/// PassSide presence threshold for the ready side (absent_ = -kInfinitePs):
/// a slot is present iff rise > absent_/2.  The kernels read raw arrays, so
/// they test against the same constant PassSide::has uses.
constexpr TimePs kFwdAbsentHalf = -(kInfinitePs / 2);

/// Delay sources of the full-sweep kernels.  Each gives a lane count, the
/// delay row of an arc (one delay per lane), and the `Slot` through which a
/// kernel folds one node's lane vector.
///
/// GraphDelays: the graph's own TArcRec::delay, one lane fixed at compile
/// time — the single-corner engine.  Its slot is a copy in locals: a sweep's
/// stores cannot alias it, so the scatter's tail value and the gather's
/// accumulator stay in registers, and with no lane stride and no table load
/// the kernels below compile to the plain one-corner loops.
struct GraphDelays {
  static constexpr std::size_t lanes() { return 1; }
  static const RiseFall* row(const TArcRec& arc, std::uint32_t) {
    return &arc.delay;
  }
  struct Slot {
    RiseFall v;
    explicit Slot(const RiseFall* row) : v(*row) {}
    RiseFall& operator[](std::size_t) { return v; }
    void store(RiseFall* row) const { *row = v; }
  };
};

/// TableDelays: a lane-major table of `stride` delays per arc — the
/// multi-corner layout (arc a, lane c at table[a * stride + c]).  A runtime
/// lane count folds each slot in place.
struct TableDelays {
  const RiseFall* table;
  std::size_t stride;
  std::size_t lanes() const { return stride; }
  const RiseFall* row(const TArcRec&, std::uint32_t ai) const {
    return table + ai * stride;
  }
  struct Slot {
    RiseFall* p;
    explicit Slot(RiseFall* row) : p(row) {}
    RiseFall& operator[](std::size_t c) { return p[c]; }
    void store(RiseFall*) const {}
  };
};

/// Forward wavefront, eq. (1), scatter form: R_z = max_i (R_i + P_iz), in
/// every lane.  Ascending local index is level order, so one linear sweep
/// settles every node, and the sweep-order arc numbering makes
/// cluster.out_arc reads monotone through the arc array.  Absent tails are
/// skipped (their slots hold the exact -kInfinitePs sentinel and nothing
/// downstream of only absent tails is touched), so untouched heads keep the
/// exact sentinel too.  Presence is lane-uniform: lane 0 decides.
template <class Delays>
void forward_scatter(const Cluster& cl, const TArcRec* arcs,
                     const Delays& delays, RiseFall* ready) {
  const std::size_t K = delays.lanes();
  const std::size_t n = cl.nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) {
    if (ready[li * K].rise <= kFwdAbsentHalf || cl.blocked[li]) continue;
    typename Delays::Slot in(&ready[li * K]);
    const std::uint32_t end = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < end; ++k) {
      const std::uint32_t ai = cl.out_arc[k];
      const TArcRec& arc = arcs[ai];
      const RiseFall* d = delays.row(arc, ai);
      RiseFall* to = &ready[cl.out_local[k] * K];
      for (std::size_t c = 0; c < K; ++c) {
        to[c] = rf_max(to[c], propagate_forward(in[c], arc, d[c]));
      }
    }
  }
}

/// Backward wavefront, eq. (2) in required-time form: Q_i = min_z (Q_z -
/// P_iz), in every lane.  A gather: each node min-folds over its fanout,
/// all at strictly higher locals and therefore final, so one descending
/// sweep settles every node.  Folding through an absent successor leaves
/// the slot on the absent side of the has() threshold (see PassSide).
template <class Delays>
void backward_gather(const Cluster& cl, const TArcRec* arcs,
                     const Delays& delays, RiseFall* required) {
  const std::size_t K = delays.lanes();
  const auto n = static_cast<std::uint32_t>(cl.nodes.size());
  for (std::uint32_t li = n; li-- > 0;) {
    if (cl.blocked[li]) continue;
    typename Delays::Slot acc(&required[li * K]);
    const std::uint32_t ke = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < ke; ++k) {
      const std::uint32_t ai = cl.out_arc[k];
      const TArcRec& arc = arcs[ai];
      const RiseFall* d = delays.row(arc, ai);
      const RiseFall* out = &required[cl.out_local[k] * K];
      for (std::size_t c = 0; c < K; ++c) {
        acc[c] = rf_min(acc[c], propagate_backward(out[c], arc, d[c]));
      }
    }
    acc.store(&required[li * K]);
  }
}

/// Closure seed of sink `k` in pass `pass`: the earliest closure over the
/// sink's captures assigned to the pass; absent when none is.
RiseFall close_seed(const TerminalTable& t, const TerminalSeeds& seeds,
                    std::uint32_t pass, std::uint32_t k) {
  TimePs close = kInfinitePs;
  for (std::uint32_t j = t.sink_cap_begin[k]; j < t.sink_cap_begin[k + 1]; ++j) {
    if (t.cap_pass[j] == pass) close = std::min(close, seeds.close[j]);
  }
  return RiseFall{close, close};
}

using passdetail::sweep_backward;
using passdetail::sweep_forward;

template <class Delays>
void sweep_pass(const TimingGraph& graph, const Cluster& cluster,
                const TerminalTable& t, const TerminalSeeds& seeds,
                std::uint32_t pass, const Delays& delays, PassResult& res) {
  const std::size_t n = cluster.nodes.size();
  const std::size_t K = delays.lanes();
  HB_ASSERT(res.ready.lanes() == K && res.required.lanes() == K);
  const TArcRec* arcs = graph.arcs_data();
  res.ready.reset(n);
  res.required.reset(n);
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();

  for (std::size_t r = 0; r < t.row_local.size(); ++r) {
    const TimePs a = seeds.launch[r * t.passes + pass];
    std::fill_n(&ready[t.row_local[r] * K], K, RiseFall{a, a});
  }
  forward_scatter(cluster, arcs, delays, ready);
  for (std::uint32_t k = 0; k < t.sink_local.size(); ++k) {
    std::fill_n(&required[t.sink_local[k] * K], K, close_seed(t, seeds, pass, k));
  }
  backward_gather(cluster, arcs, delays, required);
}

}  // namespace

const char* active_kernel_name() { return "scalar"; }

void run_analysis_pass_into(const TimingGraph& graph, const Cluster& cluster,
                            const TerminalTable& table,
                            const TerminalSeeds& seeds, std::uint32_t pass,
                            PassResult& res, const RiseFall* arc_delay,
                            std::size_t stride) {
  if (arc_delay == nullptr) {
    sweep_pass(graph, cluster, table, seeds, pass, GraphDelays{}, res);
  } else {
    sweep_pass(graph, cluster, table, seeds, pass,
               TableDelays{arc_delay, stride}, res);
  }
}

std::size_t update_analysis_pass(const TimingGraph& graph, const Cluster& cluster,
                                 const TerminalTable& table,
                                 const TerminalSeeds& seeds, std::uint32_t pass,
                                 const std::vector<std::uint32_t>& fwd_seeds,
                                 const std::vector<std::uint32_t>& bwd_seeds,
                                 PassResult& res, PassWorkspace& ws) {
  ws.ensure(cluster.nodes.size());
  const TArcRec* arcs = graph.arcs_data();
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();
  std::size_t retraced = 0;

  // Forward: re-derive ready over the forward cone of the seeds.  The sweep
  // visits the cone in ascending local index (= topological) order, so every
  // changed predecessor is settled before its readers; values outside the
  // cone cannot change.  Each cone node is re-derived from scratch by
  // max-folding over its fanin (absent tails fold as the identity); blocked
  // tails never propagate their ready onward.
  retraced += sweep_forward(cluster, fwd_seeds, ws, [&](std::uint32_t li) {
    RiseFall v = res.ready.absent();
    if (const std::uint32_t r = table.row_of_local[li]; r != TerminalTable::kNone) {
      const TimePs a = seeds.launch[r * table.passes + pass];
      v = RiseFall{a, a};
    }
    const std::uint32_t end = cluster.in_offsets[li + 1];
    for (std::uint32_t k = cluster.in_offsets[li]; k < end; ++k) {
      const std::uint32_t fl = cluster.in_local[k];
      if (cluster.blocked[fl]) continue;
      const TArcRec& arc = arcs[cluster.in_arc[k]];
      v = rf_max(v, propagate_forward(ready[fl], arc, arc.delay));
    }
    ready[li] = v;
  });

  // Backward: the mirror image over the backward cone, in reverse
  // topological order.  A predecessor reads required through its own fanout
  // regardless of the seed node's role, but blocked predecessors never
  // propagate further back.
  retraced += sweep_backward(cluster, bwd_seeds, ws, [&](std::uint32_t li) {
    const std::uint32_t sink = table.sink_of_local[li];
    RiseFall v = sink == TerminalTable::kNone
                     ? res.required.absent()
                     : close_seed(table, seeds, pass, sink);
    if (!cluster.blocked[li]) {
      const std::uint32_t end = cluster.out_offsets[li + 1];
      for (std::uint32_t k = cluster.out_offsets[li]; k < end; ++k) {
        const TArcRec& arc = arcs[cluster.out_arc[k]];
        v = rf_min(v, propagate_backward(required[cluster.out_local[k]], arc,
                                         arc.delay));
      }
    }
    required[li] = v;
  });

  return retraced;
}

std::size_t pass_cone_size(const Cluster& cluster,
                           const std::vector<std::uint32_t>& fwd_seeds,
                           const std::vector<std::uint32_t>& bwd_seeds,
                           PassWorkspace& ws, std::size_t limit,
                           std::vector<std::uint32_t>* visited) {
  ws.ensure(cluster.nodes.size());
  auto record = [visited](std::uint32_t li) {
    if (visited != nullptr) visited->push_back(li);
  };
  const std::size_t fwd = sweep_forward(cluster, fwd_seeds, ws, record, limit);
  if (fwd > limit) return fwd;
  return fwd + sweep_backward(cluster, bwd_seeds, ws, record, limit - fwd);
}

}  // namespace hb
