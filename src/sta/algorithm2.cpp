#include "sta/algorithm2.hpp"

namespace hb {
namespace {

/// One snatching sweep; returns true if anything moved.  Backward snatching
/// gives time to the input side (offsets increase); forward snatching to the
/// output side (offsets decrease).  As in Algorithm 1's transfer sweeps,
/// only an element that shifts is taken through at_mut(), so the change log
/// holds exactly the moved elements.
bool snatch_sweep(SyncModel& sync, const SlackEngine& engine, bool backward) {
  bool moved = false;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (!si.transparent || si.is_virtual) continue;
    TimePs amount = 0;
    if (backward) {
      const TimePs n_in = engine.capture_slack(SyncId(i));
      if (n_in >= 0 || n_in == kInfinitePs) continue;
      amount = std::min(-n_in, si.max_increase());
    } else {
      const TimePs n_out = engine.launch_slack(SyncId(i));
      if (n_out >= 0 || n_out == kInfinitePs) continue;
      amount = std::min(-n_out, si.max_decrease());
    }
    if (amount <= 0) continue;
    sync.at_mut(SyncId(i)).shift(backward ? amount : -amount);
    moved = true;
  }
  return moved;
}

}  // namespace

ConstraintSet run_algorithm2(SyncModel& sync, SlackEngine& engine,
                             Algorithm2Options options) {
  ConstraintSet out;
  out.nodes.resize(engine.graph().num_nodes());
  BudgetTimer timer(options.budget);
  bool timed_out = false;
  // Checked only between sweeps (after an evaluation), so on exhaustion the
  // recorded times reflect a consistent conservative state.
  auto out_of_budget = [&]() {
    if (!timed_out && timer.exhausted()) timed_out = true;
    return timed_out;
  };
  // The snatching sweeps read only terminal slacks: each evaluation
  // refreshes the terminals of the clusters the previous sweep moved (the
  // first one: whatever the change log holds on entry).
  auto evaluate = [&]() {
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update_terminals();
  };
  // A recording point reads node results: bring them to the current offsets
  // in one update(), seeded by the net change since the last node-level
  // refresh.
  auto settle = [&]() {
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update(options.pool);
  };

  // Iteration 1: backward snatching to fixpoint, then record ready times.
  for (;;) {
    evaluate();
    if (out_of_budget()) break;
    if (!snatch_sweep(sync, engine, /*backward=*/true)) break;
    timer.count_cycle();
    if (++out.backward_snatch_cycles > options.max_cycles) {
      raise("Algorithm 2 exceeded the backward-snatch cycle limit");
    }
  }
  settle();
  for (std::uint32_t n = 0; n < engine.graph().num_nodes(); ++n) {
    const NodeTiming& nt = engine.node_timing(TNodeId(n));
    out.nodes[n].has_ready = nt.has_ready;
    out.nodes[n].ready = nt.ready;
  }

  // Iteration 2: forward snatching to fixpoint, then record required times.
  for (;;) {
    evaluate();
    if (out_of_budget()) break;
    if (!snatch_sweep(sync, engine, /*backward=*/false)) break;
    timer.count_cycle();
    if (++out.forward_snatch_cycles > options.max_cycles) {
      raise("Algorithm 2 exceeded the forward-snatch cycle limit");
    }
  }
  settle();
  for (std::uint32_t n = 0; n < engine.graph().num_nodes(); ++n) {
    const NodeTiming& nt = engine.node_timing(TNodeId(n));
    out.nodes[n].has_required = nt.has_constraint;
    out.nodes[n].required = nt.required;
    out.nodes[n].slack = nt.slack;
  }
  out.status = timed_out ? AnalysisStatus::kTimedOut : AnalysisStatus::kComplete;
  return out;
}

}  // namespace hb
