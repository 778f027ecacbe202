#include "sta/algorithm1.hpp"

namespace hb {
namespace {

enum class Direction { kForward, kBackward };

/// One transfer sweep across all synchronising elements.  Complete transfer
/// moves min(slack, headroom); partial transfer moves min(slack/divisor,
/// headroom).  Returns true if any offsets moved.  Elements are read through
/// SyncModel::at() and written through at_mut() only when they shift, so
/// the change log — and with it the next incremental evaluation's dirty
/// cones — holds exactly the elements that moved.
bool transfer_sweep(SyncModel& sync, const SlackEngine& engine, Direction dir,
                    TimePs divisor) {
  bool moved = false;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (!si.transparent || si.is_virtual) continue;
    TimePs amount = 0;
    if (dir == Direction::kForward) {
      // Donate spare time from paths converging on the data input to paths
      // emanating from the output: close the input (and assert the output)
      // earlier.
      const TimePs n_in = engine.capture_slack(SyncId(i));
      if (n_in == kInfinitePs) continue;
      amount = std::min(n_in / divisor, si.max_decrease());
    } else {
      const TimePs n_out = engine.launch_slack(SyncId(i));
      if (n_out == kInfinitePs) continue;
      amount = std::min(n_out / divisor, si.max_increase());
    }
    if (amount <= 0) continue;
    sync.at_mut(SyncId(i)).shift(dir == Direction::kForward ? -amount : amount);
    moved = true;
  }
  return moved;
}

}  // namespace

Algorithm1Result run_algorithm1(SyncModel& sync, SlackEngine& engine,
                                Algorithm1Options options) {
  if (options.partial_divisor <= 1) {
    raise("Algorithm 1: partial_divisor must be > 1");
  }
  Algorithm1Result res;
  BudgetTimer timer(options.budget);
  bool timed_out = false;
  // Sticky budget check, evaluated only between sweeps so the engine is
  // never abandoned mid-propagation: the last evaluated offsets are a
  // consistent, conservative state.
  auto out_of_budget = [&]() {
    if (!timed_out && timer.exhausted()) timed_out = true;
    return timed_out;
  };

  // The transfer sweeps read only terminal slacks, so an incremental step
  // refreshes terminals only; node slacks are derived once, at the exit.
  auto evaluate = [&]() {
    if (options.incremental) {
      engine.invalidate_offsets(sync.drain_changed_offsets());
      engine.update_terminals();
    } else {
      sync.drain_changed_offsets();
      engine.compute(options.pool);
    }
    ++res.slack_evaluations;
    return engine.worst_terminal_slack();
  };

  // Every exit — the final step, the early "works as intended" return and
  // budget exhaustion — leaves the engine's node results at the exit offsets
  // (the paper's "find all node slacks"), in one update() seeded by the net
  // offset change since the previous node-level refresh.
  auto finish = [&](TimePs worst) {
    if (options.incremental) engine.update(options.pool);
    res.status = timed_out ? AnalysisStatus::kTimedOut : AnalysisStatus::kComplete;
    res.worst_slack = worst;
    res.works_as_intended = worst > 0;
    return res;
  };

  // Iteration 1: complete forward transfer to fixpoint.
  for (;;) {
    const TimePs worst = evaluate();
    if (worst > 0) return finish(worst);
    if (out_of_budget()) return finish(worst);
    if (res.forward_cycles >= options.max_cycles) {
      raise("Algorithm 1 exceeded the forward-transfer cycle limit");
    }
    if (!transfer_sweep(sync, engine, Direction::kForward, 1)) break;
    ++res.forward_cycles;
    timer.count_cycle();
  }

  // Iteration 2: complete backward transfer to fixpoint.
  for (;;) {
    const TimePs worst = evaluate();
    if (worst > 0) return finish(worst);
    if (out_of_budget()) return finish(worst);
    if (res.backward_cycles >= options.max_cycles) {
      raise("Algorithm 1 exceeded the backward-transfer cycle limit");
    }
    if (!transfer_sweep(sync, engine, Direction::kBackward, 1)) break;
    ++res.backward_cycles;
    timer.count_cycle();
  }

  // Iteration 3: partial forward, once per complete backward cycle made.
  for (int k = 0; k < res.backward_cycles && !out_of_budget(); ++k) {
    evaluate();
    if (transfer_sweep(sync, engine, Direction::kForward, options.partial_divisor)) {
      ++res.partial_forward_cycles;
    }
    timer.count_cycle();
  }

  // Iteration 4: partial backward, once per complete forward cycle made.
  for (int k = 0; k < res.forward_cycles && !out_of_budget(); ++k) {
    evaluate();
    if (transfer_sweep(sync, engine, Direction::kBackward, options.partial_divisor)) {
      ++res.partial_backward_cycles;
    }
    timer.count_cycle();
  }

  // Final step: find all node slacks.
  return finish(evaluate());
}

}  // namespace hb
