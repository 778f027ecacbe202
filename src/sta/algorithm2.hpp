// Algorithm 2 of the paper: timing-constraint generation by time snatching.
//
// After Algorithm 1 has settled the offsets:
//   Iteration 1 snatches time *backward* across every element whose data
//     input terminal has negative slack — the input closure moves as late as
//     the element constraints allow, regardless of whether the output side
//     can spare the time.  At the fixpoint, forward-traced ready times are
//     the actual settling times for nodes in too-slow paths; they are
//     recorded at all cell inputs.
//   Iteration 2 snatches time *forward* for negative output-terminal slacks
//     and records required times at all cell outputs.
//
// For every node in a too-slow path, (required - ready) - path delay equals
// the (negative) speed-up needed; for other nodes the pair bounds how much
// a path may be slowed down.
#pragma once

#include "sta/slack_engine.hpp"
#include "util/cancel.hpp"
#include "util/diagnostics.hpp"

namespace hb {

struct ConstraintTimes {
  bool has_ready = false;
  bool has_required = false;
  RiseFall ready{-kInfinitePs, -kInfinitePs};
  RiseFall required{kInfinitePs, kInfinitePs};
  /// Node slack after both snatching phases.
  TimePs slack = kInfinitePs;
};

struct ConstraintSet {
  /// Indexed by timing-graph node.
  std::vector<ConstraintTimes> nodes;
  /// kComplete, or kTimedOut when the budget expired before both snatching
  /// fixpoints were reached (the recorded times are the conservative state
  /// of the last completed sweep).
  AnalysisStatus status = AnalysisStatus::kComplete;
  int backward_snatch_cycles = 0;
  int forward_snatch_cycles = 0;

  const ConstraintTimes& at(TNodeId n) const { return nodes.at(n.index()); }
};

struct Algorithm2Options {
  int max_cycles = 10000;
  /// Evaluate independent dirty passes on this pool when non-null; see
  /// Algorithm1Options::pool.
  ThreadPool* pool = nullptr;
  /// Watchdog limits; see Algorithm1Options::budget.
  AnalysisBudget budget;
};

/// Runs Algorithm 2, mutating offsets in `sync`.  Call after run_algorithm1.
///
/// Every slack evaluation is incremental: the change log of `sync` is
/// drained into SlackEngine::invalidate_offsets, and the snatching steps
/// refresh terminal slacks only (SlackEngine::update_terminals()).  Node
/// results are derived only at the two recording points, each by one
/// SlackEngine::update() seeded by the net offset change since the previous
/// node-level refresh — also when the budget cut a phase short.
/// Precondition: `engine` holds the results of
/// the offsets in `sync` up to the changes still in the change log or
/// already recorded in the engine (invalidate_*) — the state run_algorithm1,
/// compute() and update() leave behind.  An engine with no valid cache is
/// fine too (update() falls back to compute()).  The engine is left holding
/// the final snatched state.
ConstraintSet run_algorithm2(SyncModel& sync, SlackEngine& engine,
                             Algorithm2Options options = {});

}  // namespace hb
