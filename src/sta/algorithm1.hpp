// Algorithm 1 of the paper: identification of slow paths by iterated slack
// transfer across synchronising elements.
//
//   Iteration 1: complete *forward* slack transfer (donate all spare input
//     slack downstream, bounded by the element constraints) repeated until
//     no element moves.
//   Iteration 2: the same *backward*.
//   Iteration 3: partial forward transfer (half the slack), repeated once
//     per complete-backward cycle performed, returning some time to paths
//     that are fast enough so they finish with strictly positive slacks.
//   Iteration 4: partial backward transfer, once per complete-forward cycle.
//
// Terminates early when every terminal slack is positive ("system behaves
// as intended").  Afterwards, every terminal on a too-slow path has a
// non-positive slack; because of the simplified element model, marginally
// fast paths may conservatively be flagged too (paper Section 6).
//
// The transfer sweeps read only the slacks at synchronising-element
// terminals, so every intermediate evaluation is a
// SlackEngine::update_terminals() over the terminal delay table.  Node
// slacks are needed only by the final step ("find all node slacks"): every
// exit of run_algorithm1 brings them to the exit offsets with one
// SlackEngine::update().
#pragma once

#include "sta/slack_engine.hpp"
#include "util/cancel.hpp"
#include "util/diagnostics.hpp"

namespace hb {

struct Algorithm1Options {
  /// Divisor n > 1 used by partial transfers (paper: "any real number > 1").
  TimePs partial_divisor = 2;
  /// Safety cap on transfer cycles; the paper observes each iteration needs
  /// at most one cycle more than the synchronising-element depth.
  int max_cycles = 10000;
  /// Re-evaluate slacks incrementally between sweeps: each sweep's offset
  /// edits are drained from the SyncModel change log into SlackEngine
  /// invalidations, intermediate steps refresh terminal slacks only, and the
  /// exit's update() re-propagates only the cones of the net change.  When
  /// false, every evaluation is a full compute() — the reference path.
  /// Results are bit-identical either way (tests/incremental_test.cpp).
  bool incremental = true;
  /// Evaluate independent dirty passes on this pool when non-null.
  ThreadPool* pool = nullptr;
  /// Watchdog limits (wall clock, total cycles, external cancellation).
  /// Checked between sweeps, never mid-propagation: on exhaustion the
  /// current offsets — which are always a consistent, conservative state —
  /// are kept and the result is tagged AnalysisStatus::kTimedOut.
  AnalysisBudget budget;
};

struct Algorithm1Result {
  /// kComplete, or kTimedOut when the budget expired before the fixpoint.
  AnalysisStatus status = AnalysisStatus::kComplete;
  bool works_as_intended = false;
  /// Worst terminal slack after the final recomputation.
  TimePs worst_slack = 0;
  int forward_cycles = 0;    // complete forward transfer cycles executed
  int backward_cycles = 0;
  int partial_forward_cycles = 0;
  int partial_backward_cycles = 0;
  int slack_evaluations = 0;  // number of full slack recomputations
};

/// Runs Algorithm 1, mutating the adjustable offsets in `sync` and leaving
/// `engine` holding the final slack state, node results included.
Algorithm1Result run_algorithm1(SyncModel& sync, SlackEngine& engine,
                                Algorithm1Options options = {});

}  // namespace hb
