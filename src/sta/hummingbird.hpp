// Hummingbird — the public API of the timing analyser.
//
// Usage:
//   auto lib = make_standard_library();
//   Design design = ...;                 // or load_netlist()
//   ClockSet clocks; clocks.add_simple_clock("phi1", ns(20), 0, ns(8));
//   Hummingbird hb(design, clocks);      // pre-processing happens here
//   auto result = hb.analyze();          // Algorithm 1
//   if (!result.works_as_intended) {
//     std::cout << hb.report();
//     auto constraints = hb.generate_constraints();  // Algorithm 2
//   }
//
// The constructor performs the paper's *pre-processing* (cluster
// generation, the Section 7 break-open computation) and analyze() runs
// Algorithm 1; both are timed separately so Table 1 can be regenerated.
// Hummingbird also supports the paper's interactive mode: mutate the clock
// set or the design, construct a fresh Hummingbird, and compare — see
// examples/clock_explorer.cpp.
#pragma once

#include <memory>
#include <optional>

#include "netlist/design.hpp"
#include "sta/algorithm1.hpp"
#include "sta/algorithm2.hpp"
#include "sta/hold_check.hpp"
#include "sta/report.hpp"

namespace hb {

/// One additive per-instance delay adjustment (paper Section 8 interactive
/// mode).  Used by HummingbirdOptions::delay_adjust to replay a what-if
/// session's edit history into a freshly built analyser.
struct InstDelayAdjust {
  InstId inst;
  TimePs delta = 0;
};

struct HummingbirdOptions {
  WireLoadModel wire;
  SyncModelOptions sync;
  Algorithm1Options alg1;
  Algorithm2Options alg2;
  /// Global component-delay derating factor (interactive what-if analysis:
  /// "what if everything were 20% slower?" -> 1.2).
  double delay_derate = 1.0;
  /// Additive per-instance delay adjustments applied to the calculator
  /// before the timing graph is built.  A fresh analyser constructed with
  /// the accumulated set_delay history of an interactive session reproduces
  /// the session's incremental state bit for bit (tests/service_test.cpp).
  std::vector<InstDelayAdjust> delay_adjust;
  /// Validate the design structurally before analysis (recommended; turn
  /// off only in tight analyse-redesign loops that re-check elsewhere).
  bool validate = true;
  /// Degraded mode: instead of refusing an invalid design, quarantine the
  /// logic implicated by the validation findings (plus everything only
  /// reachable through it — see compute_quarantine) and analyse the rest.
  /// Findings are collected in diagnostics() and every analysis result is
  /// tagged AnalysisStatus::kPartial.  The hierarchy rule (sequential
  /// submodules) stays fatal: nothing salvageable remains.
  bool degraded = false;
  /// Paranoid mode: verify the incremental cache against its write-time
  /// checksums on every update and self-heal divergences with a full
  /// recompute (counted in SlackEngine::incremental_stats().self_heals).
  bool paranoid_self_check = false;
};

struct AnalysisStats {
  std::size_t cells = 0;            // library cell instances (recursive)
  std::size_t nets = 0;             // nets (recursive)
  std::size_t graph_nodes = 0;
  std::size_t graph_arcs = 0;
  std::size_t sync_instances = 0;   // generic element instances
  std::size_t clusters = 0;
  std::size_t analysis_passes = 0;  // total break count over clusters
  std::size_t quarantined_insts = 0;  // degraded mode: excluded instances
  double preprocess_seconds = 0.0;  // graph + clusters + Section 7
  double analysis_seconds = 0.0;    // Algorithm 1
};

class Hummingbird {
 public:
  /// Builds the timing graph, synchronising-element instances, clusters and
  /// break-open passes.  `design` and `clocks` must outlive the analyser.
  Hummingbird(const Design& design, const ClockSet& clocks,
              HummingbirdOptions options = {});
  ~Hummingbird();

  Hummingbird(const Hummingbird&) = delete;
  Hummingbird& operator=(const Hummingbird&) = delete;

  /// Run Algorithm 1 from freshly initialised offsets, under `budget` when
  /// given, else HummingbirdOptions::alg1's.  The engine keeps its
  /// incremental caches between calls: after absorbed edits
  /// (update_instance_delays) the offset reset and the recorded
  /// invalidations drive terminal-only steps and one node-level update() at
  /// the exit, bit-identical to a fresh analyser's first analyze().
  /// Degraded mode tags a complete result kPartial.
  Algorithm1Result analyze(std::optional<AnalysisBudget> budget = std::nullopt);

  /// Forwards to analyze(); perfbench's CommitMirror still calls it.
  Algorithm1Result reanalyze() { return analyze(); }

  /// Absorb an in-place delay change of top-level instance `inst` (e.g. a
  /// cell resize to a same-port-layout variant) without rebuilding:
  /// re-evaluates the component arcs of the instance and of the drivers of
  /// its input nets, refreshes affected sequential D_cz/D_dz in the sync
  /// model, and records the matching engine invalidations.  Returns false —
  /// caller must construct a fresh Hummingbird — when the change cannot be
  /// absorbed: `inst` is sequential (element delays feed pre-processing) or
  /// a changed arc reaches a control pin (clock tracing would go stale).
  bool update_instance_delays(InstId inst);

  /// Run Algorithm 2 (requires a preceding analyze(); enforced).
  ConstraintSet generate_constraints();

  /// Supplementary-path (hold) checking — extension, see hold_check.hpp.
  /// Reads the engine's terminal delay table as of its last refresh (the
  /// construction, or the last analyze()), like the terminal slacks.
  std::vector<HoldViolation> check_hold_times(TimePs hold_margin = 0) const;

  /// Worst-first slow paths with full step traces.
  std::vector<SlowPath> slow_paths(std::size_t max_paths = 10) const;

  /// Text report: summary plus the worst slow paths.
  std::string report(std::size_t max_paths = 10) const;

  /// Flag the nets of all slow paths in a design database (usually the one
  /// analysed, passed mutably by the caller).
  void flag_slow_paths_in(Design& design, std::size_t max_paths = 1000) const;

  const AnalysisStats& stats() const { return stats_; }
  /// Findings collected by degraded-mode construction (validation findings
  /// plus one kAnalysisQuarantined summary).  Empty outside degraded mode.
  const DiagnosticSink& diagnostics() const { return diags_; }
  /// Instances excluded from analysis by degraded mode (0 = full analysis).
  std::size_t num_quarantined() const { return quarantined_count_; }
  const TimingGraph& graph() const { return *graph_; }
  const SlackEngine& engine() const { return *engine_; }
  /// Mutable access for baseline comparisons that drive the engine directly
  /// (e.g. rigid_latch_analysis).
  SlackEngine& engine_mut() { return *engine_; }
  const SyncModel& sync_model() const { return *sync_; }
  SyncModel& sync_model_mut() { return *sync_; }
  const DelayCalculator& calculator() const { return *calc_; }
  /// Mutable access for interactive delay edits (adjust_instance followed by
  /// update_instance_delays — see src/service/session.cpp).
  DelayCalculator& calculator_mut() { return *calc_; }

 private:
  const Design* design_;
  HummingbirdOptions options_;
  /// Degraded mode flattens hierarchical inputs so quarantine indices refer
  /// to analysable flat InstIds; design_ then points here.
  std::unique_ptr<Design> owned_flat_;
  DiagnosticSink diags_;
  std::size_t quarantined_count_ = 0;
  std::unique_ptr<DelayCalculator> calc_;
  std::unique_ptr<TimingGraph> graph_;
  std::unique_ptr<SyncModel> sync_;
  std::unique_ptr<ClusterSet> clusters_;
  std::unique_ptr<SlackEngine> engine_;
  AnalysisStats stats_;
  bool analyzed_ = false;
};

}  // namespace hb
