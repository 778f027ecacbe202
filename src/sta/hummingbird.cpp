#include "sta/hummingbird.hpp"

#include <algorithm>
#include <chrono>

#include "netlist/flatten.hpp"
#include "netlist/validate.hpp"

namespace hb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Hummingbird::Hummingbird(const Design& design, const ClockSet& clocks,
                         HummingbirdOptions options)
    : design_(&design), options_(std::move(options)) {
  std::vector<bool> quarantine;
  if (options_.validate || options_.degraded) {
    ValidationReport report = validate(design);
    if (!report.ok()) {
      const bool fatal =
          std::any_of(report.findings.begin(), report.findings.end(),
                      [](const ValidationFinding& f) {
                        return f.diag.severity == Severity::kFatal;
                      });
      if (!options_.degraded || fatal) {
        raise("design '" + design.name() + "' invalid:\n" + report.to_string());
      }
      // Degraded mode.  Finding indices refer to the flat design, so analyse
      // a flat copy when the input is hierarchical.
      const bool hierarchical =
          std::any_of(design.top().insts().begin(), design.top().insts().end(),
                      [](const Instance& i) { return !i.is_cell(); });
      if (hierarchical) {
        owned_flat_ = std::make_unique<Design>(flatten(design));
        design_ = owned_flat_.get();
        report = validate(*design_);
      }
      for (const ValidationFinding& f : report.findings) diags_.add(f.diag);
      quarantine = compute_quarantine(*design_, report);
      quarantined_count_ = static_cast<std::size_t>(
          std::count(quarantine.begin(), quarantine.end(), true));
      diags_.add(DiagCode::kAnalysisQuarantined, Severity::kWarning, {},
                 "degraded mode: " + std::to_string(quarantined_count_) +
                     " of " + std::to_string(design_->top().insts().size()) +
                     " instances quarantined; results are partial",
                 "fix the reported design problems for a complete analysis");
    }
  }

  const Design& d = *design_;
  const auto start = std::chrono::steady_clock::now();
  calc_ = std::make_unique<DelayCalculator>(d, options_.wire);
  if (options_.delay_derate != 1.0) calc_->set_derate(options_.delay_derate);
  for (const InstDelayAdjust& a : options_.delay_adjust) {
    calc_->adjust_instance(a.inst, a.delta);
  }
  graph_ = std::make_unique<TimingGraph>(d, *calc_,
                                         quarantine.empty() ? nullptr : &quarantine);
  sync_ = std::make_unique<SyncModel>(*graph_, clocks, *calc_, options_.sync);
  clusters_ = std::make_unique<ClusterSet>(*graph_, *sync_);
  engine_ = std::make_unique<SlackEngine>(*graph_, *clusters_, *sync_);
  engine_->set_self_check(options_.paranoid_self_check);
  stats_.preprocess_seconds = seconds_since(start);

  stats_.cells = d.total_cell_count();
  stats_.nets = d.total_net_count();
  stats_.graph_nodes = graph_->num_nodes();
  stats_.graph_arcs = graph_->num_arcs();
  stats_.sync_instances = sync_->num_instances();
  stats_.clusters = clusters_->num_clusters();
  stats_.analysis_passes = engine_->num_passes_total();
  stats_.quarantined_insts = quarantined_count_;
}

Hummingbird::~Hummingbird() = default;

Algorithm1Result Hummingbird::analyze(std::optional<AnalysisBudget> budget) {
  Algorithm1Options alg1 = options_.alg1;
  if (budget) alg1.budget = *budget;
  // The reset's offset changes are drained into the engine by Algorithm 1's
  // first evaluation, together with any left by earlier runs and edits.
  sync_->reset_offsets();
  const auto start = std::chrono::steady_clock::now();
  Algorithm1Result res = run_algorithm1(*sync_, *engine_, alg1);
  stats_.analysis_seconds = seconds_since(start);
  analyzed_ = true;
  if (quarantined_count_ > 0 && res.status == AnalysisStatus::kComplete) {
    res.status = AnalysisStatus::kPartial;  // timed-out keeps precedence
  }
  return res;
}

bool Hummingbird::update_instance_delays(InstId inst) {
  const Instance& self = design_->top().inst(inst);
  if (self.is_cell() && design_->lib().cell(self.cell).is_sequential()) {
    return false;  // element delays feed cluster/pass pre-processing
  }
  const std::uint64_t epoch = graph_->delay_epoch();
  const TimingGraph::DelayUpdate upd = graph_->update_instance_delays(inst, *calc_);
  std::vector<TNodeId> heads;
  heads.reserve(upd.changed_arcs.size());
  for (std::uint32_t ai : upd.changed_arcs) heads.push_back(graph_->arc(ai).from);
  if (graph_->reaches_control(heads)) {
    return false;  // control arrival tracing in the SyncModel is now stale
  }
  for (InstId s : upd.affected_sequential) {
    sync_->refresh_element_delays(s, *calc_);
  }
  engine_->invalidate_offsets(sync_->drain_changed_offsets());
  for (std::uint32_t ai : upd.changed_arcs) {
    engine_->invalidate_node(graph_->arc(ai).from);
    engine_->invalidate_node(graph_->arc(ai).to);
  }
  engine_->delays_reported(epoch);
  return true;
}

ConstraintSet Hummingbird::generate_constraints() {
  if (!analyzed_) analyze();
  ConstraintSet out = run_algorithm2(*sync_, *engine_, options_.alg2);
  if (quarantined_count_ > 0 && out.status == AnalysisStatus::kComplete) {
    out.status = AnalysisStatus::kPartial;
  }
  return out;
}

std::vector<HoldViolation> Hummingbird::check_hold_times(TimePs hold_margin,
                                                         ThreadPool* pool) const {
  return check_hold(*engine_, hold_margin, pool);
}

std::vector<SlowPath> Hummingbird::slow_paths(std::size_t max_paths) const {
  return enumerate_slow_paths(*engine_, max_paths);
}

std::string Hummingbird::report(std::size_t max_paths) const {
  std::string out = timing_summary(*engine_);
  out += format_paths(*engine_, slow_paths(max_paths));
  return out;
}

void Hummingbird::flag_slow_paths_in(Design& design, std::size_t max_paths) const {
  flag_slow_paths(design, *graph_, slow_paths(max_paths));
}

}  // namespace hb
