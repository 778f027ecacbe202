#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "gen/random_network.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/stdcells.hpp"
#include "netlist/validate.hpp"
#include "scenario/corner_analysis.hpp"
#include "service/proto2.hpp"
#include "service/snapshot_read.hpp"
#include "service/snapshot_view.hpp"
#include "sta/hummingbird.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hb;

namespace {

std::size_t constrained(const ConstraintSet& cs) {
  return static_cast<std::size_t>(
      std::count_if(cs.nodes.begin(), cs.nodes.end(),
                    [](const ConstraintTimes& c) { return c.has_required; }));
}

IncrementalStats minus(const IncrementalStats& a, const IncrementalStats& b) {
  IncrementalStats d;
  d.full_computes = a.full_computes - b.full_computes;
  d.updates = a.updates - b.updates;
  d.passes_evaluated = a.passes_evaluated - b.passes_evaluated;
  d.passes_updated = a.passes_updated - b.passes_updated;
  d.passes_full_swept = a.passes_full_swept - b.passes_full_swept;
  d.passes_reused = a.passes_reused - b.passes_reused;
  d.nodes_retraced = a.nodes_retraced - b.nodes_retraced;
  d.self_checks = a.self_checks - b.self_checks;
  d.self_heals = a.self_heals - b.self_heals;
  return d;
}

std::string wire_of(const std::string& line, const SnapshotSource& src) {
  BudgetTimer timer{AnalysisBudget{}};
  return to_wire(evaluate_snapshot_read(parse_query(line), src, timer));
}

}  // namespace

std::string SignoffOutputs::fingerprint() const {
  std::string f = report;
  f += "\nworst_slack " + std::to_string(worst_slack);
  f += "\nconstrained_nodes " + std::to_string(constrained_nodes);
  f += "\nsnatch_cycles " + std::to_string(snatch_cycles);
  f += "\nhold_violations " + std::to_string(hold_violations);
  for (std::size_t k = 0; k < corner_worst.size(); ++k) {
    f += "\ncorner " + std::to_string(k) + " worst " + std::to_string(corner_worst[k]);
  }
  f += "\nslack_evaluations " + std::to_string(slack_evaluations);
  return f;
}

SignoffOutputs signoff_traced(const SignoffInputs& in, Tracer& t, std::uint32_t op,
                              int* out_op_span) {
  SignoffOutputs out;
  Scope whole(&t, "signoff.op", op);
  *out_op_span = whole.id();
  std::unique_ptr<Design> design;
  {
    Scope s(&t, "netlist.blif_parse", op);
    design = std::make_unique<Design>(blif_design_from_string(in.blif, in.lib));
  }
  {
    Scope s(&t, "netlist.validate", op);
    const ValidationReport report = validate(*design);
    if (!report.ok()) out.report = "validation failed:\n" + report.to_string();
  }
  std::unique_ptr<DelayCalculator> calc;
  std::unique_ptr<TimingGraph> graph;
  {
    Scope s(&t, "sta.graph", op);
    calc = std::make_unique<DelayCalculator>(*design, WireLoadModel{});
    graph = std::make_unique<TimingGraph>(*design, *calc);
  }
  std::unique_ptr<SyncModel> sync;
  {
    Scope s(&t, "sta.sync", op);
    sync = std::make_unique<SyncModel>(*graph, in.clocks, *calc, SyncModelOptions{});
  }
  std::unique_ptr<ClusterSet> clusters;
  {
    Scope s(&t, "sta.clusters", op);
    clusters = std::make_unique<ClusterSet>(*graph, *sync);
  }
  std::unique_ptr<SlackEngine> engine;
  {
    Scope s(&t, "sta.prepare", op);
    engine = std::make_unique<SlackEngine>(*graph, *clusters, *sync);
  }
  {
    Scope s(&t, "sta.alg1", op);
    sync->reset_offsets();
    const Algorithm1Result res = run_algorithm1(*sync, *engine, Algorithm1Options{});
    out.worst_slack = res.worst_slack;
    out.slack_evaluations = res.slack_evaluations;
  }
  {
    Scope s(&t, "sta.report", op);
    out.report += timing_summary(*engine);
    out.report += format_paths(*engine, enumerate_slow_paths(*engine, 10));
  }
  {
    Scope s(&t, "sta.hold", op);
    out.hold_violations = check_hold(*engine, 0).size();
  }
  {
    Scope s(&t, "scenario.corners", op);
    CornerAnalysis ca(*engine, in.corners);
    ca.compute();
    for (std::size_t k = 0; k < ca.num_corners(); ++k) {
      out.corner_worst.push_back(ca.worst_terminal_slack(k));
    }
  }
  {
    Scope s(&t, "sta.alg2", op);
    const ConstraintSet cs = run_algorithm2(*sync, *engine, Algorithm2Options{});
    out.constrained_nodes = constrained(cs);
    out.snatch_cycles = cs.backward_snatch_cycles + cs.forward_snatch_cycles;
  }
  {
    Scope s(&t, "sta.teardown", op);
    engine.reset();
    clusters.reset();
    sync.reset();
    graph.reset();
    calc.reset();
    design.reset();
  }
  return out;
}

CommitMirror::CommitMirror(const Design& design, const ClockSet& clocks,
                           int threads, const std::string& store_dir)
    : pool_(std::make_unique<ThreadPool>(threads)) {
  HummingbirdOptions opt;
  opt.alg1.pool = pool_.get();
  hb_ = std::make_unique<Hummingbird>(design, clocks, opt);
  hb_->analyze();
  names_ = build_name_index(hb_->graph());
  SnapshotStore::Options so;
  so.dir = store_dir;
  so.retain = 2;
  store_ = std::make_unique<SnapshotStore>(so);
}

CommitMirror::~CommitMirror() = default;

bool CommitMirror::absorb(InstId inst, TimePs delta) {
  hb_->calculator_mut().adjust_instance(inst, delta);
  return hb_->update_instance_delays(inst);
}

CommitMirror::Replay CommitMirror::replay(std::uint64_t id, Tracer& t,
                                          std::uint32_t op) {
  Replay r;
  SlackEngine& engine = hb_->engine_mut();
  SyncModel& sync = hb_->sync_model_mut();
  const IncrementalStats before = engine.incremental_stats();
  std::shared_ptr<AnalysisSnapshot> snap;
  int blocks_id = -1;
  {
    Scope blocks(&t, "whatif.commit_blocks", op);
    blocks_id = blocks.id();
    Algorithm1Result res;
    {
      Scope s(&t, "sta.alg1", op);
      res = hb_->reanalyze();
    }
    r.slack_evaluations = res.slack_evaluations;
    r.delta = minus(engine.incremental_stats(), before);
    {
      Scope s(&t, "service.snapshot", op);
      snap = take_snapshot(engine, res, id, 32, names_);
    }
    {
      Scope s(&t, "sta.alg2", op);
      run_algorithm2(sync, engine, Algorithm2Options{});
    }
    {
      Scope s(&t, "sta.restore", op);
      hb_->reanalyze();
    }
    {
      Scope s(&t, "sta.hold", op);
      capture_hold_into(*snap, engine, pool_.get());
    }
    {
      Scope s(&t, "service.save", op);
      r.saved = store_->save(*snap).ok;
    }
  }
  r.blocks_ms = t.dur_ms(blocks_id);
  // Reference measurements outside the commit's own blocks.
  {
    Scope s(&t, "service.serialize", op);
    r.image_bytes = serialize_snapshot(*snap).size();
  }
  {
    Scope s(&t, "sta.compute", op);
    engine.compute(pool_.get());
  }
  r.summary = wire_of("summary", SnapshotCopySource(*snap));
  return r;
}

void probe_remap(SnapshotStore& store, const std::string& slack_node, Tracer& t,
                 std::uint32_t op) {
  std::string path;
  {
    Scope s(&t, "service.load_newest", op);
    const SnapshotStore::SourceResult res = store.load_newest_source();
    path = res.path;
  }
  std::shared_ptr<SnapshotView> view;
  {
    Scope s(&t, "service.map", op);
    view = SnapshotView::map_file(path).view;
  }
  if (view == nullptr) return;
  Scope s(&t, "service.first_slack", op);
  wire_of("slack " + slack_node, *view);
}

double replay_text_read(const std::string& line, const SnapshotSource& src,
                        Tracer& t, std::uint32_t op) {
  ParsedQuery q;
  QueryResult r;
  double covered = 0;
  {
    Scope s(&t, "service.parse", op);
    q = parse_query(line);
    covered += t.elapsed_ms(s.id());
  }
  {
    Scope s(&t, "service.eval", op);
    BudgetTimer timer{AnalysisBudget{}};
    r = evaluate_snapshot_read(q, src, timer);
    covered += t.elapsed_ms(s.id());
  }
  Scope s(&t, "service.render", op);
  const std::string wire = to_wire(r);
  return covered + t.elapsed_ms(s.id());
}

double replay_frame_read(std::string_view payload, const std::string& line,
                         const SnapshotSource& src, Tracer& t, std::uint32_t op) {
  Proto2Request req;
  double covered = 0;
  {
    Scope s(&t, "service.parse", op);
    req = proto2_decode_request(payload);
    covered += t.elapsed_ms(s.id());
  }
  {
    Scope s(&t, "service.eval", op);
    BudgetTimer timer{AnalysisBudget{}};
    std::string frame;
    proto2_evaluate(req, src, timer, frame);
    covered += t.elapsed_ms(s.id());
  }
  BudgetTimer timer{AnalysisBudget{}};
  const QueryResult r = evaluate_snapshot_read(parse_query(line), src, timer);
  Scope s(&t, "service.render", op);
  to_wire(r);
  return covered;
}

double pool_speedup(SlackEngine& engine, ThreadPool& pool, int reps, Tracer& t,
                    std::uint32_t op) {
  Samples ratio;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    engine.compute(nullptr);
    const double serial = ms_since(t0);
    Scope s(&t, "sta.compute", op);
    const auto t1 = Clock::now();
    engine.compute(&pool);
    ratio.add(serial / ms_since(t1));
  }
  return ratio.median();
}

std::vector<InstId> absorbable_instances(const Design& design,
                                         const ClockSet& clocks,
                                         std::uint64_t seed, std::size_t want) {
  std::vector<InstId> candidates;
  const auto& insts = design.top().insts();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (insts[i].is_cell() && !design.lib().cell(insts[i].cell).is_sequential()) {
      candidates.push_back(InstId(static_cast<std::uint32_t>(i)));
    }
  }
  Rng rng(seed);
  rng.shuffle(candidates);
  // Probe each candidate on a scratch analyser: an edit is absorbable when
  // update_instance_delays accepts it; undo it either way.
  HummingbirdOptions opt;
  opt.validate = false;
  Hummingbird probe(design, clocks, opt);
  std::vector<InstId> out;
  for (InstId inst : candidates) {
    if (out.size() == want) break;
    probe.calculator_mut().adjust_instance(inst, 10);
    const bool ok = probe.update_instance_delays(inst);
    probe.calculator_mut().adjust_instance(inst, -10);
    if (ok && probe.update_instance_delays(inst)) out.push_back(inst);
  }
  return out;
}

std::vector<std::string> read_mix(const std::vector<std::string>& nodes,
                                  std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.next() % 15;
    if (r < 12) {
      out.push_back("slack " + nodes[rng.pick(nodes.size())]);
    } else if (r == 12) {
      out.push_back("summary");
    } else if (r == 13) {
      out.push_back("worst_paths 8");
    } else {
      out.push_back("histogram 8");
    }
  }
  return out;
}

Network make_random_large() {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  return Network{std::move(net.design), std::move(net.clocks)};
}

std::vector<std::string> node_names(const AnalysisSnapshot& snap) {
  std::vector<std::string> out;
  out.reserve(snap.names->node_by_name.size());
  for (const auto& [name, node] : snap.names->node_by_name) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
