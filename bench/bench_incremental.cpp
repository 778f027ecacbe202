// Incremental vs full slack re-evaluation.
//
// Scenario: a local change — one synchronising element's offsets shifted, or
// one combinational instance's delays adjusted — followed by a re-analysis.
// Full mode recomputes every pass of every cluster; incremental mode
// re-propagates only the affected cones and re-accumulates only the dirty
// clusters; parallel-incremental additionally spreads dirty passes over a
// thread pool.  All three produce bit-identical results (asserted here and
// in tests/incremental_test.cpp); only the work differs.
//
// A third scenario is a whole commit as the service runs it: one absorbed
// delay edit, then analyze() + generate_constraints().  Algorithm 1's and
// 2's steps refresh terminal slacks from the terminal delay table; node
// results are derived only at Algorithm 1's exit and Algorithm 2's two
// recording points.  The entry counts that work and checks the final state
// bit for bit against a fresh analyser with the same edit history.
//
// Writes BENCH_incremental.json with per-network timings; the headline
// figure is the incremental speedup for single-instance offset
// perturbations on the largest generated network.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gen/filter.hpp"
#include "gen/pipeline.hpp"
#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "sta/cluster.hpp"
#include "sta/hummingbird.hpp"
#include "sta/slack_engine.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace hb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Workload {
  std::string name;
  Design design;
  ClockSet clocks;
};

struct Timings {
  double full_us = 0;        // full compute() per perturbation
  double incremental_us = 0; // serial update() per perturbation
  double parallel_us = 0;    // pooled update() per perturbation
  double speedup() const { return full_us / incremental_us; }
  double parallel_speedup() const { return full_us / parallel_us; }
};

// Offset perturbation targets: non-virtual transparent instances.
std::vector<SyncId> transparent_instances(const SyncModel& sync) {
  std::vector<SyncId> out;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (si.transparent && !si.is_virtual && si.width >= 4) out.push_back(SyncId(i));
  }
  return out;
}

// Shift one latch a few ps, alternating direction so offsets stay in range.
void perturb_offset(SyncModel& sync, const std::vector<SyncId>& latches, int k) {
  const SyncId id = latches[static_cast<std::size_t>(k) % latches.size()];
  SyncInstance& si = sync.at_mut(id);
  const TimePs delta = (k % 2 == 0) ? -std::min<TimePs>(si.max_decrease(), 2)
                                    : std::min<TimePs>(si.max_increase(), 2);
  si.shift(delta);
}

// One absorbed edit's commit: analyze() + generate_constraints().  Counts
// are per commit: node_updates is the most node-level update() calls any
// one commit made, the rest are means.
struct CommitReport {
  double us = 0;
  std::uint64_t node_updates = 0;
  double terminal_updates = 0;
  double nodes_retraced = 0;
  double rows_reswept = 0;
  bool bit_identical = false;
};

struct Report {
  Timings offset;
  Timings delay;
  CommitReport commit;
  std::size_t nodes = 0;
  std::size_t arcs = 0;
  std::size_t passes = 0;
  double retraced_per_update = 0;
  // Strategy chosen by the cost model over the serial incremental phases:
  // dirty passes patched over their cone vs re-evaluated by full sweep
  // (docs/ALGORITHMS.md §7).
  std::uint64_t cone_updates = 0;
  std::uint64_t full_sweeps = 0;
};

Report measure(Workload& w, ThreadPool& pool, int reps) {
  DelayCalculator calc(w.design);
  TimingGraph graph(w.design, calc);
  SyncModel sync(graph, w.clocks, calc);
  ClusterSet clusters(graph, sync);
  SlackEngine engine(graph, clusters, sync);

  Report rep;
  rep.nodes = graph.num_nodes();
  rep.arcs = graph.num_arcs();
  rep.passes = engine.num_passes_total();

  const std::vector<SyncId> latches = transparent_instances(sync);
  if (latches.empty()) {
    std::fprintf(stderr, "%s: no transparent latches, skipping\n", w.name.c_str());
    return rep;
  }

  // Combinational instances for the delay-perturbation scenario.
  std::vector<InstId> comb;
  for (std::uint32_t i = 0; i < w.design.top().insts().size(); ++i) {
    const Instance& inst = w.design.top().inst(InstId(i));
    if (inst.is_cell() && !w.design.lib().cell(inst.cell).is_sequential()) {
      comb.push_back(InstId(i));
    }
  }

  // Each mode replays the same deterministic perturbation sequence, so the
  // timed work is identical in meaning; verified bit-identical in tests.
  auto run_offset = [&](auto&& refresh) {
    sync.reset_offsets();
    sync.drain_changed_offsets();
    engine.invalidate_all();
    engine.compute();
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < reps; ++k) {
      perturb_offset(sync, latches, k);
      refresh();
    }
    return 1e6 * seconds_since(start) / reps;
  };
  rep.offset.full_us = run_offset([&] {
    sync.drain_changed_offsets();
    engine.compute();
  });
  const IncrementalStats off_before = engine.incremental_stats();
  rep.offset.incremental_us = run_offset([&] {
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update();
  });
  const IncrementalStats off_after = engine.incremental_stats();
  rep.cone_updates += off_after.passes_updated - off_before.passes_updated;
  rep.full_sweeps += off_after.passes_full_swept - off_before.passes_full_swept;
  rep.offset.parallel_us = run_offset([&] {
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update(&pool);
  });

  auto run_delay = [&](auto&& refresh) {
    engine.invalidate_all();
    engine.compute();
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < reps; ++k) {
      const InstId inst = comb[static_cast<std::size_t>(k * 37) % comb.size()];
      calc.adjust_instance(inst, (k % 2 == 0) ? 3 : -3);
      const TimingGraph::DelayUpdate upd = graph.update_instance_delays(inst, calc);
      for (InstId s : upd.affected_sequential) sync.refresh_element_delays(s, calc);
      refresh(upd);
    }
    return 1e6 * seconds_since(start) / reps;
  };
  rep.delay.full_us = run_delay([&](const TimingGraph::DelayUpdate&) {
    sync.drain_changed_offsets();
    engine.compute();
  });
  const IncrementalStats before = engine.incremental_stats();
  rep.delay.incremental_us = run_delay([&](const TimingGraph::DelayUpdate& upd) {
    for (std::uint32_t ai : upd.changed_arcs) {
      engine.invalidate_node(graph.arc(ai).from);
      engine.invalidate_node(graph.arc(ai).to);
    }
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update();
  });
  const IncrementalStats after = engine.incremental_stats();
  if (after.updates > before.updates) {
    rep.retraced_per_update =
        static_cast<double>(after.nodes_retraced - before.nodes_retraced) /
        static_cast<double>(after.updates - before.updates);
  }
  rep.cone_updates += after.passes_updated - before.passes_updated;
  rep.full_sweeps += after.passes_full_swept - before.passes_full_swept;
  rep.delay.parallel_us = run_delay([&](const TimingGraph::DelayUpdate& upd) {
    for (std::uint32_t ai : upd.changed_arcs) {
      engine.invalidate_node(graph.arc(ai).from);
      engine.invalidate_node(graph.arc(ai).to);
    }
    engine.invalidate_offsets(sync.drain_changed_offsets());
    engine.update(&pool);
  });

  return rep;
}

bool same_results(const Hummingbird& a, const Hummingbird& b,
                  const ConstraintSet& ca, const ConstraintSet& cb) {
  const SlackEngine& x = a.engine();
  const SlackEngine& y = b.engine();
  for (std::uint32_t i = 0; i < x.sync().num_instances(); ++i) {
    if (x.launch_slack(SyncId(i)) != y.launch_slack(SyncId(i)) ||
        x.capture_slack(SyncId(i)) != y.capture_slack(SyncId(i))) {
      return false;
    }
  }
  for (std::uint32_t n = 0; n < x.graph().num_nodes(); ++n) {
    const NodeTiming& p = x.node_timing(TNodeId(n));
    const NodeTiming& q = y.node_timing(TNodeId(n));
    if (p.slack != q.slack || !(p.ready == q.ready) ||
        !(p.required == q.required) || p.has_ready != q.has_ready ||
        p.has_constraint != q.has_constraint ||
        p.settling_count != q.settling_count) {
      return false;
    }
    const ConstraintTimes& s = ca.nodes[n];
    const ConstraintTimes& t = cb.nodes[n];
    if (s.has_ready != t.has_ready || !(s.ready == t.ready) ||
        s.has_required != t.has_required || !(s.required == t.required) ||
        s.slack != t.slack) {
      return false;
    }
  }
  return ca.backward_snatch_cycles == cb.backward_snatch_cycles &&
         ca.forward_snatch_cycles == cb.forward_snatch_cycles;
}

CommitReport measure_commit(const Workload& w, int commits) {
  CommitReport rep;
  Hummingbird hb(w.design, w.clocks);
  hb.analyze();
  hb.generate_constraints();
  std::vector<InstId> comb;
  for (std::uint32_t i = 0; i < w.design.top().insts().size(); ++i) {
    const Instance& inst = w.design.top().inst(InstId(i));
    if (inst.is_cell() && !w.design.lib().cell(inst.cell).is_sequential()) {
      comb.push_back(InstId(i));
    }
  }
  std::vector<InstDelayAdjust> history;
  ConstraintSet cs;
  double total_us = 0;
  int done = 0;
  for (int k = 0; done < commits && k < 4 * commits; ++k) {
    const InstId inst = comb[static_cast<std::size_t>(k * 37) % comb.size()];
    const TimePs delta = (k % 2 == 0) ? 9 : -4;
    hb.calculator_mut().adjust_instance(inst, delta);
    history.push_back({inst, delta});
    if (!hb.update_instance_delays(inst)) {
      // Not absorbable (reaches a control pin): undo and pick another.
      hb.calculator_mut().adjust_instance(inst, -delta);
      history.pop_back();
      hb.update_instance_delays(inst);
      continue;
    }
    const IncrementalStats before = hb.engine().incremental_stats();
    const auto start = std::chrono::steady_clock::now();
    hb.analyze();
    cs = hb.generate_constraints();
    total_us += 1e6 * seconds_since(start);
    const IncrementalStats after = hb.engine().incremental_stats();
    rep.node_updates =
        std::max<std::uint64_t>(rep.node_updates, after.updates - before.updates);
    rep.terminal_updates +=
        static_cast<double>(after.terminal_updates - before.terminal_updates);
    rep.nodes_retraced +=
        static_cast<double>(after.nodes_retraced - before.nodes_retraced);
    rep.rows_reswept += static_cast<double>(after.rows_swept - before.rows_swept);
    ++done;
  }
  if (done == 0) return rep;
  rep.us = total_us / done;
  rep.terminal_updates /= done;
  rep.nodes_retraced /= done;
  rep.rows_reswept /= done;

  HummingbirdOptions opt;
  opt.delay_adjust = history;
  Hummingbird fresh(w.design, w.clocks, opt);
  fresh.analyze();
  const ConstraintSet want = fresh.generate_constraints();
  rep.bit_identical = same_results(hb, fresh, cs, want);
  return rep;
}

}  // namespace
}  // namespace hb

int main(int argc, char** argv) {
  using namespace hb;
  int threads = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  auto lib = make_standard_library();
  ThreadPool pool(threads);  // 0 -> one worker per hardware thread

  std::vector<Workload> workloads;

  {
    PipelineSpec spec;
    spec.stage_depths = {8, 8, 8, 8};
    spec.width = 8;
    workloads.push_back({"pipeline_8x4x8", make_pipeline(lib, spec),
                         make_two_phase_clocks(ns(6))});
  }
  {
    FilterSpec spec;
    spec.width = 12;
    spec.taps = 6;
    spec.reg_cell = "TLATCH";  // transparent: offset perturbation applies
    workloads.push_back({"filter_12b_6tap", make_multirate_filter(lib, spec),
                         make_multirate_clocks(ns(8))});
  }
  for (const auto& [name, banks, width, gates] :
       {std::tuple<const char*, int, int, int>{"random_small", 3, 3, 12},
        {"random_medium", 5, 6, 60},
        {"random_large", 8, 10, 220}}) {
    RandomNetworkSpec spec;
    spec.seed = 7;
    spec.num_clocks = 2;
    spec.banks = banks;
    spec.bank_width = width;
    spec.gates_per_stage = gates;
    RandomNetwork net = make_random_network(lib, spec);
    workloads.push_back({name, std::move(net.design), std::move(net.clocks)});
  }

  std::printf("%-16s %8s %8s %7s | %10s %10s %10s %8s %8s\n", "network", "nodes",
              "arcs", "passes", "full us", "incr us", "par us", "speedup",
              "par x");

  FILE* json = std::fopen("BENCH_incremental.json", "w");
  std::fprintf(json,
               "{\n  \"threads\": %d,\n  \"threads_used\": %d,\n"
               "  \"hardware_threads\": %d,\n  \"networks\": [\n",
               pool.size(), pool.size(),
               static_cast<int>(std::thread::hardware_concurrency()));

  double largest_speedup = 0;
  bool all_identical = true;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    Workload& w = workloads[i];
    Report rep = measure(w, pool, 200);
    rep.commit = measure_commit(w, 20);
    largest_speedup = rep.offset.speedup();  // workloads are ordered by size
    std::printf("%-16s %8zu %8zu %7zu | %10.1f %10.1f %10.1f %7.1fx %7.1fx\n",
                w.name.c_str(), rep.nodes, rep.arcs, rep.passes,
                rep.offset.full_us, rep.offset.incremental_us,
                rep.offset.parallel_us, rep.offset.speedup(),
                rep.offset.parallel_speedup());
    std::printf("%-16s %8s %8s %7s | %10.1f %10.1f %10.1f %7.1fx %7.1fx  (delay, ~%.0f nodes retraced)\n",
                "", "", "", "", rep.delay.full_us, rep.delay.incremental_us,
                rep.delay.parallel_us, rep.delay.speedup(),
                rep.delay.parallel_speedup(), rep.retraced_per_update);
    std::printf("%-16s commit %.1f us: %llu node updates, %.1f terminal "
                "updates, %.0f nodes retraced, %.1f rows reswept, %s\n",
                "", rep.commit.us,
                static_cast<unsigned long long>(rep.commit.node_updates),
                rep.commit.terminal_updates, rep.commit.nodes_retraced,
                rep.commit.rows_reswept,
                rep.commit.bit_identical ? "bit-identical" : "DIFFERS");
    all_identical = all_identical && rep.commit.bit_identical;
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"nodes\": %zu, \"arcs\": %zu, "
                 "\"passes\": %zu,\n"
                 "     \"offset_perturbation\": {\"full_us\": %.2f, "
                 "\"incremental_us\": %.2f, \"parallel_us\": %.2f, "
                 "\"speedup\": %.2f, \"parallel_speedup\": %.2f},\n"
                 "     \"delay_perturbation\": {\"full_us\": %.2f, "
                 "\"incremental_us\": %.2f, \"parallel_us\": %.2f, "
                 "\"speedup\": %.2f, \"parallel_speedup\": %.2f},\n"
                 "     \"strategy\": {\"cone_updates\": %llu, "
                 "\"full_sweeps\": %llu},\n"
                 "     \"commit\": {\"us\": %.1f, \"node_updates\": %llu, "
                 "\"terminal_updates\": %.1f, \"nodes_retraced\": %.1f, "
                 "\"rows_reswept\": %.1f, \"bit_identical\": %s},\n"
                 "     \"retraced_nodes_per_update\": %.1f}%s\n",
                 w.name.c_str(), rep.nodes, rep.arcs, rep.passes,
                 rep.offset.full_us, rep.offset.incremental_us,
                 rep.offset.parallel_us, rep.offset.speedup(),
                 rep.offset.parallel_speedup(), rep.delay.full_us,
                 rep.delay.incremental_us, rep.delay.parallel_us,
                 rep.delay.speedup(), rep.delay.parallel_speedup(),
                 static_cast<unsigned long long>(rep.cone_updates),
                 static_cast<unsigned long long>(rep.full_sweeps),
                 rep.commit.us,
                 static_cast<unsigned long long>(rep.commit.node_updates),
                 rep.commit.terminal_updates, rep.commit.nodes_retraced,
                 rep.commit.rows_reswept,
                 rep.commit.bit_identical ? "true" : "false",
                 rep.retraced_per_update,
                 i + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"largest_network_offset_speedup\": %.2f,\n"
               "  \"commit_bit_identical\": %s\n}\n",
               largest_speedup, all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_incremental.json (largest-network offset speedup: %.1fx)\n",
              largest_speedup);
  return all_identical ? 0 : 1;
}
