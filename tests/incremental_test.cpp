// Differential harness for the incremental re-analysis layer.
//
// The contract under test (docs/ALGORITHMS.md §7): after any sequence of
// local changes — offset shifts, virtual-terminal edits, component-delay
// adjustments, cell resizes — SlackEngine::update() must reproduce a fresh
// full compute() bit for bit, serially and on a thread pool.  Slacks are
// integer picoseconds and every propagation step is a min/max, so there is
// no tolerance anywhere: every comparison below is exact equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>

#include "baseline/relaxation.hpp"
#include "gen/alu.hpp"
#include "gen/des.hpp"
#include "gen/random_network.hpp"
#include "netlist/builder.hpp"
#include "netlist/stdcells.hpp"
#include "sta/cluster.hpp"
#include "sta/hummingbird.hpp"
#include "sta/report.hpp"
#include "synth/redesign_loop.hpp"
#include "synth/resize.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

// Everything compute() produces, captured for exact comparison.
struct Snapshot {
  std::vector<TimePs> launch;
  std::vector<TimePs> capture;
  std::vector<NodeTiming> nodes;
};

Snapshot take(const SlackEngine& engine) {
  Snapshot s;
  for (std::uint32_t i = 0; i < engine.sync().num_instances(); ++i) {
    s.launch.push_back(engine.launch_slack(SyncId(i)));
    s.capture.push_back(engine.capture_slack(SyncId(i)));
  }
  for (std::uint32_t n = 0; n < engine.graph().num_nodes(); ++n) {
    s.nodes.push_back(engine.node_timing(TNodeId(n)));
  }
  return s;
}

::testing::AssertionResult equal(const Snapshot& a, const Snapshot& b) {
  for (std::size_t i = 0; i < a.launch.size(); ++i) {
    if (a.launch[i] != b.launch[i]) {
      return ::testing::AssertionFailure()
             << "launch slack of sync " << i << ": " << a.launch[i] << " vs "
             << b.launch[i];
    }
    if (a.capture[i] != b.capture[i]) {
      return ::testing::AssertionFailure()
             << "capture slack of sync " << i << ": " << a.capture[i] << " vs "
             << b.capture[i];
    }
  }
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    const NodeTiming& x = a.nodes[n];
    const NodeTiming& y = b.nodes[n];
    if (x.slack != y.slack || !(x.ready == y.ready) ||
        !(x.required == y.required) || x.has_ready != y.has_ready ||
        x.has_constraint != y.has_constraint ||
        x.settling_count != y.settling_count) {
      return ::testing::AssertionFailure()
             << "node timing of node " << n << " differs (slack " << x.slack
             << " vs " << y.slack << ", settling " << x.settling_count << " vs "
             << y.settling_count << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Algorithm 2's outputs agree exactly: snatch cycles and every node's
// constraint times.
::testing::AssertionResult same_constraints(const ConstraintSet& a,
                                            const ConstraintSet& b) {
  if (a.backward_snatch_cycles != b.backward_snatch_cycles ||
      a.forward_snatch_cycles != b.forward_snatch_cycles) {
    return ::testing::AssertionFailure() << "snatch cycles differ";
  }
  for (std::size_t n = 0; n < b.nodes.size(); ++n) {
    const ConstraintTimes& x = a.nodes[n];
    const ConstraintTimes& y = b.nodes[n];
    if (!(x.has_ready == y.has_ready && x.ready == y.ready &&
          x.has_required == y.has_required && x.required == y.required &&
          x.slack == y.slack)) {
      return ::testing::AssertionFailure() << "constraint times of node " << n;
    }
  }
  return ::testing::AssertionSuccess();
}

RandomNetworkSpec spec_for(int i) {
  RandomNetworkSpec spec;
  spec.seed = 1000 + static_cast<std::uint64_t>(i);
  spec.num_clocks = 1 + i % 3;
  spec.banks = 2 + i % 3;
  spec.bank_width = 2 + (i / 3) % 3;
  spec.gates_per_stage = 6 + i % 9;
  spec.transparent_prob = 0.5 + 0.1 * (i % 5);
  return spec;
}

// The tentpole differential test: >= 50 seeded random multi-phase networks,
// each driven through >= 20 random perturbation steps.  Three engines share
// one SyncModel and one TimingGraph: `ref` recomputes from scratch every
// step, `inc` updates serially, `par` updates on a pool.  All three must
// agree exactly at every step.
TEST(IncrementalDifferential, RandomPerturbationsMatchFullCompute) {
  auto lib = make_standard_library();
  ThreadPool pool(4);
  std::uint64_t total_updates = 0;
  // Networks with a sink whose capture instances read different passes: the
  // kernels seed such a sink per pass from its own capture range.
  int split_sink_networks = 0;

  for (int net_i = 0; net_i < 50; ++net_i) {
    SCOPED_TRACE("network " + std::to_string(net_i));
    RandomNetwork net = make_random_network(lib, spec_for(net_i));
    DelayCalculator calc(net.design);
    TimingGraph graph(net.design, calc);
    SyncModel sync(graph, net.clocks, calc);
    ClusterSet clusters(graph, sync);

    SlackEngine ref(graph, clusters, sync);
    SlackEngine inc(graph, clusters, sync);
    SlackEngine par(graph, clusters, sync);
    ref.compute();
    inc.compute();
    par.compute(&pool);
    ASSERT_TRUE(equal(take(ref), take(inc)));
    ASSERT_TRUE(equal(take(ref), take(par)));
    bool split = false;
    for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
      if (ref.num_passes(ClusterId(c)) < 2) continue;
      for (TNodeId n : clusters.cluster(ClusterId(c)).sink_nodes) {
        for (SyncId id : sync.captures_at(n)) {
          split = split || ref.assigned_pass(id) !=
                               ref.assigned_pass(sync.captures_at(n).front());
        }
      }
    }
    split_sink_networks += split;

    // Top-level combinational cell instances (delay-perturbation targets).
    std::vector<InstId> comb;
    for (std::uint32_t i = 0; i < net.design.top().insts().size(); ++i) {
      const Instance& inst = net.design.top().inst(InstId(i));
      if (inst.is_cell() && !net.design.lib().cell(inst.cell).is_sequential()) {
        comb.push_back(InstId(i));
      }
    }

    Rng rng(900 + static_cast<std::uint64_t>(net_i));
    for (int step = 0; step < 20; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      switch (rng.uniform(0, 3)) {
        case 0: {  // shift a transparent element within its legal range
          const SyncId id(static_cast<std::uint32_t>(rng.pick(sync.num_instances())));
          const SyncInstance& si = sync.at(id);
          if (!si.transparent || si.is_virtual) break;
          const TimePs delta =
              rng.uniform(-si.max_decrease(), si.max_increase());
          if (delta != 0) sync.at_mut(id).shift(delta);
          break;
        }
        case 1: {  // move a virtual terminal (PI arrival / PO required)
          const SyncId id(static_cast<std::uint32_t>(rng.pick(sync.num_instances())));
          if (!sync.at(id).is_virtual) break;
          sync.at_mut(id).v_offset += rng.uniform(-200, 200);
          break;
        }
        case 2: {  // reset all offsets to the initial state
          sync.reset_offsets();
          break;
        }
        default: {  // perturb a combinational instance's delays in place
          if (comb.empty()) break;
          const InstId inst = comb[rng.pick(comb.size())];
          calc.adjust_instance(inst, rng.uniform(-30, 60));
          const TimingGraph::DelayUpdate upd =
              graph.update_instance_delays(inst, calc);
          for (InstId s : upd.affected_sequential) {
            sync.refresh_element_delays(s, calc);
          }
          for (std::uint32_t ai : upd.changed_arcs) {
            inc.invalidate_node(graph.arc(ai).from);
            inc.invalidate_node(graph.arc(ai).to);
            par.invalidate_node(graph.arc(ai).from);
            par.invalidate_node(graph.arc(ai).to);
          }
          break;
        }
      }
      const std::vector<SyncId> changed = sync.drain_changed_offsets();
      inc.invalidate_offsets(changed);
      par.invalidate_offsets(changed);
      inc.update();
      par.update(&pool);
      ref.compute();
      ASSERT_TRUE(equal(take(ref), take(inc)));
      ASSERT_TRUE(equal(take(ref), take(par)));
    }
    total_updates += inc.incremental_stats().updates;
    EXPECT_EQ(inc.incremental_stats().full_computes, 1u);
  }
  EXPECT_GT(total_updates, 0u);
  EXPECT_GT(split_sink_networks, 0);
}

// The terminal-slack oracle: the fold SlackEngine ran over its passes before
// terminal slacks moved to the terminal delay table.  A launch's slack is
// the min over passes of required - assertion at its node; a capture's is
// closure - ready in its assigned pass.  Run over a fresh compute()'s
// cached passes, it is independent of the table.
struct Terminals {
  std::vector<TimePs> launch;
  std::vector<TimePs> capture;
};

Terminals fold_terminals(const SlackEngine& e) {
  const SyncModel& sync = e.sync();
  Terminals t;
  t.launch.assign(sync.num_instances(), kInfinitePs);
  t.capture.assign(sync.num_instances(), kInfinitePs);
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (si.data_out.valid() && e.clusters().cluster_of(si.data_out).valid()) {
      const ClusterId c = e.clusters().cluster_of(si.data_out);
      const std::uint32_t li = e.local_index(si.data_out);
      for (std::size_t p = 0; p < e.num_passes(c); ++p) {
        const PassSide& required = e.cached_pass(c, p).required;
        if (!required.has(li)) continue;
        const TimePs a =
            e.edge_graph(c).linear_assert(si.ideal_assert, e.breaks(c)[p]) +
            si.assert_offset();
        t.launch[i] = std::min(t.launch[i], required.at(li).min() - a);
      }
    }
    if (si.data_in.valid() && e.clusters().cluster_of(si.data_in).valid()) {
      const ClusterId c = e.clusters().cluster_of(si.data_in);
      const std::uint32_t li = e.local_index(si.data_in);
      const std::size_t p = e.assigned_pass(SyncId(i));
      if (p < e.num_passes(c) && e.cached_pass(c, p).ready.has(li)) {
        const TimePs close =
            e.edge_graph(c).linear_close(si.ideal_close, e.breaks(c)[p]) +
            si.close_offset();
        t.capture[i] = close - e.cached_pass(c, p).ready.at(li).max();
      }
    }
  }
  return t;
}

::testing::AssertionResult terminals_match(const SlackEngine& got,
                                           const Terminals& want) {
  for (std::uint32_t i = 0; i < want.launch.size(); ++i) {
    if (got.launch_slack(SyncId(i)) != want.launch[i]) {
      return ::testing::AssertionFailure()
             << "launch slack of " << got.sync().at(SyncId(i)).label << ": "
             << got.launch_slack(SyncId(i)) << " vs " << want.launch[i];
    }
    if (got.capture_slack(SyncId(i)) != want.capture[i]) {
      return ::testing::AssertionFailure()
             << "capture slack of " << got.sync().at(SyncId(i)).label << ": "
             << got.capture_slack(SyncId(i)) << " vs " << want.capture[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Networks with the terminal kinds the table must get right: every
// generator network (multi-frequency filter included), multi-clock random
// networks, a tristate bus and an enable-path endpoint.
std::vector<Workload> terminal_networks() {
  auto lib = make_standard_library();
  std::vector<Workload> out = all_generator_networks();
  for (int i : {0, 5, 10}) {
    RandomNetwork net = make_random_network(lib, spec_for(i));
    out.push_back({"random_" + std::to_string(i), std::move(net.design),
                   std::move(net.clocks)});
  }
  {
    TopBuilder b("bus", lib);
    const NetId phi1 = b.port_in("phi1", true);
    const NetId phi2 = b.port_in("phi2", true);
    const NetId bus = b.net("bus");
    const CellId tb = lib->require("TRIBUF");
    const SyncSpec& tb_sync = lib->cell(tb).sync();
    NetId da = b.port_in("da");
    NetId db = b.port_in("db");
    for (int k = 0; k < 3; ++k) {
      da = b.gate("INVX1", {da});
      db = b.gate("NAND2X1", {db, da});
    }
    for (int i = 0; i < 2; ++i) {
      const InstId inst =
          b.module().add_cell_inst(i == 0 ? "bufA" : "bufB", tb, 3);
      b.module().connect(inst, tb_sync.data_in, i == 0 ? da : db);
      b.module().connect(inst, tb_sync.control, i == 0 ? phi1 : phi2);
      b.module().connect(inst, tb_sync.data_out, bus);
    }
    const NetId q = b.latch("TLATCH", b.gate("BUFX1", {bus}), phi1, "cap");
    b.port_out_net("q", b.latch("TLATCH", b.gate("INVX1", {q}), phi2, "cap2"));
    out.push_back({"tristate", b.finish(), make_two_phase_clocks(ns(10))});
  }
  {
    TopBuilder b("enable", lib);
    const NetId clk = b.port_in("clk", true);
    NetId en = b.latch("TLATCH", b.port_in("e"), clk, "en_lat");
    for (int i = 0; i < 6; ++i) en = b.gate("BUFX1", {en});
    const NetId gated = b.gate("AND2X1", {clk, en});
    const NetId q = b.latch("TLATCH", b.port_in("d"), gated, "lat");
    b.port_out_net("q", b.latch("TLATCH", b.gate("INVX1", {q}), clk, "lat2"));
    ClockSet clocks;
    clocks.add_simple_clock("clk", ns(10), ns(6), ns(9));
    out.push_back({"enable", b.finish(), std::move(clocks)});
  }
  return out;
}

// Terminal differential: update_terminals() after every random perturbation
// — offset shifts, virtual moves, resets, delay edits — against the fold
// oracle over a fresh compute().  Between node-level updates the engine's
// node results must stay as of the last update(), and each update() must
// then match the fresh compute() exactly, whatever terminal-only steps came
// between (it is seeded by the net offset change).
TEST(TerminalTable, UpdateTerminalsMatchesPassFoldOnEveryNetwork) {
  std::vector<Workload> nets = terminal_networks();
  std::uint64_t rows_swept = 0;
  for (std::size_t w = 0; w < nets.size(); ++w) {
    Workload& net = nets[w];
    SCOPED_TRACE(net.name);
    DelayCalculator calc(net.design);
    TimingGraph graph(net.design, calc);
    SyncModel sync(graph, net.clocks, calc);
    ClusterSet clusters(graph, sync);
    SlackEngine eng(graph, clusters, sync);
    SlackEngine fresh(graph, clusters, sync);

    eng.update_terminals();  // builds the table; no pass is evaluated
    fresh.compute();
    EXPECT_EQ(eng.incremental_stats().passes_evaluated, 0u);
    ASSERT_TRUE(terminals_match(eng, fold_terminals(fresh)));
    ASSERT_TRUE(terminals_match(fresh, fold_terminals(fresh)));
    eng.update();
    ASSERT_TRUE(equal(take(fresh), take(eng)));

    std::vector<InstId> comb;
    for (std::uint32_t i = 0; i < net.design.top().insts().size(); ++i) {
      const Instance& inst = net.design.top().inst(InstId(i));
      if (inst.is_cell() && !net.design.lib().cell(inst.cell).is_sequential()) {
        comb.push_back(InstId(i));
      }
    }
    Snapshot nodes_at_update = take(eng);
    Rng rng(4100 + w);
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      for (int k = rng.uniform(1, 3); k > 0; --k) {
        switch (rng.uniform(0, 3)) {
          case 0: {  // shift a transparent element within its legal range
            const SyncId id(
                static_cast<std::uint32_t>(rng.pick(sync.num_instances())));
            const SyncInstance& si = sync.at(id);
            if (!si.transparent || si.is_virtual) break;
            const TimePs delta =
                rng.uniform(-si.max_decrease(), si.max_increase());
            if (delta != 0) sync.at_mut(id).shift(delta);
            break;
          }
          case 1: {  // move a virtual terminal
            const SyncId id(
                static_cast<std::uint32_t>(rng.pick(sync.num_instances())));
            if (!sync.at(id).is_virtual) break;
            sync.at_mut(id).v_offset += rng.uniform(-200, 200);
            break;
          }
          case 2:
            sync.reset_offsets();
            break;
          default: {  // a delay edit, absorbed through node invalidations
            if (comb.empty()) break;
            const InstId inst = comb[rng.pick(comb.size())];
            calc.adjust_instance(inst, rng.uniform(-30, 60));
            const TimingGraph::DelayUpdate upd =
                graph.update_instance_delays(inst, calc);
            for (InstId s : upd.affected_sequential) {
              sync.refresh_element_delays(s, calc);
            }
            for (std::uint32_t ai : upd.changed_arcs) {
              eng.invalidate_node(graph.arc(ai).from);
              eng.invalidate_node(graph.arc(ai).to);
            }
            break;
          }
        }
      }
      eng.invalidate_offsets(sync.drain_changed_offsets());
      eng.update_terminals();
      fresh.compute();
      const Terminals want = fold_terminals(fresh);
      ASSERT_TRUE(terminals_match(eng, want));
      ASSERT_TRUE(terminals_match(fresh, want));
      // Node results stay as of the last node-level refresh.
      Snapshot now = take(eng);
      now.launch.clear();
      now.capture.clear();
      ASSERT_TRUE(equal(now, nodes_at_update));
      if (step % 5 == 4) {
        eng.update();
        ASSERT_TRUE(equal(take(fresh), take(eng)));
        nodes_at_update = take(eng);
      }
    }
    EXPECT_EQ(eng.incremental_stats().full_computes, 1u);
    rows_swept += eng.incremental_stats().rows_swept;
  }
  EXPECT_GT(rows_swept, 0u);
}

// Algorithm 1 on terminal-only steps with node results derived at its exit
// against the reference path that calls compute() at every evaluation:
// identical results, reports and (after Algorithm 2) constraint sets on
// every generator network and the tristate / enable-path designs.
TEST(TerminalTable, AlgorithmsMatchComputeReferencePath) {
  for (Workload& net : terminal_networks()) {
    SCOPED_TRACE(net.name);
    Hummingbird inc(net.design, net.clocks);
    HummingbirdOptions ref_opt;
    ref_opt.alg1.incremental = false;
    Hummingbird ref(net.design, net.clocks, ref_opt);
    const Algorithm1Result a = inc.analyze();
    const Algorithm1Result b = ref.analyze();
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.works_as_intended, b.works_as_intended);
    EXPECT_EQ(a.worst_slack, b.worst_slack);
    EXPECT_EQ(a.forward_cycles, b.forward_cycles);
    EXPECT_EQ(a.backward_cycles, b.backward_cycles);
    EXPECT_EQ(a.partial_forward_cycles, b.partial_forward_cycles);
    EXPECT_EQ(a.partial_backward_cycles, b.partial_backward_cycles);
    EXPECT_EQ(a.slack_evaluations, b.slack_evaluations);
    EXPECT_EQ(inc.report(32), ref.report(32));
    ASSERT_TRUE(equal(take(ref.engine()), take(inc.engine())));
    EXPECT_EQ(ref.engine().incremental_stats().updates, 0u);

    const ConstraintSet ca = inc.generate_constraints();
    const ConstraintSet cb = ref.generate_constraints();
    EXPECT_EQ(ca.backward_snatch_cycles, cb.backward_snatch_cycles);
    EXPECT_EQ(ca.forward_snatch_cycles, cb.forward_snatch_cycles);
    for (std::size_t n = 0; n < ca.nodes.size(); ++n) {
      const ConstraintTimes& x = ca.nodes[n];
      const ConstraintTimes& y = cb.nodes[n];
      ASSERT_TRUE(x.has_ready == y.has_ready && x.ready == y.ready &&
                  x.has_required == y.has_required &&
                  x.required == y.required && x.slack == y.slack)
          << "constraint times of node " << n;
    }
    EXPECT_EQ(inc.report(32), ref.report(32));
  }
}

// Hummingbird-level differential: absorb random cell resizes through
// update_instance_delays (rebuilding when it reports the change cannot be
// absorbed) and compare every re-analysis against a freshly constructed
// analyser on the mutated design.
TEST(IncrementalDifferential, ResizesMatchFreshAnalyser) {
  auto lib = make_standard_library();
  for (int net_i = 0; net_i < 8; ++net_i) {
    SCOPED_TRACE("network " + std::to_string(net_i));
    RandomNetwork net = make_random_network(lib, spec_for(net_i));
    Design& design = net.design;
    auto hb = std::make_unique<Hummingbird>(design, net.clocks);
    hb->analyze();

    Rng rng(300 + static_cast<std::uint64_t>(net_i));
    int rebuilds = 0;
    for (int step = 0; step < 10; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const InstId inst(static_cast<std::uint32_t>(
          rng.pick(design.top().insts().size())));
      switch (upsize_and_update(design, inst, *hb)) {
        case ResizeUpdate::kNotResized:
          continue;  // sequential, submodule, or already strongest
        case ResizeUpdate::kAbsorbed:
          break;
        case ResizeUpdate::kRebuildRequired:
          hb = std::make_unique<Hummingbird>(design, net.clocks);
          ++rebuilds;
          break;
      }
      const Algorithm1Result got = hb->analyze();
      Hummingbird fresh(design, net.clocks);
      const Algorithm1Result want = fresh.analyze();
      ASSERT_EQ(got.worst_slack, want.worst_slack);
      ASSERT_EQ(got.works_as_intended, want.works_as_intended);
      ASSERT_TRUE(equal(take(fresh.engine()), take(hb->engine())));
    }
    // The point of the exercise: resizes are normally absorbed in place.
    EXPECT_LE(rebuilds, 5);
  }
}

// The invalidation footprint of one absorbed what-if edit on the service
// benches' random_large network (1,952 cells).  Algorithm 1's sweeps log
// only the elements they shift, so re-analysis patches cones instead of
// re-sweeping whole clusters, and re-folds only those cones into node and
// terminal slacks; Algorithm 2 evaluates through update(), never through
// compute().  A one-thread pool keeps the cost model's parallel scaling out
// of the counts, so they are deterministic.
TEST(IncrementalFootprint, AbsorbedEditPatchesConesOnRandomLarge) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  const Design& design = net.design;
  ThreadPool pool(1);
  HummingbirdOptions opt;
  opt.alg1.pool = &pool;
  opt.alg2.pool = &pool;
  Hummingbird hb(design, net.clocks, opt);
  hb.analyze();

  // The first combinational instance: a delay edit there is absorbed.
  InstId inst;
  for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
    const Instance& x = design.top().inst(InstId(i));
    if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
      inst = InstId(i);
      break;
    }
  }
  ASSERT_TRUE(inst.valid());
  hb.calculator_mut().adjust_instance(inst, ps(35));
  ASSERT_TRUE(hb.update_instance_delays(inst));

  const IncrementalStats before = hb.engine().incremental_stats();
  const Algorithm1Result got = hb.analyze();
  const IncrementalStats after = hb.engine().incremental_stats();
  const std::uint64_t full = after.passes_full_swept - before.passes_full_swept;
  const std::uint64_t touched =
      full + (after.passes_updated - before.passes_updated);
  EXPECT_EQ(after.full_computes, before.full_computes);
  ASSERT_GT(touched, 0u);
  EXPECT_LT(full * 10, touched)
      << full << " of " << touched << " touched passes fully swept";

  // A patched cluster re-folds only its cone: fewer than half the nodes of
  // the clusters the edit dirtied.
  const std::uint64_t refolded = after.nodes_refolded - before.nodes_refolded;
  const std::uint64_t held =
      after.dirty_cluster_nodes - before.dirty_cluster_nodes;
  ASSERT_GT(refolded, 0u);
  EXPECT_LT(refolded * 2, held)
      << refolded << " of " << held << " dirty-cluster nodes re-folded";

  opt.delay_adjust = {InstDelayAdjust{inst, ps(35)}};
  Hummingbird fresh(design, net.clocks, opt);
  const Algorithm1Result want = fresh.analyze();
  EXPECT_EQ(got.worst_slack, want.worst_slack);
  EXPECT_TRUE(equal(take(fresh.engine()), take(hb.engine())));

  const ConstraintSet cs = hb.generate_constraints();
  const IncrementalStats alg2 = hb.engine().incremental_stats();
  EXPECT_GT(cs.backward_snatch_cycles + cs.forward_snatch_cycles, 0);
  EXPECT_EQ(alg2.full_computes, after.full_computes);
  const std::uint64_t alg2_refolded =
      alg2.nodes_refolded - after.nodes_refolded;
  const std::uint64_t alg2_held =
      alg2.dirty_cluster_nodes - after.dirty_cluster_nodes;
  ASSERT_GT(alg2_refolded, 0u);
  EXPECT_LT(alg2_refolded, alg2_held)
      << alg2_refolded << " of " << alg2_held
      << " dirty-cluster nodes re-folded";
}

// A commit derives node results only where they are read, and only over
// its edit's cone.  Algorithm 1's and 2's steps read terminal slacks only,
// which the terminal delay table serves; node results are brought to the
// current offsets once at Algorithm 1's exit and once at each of Algorithm
// 2's two recording points.  Each update() patches the node state nearer
// the current offsets: the set-up's Algorithm 2 forked Algorithm 1's state
// before forward snatching moved latches, so in steady state each phase
// pays the edit's cone and nothing for the moves between the two phases.
// Measured on this commit (same network, edit and pool): 20 node-level
// update() calls re-tracing 126,960 nodes before the terminal table, and 3
// re-tracing 59,831 with one node state.
TEST(IncrementalFootprint, CommitDerivesNodeSlacksOnlyWhereRead) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  const Design& design = net.design;
  ThreadPool pool(1);
  HummingbirdOptions opt;
  opt.alg1.pool = &pool;
  opt.alg2.pool = &pool;
  Hummingbird hb(design, net.clocks, opt);
  hb.analyze();
  hb.generate_constraints();
  const std::uint64_t table_rows = hb.engine().incremental_stats().rows_swept;

  InstId inst;
  for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
    const Instance& x = design.top().inst(InstId(i));
    if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
      inst = InstId(i);
      break;
    }
  }
  ASSERT_TRUE(inst.valid());
  hb.calculator_mut().adjust_instance(inst, ps(35));
  ASSERT_TRUE(hb.update_instance_delays(inst));

  const IncrementalStats before = hb.engine().incremental_stats();
  const Algorithm1Result got = hb.analyze();
  const ConstraintSet got_cs = hb.generate_constraints();
  const IncrementalStats after = hb.engine().incremental_stats();
  EXPECT_LE(after.updates - before.updates, 3u);
  EXPECT_EQ(after.full_computes, before.full_computes);
  EXPECT_GT(after.terminal_updates - before.terminal_updates, 0u);
  const std::uint64_t retraced = after.nodes_retraced - before.nodes_retraced;
  EXPECT_LE(retraced, 2000u) << retraced << " nodes re-traced";
  EXPECT_GT(before.state_forks, 0u);
  EXPECT_EQ(after.state_forks, before.state_forks);
  // The edit's own rows were re-swept, not the whole table (the first
  // analysis built every row once).
  EXPECT_GT(after.rows_swept, before.rows_swept);
  EXPECT_LT((after.rows_swept - before.rows_swept) * 4, table_rows)
      << after.rows_swept - before.rows_swept << " of " << table_rows
      << " rows re-swept";

  opt.delay_adjust = {InstDelayAdjust{inst, ps(35)}};
  Hummingbird fresh(design, net.clocks, opt);
  const Algorithm1Result want = fresh.analyze();
  EXPECT_EQ(got.worst_slack, want.worst_slack);
  EXPECT_EQ(got.slack_evaluations, want.slack_evaluations);
  const ConstraintSet want_cs = fresh.generate_constraints();
  EXPECT_TRUE(same_constraints(got_cs, want_cs));
  EXPECT_TRUE(equal(take(fresh.engine()), take(hb.engine())));
}

// The parked node state takes every node invalidation, so a caller that
// never returns to it — an analyze()-only loop after one
// generate_constraints() — would pile up its seeds.  Past one cluster's
// node count of pending seeds the parked state is dropped, and the next
// generate_constraints() forks afresh; results stay those of a fresh
// analyser throughout.
TEST(IncrementalFootprint, ParkedStateDroppedWhenItsSeedsOutgrowACluster) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 5;
  spec.gates_per_stage = 40;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  const Design& design = net.design;
  Hummingbird hb(design, net.clocks);
  hb.analyze();
  hb.generate_constraints();
  // Forward snatching moved latches away from Algorithm 1's offsets, so
  // Algorithm 1's state was kept.
  ASSERT_EQ(hb.engine().incremental_stats().state_forks, 1u);

  InstId inst;
  for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
    const Instance& x = design.top().inst(InstId(i));
    if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
      inst = InstId(i);
      break;
    }
  }
  ASSERT_TRUE(inst.valid());
  // Every edit invalidates at least one node of the instance's cluster, so
  // this many edits outgrow any cluster.
  const ClusterSet& clusters = hb.engine().clusters();
  std::size_t largest = 0;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    largest = std::max(largest, clusters.cluster(ClusterId(c)).nodes.size());
  }
  TimePs total = 0;
  Algorithm1Result got;
  for (std::size_t k = 0; k <= largest; ++k) {
    const TimePs delta = k % 2 == 0 ? ps(2) : ps(-1);
    hb.calculator_mut().adjust_instance(inst, delta);
    total += delta;
    ASSERT_TRUE(hb.update_instance_delays(inst));
    got = hb.analyze();
  }
  // The edits were absorbed: no offset set moved, so nothing forked.
  EXPECT_EQ(hb.engine().incremental_stats().state_forks, 1u);
  const ConstraintSet got_cs = hb.generate_constraints();
  EXPECT_EQ(hb.engine().incremental_stats().state_forks, 2u)
      << "the parked state outlived its seed bound";

  HummingbirdOptions opt;
  opt.delay_adjust = {InstDelayAdjust{inst, total}};
  Hummingbird fresh(design, net.clocks, opt);
  const Algorithm1Result want = fresh.analyze();
  EXPECT_EQ(got.worst_slack, want.worst_slack);
  EXPECT_EQ(got.slack_evaluations, want.slack_evaluations);
  const ConstraintSet want_cs = fresh.generate_constraints();
  EXPECT_TRUE(same_constraints(got_cs, want_cs));
  EXPECT_TRUE(equal(take(fresh.engine()), take(hb.engine())));
}

// compute() keeps the terminal delay table across an edit that
// Hummingbird::update_instance_delays reported: it re-sweeps only the rows
// the edit's arcs reach, not the whole table.  A delay change nobody
// reported still rebuilds it (RandomPerturbationsMatchFullCompute's `ref`
// engine).
TEST(IncrementalFootprint, ComputeAfterReportedEditResweepsOnlyStaleRows) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  const Design& design = net.design;
  ThreadPool pool(1);
  HummingbirdOptions opt;
  opt.alg1.pool = &pool;
  opt.alg2.pool = &pool;
  Hummingbird hb(design, net.clocks, opt);
  hb.engine_mut().compute(&pool);
  // No delay has changed yet, so the table was built exactly once.
  const std::uint64_t table_rows = hb.engine().incremental_stats().rows_swept;
  ASSERT_GT(table_rows, 0u);

  InstId inst;
  for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
    const Instance& x = design.top().inst(InstId(i));
    if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
      inst = InstId(i);
      break;
    }
  }
  ASSERT_TRUE(inst.valid());
  hb.calculator_mut().adjust_instance(inst, ps(35));
  ASSERT_TRUE(hb.update_instance_delays(inst));
  hb.engine_mut().compute(&pool);
  const std::uint64_t reswept =
      hb.engine().incremental_stats().rows_swept - table_rows;
  EXPECT_GT(reswept, 0u);
  EXPECT_LT(reswept, table_rows)
      << reswept << " of " << table_rows << " rows re-swept";

  opt.delay_adjust = {InstDelayAdjust{inst, ps(35)}};
  Hummingbird fresh(design, net.clocks, opt);
  fresh.engine_mut().compute(&pool);
  EXPECT_TRUE(equal(take(fresh.engine()), take(hb.engine())));
}

// Path enumeration traces the engine's cached passes instead of re-running
// each reported path's pass.  A patched absent slot may hold -kInfinitePs
// plus a delay rather than the exact sentinel (has() is a threshold
// compare), so the paths read from incrementally patched caches — after
// Algorithm 1 and after Algorithm 2 — must equal those after a fresh
// compute() of the same state.
TEST(IncrementalDifferential, SlowPathsFromPatchedCachesMatchFreshCompute) {
  auto lib = make_standard_library();
  std::size_t compared = 0;
  for (int net_i = 0; net_i < 8; ++net_i) {
    SCOPED_TRACE("network " + std::to_string(net_i));
    RandomNetwork net = make_random_network(lib, spec_for(net_i * 3));
    const Design& design = net.design;
    auto hb = std::make_unique<Hummingbird>(design, net.clocks);
    hb->analyze();
    std::vector<InstId> comb;
    for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
      const Instance& x = design.top().inst(InstId(i));
      if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
        comb.push_back(InstId(i));
      }
    }
    Rng rng(60 + static_cast<std::uint64_t>(net_i));
    std::vector<InstDelayAdjust> history;
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const InstId inst = comb[rng.pick(comb.size())];
      const TimePs delta = rng.uniform(-30, 80);
      hb->calculator_mut().adjust_instance(inst, delta);
      history.push_back({inst, delta});
      if (!hb->update_instance_delays(inst)) {
        HummingbirdOptions opt;
        opt.delay_adjust = history;
        hb = std::make_unique<Hummingbird>(design, net.clocks, opt);
      }
      for (int phase = 0; phase < 2; ++phase) {
        if (phase == 0) {
          hb->analyze();
        } else {
          hb->generate_constraints();
        }
        const std::vector<SlowPath> patched =
            enumerate_slow_paths(hb->engine(), 64, kInfinitePs);
        hb->engine_mut().compute();
        const std::vector<SlowPath> fresh =
            enumerate_slow_paths(hb->engine(), 64, kInfinitePs);
        ASSERT_TRUE(same_paths(patched, fresh)) << "phase " << phase;
        compared += fresh.size();
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

// The cost-model probe stops walking once its count passes the caller's
// limit.  It must return min(cone, limit + 1), so that `> limit` decides
// exactly as the full count would, and leave the shared workspace clean for
// the next probe.
TEST(IncrementalFootprint, ConeProbeStopsPastLimitWithCleanWorkspace) {
  RandomNetwork net = make_random_network(make_standard_library(), spec_for(4));
  Hummingbird hb(net.design, net.clocks);
  const ClusterSet& clusters = hb.engine().clusters();
  Rng rng(17);
  PassWorkspace ws;
  auto clean = [&ws] {
    return std::all_of(ws.marks.begin(), ws.marks.end(),
                       [](std::uint64_t w) { return w == 0; });
  };
  std::size_t probes = 0;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    if (cl.nodes.size() < 8) continue;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint32_t> fwd, bwd;
      for (int k = 0; k < 3; ++k) {
        fwd.push_back(static_cast<std::uint32_t>(rng.pick(cl.nodes.size())));
        bwd.push_back(static_cast<std::uint32_t>(rng.pick(cl.nodes.size())));
      }
      const std::size_t cone = pass_cone_size(cl, fwd, bwd, ws);
      ASSERT_GT(cone, 0u);
      for (const std::size_t limit :
           {std::size_t{0}, std::size_t{1}, cone / 3, cone / 2, cone - 1, cone,
            cone + 5}) {
        EXPECT_EQ(pass_cone_size(cl, fwd, bwd, ws, limit),
                  std::min(cone, limit + 1))
            << "cluster " << c << " limit " << limit;
        EXPECT_TRUE(clean()) << "cluster " << c << " limit " << limit;
        ++probes;
      }
    }
  }
  EXPECT_GT(probes, 0u);
}

// After in-place delay updates the graph must be indistinguishable from a
// rebuilt one for an independent decision procedure as well: the relaxation
// baseline (different semantics, same graph + element data).
TEST(IncrementalDifferential, RelaxationAgreesOnUpdatedGraph) {
  auto lib = make_standard_library();
  for (int net_i = 0; net_i < 6; ++net_i) {
    SCOPED_TRACE("network " + std::to_string(net_i));
    RandomNetworkSpec spec = spec_for(net_i);
    spec.banks = 2;
    spec.bank_width = 2;
    spec.gates_per_stage = 5;
    RandomNetwork net = make_random_network(lib, spec);
    Design& design = net.design;
    auto hb = std::make_unique<Hummingbird>(design, net.clocks);
    hb->analyze();

    Rng rng(77 + static_cast<std::uint64_t>(net_i));
    for (int step = 0; step < 5; ++step) {
      const InstId inst(static_cast<std::uint32_t>(
          rng.pick(design.top().insts().size())));
      if (upsize_and_update(design, inst, *hb) ==
          ResizeUpdate::kRebuildRequired) {
        hb = std::make_unique<Hummingbird>(design, net.clocks);
      }
    }
    hb->analyze();

    Hummingbird fresh(design, net.clocks);
    fresh.analyze();
    const RelaxationResult a = relaxation_analysis(hb->engine());
    const RelaxationResult b = relaxation_analysis(fresh.engine());
    EXPECT_EQ(a.works, b.works);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_EQ(a.settling_counts, b.settling_counts);
  }
}

// The redesign loop must reach the same design state in all three modes:
// rebuild-per-iteration, incremental serial, incremental parallel.  The
// parallel run doubles as the TSan hammer for pass evaluation.
TEST(IncrementalRedesign, LoopModesAgreeExactly) {
  auto lib = make_standard_library();
  auto run = [&](bool incremental, int threads) {
    AluSpec spec;
    spec.bits = 16;
    Design design = make_alu(lib, spec);
    RedesignOptions options;
    options.incremental = incremental;
    options.threads = threads;
    const RedesignResult res =
        run_redesign_loop(design, make_single_clock(ps(3400), ps(1400)), options);
    return std::make_pair(res, total_area_um2(design));
  };

  const auto [full, full_area] = run(false, 1);
  const auto [serial, serial_area] = run(true, 1);
  const auto [parallel, parallel_area] = run(true, 4);

  EXPECT_TRUE(full.met_timing);
  for (const auto* r : {&serial, &parallel}) {
    EXPECT_EQ(r->met_timing, full.met_timing);
    EXPECT_EQ(r->iterations, full.iterations);
    EXPECT_EQ(r->cells_resized, full.cells_resized);
    EXPECT_EQ(r->initial_worst_slack, full.initial_worst_slack);
    EXPECT_EQ(r->final_worst_slack, full.final_worst_slack);
    EXPECT_EQ(r->final_area_um2, full_area);
  }
  EXPECT_EQ(serial_area, full_area);
  EXPECT_EQ(parallel_area, full_area);
  // Incremental mode must actually avoid rebuilding the analyser: full mode
  // rebuilds once per iteration (including the final, successful one).
  EXPECT_EQ(full.analyser_rebuilds, full.iterations + 1);
  EXPECT_LT(serial.analyser_rebuilds, full.analyser_rebuilds);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOncePerBatch) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(500);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 500; ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  for (int round = 0; round < 25; ++round) {
    for (auto& h : hits) h.store(0);
    pool.run_batch(tasks);
    for (int i = 0; i < 500; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i] {
      if (i == 13) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.run_batch(tasks), std::runtime_error);

  std::atomic<int> count{0};
  std::vector<std::function<void()>> ok(100, [&count] { count.fetch_add(1); });
  pool.run_batch(ok);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SerialFallbackWithOneThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int count = 0;
  std::vector<std::function<void()>> tasks(10, [&count] { ++count; });
  pool.run_batch(tasks);
  EXPECT_EQ(count, 10);
}

}  // namespace
}  // namespace hb
