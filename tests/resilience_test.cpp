// Resilient-runtime layer: structured parse diagnostics with recovery,
// degraded-mode analysis of invalid designs, watchdog budgets, thread-pool
// fault containment, and fault-injected cache corruption self-healing.
#include <gtest/gtest.h>

#include <atomic>

#include "clocks/clock_io.hpp"
#include "gen/des.hpp"
#include "gen/pipeline.hpp"
#include "gen/random_network.hpp"
#include "netlist/builder.hpp"
#include "netlist/library_io.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stdcells.hpp"
#include "netlist/validate.hpp"
#include "sta/hummingbird.hpp"
#include "util/cancel.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

// ---------------------------------------------------------------------------
// Structured diagnostics + parser recovery
// ---------------------------------------------------------------------------

TEST(DiagnosticsTest, NetlistParserRecoversAndCollectsAllErrors) {
  auto lib = make_standard_library();
  DiagnosticSink sink;
  const Design d = netlist_from_string(
      "design demo\n"
      "module demo\n"
      "  port a input\n"
      "  frobnicate x y\n"          // unknown keyword
      "  inst u1 NOSUCHCELL\n"      // unknown cell
      "  inst u2 INVX1\n"           // fine
      "  net n1\n"
      "  conn n1 u2.A\n"
      "  conn n1 u9.A\n"            // unknown instance
      "  bind n1 a\n"
      "endmodule\n"
      "top demo\n",
      lib, sink);
  // All three problems reported, with locations, and the good statements
  // still landed in the database.
  EXPECT_GE(sink.error_count(), 3u);
  for (const Diagnostic& diag : sink.all()) {
    EXPECT_TRUE(diag.loc.valid()) << diag.to_string();
  }
  EXPECT_TRUE(d.top().find_inst("u2").valid());
  EXPECT_FALSE(d.top().find_inst("u1").valid());
}

TEST(DiagnosticsTest, LegacyNetlistApiStillFailsFast) {
  auto lib = make_standard_library();
  EXPECT_THROW(netlist_from_string("design d\nmodule d\n  bogus\n", lib), Error);
}

TEST(DiagnosticsTest, LibraryParserRecoversWithLocations) {
  DiagnosticSink sink;
  auto lib = library_from_string(
      "library tiny\n"
      "cell BUF comb\n"
      "  in A 2.0\n"
      "  out Y\n"
      "  arc A Y pos 50 notanumber 3.0 2.8\n"  // bad number -> arc skipped
      "  arc A Y pos 50 45 3.0 2.8\n"
      "endcell\n"
      "cell OK comb\n"
      "  in A 1.0\n"
      "  out Y\n"
      "  arc A Y neg 10 10 1.0 1.0\n"
      "endcell\n",
      sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.first_error().code, DiagCode::kParseBadNumber);
  EXPECT_EQ(sink.first_error().loc.line, 5);
  EXPECT_GT(sink.first_error().loc.col, 0);
  // Both cells survive; BUF keeps the one good arc.
  EXPECT_EQ(lib->num_cells(), 2u);
  EXPECT_EQ(lib->cell(lib->require("BUF")).arcs().size(), 1u);
}

TEST(DiagnosticsTest, ClockSpecErrorsCarryLineAndColumn) {
  DiagnosticSink sink;
  timing_spec_from_string(
      "clock phi period 10ns pulse 0 4ns\n"
      "input d arrival notatime\n",
      sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.first_error().code, DiagCode::kParseBadNumber);
  EXPECT_EQ(sink.first_error().loc.line, 2);
  EXPECT_GT(sink.first_error().loc.col, 0);
  EXPECT_FALSE(sink.first_error().hint.empty());
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

/// d -> INV u1 -> DFF ff -> q, plus (when `broken`) a parallel path whose
/// first gate reads a floating net: float -> INV u2 -> DFF ff2 -> q2.
Design make_split_design(std::shared_ptr<const Library> lib, bool broken) {
  TopBuilder b(broken ? "split_bad" : "split_good", lib);
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  const NetId inv = b.gate("INVX1", {d}, "u1");
  const NetId q = b.latch("DFFT", inv, clk, "ff");
  b.port_out_net("q", q);
  if (broken) {
    const NetId floating = b.net("floating");  // no driver
    const NetId inv2 = b.gate("INVX1", {floating}, "u2");
    const NetId q2 = b.latch("DFFT", inv2, clk, "ff2");
    b.port_out_net("q2", q2);
  }
  return b.finish();
}

TEST(DegradedModeTest, QuarantineClosurePoisonsDownstreamLogic) {
  auto lib = make_standard_library();
  const Design bad = make_split_design(lib, true);
  const ValidationReport report = validate(bad);
  ASSERT_FALSE(report.ok());
  const std::vector<bool> q = compute_quarantine(bad, report);
  // u2 reads the dead net; ff2 reads u2's now-dead output.  The good path
  // is untouched.
  EXPECT_TRUE(q.at(bad.top().find_inst("u2").value()));
  EXPECT_TRUE(q.at(bad.top().find_inst("ff2").value()));
  EXPECT_FALSE(q.at(bad.top().find_inst("u1").value()));
  EXPECT_FALSE(q.at(bad.top().find_inst("ff").value()));
}

TEST(DegradedModeTest, InvalidDesignAnalysedPartially) {
  auto lib = make_standard_library();
  const Design bad = make_split_design(lib, true);
  const Design good = make_split_design(lib, false);
  const ClockSet clocks = make_single_clock(ns(4), ns(2));

  // Default mode refuses the design.
  EXPECT_THROW(Hummingbird(bad, clocks), Error);

  HummingbirdOptions opt;
  opt.degraded = true;
  Hummingbird degraded(bad, clocks, opt);
  EXPECT_EQ(degraded.num_quarantined(), 2u);
  EXPECT_EQ(degraded.stats().quarantined_insts, 2u);
  EXPECT_FALSE(degraded.diagnostics().empty());

  const Algorithm1Result res = degraded.analyze();
  EXPECT_EQ(res.status, AnalysisStatus::kPartial);

  // The salvageable part is analysed exactly as in the clean design.
  Hummingbird reference(good, clocks);
  const Algorithm1Result ref = reference.analyze();
  EXPECT_EQ(ref.status, AnalysisStatus::kComplete);
  EXPECT_EQ(res.worst_slack, ref.worst_slack);
  EXPECT_EQ(res.works_as_intended, ref.works_as_intended);

  // Constraints inherit the partial tag.
  EXPECT_EQ(degraded.generate_constraints().status, AnalysisStatus::kPartial);
  EXPECT_EQ(reference.generate_constraints().status, AnalysisStatus::kComplete);
}

// ---------------------------------------------------------------------------
// Watchdogs / budgets
// ---------------------------------------------------------------------------

TEST(WatchdogTest, CancelledAnalysisTagsTimedOut) {
  auto lib = make_standard_library();
  DesSpec spec;
  spec.rounds = 2;
  const Design des = make_des(lib, spec);
  // Deliberately hopeless clock so the first evaluation does not succeed.
  const ClockSet clocks = make_single_clock(ps(400), ps(160));

  CancelToken cancel;
  cancel.cancel();
  HummingbirdOptions opt;
  opt.alg1.budget.cancel = &cancel;
  Hummingbird analyser(des, clocks, opt);
  const Algorithm1Result res = analyser.analyze();
  EXPECT_EQ(res.status, AnalysisStatus::kTimedOut);
  EXPECT_FALSE(res.works_as_intended);

  // Same budget, untripped token: runs to completion.
  cancel.reset();
  const Algorithm1Result full = analyser.analyze();
  EXPECT_EQ(full.status, AnalysisStatus::kComplete);
}

/// Two-phase latch chain whose analysis needs several slack-transfer cycles
/// (L1 -> 110 inverters -> L2): ideal for exercising cycle budgets and the
/// incremental update path.
Design make_latch_chain(std::shared_ptr<const Library> lib) {
  TopBuilder b("chain", lib);
  const NetId phi1 = b.port_in("phi1", true);
  const NetId phi2 = b.port_in("phi2", true);
  NetId n = b.latch("TLATCH", b.port_in("d"), phi1, "l1");
  for (int i = 0; i < 110; ++i) n = b.gate("INVX1", {n});
  const NetId q = b.latch("TLATCH", n, phi2, "l2");
  b.port_out_net("q", q);
  return b.finish();
}

TEST(WatchdogTest, CycleCapTagsTimedOut) {
  auto lib = make_standard_library();
  const Design chain = make_latch_chain(lib);
  const ClockSet clocks = make_two_phase_clocks(ns(10));

  // Unbudgeted, the transfers rescue the design (several cycles needed).
  Hummingbird full(chain, clocks);
  const Algorithm1Result unbounded = full.analyze();
  EXPECT_EQ(unbounded.status, AnalysisStatus::kComplete);
  EXPECT_TRUE(unbounded.works_as_intended);
  ASSERT_GT(unbounded.forward_cycles + unbounded.backward_cycles, 1);

  // Capped at one transfer cycle, the analysis stops early with the last
  // (conservative, still-failing) offsets and says so.
  HummingbirdOptions opt;
  opt.alg1.budget.max_total_cycles = 1;
  Hummingbird capped(chain, clocks, opt);
  const Algorithm1Result res = capped.analyze();
  EXPECT_EQ(res.status, AnalysisStatus::kTimedOut);
  EXPECT_FALSE(res.works_as_intended);
}

TEST(WatchdogTest, CancelledConstraintGenerationTagsTimedOut) {
  auto lib = make_standard_library();
  DesSpec spec;
  spec.rounds = 2;
  const Design des = make_des(lib, spec);
  const ClockSet clocks = make_single_clock(ns(6), ps(2400));

  CancelToken cancel;
  HummingbirdOptions opt;
  opt.alg2.budget.cancel = &cancel;
  Hummingbird analyser(des, clocks, opt);
  analyser.analyze();
  cancel.cancel();
  EXPECT_EQ(analyser.generate_constraints().status, AnalysisStatus::kTimedOut);
}

// ---------------------------------------------------------------------------
// Thread pool fault containment
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaultTest, TaskExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    if (i == 7) {
      tasks.push_back([] { raise("task 7 failed"); });
    } else {
      tasks.push_back([&ran] { ++ran; });
    }
  }
  EXPECT_THROW(pool.run_batch(tasks), Error);
  // The failed task did not starve the rest of the batch.
  EXPECT_EQ(ran.load(), 31);

  // The pool remains fully usable.
  ran = 0;
  std::vector<std::function<void()>> clean;
  for (int i = 0; i < 16; ++i) clean.push_back([&ran] { ++ran; });
  EXPECT_TRUE(pool.run_batch(clean));
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolFaultTest, CancelSkipsRemainingTasks) {
  ThreadPool pool(2);
  CancelToken cancel;
  cancel.cancel();
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&ran] { ++ran; });
  EXPECT_FALSE(pool.run_batch(tasks, &cancel));
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolFaultTest, InjectedTaskFaultSurfacesAsError) {
  FaultInjector::Config cfg;
  cfg.seed = 42;
  cfg.probability[static_cast<int>(FaultSite::kPoolTask)] = 1.0;
  FaultInjector::Scope scope(cfg);

  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) tasks.push_back([&ran] { ++ran; });
  EXPECT_THROW(pool.run_batch(tasks), FaultInjectedError);
  EXPECT_EQ(ran.load(), 0);  // probability 1: every task replaced by a fault
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kPoolTask), 4u);
}

TEST(FaultInjectTest, SpuriousCancellationLatches) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  {
    FaultInjector::Config cfg;
    cfg.seed = 7;
    cfg.probability[static_cast<int>(FaultSite::kSpuriousCancel)] = 1.0;
    FaultInjector::Scope scope(cfg);
    EXPECT_TRUE(token.cancelled());
  }
  // The injected cancellation latched, exactly like a real cancel().
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(FaultInjectTest, FiringSequenceIsDeterministic) {
  FaultInjector::Config cfg;
  cfg.seed = 1234;
  cfg.probability[static_cast<int>(FaultSite::kPoolTask)] = 0.5;
  std::vector<bool> first, second;
  {
    FaultInjector::Scope scope(cfg);
    for (int i = 0; i < 64; ++i) {
      first.push_back(FaultInjector::instance().should_fire(FaultSite::kPoolTask));
    }
  }
  {
    FaultInjector::Scope scope(cfg);
    for (int i = 0; i < 64; ++i) {
      second.push_back(FaultInjector::instance().should_fire(FaultSite::kPoolTask));
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// ---------------------------------------------------------------------------
// Cache corruption: detection and bit-identical self-healing
// ---------------------------------------------------------------------------

TEST(SelfHealTest, VerifyCacheDetectsInjectedCorruption) {
  auto lib = make_standard_library();
  DesSpec spec;
  spec.rounds = 2;
  const Design des = make_des(lib, spec);
  const ClockSet clocks = make_single_clock(ns(6), ps(2400));

  Hummingbird analyser(des, clocks);
  SlackEngine& engine = analyser.engine_mut();
  engine.compute();
  EXPECT_TRUE(engine.verify_cache());

  const TimePs clean_slack = engine.worst_terminal_slack();
  {
    FaultInjector::Config cfg;
    cfg.seed = 99;
    cfg.probability[static_cast<int>(FaultSite::kCacheCorrupt)] = 1.0;
    FaultInjector::Scope scope(cfg);
    engine.compute();  // one cached entry is perturbed after checksumming
    EXPECT_FALSE(engine.verify_cache());
  }
  // verify_cache dropped the poisoned cache; the next update self-heals
  // with a full recompute that is bit-identical to the clean state.
  engine.update();
  EXPECT_TRUE(engine.verify_cache());
  EXPECT_EQ(engine.worst_terminal_slack(), clean_slack);
}

TEST(SelfHealTest, VerifyCacheDetectsTableCorruption) {
  auto lib = make_standard_library();
  DesSpec spec;
  spec.rounds = 2;
  const Design des = make_des(lib, spec);
  const ClockSet clocks = make_single_clock(ns(6), ps(2400));

  Hummingbird analyser(des, clocks);
  SlackEngine& engine = analyser.engine_mut();
  engine.compute();
  std::vector<TimePs> clean;
  for (std::uint32_t i = 0; i < analyser.sync_model().num_instances(); ++i) {
    clean.push_back(engine.launch_slack(SyncId(i)));
    clean.push_back(engine.capture_slack(SyncId(i)));
  }
  {
    FaultInjector::Config cfg;
    cfg.seed = 7;
    cfg.probability[static_cast<int>(FaultSite::kCacheCorrupt)] = 1.0;
    FaultInjector::Scope scope(cfg);
    engine.update_terminals();  // one table delay perturbed after its checksum
    EXPECT_FALSE(engine.verify_cache());
  }
  // Both caches were dropped: the next terminal refresh rebuilds the table,
  // the next update() recomputes the passes, and nothing differs.
  engine.update_terminals();
  EXPECT_TRUE(engine.verify_cache());
  engine.update();
  EXPECT_TRUE(engine.verify_cache());
  std::vector<TimePs> healed;
  for (std::uint32_t i = 0; i < analyser.sync_model().num_instances(); ++i) {
    healed.push_back(engine.launch_slack(SyncId(i)));
    healed.push_back(engine.capture_slack(SyncId(i)));
  }
  EXPECT_EQ(healed, clean);
}

// The hold check reads the table's min delays, so each row's checksum
// covers them too.  The injector perturbs either delay column; seeds are
// tried until one lands on a min delay that a hold pair reads (the margins
// move, every terminal slack stays put).  Every perturbation is caught, and
// the next terminal refresh re-sweeps the table back to the clean state.
TEST(SelfHealTest, VerifyCacheDetectsMinDelayCorruption) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 5;
  spec.gates_per_stage = 40;
  const RandomNetwork net = make_random_network(make_standard_library(), spec);

  Hummingbird analyser(net.design, net.clocks);
  SlackEngine& engine = analyser.engine_mut();
  engine.compute();
  const auto slacks = [&] {
    std::vector<TimePs> out;
    for (std::uint32_t i = 0; i < analyser.sync_model().num_instances(); ++i) {
      out.push_back(engine.launch_slack(SyncId(i)));
      out.push_back(engine.capture_slack(SyncId(i)));
    }
    return out;
  };
  const auto margins = [&] {
    std::vector<TimePs> out;
    for (const HoldViolation& v : analyser.check_hold_times(kInfinitePs)) {
      out.push_back(v.margin);
    }
    return out;
  };
  const std::vector<TimePs> clean_slacks = slacks();
  const std::vector<TimePs> clean_margins = margins();
  bool hit_min = false;
  for (std::uint64_t seed = 1; seed <= 64 && !hit_min; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      FaultInjector::Config cfg;
      cfg.seed = seed;
      cfg.probability[static_cast<int>(FaultSite::kCacheCorrupt)] = 1.0;
      FaultInjector::Scope scope(cfg);
      engine.update_terminals();  // one table delay perturbed
    }
    hit_min = slacks() == clean_slacks && margins() != clean_margins;
    EXPECT_FALSE(engine.verify_cache());
    engine.update_terminals();
    EXPECT_TRUE(engine.verify_cache());
    EXPECT_EQ(slacks(), clean_slacks);
    EXPECT_EQ(margins(), clean_margins);
  }
  EXPECT_TRUE(hit_min) << "no seed perturbed a min delay a hold pair reads";
}

TEST(SelfHealTest, ParanoidAnalysisHealsUnderContinuousCorruption) {
  auto lib = make_standard_library();
  // The latch chain's analysis makes several incremental updates, so the
  // paranoid verification runs repeatedly against a cache that is corrupted
  // after every write.
  const Design des = make_latch_chain(lib);
  const ClockSet clocks = make_two_phase_clocks(ns(10));

  Hummingbird reference(des, clocks);
  const Algorithm1Result clean = reference.analyze();

  HummingbirdOptions opt;
  opt.paranoid_self_check = true;
  Hummingbird paranoid(des, clocks, opt);
  Algorithm1Result healed;
  {
    FaultInjector::Config cfg;
    cfg.seed = 5;
    cfg.probability[static_cast<int>(FaultSite::kCacheCorrupt)] = 1.0;
    FaultInjector::Scope scope(cfg);
    healed = paranoid.analyze();
  }
  // Every incremental step found its cache poisoned and recomputed; the
  // final answer is bit-identical to the unfaulted run.
  const IncrementalStats& stats = paranoid.engine().incremental_stats();
  EXPECT_GT(stats.self_checks, 0u);
  EXPECT_GT(stats.self_heals, 0u);
  EXPECT_EQ(healed.status, clean.status);
  EXPECT_EQ(healed.worst_slack, clean.worst_slack);
  EXPECT_EQ(healed.works_as_intended, clean.works_as_intended);

  // Per-node results match too.
  const TimingGraph& graph = reference.graph();
  for (std::uint32_t n = 0; n < graph.num_nodes(); ++n) {
    const NodeTiming& a = reference.engine().node_timing(TNodeId(n));
    const NodeTiming& b = paranoid.engine().node_timing(TNodeId(n));
    ASSERT_EQ(a.slack, b.slack) << graph.node_name(TNodeId(n));
    ASSERT_EQ(a.ready.rise, b.ready.rise);
    ASSERT_EQ(a.required.fall, b.required.fall);
  }

  // Second phase: commits that keep two node states.  On this network
  // Algorithm 2's forward snatching moves latches, so the engine forks
  // Algorithm 1's node state and swaps between the two on every commit.
  // Corruption after every refresh would leave no state alive to fork or
  // swap, so here it fires on about one refresh in ten: with this seed one
  // heal drops the parked state, a later update forks it afresh, and
  // another swaps to it.
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 5;
  spec.gates_per_stage = 40;
  const RandomNetwork net = make_random_network(lib, spec);
  InstId inst;
  for (std::uint32_t i = 0; i < net.design.top().insts().size(); ++i) {
    const Instance& x = net.design.top().inst(InstId(i));
    if (x.is_cell() && !net.design.lib().cell(x.cell).is_sequential()) {
      inst = InstId(i);
      break;
    }
  }
  ASSERT_TRUE(inst.valid());
  // An absorbed edit, then the commit's Algorithm 1 and 2.
  const auto commit = [inst](Hummingbird& h) {
    h.calculator_mut().adjust_instance(inst, ps(7));
    EXPECT_TRUE(h.update_instance_delays(inst));
    h.analyze();
    return h.generate_constraints();
  };
  Hummingbird unfaulted(net.design, net.clocks);
  unfaulted.analyze();
  unfaulted.generate_constraints();
  ConstraintSet want;
  for (int k = 0; k < 2; ++k) want = commit(unfaulted);

  Hummingbird healing(net.design, net.clocks, opt);
  healing.analyze();
  healing.generate_constraints();
  const IncrementalStats before = healing.engine().incremental_stats();
  ConstraintSet got;
  {
    FaultInjector::Config cfg;
    cfg.seed = 2;
    cfg.probability[static_cast<int>(FaultSite::kCacheCorrupt)] = 0.1;
    FaultInjector::Scope scope(cfg);
    for (int k = 0; k < 2; ++k) got = commit(healing);
  }
  const IncrementalStats after = healing.engine().incremental_stats();
  EXPECT_GT(before.state_forks, 0u);
  EXPECT_GT(after.self_heals, before.self_heals);
  EXPECT_GT(after.state_forks, before.state_forks);
  EXPECT_GT(after.state_swaps, before.state_swaps);
  EXPECT_EQ(got.forward_snatch_cycles, want.forward_snatch_cycles);
  for (std::uint32_t n = 0; n < unfaulted.graph().num_nodes(); ++n) {
    const NodeTiming& a = unfaulted.engine().node_timing(TNodeId(n));
    const NodeTiming& b = healing.engine().node_timing(TNodeId(n));
    ASSERT_TRUE(a.slack == b.slack && a.ready == b.ready &&
                a.required == b.required && a.has_ready == b.has_ready &&
                a.has_constraint == b.has_constraint &&
                a.settling_count == b.settling_count)
        << "node timing of node " << n;
    const ConstraintTimes& x = want.nodes[n];
    const ConstraintTimes& y = got.nodes[n];
    ASSERT_TRUE(x.has_ready == y.has_ready && x.ready == y.ready &&
                x.has_required == y.has_required && x.required == y.required &&
                x.slack == y.slack)
        << "constraint times of node " << n;
  }
}

}  // namespace
}  // namespace hb
