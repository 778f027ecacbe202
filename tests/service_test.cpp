// Tests for the concurrent timing query service (src/service).
//
// The load-bearing contract: a session's published snapshot after any
// sequence of what-if edits and commits is bit-identical to a fresh full
// analysis of the same design with the same accumulated edit history —
// serially and with 8 concurrent reader threads hammering the read path
// (the TSan job runs this file; see .github/workflows/ci.yml).  All
// comparisons are exact: times are integer picoseconds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "gen/des.hpp"
#include "gen/random_network.hpp"
#include "netlist/builder.hpp"
#include "netlist/stdcells.hpp"
#include "scenario/corner_set.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot_store.hpp"
#include "service/tcp_server.hpp"
#include "sta/hummingbird.hpp"
#include "sta/report.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hb {
namespace {

RandomNetworkSpec test_spec() {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 4;
  spec.gates_per_stage = 40;  // worst slack -1837 ps, 5 slow paths
  return spec;
}

std::shared_ptr<Session> make_session(SessionOptions opt = {},
                                      RandomNetworkSpec spec = test_spec()) {
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  return std::make_shared<Session>(std::move(net.design), std::move(net.clocks),
                                   HummingbirdOptions{}, opt);
}

/// Instance names of the first `n` combinational (or, with `sequential`,
/// sequential) cell instances of the top module.
std::vector<std::string> cell_names(const Design& d, std::size_t n,
                                    bool sequential) {
  std::vector<std::string> out;
  for (const Instance& inst : d.top().insts()) {
    if (!inst.is_cell()) continue;
    if (d.lib().cell(inst.cell).is_sequential() != sequential) continue;
    out.push_back(inst.name);
    if (out.size() == n) break;
  }
  return out;
}

/// The service contract: the session's published analysis equals a fresh
/// full analysis of session.design() with the session's accumulated delay
/// history replayed.  Exact comparison of every exposed quantity, the hold
/// and Algorithm 2 captures included.
::testing::AssertionResult matches_fresh_analysis(Session& session) {
  HummingbirdOptions opt;
  opt.delay_adjust = session.delay_adjust_history();
  Hummingbird fresh(session.design(), session.clocks(), opt);
  const Algorithm1Result res = fresh.analyze();
  const std::shared_ptr<const AnalysisSnapshot> snap = session.snapshot();

  if (snap->worst_slack != res.worst_slack) {
    return ::testing::AssertionFailure()
           << "worst slack: snapshot " << snap->worst_slack << " vs fresh "
           << res.worst_slack;
  }
  if (snap->works_as_intended != res.works_as_intended) {
    return ::testing::AssertionFailure() << "works_as_intended differs";
  }
  const std::size_t nodes = fresh.graph().num_nodes();
  if (snap->nodes.size() != nodes) {
    return ::testing::AssertionFailure()
           << "node count: snapshot " << snap->nodes.size() << " vs fresh "
           << nodes;
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeTiming& a = snap->nodes[i];
    const NodeTiming& b = fresh.engine().node_timing(TNodeId(static_cast<std::uint32_t>(i)));
    if (a.slack != b.slack || !(a.ready == b.ready) ||
        !(a.required == b.required) || a.has_ready != b.has_ready ||
        a.has_constraint != b.has_constraint ||
        a.settling_count != b.settling_count) {
      return ::testing::AssertionFailure()
             << "node " << fresh.graph().node_name(TNodeId(static_cast<std::uint32_t>(i)))
             << ": slack " << a.slack << " vs " << b.slack;
    }
  }
  // Worst paths: same slacks, endpoints and lengths in the same order.
  const std::vector<SlowPath> paths = fresh.slow_paths(kSnapshotPaths);
  if (snap->paths.size() != paths.size()) {
    return ::testing::AssertionFailure()
           << "path count: snapshot " << snap->paths.size() << " vs fresh "
           << paths.size();
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const SnapshotPath& a = snap->paths[i];
    const SlowPath& b = paths[i];
    if (a.slack != b.slack || a.steps != b.steps.size() ||
        a.launch != fresh.sync_model().at(b.launch).label ||
        a.capture != fresh.sync_model().at(b.capture).label) {
      return ::testing::AssertionFailure() << "path " << i << " differs";
    }
  }
  // Hold capture: every connected pair's worst margin, in sweep order.  Taken
  // before generate_constraints() moves the fresh analyser's offsets.
  if (snap->has_hold) {
    const std::vector<HoldViolation> holds = fresh.check_hold_times(kInfinitePs);
    if (snap->hold_pairs.size() != holds.size()) {
      return ::testing::AssertionFailure()
             << "hold pair count: snapshot " << snap->hold_pairs.size()
             << " vs fresh " << holds.size();
    }
    for (std::size_t i = 0; i < holds.size(); ++i) {
      const SnapshotHoldPair& a = snap->hold_pairs[i];
      if (a.launch != holds[i].launch.value() ||
          a.capture != holds[i].capture.value() || a.margin != holds[i].margin ||
          a.launch_label != fresh.sync_model().at(holds[i].launch).label ||
          a.capture_label != fresh.sync_model().at(holds[i].capture).label) {
        return ::testing::AssertionFailure() << "hold pair " << i << " differs";
      }
    }
  }
  // Algorithm 2 capture: status, snatch cycles and every node's times.
  if (snap->has_constraints) {
    const ConstraintSet cs = fresh.generate_constraints();
    if (snap->constraints_status != cs.status ||
        snap->backward_snatch_cycles != cs.backward_snatch_cycles ||
        snap->forward_snatch_cycles != cs.forward_snatch_cycles) {
      return ::testing::AssertionFailure()
             << "constraint status/cycles: snapshot "
             << snap->backward_snatch_cycles << "/" << snap->forward_snatch_cycles
             << " vs fresh " << cs.backward_snatch_cycles << "/"
             << cs.forward_snatch_cycles;
    }
    if (snap->constraint_nodes.size() != cs.nodes.size()) {
      return ::testing::AssertionFailure() << "constraint node count differs";
    }
    for (std::size_t i = 0; i < cs.nodes.size(); ++i) {
      const ConstraintTimes& a = snap->constraint_nodes[i];
      const ConstraintTimes& b = cs.nodes[i];
      if (a.has_ready != b.has_ready || a.has_required != b.has_required ||
          !(a.ready == b.ready) || !(a.required == b.required) ||
          a.slack != b.slack) {
        return ::testing::AssertionFailure()
               << "constraints of node "
               << fresh.graph().node_name(TNodeId(static_cast<std::uint32_t>(i)))
               << " differ";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ServiceTest, InitialSnapshotMatchesFreshAnalysis) {
  auto session = make_session();
  EXPECT_TRUE(matches_fresh_analysis(*session));
  EXPECT_EQ(session->snapshot()->id, 1u);
  EXPECT_GT(session->snapshot()->num_violations, 0u);
}

TEST(ServiceTest, WhatIfEditsMatchFreshAnalysisSerially) {
  auto session = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 6, false);
  const std::vector<std::string> seq = cell_names(session->design(), 2, true);
  ASSERT_GE(comb.size(), 6u);
  ASSERT_GE(seq.size(), 1u);

  // Round 1: absorbed in-place edits.
  EXPECT_TRUE(session->execute("set_delay " + comb[0] + " 150ps").ok);
  EXPECT_TRUE(session->execute("set_delay " + comb[1] + " -40").ok);
  EXPECT_TRUE(session->execute("upsize " + comb[2]).ok);
  QueryResult commit = session->execute("commit");
  ASSERT_TRUE(commit.ok) << to_wire(commit);
  EXPECT_EQ(session->snapshot()->id, 2u);
  EXPECT_TRUE(matches_fresh_analysis(*session));

  // Round 2: an edit on a sequential element defers to a full rebuild.
  EXPECT_TRUE(session->execute("set_delay " + seq[0] + " 90ps").ok);
  EXPECT_TRUE(session->execute("set_delay " + comb[3] + " 210ps").ok);
  commit = session->execute("commit");
  ASSERT_TRUE(commit.ok) << to_wire(commit);
  EXPECT_EQ(session->snapshot()->id, 3u);
  EXPECT_TRUE(matches_fresh_analysis(*session));

  // Round 3: more absorbed edits on the rebuilt analyser.
  EXPECT_TRUE(session->execute("upsize " + comb[4]).ok);
  EXPECT_TRUE(session->execute("set_delay " + comb[5] + " 75ps").ok);
  commit = session->execute("commit");
  ASSERT_TRUE(commit.ok) << to_wire(commit);
  EXPECT_EQ(session->snapshot()->id, 4u);
  EXPECT_TRUE(matches_fresh_analysis(*session));

  // A no-op commit publishes nothing.
  commit = session->execute("commit");
  ASSERT_TRUE(commit.ok);
  EXPECT_NE(to_wire(commit).find("noop"), std::string::npos);
  EXPECT_EQ(session->snapshot()->id, 4u);
}

TEST(ServiceTest, CheckHoldMatchesFreshAnalysis) {
  auto session = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 1, false);
  ASSERT_GE(comb.size(), 1u);
  EXPECT_TRUE(session->execute("set_delay " + comb[0] + " 120ps").ok);
  ASSERT_TRUE(session->execute("commit").ok);

  // The verb must reproduce check_hold_times() on a fresh analyser with the
  // session's edit history replayed — labels, order and margins exactly.
  bool saw_violation = false;
  for (const TimePs margin : {TimePs(0), ns(2), ns(8)}) {
    const QueryResult r =
        session->execute("check_hold " + std::to_string(margin));
    ASSERT_TRUE(r.ok) << to_wire(r);

    HummingbirdOptions opt;
    opt.delay_adjust = session->delay_adjust_history();
    Hummingbird fresh(session->design(), session->clocks(), opt);
    fresh.analyze();
    const std::vector<HoldViolation> holds = fresh.check_hold_times(margin);
    saw_violation = saw_violation || !holds.empty();
    ASSERT_EQ(r.lines.size(), holds.size() + 1);
    EXPECT_EQ(r.lines[0], "ok check_hold " + fmt_ps(margin) + " violations " +
                              std::to_string(holds.size()));
    for (std::size_t i = 0; i < holds.size(); ++i) {
      const HoldViolation& v = holds[i];
      EXPECT_EQ(r.lines[i + 1],
                "  hold " + fresh.sync_model().at(v.launch).label + " -> " +
                    fresh.sync_model().at(v.capture).label + " margin " +
                    fmt_ps(v.margin));
    }
  }
  EXPECT_TRUE(saw_violation) << "no margin produced a violation; widen the "
                                "margin sweep so the line format is covered";

  // Canonicalisation: unit suffixes and plain picoseconds hit the same verb.
  EXPECT_TRUE(session->execute("check_hold 1ns").ok);
  EXPECT_TRUE(session->execute("check_hold").ok);
  EXPECT_FALSE(session->execute("check_hold 1ns 2ns").ok);
  EXPECT_FALSE(session->execute("check_hold bogus").ok);
}

TEST(ServiceTest, CheckHoldDifferentialHoldsAfterWarmRestart) {
  namespace fs = std::filesystem;
  auto session = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 1, false);
  ASSERT_GE(comb.size(), 1u);
  EXPECT_TRUE(session->execute("set_delay " + comb[0] + " 120ps").ok);
  ASSERT_TRUE(session->execute("commit").ok);

  std::string tmpl = (fs::temp_directory_path() / "hbwarm.XXXXXX").string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  const std::string dir = buf.data();

  ServiceConfig cfg;
  cfg.snapshot_dir = dir;
  {
    ServiceHost host(cfg);
    host.adopt(session);  // persists the published snapshot retroactively
  }
  // A restarted host with no session answers the same differential-tested
  // check_hold replies from the persisted snapshot alone.
  ServiceHost restarted(cfg);
  ASSERT_NE(restarted.warm_source(), nullptr);
  ProtocolHandler h(restarted);
  for (const TimePs margin : {TimePs(0), ns(2), ns(8)}) {
    const std::string q = "check_hold " + std::to_string(margin);
    EXPECT_EQ(h.handle_line(q), to_wire(session->execute(q)));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ServiceTest, ConcurrentReadersNeverSeeTornAnalysis) {
  auto session = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 8, false);
  ASSERT_GE(comb.size(), 8u);

  constexpr int kReaders = 8;
  constexpr int kIterations = 60;
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  auto reader = [&] {
    std::uint64_t last_id = 0;
    for (int i = 0; i < kIterations; ++i) {
      const QueryResult summary = session->execute("summary");
      if (!summary.ok) { ++failures; continue; }
      // Header: "ok summary snapshot <id> fields 6".
      std::istringstream is(summary.lines[0]);
      std::string okw, verb, snapw;
      std::uint64_t id = 0;
      is >> okw >> verb >> snapw >> id;
      if (id < last_id) ++failures;  // snapshots may only move forward
      last_id = id;
      if (!session->execute("worst_paths 5").ok) ++failures;
      if (!session->execute("histogram 8").ok) ++failures;
      if (!session->execute("summary").ok) ++failures;
    }
  };
  auto writer = [&] {
    for (std::size_t round = 0; round < 6; ++round) {
      if (!session->execute("set_delay " + comb[round % comb.size()] + " 35ps").ok) {
        ++failures;
      }
      if (!session->execute("commit").ok) ++failures;
    }
    writer_done = true;
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(session->snapshot()->id, 7u);  // 1 initial + 6 commits
  EXPECT_TRUE(matches_fresh_analysis(*session));
}

TEST(ServiceTest, ConcurrentBatchesMatchSequentialExecution) {
  auto session = make_session();
  auto reference = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 1, false);
  // Any real timing-graph node; both sessions are built from the same seed,
  // so the name resolves identically in each.
  const std::string node =
      session->snapshot()->names->node_by_name.begin()->first;

  std::vector<std::string> lines = {
      "summary",
      "worst_paths 3",
      "histogram 4",
      "slack " + node,
      "set_delay " + comb[0] + " 120ps",
      "commit",
      "summary",
      "worst_paths 3",
  };
  const std::vector<QueryResult> batched = session->execute_batch(lines);
  ASSERT_EQ(batched.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const QueryResult serial = reference->execute(lines[i]);
    EXPECT_EQ(to_wire(batched[i]), to_wire(serial)) << "line " << i;
  }
  EXPECT_TRUE(matches_fresh_analysis(*session));
}

TEST(ServiceTest, ReadDeadlineTimeoutIsStructuredAndNonPoisoning) {
  auto session = make_session();
  ASSERT_TRUE(session->execute("deadline 0.000001").ok);  // 1 ns
  const QueryResult timed_out = session->execute("histogram 9");
  ASSERT_FALSE(timed_out.ok);
  EXPECT_TRUE(timed_out.timed_out());
  EXPECT_EQ(timed_out.code, DiagCode::kAnalysisBudget);
  EXPECT_EQ(timed_out.lines[0].rfind("err analysis-budget", 0), 0u);

  // Neither the session nor other queries are poisoned.
  ASSERT_TRUE(session->execute("deadline 0").ok);
  EXPECT_TRUE(session->execute("histogram 9").ok);
  EXPECT_TRUE(session->execute("summary").ok);
  EXPECT_GE(session->metrics().timeouts(), 1u);
  EXPECT_TRUE(matches_fresh_analysis(*session));
}

TEST(ServiceTest, TimedOutCommitRetainsEditsAndSnapshot) {
  auto session = make_session();
  const std::vector<std::string> comb = cell_names(session->design(), 1, false);
  ASSERT_TRUE(session->execute("set_delay " + comb[0] + " 500ps").ok);
  ASSERT_TRUE(session->execute("deadline 0.000001").ok);
  const QueryResult failed = session->execute("commit");
  ASSERT_FALSE(failed.ok);
  EXPECT_TRUE(failed.timed_out());
  EXPECT_EQ(session->snapshot()->id, 1u);  // nothing published
  EXPECT_EQ(session->pending_edits(), 1u);

  ASSERT_TRUE(session->execute("deadline 0").ok);
  const QueryResult ok = session->execute("commit");
  ASSERT_TRUE(ok.ok) << to_wire(ok);
  EXPECT_EQ(session->snapshot()->id, 2u);
  EXPECT_EQ(session->pending_edits(), 0u);
  EXPECT_TRUE(matches_fresh_analysis(*session));
}

// The commit-sequence differential: 300 seeded commits on random_large, the
// interactive workload's network (1,952 cells), mixing absorbed and
// deferred edits, one timed-out commit and a 3-corner set.  A commit's
// Algorithm 1 and 2 steps refresh terminal slacks only and derive node
// results at their read points from the net offset change, so every commit
// starts from whatever state the previous one left.  Every published image
// must be byte-identical to the one a fresh session publishes for the same
// design and edit history (its snapshot id aside).
TEST(ServiceTest, CommitSequenceImagesMatchFreshSessions) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  SessionOptions opt;
  opt.pool_threads = 2;
  opt.corners = parse_corner_spec_or_throw(
      "corner typical 1000\n"
      "corner slow 1250\nwire slow 1300\n"
      "corner fast 800\nwire fast 780\n");
  auto session = make_session(opt, spec);
  const std::vector<std::string> comb =
      cell_names(session->design(), SIZE_MAX, false);
  const std::vector<std::string> seq = cell_names(session->design(), 64, true);
  ASSERT_FALSE(comb.empty());
  ASSERT_FALSE(seq.empty());

  auto fresh_image = [&](std::uint64_t id) {
    HummingbirdOptions analysis;
    analysis.delay_adjust = session->delay_adjust_history();
    Session fresh(Design(session->design()), ClockSet(session->clocks()),
                  analysis, opt);
    AnalysisSnapshot snap = *fresh.snapshot();
    snap.id = id;
    return serialize_snapshot(snap);
  };

  Rng rng(2121);
  int absorbed = 0, deferred = 0, timed_out = 0;
  for (int k = 0; k < 300; ++k) {
    SCOPED_TRACE("commit " + std::to_string(k));
    const std::int64_t kind = rng.uniform(0, 19);
    std::string edit;
    if (kind == 0) {  // an element delay: deferred to a rebuild
      edit = "set_delay " + seq[rng.pick(seq.size())] + " " +
             std::to_string(rng.uniform(-20, 90)) + "ps";
    } else if (kind == 1) {
      edit = "upsize " + comb[rng.pick(comb.size())];
    } else {
      edit = "set_delay " + comb[rng.pick(comb.size())] + " " +
             std::to_string(rng.uniform(-60, 120)) + "ps";
    }
    const QueryResult applied = session->execute(edit);
    if (!applied.ok) continue;  // e.g. already the strongest variant
    const std::string reply = to_wire(applied);
    if (reply.find(" deferred ") != std::string::npos) {
      ++deferred;
    } else {
      ++absorbed;
    }
    if (k == 150) {
      ASSERT_TRUE(session->execute("deadline 0.000001").ok);
      const QueryResult failed = session->execute("commit");
      ASSERT_FALSE(failed.ok);
      ASSERT_TRUE(failed.timed_out());
      ++timed_out;
      ASSERT_TRUE(session->execute("deadline 0").ok);
    }
    const QueryResult commit = session->execute("commit");
    ASSERT_TRUE(commit.ok) << to_wire(commit);
    const std::shared_ptr<const AnalysisSnapshot> snap = session->snapshot();
    ASSERT_TRUE(serialize_snapshot(*snap) == fresh_image(snap->id))
        << "published image differs from a fresh session's (" << edit << ")";
  }
  EXPECT_GT(absorbed, 200);
  EXPECT_GT(deferred, 0);
  EXPECT_EQ(timed_out, 1);
}

// A degraded-mode session analyses the salvageable part of an invalid
// design: d -> INV u1 -> DFF ff beside a floating-input INV u2 -> DFF ff2,
// which degraded mode quarantines.  Every snapshot it publishes, an absorbed
// commit's included, is tagged partial, like a fresh degraded analyser of
// the same edit history.
TEST(ServiceTest, DegradedSessionCommitsStayPartial) {
  auto lib = make_standard_library();
  TopBuilder b("split_bad", lib);
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  b.port_out_net("q", b.latch("DFFT", b.gate("INVX1", {d}, "u1"), clk, "ff"));
  const NetId floating = b.net("floating");  // no driver
  b.port_out_net("q2",
                 b.latch("DFFT", b.gate("INVX1", {floating}, "u2"), clk, "ff2"));
  HummingbirdOptions analysis;
  analysis.degraded = true;
  Session session(b.finish(), make_single_clock(ns(4), ns(2)), analysis);
  ASSERT_EQ(session.snapshot()->status, AnalysisStatus::kPartial);

  const QueryResult edit = session.execute("set_delay u1 10ps");
  ASSERT_NE(to_wire(edit).find(" absorbed "), std::string::npos) << to_wire(edit);
  const QueryResult commit = session.execute("commit");
  ASSERT_TRUE(commit.ok) << to_wire(commit);
  EXPECT_NE(commit.lines[0].find(" status partial"), std::string::npos)
      << commit.lines[0];
  const std::string summary = to_wire(session.execute("summary"));
  EXPECT_NE(summary.find("\n  status partial\n"), std::string::npos) << summary;

  HummingbirdOptions fresh_opt = analysis;
  fresh_opt.delay_adjust = session.delay_adjust_history();
  Hummingbird fresh(session.design(), session.clocks(), fresh_opt);
  const Algorithm1Result res = fresh.analyze();
  EXPECT_EQ(res.status, AnalysisStatus::kPartial);
  EXPECT_EQ(session.snapshot()->status, res.status);
  EXPECT_EQ(session.snapshot()->worst_slack, res.worst_slack);
  EXPECT_EQ(session.snapshot()->constraints_status, AnalysisStatus::kPartial);
}

// Delay adjustments in a session's analysis options open its edit history,
// so a deferred commit's rebuild keeps them: +300 ps on every combinational
// instance takes the worst slack from -1837 to -5527 ps, and an element
// edit's commit must not fall back to the unadjusted design.
TEST(ServiceTest, DeferredCommitKeepsConstructionDelayAdjustments) {
  RandomNetwork net = make_random_network(make_standard_library(), test_spec());
  HummingbirdOptions analysis;
  for (const std::string& name : cell_names(net.design, SIZE_MAX, false)) {
    analysis.delay_adjust.push_back(
        {net.design.top().find_inst(name), ps(300)});
  }
  const std::string latch = cell_names(net.design, 1, true).front();
  Session session(std::move(net.design), std::move(net.clocks), analysis);
  EXPECT_TRUE(matches_fresh_analysis(session));

  const QueryResult edit = session.execute("set_delay " + latch + " 1ps");
  ASSERT_NE(to_wire(edit).find(" deferred "), std::string::npos)
      << to_wire(edit);
  const QueryResult commit = session.execute("commit");
  ASSERT_TRUE(commit.ok) << to_wire(commit);
  EXPECT_TRUE(matches_fresh_analysis(session));
  // The same, spelled without the history: the options' adjustments with
  // the edit on top.
  analysis.delay_adjust.push_back(
      {session.design().top().find_inst(latch), ps(1)});
  Hummingbird fresh(session.design(), session.clocks(), analysis);
  EXPECT_EQ(session.snapshot()->worst_slack, fresh.analyze().worst_slack);
}

// A scoped query is validated like the unscoped verb it names: every
// malformed `corner` line keeps its reply word for word.
TEST(ServiceTest, MalformedCornerLinesReplyAsTheUnscopedVerb) {
  SessionOptions opt;
  opt.corners = parse_corner_spec_or_throw(
      "corner typical 1000\ncorner slow 1250\ncorner fast 800\n");
  auto session = make_session(opt);
  const std::pair<const char*, const char*> cases[] = {
      {"corner", "err parse-syntax 'corner' expects 1..4 argument(s), got 0"},
      {"corner list x",
       "err parse-syntax 'corner list' takes no further arguments"},
      {"corner LIST x",
       "err parse-syntax 'corner list' takes no further arguments"},
      {"corner slow",
       "err parse-syntax 'corner' expects `list` or `<name|index> <read "
       "query>`"},
      {"corner slow # note",
       "err parse-syntax 'corner' expects `list` or `<name|index> <read "
       "query>`"},
      {"corner slow bogus",
       "err parse-unknown-keyword unknown query 'bogus' (try `help`)"},
      {"corner slow worst_paths",
       "err parse-syntax 'worst_paths' expects 1 argument(s), got 0"},
      {"corner slow worst_paths 3 4",
       "err parse-syntax 'worst_paths' expects 1 argument(s), got 2"},
      {"corner slow worst_paths -1",
       "err parse-bad-number '-1' is not an integer in [0, 100000]"},
      {"corner slow histogram 0",
       "err parse-bad-number '0' is not an integer in [1, 1000]"},
      {"corner slow check_hold bogus",
       "err parse-bad-number bad time value 'bogus'"},
      {"corner slow summary x",
       "err parse-syntax 'summary' expects 0 argument(s), got 1"},
      {"corner slow stats",
       "err parse-syntax 'corner' scopes slack, worst_paths, histogram, "
       "summary or check_hold"},
      {"corner slow corner list",
       "err parse-syntax 'corner' scopes slack, worst_paths, histogram, "
       "summary or check_hold"},
      {"corner a corner list x",
       "err parse-syntax 'corner list' takes no further arguments"},
      {"corner slow set_delay x bogus",
       "err parse-bad-number bad time value 'bogus'"},
      {"corner slow snapshot bogus",
       "err parse-unknown-keyword unknown snapshot subcommand 'bogus' (save | "
       "load [<design>] | stat)"},
      {"corner slow batch 0",
       "err parse-bad-number '0' is not an integer in [1, 100000]"},
      {"corner nope summary",
       "err parse-unknown-name unknown corner 'nope' (try `corner list`)"},
  };
  for (const auto& [line, reply] : cases) {
    EXPECT_EQ(to_wire(session->execute(line)), std::string(reply) + "\n")
        << line;
  }
  // Spelling variants of a valid scoped query reply alike.
  EXPECT_EQ(to_wire(session->execute("corner slow SUMMARY")),
            to_wire(session->execute("corner slow summary")));
  EXPECT_EQ(to_wire(session->execute("corner 1   histogram 004")),
            to_wire(session->execute("corner slow histogram 4")));
  EXPECT_EQ(to_wire(session->execute("CORNER List")),
            to_wire(session->execute("corner list")));
}

TEST(ServiceTest, NumericallyEqualSpellingsReplyAlike) {
  auto session = make_session();
  const QueryResult plain = session->execute("worst_paths 4");
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(to_wire(session->execute("worst_paths 04")), to_wire(plain));
}

TEST(ServiceTest, StructuredErrorsForBadQueries) {
  auto session = make_session();
  EXPECT_EQ(session->execute("slacc n1").code, DiagCode::kParseUnknownKeyword);
  EXPECT_EQ(session->execute("slack").code, DiagCode::kParseSyntax);
  EXPECT_EQ(session->execute("worst_paths nan").code, DiagCode::kParseBadNumber);
  EXPECT_EQ(session->execute("histogram 0").code, DiagCode::kParseBadNumber);
  EXPECT_EQ(session->execute("slack no_such.pin").code,
            DiagCode::kParseUnknownName);
  EXPECT_EQ(session->execute("set_delay ghost 1ns").code,
            DiagCode::kParseUnknownName);
  // Upsizing a sequential element has no stronger variant: rejected, not fatal.
  const std::vector<std::string> seq = cell_names(session->design(), 1, true);
  EXPECT_EQ(session->execute("upsize " + seq[0]).code,
            DiagCode::kServiceRejected);
  // Blank and comment lines produce no reply at all.
  EXPECT_TRUE(session->execute("").lines.empty());
  EXPECT_TRUE(session->execute("# comment").lines.empty());
  // The session still works.
  EXPECT_TRUE(session->execute("summary").ok);
}

TEST(ServiceTest, ProtocolHandlerBatchAndLifecycle) {
  ServiceHost host;
  host.adopt(make_session());
  ProtocolHandler handler(host);

  EXPECT_EQ(handler.handle_line(""), "");
  EXPECT_EQ(handler.handle_line("# comment"), "");
  EXPECT_EQ(handler.handle_line("ping"), "ok pong\n");

  // batch collects exactly N lines, then replies once.
  EXPECT_EQ(handler.handle_line("batch 2"), "");
  EXPECT_TRUE(handler.collecting());
  EXPECT_EQ(handler.handle_line("ping"), "");
  const std::string reply = handler.handle_line("summary");
  EXPECT_FALSE(handler.collecting());
  EXPECT_EQ(reply.rfind("ok batch 2\n", 0), 0u);
  EXPECT_NE(reply.find("ok pong"), std::string::npos);
  EXPECT_NE(reply.find("ok summary"), std::string::npos);

  const std::string help = handler.handle_line("help");
  EXPECT_EQ(help.rfind("ok help", 0), 0u);

  EXPECT_FALSE(handler.quit());
  EXPECT_EQ(handler.handle_line("quit"), "ok bye\n");
  EXPECT_TRUE(handler.quit());
}

TEST(ServiceTest, HostWithoutSessionRejectsQueries) {
  ServiceHost host;
  ProtocolHandler handler(host);
  const std::string reply = handler.handle_line("summary");
  EXPECT_EQ(reply.rfind("err service-rejected", 0), 0u);
  const std::string load = handler.handle_line("load missing.net missing.spec");
  EXPECT_EQ(load.rfind("err service-rejected", 0), 0u);
}

TEST(ServiceTest, ServeStreamCountsErrors) {
  ServiceHost host;
  host.adopt(make_session());
  std::istringstream in("ping\nbogus_verb\nsummary\nquit\n");
  std::ostringstream out;
  const int errors = serve_stream(host, in, out);
  EXPECT_EQ(errors, 1);
  EXPECT_NE(out.str().find("ok pong"), std::string::npos);
  EXPECT_NE(out.str().find("err parse-unknown-keyword"), std::string::npos);
  EXPECT_NE(out.str().find("ok bye"), std::string::npos);
}

TEST(ServiceTest, TcpServerServesTheLineProtocol) {
  ServiceHost host;
  host.adopt(make_session());
  std::unique_ptr<TcpServer> server;
  try {
    server = std::make_unique<TcpServer>(host, 0);
  } catch (const Error& e) {
    GTEST_SKIP() << "cannot bind loopback: " << e.what();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  const std::string request = "ping\nsummary\nquit\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[1024];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("ok pong"), std::string::npos);
  EXPECT_NE(response.find("ok summary"), std::string::npos);
  EXPECT_NE(response.find("ok bye"), std::string::npos);
  server->stop();
}

TEST(ServiceTest, MetricsReflectTraffic) {
  auto session = make_session();
  session->execute("summary");
  session->execute("summary");
  session->execute("ping");
  session->execute("bogus");
  const ServiceMetrics& m = session->metrics();
  EXPECT_EQ(m.reads(), 2u);
  EXPECT_EQ(m.requests(), 4u);
  EXPECT_EQ(m.errors(), 1u);
  EXPECT_EQ(m.cache_hits(), 0u);  // text reads are evaluated, never replayed
  EXPECT_EQ(m.cache_misses(), 2u);
  const QueryResult stats = session->execute("stats");
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.lines.size(), 20u);  // header + 19 stat lines
}

}  // namespace
}  // namespace hb
