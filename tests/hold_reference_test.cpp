// The hold check and the Section 7 requirements read the rows of the
// engine's terminal delay table.  These differentials hold both against
// the reference walks of hold_reference.hpp on every generator network:
// every hold pair (launch, capture, margin) at the settled schedule, after
// seeded absorbed delay edits and under a 3-corner set with a per-cell
// override; every cluster's requirement count and break nodes.  Two
// counted-work tests pin what the rows cost: a nominal hold check walks no
// node, and a commit after an absorbed edit re-sweeps exactly the rows
// whose cone the edit touches.
#include <gtest/gtest.h>

#include <set>

#include "hold_reference.hpp"
#include "scenario/corner_analysis.hpp"
#include "service/snapshot.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace hb {
namespace {

::testing::AssertionResult same_pairs(const std::vector<HoldViolation>& got,
                                      const std::vector<HoldViolation>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " hold pairs, reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].launch != want[i].launch || got[i].capture != want[i].capture ||
        got[i].margin != want[i].margin) {
      return ::testing::AssertionFailure()
             << "hold pair " << i << ": (" << got[i].launch.value() << ", "
             << got[i].capture.value() << ", " << got[i].margin
             << "), reference (" << want[i].launch.value() << ", "
             << want[i].capture.value() << ", " << want[i].margin << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<InstId> combinational_insts(const Design& design) {
  std::vector<InstId> out;
  for (std::uint32_t i = 0; i < design.top().insts().size(); ++i) {
    const Instance& x = design.top().inst(InstId(i));
    if (x.is_cell() && !design.lib().cell(x.cell).is_sequential()) {
      out.push_back(InstId(i));
    }
  }
  return out;
}

/// The smoke corner set's shape: identity, a slow corner with a per-cell
/// override, and a fast corner.
CornerSet three_corners() {
  CornerSet cs;
  cs.add(Corner{"typical", kIdentityPm, kIdentityPm, {}});
  cs.add(Corner{"slow", 1250, 1300, {{"NAND2X1", 1400}}});
  cs.add(Corner{"fast", 800, 780, {}});
  return cs;
}

TEST(HoldReferenceTest, SettledScheduleMatchesClusterSweep) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hb(w.design, w.clocks);
    // Rows are swept at construction, so the check needs no analysis.
    EXPECT_TRUE(same_pairs(hb.check_hold_times(kInfinitePs),
                           reference::check_hold(hb.engine(), kInfinitePs)));
    hb.analyze();
    const std::vector<HoldViolation> all = hb.check_hold_times(kInfinitePs);
    EXPECT_FALSE(all.empty());
    EXPECT_TRUE(
        same_pairs(all, reference::check_hold(hb.engine(), kInfinitePs)));
    for (const TimePs margin : {TimePs(0), ns(2)}) {
      EXPECT_TRUE(same_pairs(hb.check_hold_times(margin),
                             reference::check_hold(hb.engine(), margin)));
    }
  }
}

TEST(HoldReferenceTest, AbsorbedEditsMatchClusterSweep) {
  std::uint64_t net_seed = 0;
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hb(w.design, w.clocks);
    hb.analyze();
    hb.generate_constraints();
    const std::vector<InstId> comb = combinational_insts(w.design);
    ASSERT_FALSE(comb.empty());
    Rng rng(3100 + net_seed++);
    int absorbed = 0;
    for (int k = 0; k < 6; ++k) {
      const InstId inst = comb[rng.pick(comb.size())];
      const TimePs delta = rng.uniform(-30, 60);
      hb.calculator_mut().adjust_instance(inst, delta);
      if (!hb.update_instance_delays(inst)) {
        // A cell on a control path: not absorbable, so undo it.
        hb.calculator_mut().adjust_instance(inst, -delta);
        hb.update_instance_delays(inst);
        continue;
      }
      ++absorbed;
      // A commit's order: Algorithm 1, the hold capture, Algorithm 2.
      hb.analyze();
      EXPECT_TRUE(same_pairs(hb.check_hold_times(kInfinitePs),
                             reference::check_hold(hb.engine(), kInfinitePs)))
          << "after edit " << k;
      hb.generate_constraints();
      EXPECT_TRUE(same_pairs(hb.check_hold_times(kInfinitePs),
                             reference::check_hold(hb.engine(), kInfinitePs)))
          << "at Algorithm 2's offsets after edit " << k;
    }
    EXPECT_GT(absorbed, 0);
  }
}

TEST(HoldReferenceTest, CornersMatchClusterSweep) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hb(w.design, w.clocks);
    hb.analyze();
    const CornerSet corners = three_corners();
    CornerAnalysis ca(hb.engine(), corners);
    ca.compute();
    const CornerDelays delays(hb.engine().graph(), corners);
    for (std::size_t k = 0; k < ca.num_corners(); ++k) {
      SCOPED_TRACE(corners.corner(k).name);
      EXPECT_TRUE(same_pairs(
          ca.check_hold_times(k, kInfinitePs),
          reference::check_hold(hb.engine(), kInfinitePs, delays.data(),
                                delays.lanes(), k)));
    }
  }
}

TEST(HoldReferenceTest, RequirementsMatchDepthFirstSearch) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hb(w.design, w.clocks);
    const SlackEngine& engine = hb.engine();
    std::size_t total = 0;
    for (std::uint32_t c = 0; c < engine.clusters().num_clusters(); ++c) {
      const reference::Requirements want =
          reference::requirements(engine, ClusterId(c));
      EXPECT_EQ(engine.num_requirements(ClusterId(c)), want.count)
          << "cluster " << c;
      EXPECT_EQ(engine.breaks(ClusterId(c)), want.breaks) << "cluster " << c;
      total += want.count;
    }
    EXPECT_GT(total, 0u);
  }
}

TEST(HoldReferenceTest, NominalCheckWalksNoNode) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hb(w.design, w.clocks);
    hb.analyze();
    const IncrementalStats before = hb.engine().incremental_stats();
    EXPECT_FALSE(hb.check_hold_times(kInfinitePs).empty());
    const IncrementalStats after = hb.engine().incremental_stats();
    EXPECT_EQ(after.rows_swept, before.rows_swept);
    EXPECT_EQ(after.row_nodes_swept, before.row_nodes_swept);
  }
}

// After an absorbed edit, the rows a commit sweeps are exactly those whose
// source's cone holds an endpoint of an arc the edit changed, each swept
// once over its cone: the hold capture and Algorithm 2 add none.
TEST(HoldReferenceTest, CommitResweepsOnlyTheEditsRows) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  Hummingbird hb(net.design, net.clocks);
  hb.analyze();
  hb.generate_constraints();
  const TimingGraph& graph = hb.graph();
  const SlackEngine& engine = hb.engine();

  const InstId inst = combinational_insts(net.design).front();
  std::vector<RiseFall> old_delay;
  for (std::uint32_t a = 0; a < graph.num_arcs(); ++a) {
    old_delay.push_back(graph.arc(a).delay);
  }
  hb.calculator_mut().adjust_instance(inst, ps(35));
  ASSERT_TRUE(hb.update_instance_delays(inst));
  std::set<std::uint32_t> edited;
  for (std::uint32_t a = 0; a < graph.num_arcs(); ++a) {
    if (!(graph.arc(a).delay == old_delay[a])) {
      edited.insert(graph.arc(a).from.value());
      edited.insert(graph.arc(a).to.value());
    }
  }
  ASSERT_FALSE(edited.empty());

  std::uint64_t want_rows = 0;
  std::uint64_t want_nodes = 0;
  std::uint64_t table_rows = 0;
  for (std::uint32_t c = 0; c < engine.clusters().num_clusters(); ++c) {
    if (engine.num_passes(ClusterId(c)) == 0) continue;
    for (TNodeId src : engine.clusters().cluster(ClusterId(c)).source_nodes) {
      ++table_rows;
      const std::vector<TNodeId> cone = reference::cone(engine, src);
      if (std::any_of(cone.begin(), cone.end(), [&](TNodeId n) {
            return edited.count(n.value()) > 0;
          })) {
        ++want_rows;
        want_nodes += cone.size();
      }
    }
  }
  ASSERT_GT(want_rows, 0u);
  EXPECT_LT(want_rows * 4, table_rows);

  const IncrementalStats before = engine.incremental_stats();
  const Algorithm1Result res = hb.analyze();
  const auto snap = capture_snapshot(hb, res, 2, nullptr, CornerSet{});
  ASSERT_TRUE(snap->has_hold);
  const IncrementalStats after = engine.incremental_stats();
  EXPECT_EQ(after.rows_swept - before.rows_swept, want_rows);
  EXPECT_EQ(after.row_nodes_swept - before.row_nodes_swept, want_nodes);
}

}  // namespace
}  // namespace hb
