// Multi-corner sign-off differentials (docs/SCENARIOS.md).
//
// The load-bearing contract: a K=1 identity CornerSet run through
// CornerAnalysis is byte-identical — PassResult buffers, report text,
// slacks and hold pairs — to the single-corner engine, on every generator
// network, at every thread count.  CornerAnalysis reaches the engine's own
// kernels, fold and path tracer with the lane and the derated delay table
// as parameters, so that identity pins the shared code's lane handling;
// tests/snapshots/corner_reports.golden pins the derated traces.  On top of
// that the suite checks that derates shift slack in the right direction,
// pins the cross-corner merge tie-break (equal worst slack resolves to the
// lowest corner index), and covers the recovering corner-spec parser's
// diagnostics.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "scenario/corner_analysis.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

/// Raw bytes of every K-lane pass, mirroring pass_bytes() but over the
/// corner analysis's results (flat_size() spans all lanes).
std::vector<std::uint8_t> corner_pass_bytes(const CornerAnalysis& ca) {
  std::vector<std::uint8_t> out;
  const auto append = [&out](const PassSide& side) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(side.data());
    out.insert(out.end(), p, p + side.flat_size() * sizeof(RiseFall));
  };
  const SlackEngine& engine = ca.engine();
  for (std::uint32_t c = 0; c < engine.clusters().num_clusters(); ++c) {
    for (std::size_t p = 0; p < engine.num_passes(ClusterId(c)); ++p) {
      const PassResult& res = ca.cached_pass(ClusterId(c), p);
      append(res.ready);
      append(res.required);
    }
  }
  return out;
}

CornerSet three_corners() {
  CornerSet cs;
  cs.add(Corner{"typical", kIdentityPm, kIdentityPm, {}});
  cs.add(Corner{"slow", 1250, 1300, {{"NAND2X1", 1400}}});
  cs.add(Corner{"fast", 800, 780, {}});
  return cs;
}

// The K=1 identity run reproduces the single-corner engine byte for byte —
// PassResult buffers and the report string — across {1,8} threads, on
// every generator network.
TEST(CornerTest, IdentityKOneMatchesLegacyByteForByte) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);

    Hummingbird baseline(w.design, w.clocks);
    baseline.analyze();
    const std::vector<std::uint8_t> want = pass_bytes(baseline.engine());
    const std::string want_report = baseline.report(8);
    const auto want_hold = baseline.check_hold_times(0);
    ASSERT_FALSE(want.empty());

    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::to_string(threads) + "t");
      std::unique_ptr<ThreadPool> pool;
      HummingbirdOptions opt;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        opt.alg1.pool = pool.get();
      }
      Hummingbird analyser(w.design, w.clocks, opt);
      analyser.analyze();
      CornerAnalysis ca(analyser.engine(), CornerSet::identity());
      ca.compute(pool.get());

      const std::vector<std::uint8_t> got = corner_pass_bytes(ca);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << "K=1 identity lane diverged from the engine's PassResult bytes";
      EXPECT_EQ(ca.report(0, 8), want_report);
      EXPECT_EQ(ca.worst_terminal_slack(0),
                baseline.engine().worst_terminal_slack());

      const auto hold = ca.check_hold_times(0, 0);
      ASSERT_EQ(hold.size(), want_hold.size());
      for (std::size_t i = 0; i < hold.size(); ++i) {
        EXPECT_EQ(hold[i].launch, want_hold[i].launch);
        EXPECT_EQ(hold[i].capture, want_hold[i].capture);
        EXPECT_EQ(hold[i].margin, want_hold[i].margin);
      }
    }
  }
}

// Derates act in the right direction: the slow corner can only lose slack
// against typical, the fast corner can only gain it, and the merged worst
// comes from the slow corner with its index attached.
TEST(CornerTest, DeratesShiftSlackMonotonically) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird analyser(w.design, w.clocks);
    analyser.analyze();
    CornerAnalysis ca(analyser.engine(), three_corners());
    ca.compute();

    const TimePs typical = ca.worst_terminal_slack(0);
    const TimePs slow = ca.worst_terminal_slack(1);
    const TimePs fast = ca.worst_terminal_slack(2);
    EXPECT_EQ(typical, analyser.engine().worst_terminal_slack());
    EXPECT_LE(slow, typical);
    EXPECT_GE(fast, typical);

    const MergedSlack merged = ca.merged_worst_slack();
    EXPECT_EQ(merged.slack, std::min({typical, slow, fast}));
    EXPECT_EQ(merged.slack, ca.worst_terminal_slack(merged.corner));
  }
}

// Equal worst slack across corners resolves to the lowest corner index.
// Two byte-identical corners make every slack a tie.
TEST(CornerTest, CrossCornerTieBreakPrefersLowestIndex) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird analyser(w.design, w.clocks);
    analyser.analyze();

    CornerSet twins;
    twins.add(Corner{"a", 1150, 1150, {}});
    twins.add(Corner{"b", 1150, 1150, {}});
    CornerAnalysis ca(analyser.engine(), twins);
    ca.compute();

    ASSERT_EQ(ca.worst_terminal_slack(0), ca.worst_terminal_slack(1));
    EXPECT_EQ(ca.merged_worst_slack().corner, 0u);
  }
}

// ---- Corner-spec parser ---------------------------------------------------

TEST(CornerSpecTest, ParsesFullSpec) {
  const std::string text =
      "# three-corner sign-off set\n"
      "corner typical 1000\n"
      "corner slow 1250\n"
      "wire slow 1300\n"
      "cell slow NAND2X1 1400\n"
      "corner fast 800\n"
      "wire fast 780\n";
  DiagnosticSink sink;
  const CornerSet set = parse_corner_spec(text, sink);
  EXPECT_TRUE(sink.empty()) << sink.to_string();
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.corner(0).name, "typical");
  EXPECT_TRUE(set.corner(0).is_identity());
  EXPECT_EQ(set.corner(1).derate_pm, 1250u);
  EXPECT_EQ(set.corner(1).wire_pm, 1300u);
  EXPECT_EQ(set.corner(1).cell_factor("NAND2X1"), 1400u);
  EXPECT_EQ(set.corner(1).cell_factor("INVX1"), 1250u);
  EXPECT_EQ(set.corner(2).derate_pm, 800u);
  EXPECT_EQ(set.corner(2).wire_pm, 780u);
  EXPECT_EQ(set.find("fast"), 2u);
  EXPECT_EQ(set.find("nope"), CornerSet::npos);
  EXPECT_FALSE(set.all_identity());
}

// The recovering parser diagnoses each malformed statement with a DiagCode
// and SourceLoc, resynchronises at the next line, and keeps what parsed.
TEST(CornerSpecTest, RecoversWithStructuredDiagnostics) {
  const std::string text =
      "corner slow 125%\n"          // bad number
      "corner slow 1250\n"          // ok
      "corner slow 1300\n"          // duplicate name
      "wire ghost 1100\n"           // unknown corner
      "cell slow NAND2X1\n"         // arity
      "voltage slow 1.1\n"          // unknown keyword
      "wire slow 1300\n";           // ok
  DiagnosticSink sink;
  const CornerSet set = parse_corner_spec(text, sink);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.corner(0).derate_pm, 1250u);
  EXPECT_EQ(set.corner(0).wire_pm, 1300u);

  ASSERT_EQ(sink.size(), 5u) << sink.to_string();
  EXPECT_EQ(sink.all()[0].code, DiagCode::kParseBadNumber);
  EXPECT_EQ(sink.all()[0].loc.line, 1);
  EXPECT_EQ(sink.all()[1].code, DiagCode::kParseDuplicateName);
  EXPECT_EQ(sink.all()[2].code, DiagCode::kParseUnknownName);
  EXPECT_EQ(sink.all()[3].code, DiagCode::kParseSyntax);
  EXPECT_EQ(sink.all()[4].code, DiagCode::kParseUnknownKeyword);
  EXPECT_EQ(sink.all()[4].loc.line, 6);
}

TEST(CornerSpecTest, EmptyAndFailFastBehaviour) {
  DiagnosticSink sink;
  parse_corner_spec("# only comments\n\n", sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.all()[0].code, DiagCode::kParseEmptyInput);

  EXPECT_THROW(parse_corner_spec_or_throw(""), Error);
  EXPECT_THROW(parse_corner_spec_or_throw("corner x 0\n"), Error);
  EXPECT_THROW(parse_corner_spec_or_throw("corner x 999999\n"), Error);
  EXPECT_NO_THROW(parse_corner_spec_or_throw("corner x 1\ncorner y 100000\n"));
}

}  // namespace
}  // namespace hb
