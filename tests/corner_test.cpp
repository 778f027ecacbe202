// Multi-corner scenario engine differentials (docs/SCENARIOS.md).
//
// The load-bearing contract: a K=1 identity CornerSet run through
// CornerAnalysis is byte-identical — cached PassResult buffers, report
// text, slacks and hold pairs — to the legacy single-corner engine, on
// every generator network, at every thread count.  On
// top of that the suite pins the cross-corner merge tie-break (equal worst
// slack resolves to the lowest corner index), holds incremental update()
// bit-exact against a fresh compute() per corner, exercises the
// kCornerLaneCorrupt fault site through the self-check/self-heal path, and
// covers the recovering corner-spec parser's diagnostics.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "scenario/corner_analysis.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

/// Raw bytes of every cached K-lane pass, mirroring pass_bytes() but over
/// the corner orchestrator's cache (flat_size() spans all lanes).
std::vector<std::uint8_t> corner_pass_bytes(const CornerAnalysis& ca) {
  std::vector<std::uint8_t> out;
  const auto append = [&out](const PassSide& side) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(side.data());
    out.insert(out.end(), p, p + side.flat_size() * sizeof(RiseFall));
  };
  const SlackEngine& engine = ca.engine();
  for (std::uint32_t c = 0; c < engine.clusters().num_clusters(); ++c) {
    for (std::size_t p = 0; p < engine.num_passes(ClusterId(c)); ++p) {
      const CornerPassResult& res = ca.cached_pass(ClusterId(c), p);
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

// Satellite 1: the K=1 identity run reproduces the legacy engine byte for
// byte — PassResult buffers and the report string — across {1,8} threads,
// on every generator network.
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
          << "K=1 identity lane diverged from the legacy PassResult bytes";
      EXPECT_EQ(ca.report(0, 8), want_report);
      EXPECT_EQ(ca.worst_terminal_slack(0),
                baseline.engine().worst_terminal_slack());

      const auto hold = ca.check_hold_times(0, 0, pool.get());
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

// Satellite 2: equal worst slack across corners resolves to the lowest
// corner index, and merged path enumeration interleaves deterministically
// by (slack, corner index, capture id).  Two byte-identical corners make
// every slack a tie, so the merge order is pure tie-break.
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

    const SyncModel& sync = analyser.sync_model();
    for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
      const SyncId id(i);
      EXPECT_EQ(ca.merged_launch_slack(id).corner, 0u);
      EXPECT_EQ(ca.merged_capture_slack(id).corner, 0u);
    }

    const std::vector<CornerPath> merged = ca.merged_slow_paths(16);
    for (std::size_t i = 1; i < merged.size(); ++i) {
      const CornerPath& prev = merged[i - 1];
      const CornerPath& cur = merged[i];
      ASSERT_LE(prev.path.slack, cur.path.slack) << "paths not worst-first";
      if (prev.path.slack == cur.path.slack &&
          prev.path.capture == cur.path.capture) {
        EXPECT_LT(prev.corner, cur.corner)
            << "equal-slack twin paths must order by corner index";
      }
    }
  }
}

// The incremental contract, lane-wise: after an offset shift, update()
// reproduces a from-scratch compute() bit for bit in every corner, serial
// and pooled.
TEST(CornerTest, IncrementalUpdateMatchesFreshCompute) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    ThreadPool pool(8);
    HummingbirdOptions opt;
    opt.alg1.pool = &pool;
    Hummingbird analyser(w.design, w.clocks, opt);
    analyser.analyze();

    CornerAnalysis ca(analyser.engine(), three_corners());
    ca.compute(&pool);

    SyncModel& sync = analyser.sync_model_mut();
    bool shifted = false;
    for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
      SyncInstance& si = sync.at_mut(SyncId(i));
      if (si.transparent && !si.is_virtual && si.max_increase() >= 2) {
        si.shift(2);
        shifted = true;
        break;
      }
    }
    if (!shifted) continue;  // no movable offset in this network

    const std::vector<SyncId> changed = sync.drain_changed_offsets();
    ca.invalidate_offsets(changed);
    ca.update(&pool);
    const std::vector<std::uint8_t> incremental = corner_pass_bytes(ca);

    // Fresh parallel compute and fresh serial compute close the triangle.
    CornerAnalysis fresh(analyser.engine(), three_corners());
    fresh.compute(&pool);
    EXPECT_EQ(corner_pass_bytes(fresh), incremental);
    CornerAnalysis serial(analyser.engine(), three_corners());
    serial.compute();
    EXPECT_EQ(corner_pass_bytes(serial), incremental);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(ca.worst_terminal_slack(k), serial.worst_terminal_slack(k));
      // Paths trace the cached K-lane passes: patched and fresh agree.
      EXPECT_TRUE(same_paths(ca.slow_paths(k, 32), serial.slow_paths(k, 32)))
          << "corner " << k;
    }
    const std::vector<CornerPath> merged = ca.merged_slow_paths(32);
    const std::vector<CornerPath> want = serial.merged_slow_paths(32);
    ASSERT_EQ(merged.size(), want.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].corner, want[i].corner);
      EXPECT_TRUE(same_paths({merged[i].path}, {want[i].path})) << "path " << i;
    }
  }
}

// Satellite 3 (fault site): a kCornerLaneCorrupt fault poisons one lane of
// one cached K-lane entry after checksumming; verify_cache() detects it,
// drops the cache, and the next update() self-heals bit-identically.
TEST(CornerTest, LaneCorruptionDetectedAndSelfHealed) {
  auto workloads = all_generator_networks();
  Workload& w = workloads.front();
  Hummingbird analyser(w.design, w.clocks);
  analyser.analyze();

  CornerAnalysis clean(analyser.engine(), three_corners());
  clean.compute();
  const std::vector<std::uint8_t> clean_bytes = corner_pass_bytes(clean);

  CornerAnalysis ca(analyser.engine(), three_corners());
  {
    FaultInjector::Config cfg;
    cfg.seed = 42;
    cfg.probability[static_cast<int>(FaultSite::kCornerLaneCorrupt)] = 1.0;
    FaultInjector::Scope scope(cfg);
    ca.compute();  // one lane is perturbed after its checksum was taken
    EXPECT_FALSE(ca.verify_cache());
    EXPECT_GT(FaultInjector::instance().fire_count(
                  FaultSite::kCornerLaneCorrupt),
              0u);
  }
  // verify_cache dropped the poisoned cache; update() recomputes clean.
  ca.update();
  EXPECT_TRUE(ca.verify_cache());
  EXPECT_EQ(corner_pass_bytes(ca), clean_bytes);

  // Continuous corruption under paranoid self-check still converges: every
  // write is poisoned, every read self-heals, the answer never drifts.
  CornerAnalysis paranoid(analyser.engine(), three_corners());
  paranoid.set_self_check(true);
  {
    FaultInjector::Config cfg;
    cfg.seed = 5;
    cfg.probability[static_cast<int>(FaultSite::kCornerLaneCorrupt)] = 1.0;
    FaultInjector::Scope scope(cfg);
    paranoid.compute();
    paranoid.invalidate_all();
    paranoid.update();
  }
  paranoid.verify_cache();
  paranoid.update();
  EXPECT_EQ(corner_pass_bytes(paranoid), clean_bytes);
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
