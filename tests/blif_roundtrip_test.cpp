// BLIF round-trip differential suite.
//
// Contract: emitting any generator network as BLIF and re-reading it yields
// a design whose analysis is indistinguishable from the in-memory original
// — byte-identical worst-K reports, timing summaries and cached PassResult
// arrays — across thread counts.  The writer/reader
// pair is also a fixpoint: serialising the re-read design reproduces the
// BLIF text exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "netlist/blif_io.hpp"
#include "sta/hummingbird.hpp"
#include "sta/report.hpp"
#include "test_util.hpp"
#include "util/diagnostics.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

TEST(BlifRoundTripTest, ByteIdenticalReportsOnEveryGeneratorNetwork) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    const std::string text = blif_to_string(w.design);
    DiagnosticSink sink;
    Design rt = blif_design_from_string(text, w.design.lib_ptr(), sink);
    ASSERT_FALSE(sink.has_errors()) << sink.to_string();

    EXPECT_EQ(rt.name(), w.design.name());
    EXPECT_EQ(rt.total_cell_count(), w.design.total_cell_count());
    // Writer/reader fixpoint: a second serialisation is byte-identical.
    EXPECT_EQ(blif_to_string(rt), text);

    Hummingbird original(w.design, w.clocks);
    Hummingbird reread(rt, w.clocks);
    original.analyze();
    reread.analyze();
    EXPECT_EQ(reread.report(16), original.report(16));
    EXPECT_EQ(timing_summary(reread.engine()), timing_summary(original.engine()));
    EXPECT_EQ(pass_bytes(reread.engine()), pass_bytes(original.engine()));
  }
}

// The re-read design must stay inside the determinism envelope of parallel
// pass evaluation: at {1,8} threads the round-tripped design reproduces the
// original's serial results to the byte (reusing the parallel_sweep
// byte-comparison helpers).
TEST(BlifRoundTripTest, ByteIdenticalAcrossThreadCounts) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    const std::string text = blif_to_string(w.design);
    const Design rt = blif_design_from_string(text, w.design.lib_ptr());

    Hummingbird baseline(w.design, w.clocks);
    baseline.analyze();
    const std::vector<std::uint8_t> want = pass_bytes(baseline.engine());
    const std::string want_report = baseline.report(8);
    ASSERT_FALSE(want.empty());

    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::to_string(threads) + "t");
      std::unique_ptr<ThreadPool> pool;
      HummingbirdOptions opt;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        opt.alg1.pool = pool.get();
      }
      Hummingbird analyser(rt, w.clocks, opt);
      analyser.analyze();
      const std::vector<std::uint8_t> got = pass_bytes(analyser.engine());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << "round-tripped PassResult arrays diverged from the original";
      EXPECT_EQ(analyser.report(8), want_report);
    }
  }
}

}  // namespace
}  // namespace hb
