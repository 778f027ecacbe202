// Determinism of parallel pass evaluation.
//
// The contract (docs/PERFORMANCE.md §8): an analysis whose passes fan out
// as pool tasks produces byte-identical cached PassResult arrays — not just
// semantically equal slots — at every thread count (serial, 2, 8), on every
// generator network.  Worst-path reports, which read the cached passes
// through the accumulation layer, must therefore also be byte-identical
// strings.
//
// Also proves the pool survives faults mid-sweep: a kPoolTask fault injected
// into a parallel compute() surfaces as FaultInjectedError after the sweep
// drains, and the same engine+pool then produce bit-identical results once
// the injector is disarmed — no poisoned workers, no stale partial state.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gen/des.hpp"
#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

TEST(ParallelSweepTest, ByteIdenticalAcrossThreadCounts) {
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);

    // Baseline: serial analysis.
    Hummingbird baseline(w.design, w.clocks);
    baseline.analyze();
    const std::vector<std::uint8_t> want = pass_bytes(baseline.engine());
    const std::string want_report = baseline.report(8);
    ASSERT_FALSE(want.empty());

    // Every pass a pool task: results must not move by a single byte.
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::to_string(threads) + "t");
      std::unique_ptr<ThreadPool> pool;
      HummingbirdOptions opt;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        opt.alg1.pool = pool.get();
      }
      Hummingbird analyser(w.design, w.clocks, opt);
      analyser.analyze();
      const std::vector<std::uint8_t> got = pass_bytes(analyser.engine());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << "cached PassResult arrays diverged from serial";
      EXPECT_EQ(analyser.report(8), want_report);
      const std::vector<HoldViolation> holds =
          analyser.check_hold_times(kInfinitePs, pool.get());
      const std::vector<HoldViolation> want_holds =
          baseline.check_hold_times(kInfinitePs);
      ASSERT_EQ(holds.size(), want_holds.size());
      for (std::size_t i = 0; i < holds.size(); ++i) {
        EXPECT_EQ(holds[i].launch, want_holds[i].launch) << "hold pair " << i;
        EXPECT_EQ(holds[i].capture, want_holds[i].capture) << "hold pair " << i;
        EXPECT_EQ(holds[i].margin, want_holds[i].margin) << "hold pair " << i;
      }
    }
  }
}

// The incremental layer must stay byte-identical too: a parallel update()
// over a dirty offset reproduces the parallel (and serial) full compute().
TEST(ParallelSweepTest, ParallelUpdateMatchesParallelCompute) {
  auto lib = make_standard_library();
  RandomNetworkSpec spec;
  spec.seed = 11;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 5;
  spec.gates_per_stage = 40;
  RandomNetwork net = make_random_network(lib, spec);

  ThreadPool pool(8);
  HummingbirdOptions opt;
  opt.alg1.pool = &pool;
  Hummingbird analyser(net.design, net.clocks, opt);
  analyser.analyze();

  SlackEngine& engine = analyser.engine_mut();
  SyncModel& sync = analyser.sync_model_mut();
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    SyncInstance& si = sync.at_mut(SyncId(i));
    if (si.transparent && !si.is_virtual && si.max_increase() >= 2) {
      si.shift(2);
      break;
    }
  }
  engine.invalidate_offsets(sync.drain_changed_offsets());
  engine.update(&pool);
  const std::vector<std::uint8_t> incremental = pass_bytes(engine);

  engine.invalidate_all();
  engine.compute(&pool);
  EXPECT_EQ(pass_bytes(engine), incremental);
  engine.invalidate_all();
  engine.compute();  // serial closes the triangle
  EXPECT_EQ(pass_bytes(engine), incremental);
}

// A fault injected into a pool task mid-sweep must surface as an error after
// the whole sweep drains, and must not poison the pool or the engine: the
// next compute() on the same objects is bit-identical to a fresh serial run.
TEST(ParallelSweepTest, PoolTaskFaultDrainsWithoutPoisoning) {
  auto lib = make_standard_library();
  const Design des = make_des(lib);
  const ClockSet clocks = make_single_clock(ns(6), ps(2400));

  ThreadPool pool(4);
  Hummingbird analyser(des, clocks);
  SlackEngine& engine = analyser.engine_mut();
  {
    FaultInjector::Config cfg;
    cfg.seed = 42;
    cfg.probability[static_cast<int>(FaultSite::kPoolTask)] = 1.0;
    FaultInjector::Scope scope(cfg);
    EXPECT_THROW(engine.compute(&pool), FaultInjectedError);
  }
  // Injector disarmed: the same engine and pool recover completely.
  engine.invalidate_all();
  engine.compute(&pool);

  Hummingbird fresh(des, clocks);
  fresh.analyze();
  EXPECT_EQ(pass_bytes(engine), pass_bytes(fresh.engine()));
  EXPECT_EQ(timing_summary(engine), timing_summary(fresh.engine()));
}

}  // namespace
}  // namespace hb
