// Cost of the resilient-runtime guardrails on the hot paths.
//
// Three guardrails ride along with every analysis and must stay (nearly)
// free when nothing goes wrong:
//   * structured diagnostics in the parsers (recovery machinery vs the
//     legacy fail-fast path on clean input);
//   * watchdog budgets (BudgetTimer checks between relaxation sweeps);
//   * cache self-checking (write-time checksums always; paranoid read-back
//     verification when enabled).
//
// Writes BENCH_guardrails.json with the measured overheads; the target is
// <5% for everything that is on by default.  The write-time checksums are
// part of every compute(), so their cost is reported as a share of it:
// verify_cache() re-takes exactly those checksums, and its time over
// compute()'s is that share.  The paranoid verification is reported
// separately since it is opt-in.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/random_network.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stdcells.hpp"
#include "sta/cluster.hpp"
#include "sta/hummingbird.hpp"
#include "sta/slack_engine.hpp"
#include "util/cancel.hpp"
#include "util/diagnostics.hpp"

namespace hb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

template <typename Fn>
double time_us(int reps, Fn&& fn) {
  fn(0);  // warm caches so first-run cost doesn't skew the comparison
  const auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < reps; ++k) fn(k);
  return seconds_since(start) * 1e6 / reps;
}

// Time a baseline/guarded pair with the rounds interleaved A/B/A/B and take
// the per-side minima, so host-load drift during the run lands on both sides
// of the overhead ratio instead of skewing one window.
template <typename A, typename B>
std::pair<double, double> time_pair_us(int reps, A&& a, B&& b) {
  std::pair<double, double> best{1e30, 1e30};
  for (int round = 0; round < 5; ++round) {
    best.first = std::min(best.first, time_us(reps, a));
    best.second = std::min(best.second, time_us(reps, b));
  }
  return best;
}

double pct_over(double base_us, double with_us) {
  return base_us > 0 ? (with_us - base_us) / base_us * 100.0 : 0.0;
}

/// The service benches' random_large network (1,952 cells).
RandomNetwork make_random_large(std::shared_ptr<const Library> lib) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  return make_random_network(lib, spec);
}

RandomNetwork make_workload(std::shared_ptr<const Library> lib) {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 6;
  spec.bank_width = 8;
  spec.gates_per_stage = 120;
  return make_random_network(lib, spec);
}

}  // namespace
}  // namespace hb

int main() {
  using namespace hb;
  auto lib = make_standard_library();
  RandomNetwork net = make_workload(lib);
  const std::string text = netlist_to_string(net.design);

  // -- Parse: legacy fail-fast vs recovering parser on clean input --------
  const int parse_reps = 30;
  const auto [parse_legacy_us, parse_sink_us] = time_pair_us(
      parse_reps, [&](int) { netlist_from_string(text, lib); },
      [&](int) {
        DiagnosticSink sink;
        netlist_from_string(text, lib, sink);
      });
  const double parse_pct = pct_over(parse_legacy_us, parse_sink_us);

  // -- Analysis: no budget vs an (unexhausted) budget + cancel token ------
  const int analyze_reps = 20;
  Hummingbird plain_analyser(net.design, net.clocks);
  CancelToken cancel;
  HummingbirdOptions budget_opt;
  budget_opt.alg1.budget.wall_seconds = 3600;
  budget_opt.alg1.budget.max_total_cycles = 1 << 30;
  budget_opt.alg1.budget.cancel = &cancel;
  Hummingbird budget_analyser(net.design, net.clocks, budget_opt);
  const auto [analyze_plain_us, analyze_budget_us] = time_pair_us(
      analyze_reps, [&](int) { plain_analyser.analyze(); },
      [&](int) { budget_analyser.analyze(); });
  const double budget_pct = pct_over(analyze_plain_us, analyze_budget_us);

  // -- Incremental updates: default (write-time checksums only) vs the
  //    opt-in paranoid read-back verification --------------------------------
  DelayCalculator calc(net.design);
  TimingGraph graph(net.design, calc);
  SyncModel sync(graph, net.clocks, calc);
  ClusterSet clusters(graph, sync);
  SlackEngine engine(graph, clusters, sync);

  std::vector<SyncId> latches;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (si.transparent && !si.is_virtual && si.width >= 4) {
      latches.push_back(SyncId(i));
    }
  }

  const int update_reps = 400;
  auto run_updates = [&](bool paranoid) {
    engine.set_self_check(paranoid);
    sync.reset_offsets();
    sync.drain_changed_offsets();
    engine.invalidate_all();
    engine.compute();
    return time_us(update_reps, [&](int k) {
      const SyncId id = latches[static_cast<std::size_t>(k) % latches.size()];
      SyncInstance& si = sync.at_mut(id);
      si.shift((k % 2 == 0) ? -std::min<TimePs>(si.max_decrease(), 2)
                            : std::min<TimePs>(si.max_increase(), 2));
      engine.invalidate_offsets(sync.drain_changed_offsets());
      engine.update();
    });
  };
  double update_default_us = 1e30, update_paranoid_us = 1e30;
  for (int round = 0; round < 5; ++round) {
    update_default_us = std::min(update_default_us, run_updates(false));
    update_paranoid_us = std::min(update_paranoid_us, run_updates(true));
  }
  const double paranoid_pct = pct_over(update_default_us, update_paranoid_us);

  // -- Write-time checksums: their share of one compute() -------------------
  RandomNetwork large = make_random_large(lib);
  Hummingbird large_analyser(large.design, large.clocks);
  large_analyser.analyze();
  SlackEngine& large_engine = large_analyser.engine_mut();
  const int checksum_reps = 200;
  const auto [compute_us, verify_cache_us] = time_pair_us(
      checksum_reps, [&](int) { large_engine.compute(); },
      [&](int) { large_engine.verify_cache(); });
  const double checksum_pct =
      compute_us > 0 ? verify_cache_us / compute_us * 100.0 : 0.0;

  std::printf("guardrail overheads (target < 5%% for defaults):\n");
  std::printf("  parse      %10.1f -> %10.1f us  (%+.2f%%)\n", parse_legacy_us,
              parse_sink_us, parse_pct);
  std::printf("  budget     %10.1f -> %10.1f us  (%+.2f%%)\n", analyze_plain_us,
              analyze_budget_us, budget_pct);
  std::printf("  paranoid   %10.1f -> %10.1f us  (%+.2f%%, opt-in)\n",
              update_default_us, update_paranoid_us, paranoid_pct);
  std::printf("  checksums  %10.1f of %10.1f us compute()  (%.2f%%)\n",
              verify_cache_us, compute_us, checksum_pct);

  FILE* json = std::fopen("BENCH_guardrails.json", "w");
  std::fprintf(json,
               "{\n"
               "  \"hardware_threads\": %u,\n"
               "  \"threads_used\": 1,\n"
               "  \"target_default_overhead_pct\": 5.0,\n"
               "  \"parse\": {\"legacy_us\": %.1f, \"recovering_us\": %.1f, "
               "\"overhead_pct\": %.2f},\n"
               "  \"budget\": {\"plain_us\": %.1f, \"budgeted_us\": %.1f, "
               "\"overhead_pct\": %.2f},\n"
               "  \"paranoid_self_check\": {\"default_us\": %.1f, "
               "\"paranoid_us\": %.1f, \"overhead_pct\": %.2f, "
               "\"opt_in\": true},\n"
               "  \"write_checksums\": {\"network\": \"random_large\", "
               "\"compute_us\": %.1f, \"verify_cache_us\": %.1f, "
               "\"share_pct\": %.2f, \"always_on\": true}\n"
               "}\n",
               std::thread::hardware_concurrency(),
               parse_legacy_us, parse_sink_us, parse_pct, analyze_plain_us,
               analyze_budget_us, budget_pct, update_default_us,
               update_paranoid_us, paranoid_pct, compute_us, verify_cache_us,
               checksum_pct);
  std::fclose(json);
  std::printf("wrote BENCH_guardrails.json\n");
  return 0;
}
