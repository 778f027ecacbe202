// hb_perfbench — the end-to-end benchmark program (see ../README.md).
//
//   hb_perfbench --workload <whatif_commit|replica_reads>
//                --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                [--trace-file <path>]
//   hb_perfbench --calib      # host canary: one fixed ALU + memory loop, ms
//
// Prints facts and every metric with its unit and sample count, then the
// result object as the last line: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Report;

// Must match BENCHMARK.json.
const std::set<std::string> kEndToEnd = {
    "setup_s",      "peak_rss_mb",   "refresh_ms.p50", "refresh_ms.tail",
    "reply_us.p50", "reply_us.tail", "served_per_s"};
const std::set<std::string> kPerLayer = {
    "netlist.blif_parse_ms", "netlist.validate_ms",  "sta.graph_ms",
    "sta.sync_ms",           "sta.clusters_ms",      "sta.prepare_ms",
    "sta.alg1_ms",           "sta.slack_evals",      "sta.compute_ms",
    "sta.alg2_ms",           "sta.restore_ms",       "sta.hold_ms",
    "sta.report_ms",         "sta.teardown_ms",      "sta.passes_evaluated",
    "sta.passes_updated",    "sta.passes_full_swept", "sta.passes_reused",
    "sta.nodes_retraced",    "sta.pass_reuse_ratio", "scenario.corners_ms",
    "util.pool_speedup",     "service.snapshot_ms",  "service.serialize_ms",
    "service.image_kb",      "service.save_ms",      "service.commit_unattributed_ms",
    "service.parse_us",      "service.eval_us",      "service.render_us",
    "service.cache_hit_ratio", "service.load_newest_ms", "service.map_ms",
    "service.first_slack_us", "trace.coverage",      "trace.overhead"};

int usage() {
  std::fprintf(stderr,
               "usage: hb_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-file <path>]\n"
               "       hb_perfbench --calib\n");
  return 2;
}

void print_report(const Report& r, const perfbench::Options& o) {
  std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("fact nproc %d\n", perfbench::hardware_threads());
  for (const auto& [k, v] : r.facts) std::printf("fact %s %s\n", k.c_str(), v.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::printf("metric %s %.6g %s n=%llu%s%s\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.empty() ? "" : " ",
                m.note.c_str());
  }
  for (const std::string& w : r.mismatches) std::printf("failure %s\n", w.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The analyser falls back to an HB_THREADS pool when given none; the
  // workloads set every thread count themselves.
  unsetenv("HB_THREADS");
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--calib") {
      std::printf("%.6f\n", perfbench::calib_ms());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      return usage();
    }
  }
  if (o.work_dir.empty() || !(o.seconds > 0)) return usage();
  std::filesystem::create_directories(o.work_dir);

  Report r;
  try {
    if (o.workload == "whatif_commit") {
      r = perfbench::run_whatif_commit(o);
    } else if (o.workload == "replica_reads") {
      r = perfbench::run_replica_reads(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  const std::set<std::string>& expected = o.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : expected) {
    if (r.metrics.count(name) == 0) r.mismatch("metric not measured: " + name);
  }
  for (auto it = r.metrics.begin(); it != r.metrics.end();) {
    if (expected.count(it->first) == 0) {
      it = r.metrics.erase(it);  // side numbers of the other run kind
    } else if (!std::isfinite(it->second.value)) {
      r.mismatch("metric not finite: " + it->first);
      it->second.value = 0;
      ++it;
    } else {
      ++it;
    }
  }
  if (r.attempted == 0) {
    r.mismatch("no operation ran");
    r.attempted = 1;
  }
  r.attempted = std::max(r.attempted, r.failed);
  std::filesystem::remove_all(o.work_dir);
  print_report(r, o);
  return 0;
}
