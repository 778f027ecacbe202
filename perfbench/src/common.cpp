#include <algorithm>
#include <cmath>
#include <map>

#include "netlist/blif_io.hpp"
#include "netlist/stdcells.hpp"
#include "scenario/corner_set.hpp"
#include "service/snapshot_read.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hb;

namespace {

struct LayerSpan {
  const char* metric;
  const char* span;
  double scale;  // span milliseconds -> metric unit
  const char* unit;
};

// Every span-timed per-layer metric.  Counts and ratios are set by the
// workloads directly.
constexpr LayerSpan kLayerSpans[] = {
    {"netlist.blif_parse_ms", "netlist.blif_parse", 1, "ms"},
    {"netlist.validate_ms", "netlist.validate", 1, "ms"},
    {"sta.graph_ms", "sta.graph", 1, "ms"},
    {"sta.sync_ms", "sta.sync", 1, "ms"},
    {"sta.clusters_ms", "sta.clusters", 1, "ms"},
    {"sta.prepare_ms", "sta.prepare", 1, "ms"},
    {"sta.alg1_ms", "sta.alg1", 1, "ms"},
    {"sta.compute_ms", "sta.compute", 1, "ms"},
    {"sta.alg2_ms", "sta.alg2", 1, "ms"},
    {"sta.restore_ms", "sta.restore", 1, "ms"},
    {"sta.hold_ms", "sta.hold", 1, "ms"},
    {"sta.report_ms", "sta.report", 1, "ms"},
    {"sta.teardown_ms", "sta.teardown", 1, "ms"},
    {"scenario.corners_ms", "scenario.corners", 1, "ms"},
    {"service.snapshot_ms", "service.snapshot", 1, "ms"},
    {"service.serialize_ms", "service.serialize", 1, "ms"},
    {"service.save_ms", "service.save", 1, "ms"},
    {"service.load_newest_ms", "service.load_newest", 1, "ms"},
    {"service.map_ms", "service.map", 1, "ms"},
    {"service.first_slack_us", "service.first_slack", 1e3, "us"},
    {"service.parse_us", "service.parse", 1e3, "us"},
    {"service.eval_us", "service.eval", 1e3, "us"},
    {"service.render_us", "service.render", 1e3, "us"},
};

std::map<std::string, Samples> durations(const std::vector<const Tracer*>& tracers) {
  std::map<std::string, Samples> out;
  for (const Tracer* t : tracers) {
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      out[t->spans()[i].name].add(t->dur_ms(static_cast<int>(i)));
    }
  }
  return out;
}

}  // namespace

void layer_metrics(Report& r, const std::vector<const Tracer*>& natural,
                   const std::vector<const Tracer*>& probe) {
  const std::map<std::string, Samples> own = durations(natural);
  const std::map<std::string, Samples> side = durations(probe);
  for (const LayerSpan& m : kLayerSpans) {
    const Samples* s = nullptr;
    const char* source = "workload";
    if (const auto it = own.find(m.span); it != own.end()) {
      s = &it->second;
    } else if (const auto jt = side.find(m.span); jt != side.end()) {
      s = &jt->second;
      source = "probe";
    }
    if (s == nullptr) {
      r.mismatch(std::string("no spans for ") + m.metric);
      continue;
    }
    r.set(m.metric, s->median() * m.scale, m.unit, s->size(), source);
  }
}

void pass_metrics(Report& r, int slack_evals, const IncrementalStats& s,
                  std::size_t ops) {
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  r.set("sta.slack_evals", slack_evals / n, "count", ops);
  r.set("sta.passes_evaluated", static_cast<double>(s.passes_evaluated) / n, "count", ops);
  r.set("sta.passes_updated", static_cast<double>(s.passes_updated) / n, "count", ops);
  r.set("sta.passes_full_swept", static_cast<double>(s.passes_full_swept) / n, "count", ops);
  r.set("sta.passes_reused", static_cast<double>(s.passes_reused) / n, "count", ops);
  r.set("sta.nodes_retraced", static_cast<double>(s.nodes_retraced) / n, "count", ops);
  const double touched = static_cast<double>(s.passes_evaluated + s.passes_updated +
                                             s.passes_full_swept + s.passes_reused);
  r.set("sta.pass_reuse_ratio",
        touched > 0 ? static_cast<double>(s.passes_reused) / touched : 0, "ratio", ops);
}

CornerSet signoff_corners() {
  return parse_corner_spec_or_throw(
      "corner typical 1000\n"
      "corner slow 1150\n"
      "wire slow 1200\n"
      "corner fast 850\n"
      "wire fast 900\n"
      "corner hot 1080\n"
      "cell hot XOR2X1 1250\n");
}

SessionOptions whatif_session_options(int pool_threads) {
  SessionOptions so;
  so.pool_threads = pool_threads;  // default captures: hold + Algorithm 2
  return so;
}

std::vector<Edit> edit_stream(const Design& design, const std::vector<InstId>& insts,
                              std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<TimePs> acc(insts.size(), 0);
  std::vector<Edit> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rng.pick(insts.size());
    TimePs d = rng.uniform(1, 40);
    if (acc[i] + d > 120 || (acc[i] - d >= 0 && rng.chance(0.5))) d = -d;
    acc[i] += d;
    out.push_back(Edit{design.top().inst(insts[i]).name, insts[i], d});
  }
  return out;
}

void commit_edit(Session& session, const Edit& e, CommitMirror* mirror, Tracer* t,
                 std::uint32_t op, CommitTally& tally, Report& r) {
  r.attempted += 2;
  tally.writes += 2;
  const QueryResult set =
      session.execute("set_delay " + e.inst_name + " " + std::to_string(e.delta));
  const auto t0 = Clock::now();
  const QueryResult res = session.execute("commit");
  const double commit_ms = ms_since(t0);
  tally.commit_ms.add(commit_ms);
  if (!set.ok || set.lines.at(0).find(" absorbed ") == std::string::npos) {
    r.mismatch("set_delay not absorbed: " + set.lines.at(0));
  }
  if (!res.ok || res.lines.at(0).compare(0, 9, "ok commit") != 0) {
    r.mismatch("commit failed: " + res.lines.at(0));
  }
  if (mirror == nullptr) return;
  if (!mirror->absorb(e.inst, e.delta)) r.mismatch("mirror could not absorb an edit");
  const std::shared_ptr<const AnalysisSnapshot> snap = session.snapshot();
  const CommitMirror::Replay rep = mirror->replay(snap->id, *t, op);
  BudgetTimer timer{AnalysisBudget{}};
  if (to_wire(evaluate_snapshot_read(parse_query("summary"), *snap, timer)) != rep.summary) {
    r.mismatch("mirror summary differs from the published snapshot");
  }
  if (!rep.saved) r.mismatch("mirror snapshot save failed");
  tally.unattributed_ms.add(commit_ms - rep.blocks_ms);
  tally.coverage.add(rep.blocks_ms / commit_ms);
  if (tally.counted < tally.count_limit) {
    tally.slack_evals += rep.slack_evaluations;
    tally.stats.passes_evaluated += rep.delta.passes_evaluated;
    tally.stats.passes_updated += rep.delta.passes_updated;
    tally.stats.passes_full_swept += rep.delta.passes_full_swept;
    tally.stats.passes_reused += rep.delta.passes_reused;
    tally.stats.nodes_retraced += rep.delta.nodes_retraced;
    tally.image_bytes = rep.image_bytes;
    ++tally.counted;
  }
}

void probe_commits(Session& session, SnapshotStore& store, int threads,
                   const std::string& mirror_dir, std::uint64_t seed, std::size_t n,
                   Tracer& t, Report& r) {
  CommitMirror mirror(session.design(), session.clocks(), threads, mirror_dir);
  const std::vector<InstId> insts =
      absorbable_instances(session.design(), session.clocks(), seed, 64);
  const std::vector<Edit> edits = edit_stream(session.design(), insts, seed, n);
  session.set_snapshot_store(&store);  // publications are saved, as in whatif_commit
  CommitTally tally(n);
  for (std::size_t k = 0; k < n; ++k) {
    commit_edit(session, edits[k], &mirror, &t, static_cast<std::uint32_t>(100 + k), tally, r);
  }
  session.set_snapshot_store(nullptr);
  pass_metrics(r, tally.slack_evals, tally.stats, tally.counted);
  r.set("service.image_kb", static_cast<double>(tally.image_bytes) / 1024.0, "count");
  r.set("service.commit_unattributed_ms", tally.unattributed_ms.median(), "ms",
        tally.unattributed_ms.size(), "probe");
}

void probe_signoff(const Design& design, const ClockSet& clocks, Tracer& t, Report& r) {
  SignoffInputs in;
  in.lib = make_standard_library();
  in.blif = blif_to_string(design);
  in.clocks = clocks;
  in.corners = signoff_corners();
  std::string first;
  Samples coverage;
  for (std::uint32_t k = 0; k < 3; ++k) {
    ++r.attempted;
    int op_span = -1;
    const std::string f = signoff_traced(in, t, k, &op_span).fingerprint();
    coverage.add(t.child_coverage(op_span));
    if (f.rfind("validation failed", 0) == 0) r.mismatch("probe sign-off: " + f);
    if (k == 0) {
      first = f;
    } else if (f != first) {
      r.mismatch("probe sign-offs of one design differ");
    }
  }
  r.fact("signoff_probe_coverage", coverage.median());
}

void probe_pool(const Design& design, const ClockSet& clocks, Tracer& t, Report& r) {
  Hummingbird hb(design, clocks);
  hb.analyze();
  ThreadPool pool(std::min(hardware_threads(), 4));
  r.set("util.pool_speedup", pool_speedup(hb.engine_mut(), pool, 5, t, 10), "ratio", 5);
}

double calib_ms() {
  // Fixed work: an integer hash chain (ALU) and a strided walk over 32 MiB
  // (memory).  Nothing depends on the repository's code.
  const std::size_t n = std::size_t{1} << 22;  // 4M words = 32 MiB
  std::vector<std::uint64_t> buf(n);
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < n; i += 8) buf[(i * 7919) & (n - 1)] += x + i;
  }
  const double ms = ms_since(t0);
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < n; i += 4096) sink += buf[i];
  if (sink == 42) std::printf("#");  // keep the loops observable
  return ms;
}

}  // namespace perfbench
