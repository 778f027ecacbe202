// whatif_commit: the paper's Section 8 interactive mode through one live
// Session on the random_large network.
//
// One writer (the main thread) loops `set_delay <inst> <±d>` + `commit`
// over a seeded stream of absorbable edits; two text-protocol readers send
// the read mix to the same session meanwhile.  Every publication is saved
// into a snapshot store inside the run's work directory.  Threads: the
// writer, one session pool worker and two readers.
#include <atomic>
#include <filesystem>
#include <thread>

#include "service/protocol.hpp"
#include "service/snapshot_read.hpp"
#include "sta/analysis_pass.hpp"
#include "sta/hummingbird.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hb;

namespace {

constexpr int kPoolThreads = 2;
constexpr int kReaders = 2;
constexpr std::size_t kMixLen = 1 << 16;
constexpr std::size_t kCountedCommits = 16;  // count metrics: first traced commits
constexpr std::uint32_t kReplayEvery = 64;   // traced readers: sampled replays

/// What one timed set-up builds.
struct Live {
  std::unique_ptr<ServiceHost> host;
  std::shared_ptr<Session> session;
};

/// The timed set-up: the network, the session's first analysis and
/// captures, and a host whose store saves every publication, the first
/// one on adoption.
std::unique_ptr<Live> set_up(const std::string& store_dir) {
  auto s = std::make_unique<Live>();
  Network net = make_random_large();
  ServiceConfig cfg;
  cfg.snapshot_dir = store_dir;
  cfg.session = whatif_session_options(kPoolThreads);
  s->host = std::make_unique<ServiceHost>(cfg);
  s->session = std::make_shared<Session>(std::move(net.design), std::move(net.clocks),
                                         HummingbirdOptions{}, cfg.session);
  s->host->adopt(s->session);
  return s;
}

/// The seeded edit and read streams.  They depend only on the seed and the
/// design, so they are built once, after the timed set-ups.
struct Streams {
  std::vector<std::string> names;
  std::vector<Edit> edits;
  std::vector<std::vector<std::string>> mixes;  // per reader
};

Streams make_streams(const Session& session, std::uint64_t seed) {
  Streams st;
  st.names = node_names(*session.snapshot());
  const std::vector<InstId> insts =
      absorbable_instances(session.design(), session.clocks(), seed, 64);
  st.edits = edit_stream(session.design(), insts, seed, 1 << 14);
  for (int c = 0; c < kReaders; ++c) {
    st.mixes.push_back(
        read_mix(st.names, seed * 1000003 + static_cast<std::uint64_t>(c), kMixLen));
  }
  return st;
}

/// Reader-side tallies of one measurement window.
struct ReadTally {
  LatencyHist hist;
  std::uint64_t replies = 0;
  std::uint64_t errors = 0;
  double replay_ms = 0;  // traced: sampled parse+eval+render replays
  double replayed_reply_ms = 0;  // traced: the same requests' reply times
};

// Reader phases, set by the writer.
enum Phase : int { kWarm = 0, kTraced = 1, kPlain = 2, kStop = 3 };

void reader(ServiceHost& host, Session& session, const std::vector<std::string>& mix,
            const std::atomic<int>& phase, ReadTally* tallies, Tracer* t) {
  ProtocolHandler h(host);
  std::uint32_t op = 0;
  try {
    for (std::size_t i = 0;; ++i) {
      const int ph = phase.load(std::memory_order_relaxed);
      if (ph == kStop) break;
      const std::string& line = mix[i & (kMixLen - 1)];
      const auto t0 = Clock::now();
      const std::string& reply = h.handle_line(line);
      const auto t1 = Clock::now();
      if (ph == kWarm) continue;
      ReadTally& tally = tallies[ph];
      const std::uint64_t ns =
          static_cast<std::uint64_t>(std::chrono::nanoseconds(t1 - t0).count());
      tally.hist.add_ns(ns);
      ++tally.replies;
      if (reply.compare(0, 3, "ok ") != 0) ++tally.errors;
      if (ph == kTraced && t != nullptr && (i % kReplayEvery) == 0) {
        tally.replay_ms +=
            replay_text_read(line, SnapshotCopySource(session.snapshot()), *t, op++);
        tally.replayed_reply_ms += 1e-6 * static_cast<double>(ns);
      }
    }
  } catch (const std::exception&) {
    ++tallies[kTraced].errors;  // the reader stops; the run reports the failure
  }
}

/// Commits until `seconds` pass (at least `min_commits`).
void writer(Session& session, const std::vector<Edit>& edits, std::size_t& next,
            double seconds, std::size_t min_commits, CommitMirror* mirror, Tracer* t,
            CommitTally& tally, Report& r) {
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  for (std::size_t n = 0; n < min_commits || Clock::now() < deadline; ++n, ++next) {
    commit_edit(session, edits[next % edits.size()], mirror, t,
                static_cast<std::uint32_t>(next), tally, r);
  }
  tally.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
}

/// The end-of-run check: a fresh analyser built from the session's edit
/// history reproduces the published `summary` reply.
void check_fresh(Session& session, Report& r) {
  HummingbirdOptions opt;
  opt.delay_adjust = session.delay_adjust_history();
  Hummingbird fresh(session.design(), session.clocks(), opt);
  const Algorithm1Result res = fresh.analyze();
  const std::shared_ptr<const AnalysisSnapshot> live = session.snapshot();
  const auto snap = take_snapshot(fresh.engine(), res, live->id, 32,
                                  build_name_index(fresh.graph()));
  BudgetTimer t1{AnalysisBudget{}}, t2{AnalysisBudget{}};
  const ParsedQuery q = parse_query("summary");
  if (to_wire(evaluate_snapshot_read(q, *snap, t1)) !=
      to_wire(evaluate_snapshot_read(q, *live, t2))) {
    r.mismatch("fresh analysis of the edit history differs from the published summary");
  }
}

}  // namespace

Report run_whatif_commit(const Options& o) {
  Report r;
  namespace fs = std::filesystem;
  const std::string store_dir = o.work_dir + "/whatif-store";
  Samples setup_s;
  std::unique_ptr<Live> s;
  const auto time_set_ups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      s.reset();
      fs::remove_all(store_dir);
      const auto t0 = Clock::now();
      s = set_up(store_dir);
      setup_s.add(ms_since(t0) / 1000.0);
    }
  };
  time_set_ups(o.trace ? 1 : kSetups / 2);
  Session& session = *s->session;
  const Streams st = make_streams(session, o.seed);
  r.fact("cells", static_cast<double>(session.design().total_cell_count()));
  r.fact("named_nodes", static_cast<double>(st.names.size()));
  r.fact("threads", kPoolThreads + kReaders);
  r.fact("clients", kReaders + 1);
  r.fact("kernel", active_kernel_name());

  Tracer probe("probe");
  std::unique_ptr<CommitMirror> mirror;
  if (o.trace) {
    // Probes before the readers start: the sign-off calls on this design,
    // the pool speed-up, and the store's load path.
    probe_signoff(session.design(), session.clocks(), probe, r);
    probe_pool(session.design(), session.clocks(), probe, r);
    mirror = std::make_unique<CommitMirror>(session.design(), session.clocks(),
                                            kPoolThreads, o.work_dir + "/whatif-mirror");
    for (int i = 0; i < 3; ++i) {
      probe_remap(*s->host->store(), st.names[i * 97 % st.names.size()], probe, 20);
    }
  }

  std::atomic<int> phase{kWarm};
  ReadTally tallies[kReaders][3];
  std::vector<std::unique_ptr<Tracer>> reader_t;
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    reader_t.push_back(std::make_unique<Tracer>("reader" + std::to_string(c)));
    readers.emplace_back(reader, std::ref(*s->host), std::ref(session),
                         std::cref(st.mixes[static_cast<std::size_t>(c)]),
                         std::cref(phase), tallies[c],
                         o.trace ? reader_t.back().get() : nullptr);
  }

  Tracer main_t("writer");
  std::size_t next = 0;
  CommitTally warm, traced(kCountedCommits), plain;
  try {
    writer(session, st.edits, next, 0, 3, mirror.get(), &main_t, warm, r);
    const std::uint64_t hits0 = session.metrics().cache_hits();
    const std::uint64_t miss0 = session.metrics().cache_misses();
    phase = kTraced;
    if (o.trace) {
      writer(session, st.edits, next, o.traced_seconds(), kCountedCommits, mirror.get(),
             &main_t, traced, r);
      const double hits = static_cast<double>(session.metrics().cache_hits() - hits0);
      const double miss = static_cast<double>(session.metrics().cache_misses() - miss0);
      r.set("service.cache_hit_ratio", hits / (hits + miss), "ratio",
            static_cast<std::uint64_t>(hits + miss));
      phase = kPlain;
      writer(session, st.edits, next, o.plain_seconds(), 0, nullptr, nullptr, plain, r);
    } else {
      // Untraced: the kTraced slot simply holds the measured window.
      writer(session, st.edits, next, o.seconds, 0, nullptr, nullptr, traced, r);
    }
  } catch (const std::exception& e) {
    r.mismatch(std::string("writer threw: ") + e.what());
  }
  phase = kStop;
  for (std::thread& th : readers) th.join();
  check_fresh(session, r);

  ReadTally reads[3];
  for (int c = 0; c < kReaders; ++c) {
    for (int ph = kTraced; ph <= kPlain; ++ph) {
      reads[ph].hist.merge(tallies[c][ph].hist);
      reads[ph].replies += tallies[c][ph].replies;
      reads[ph].errors += tallies[c][ph].errors;
      reads[ph].replay_ms += tallies[c][ph].replay_ms;
      reads[ph].replayed_reply_ms += tallies[c][ph].replayed_reply_ms;
    }
  }
  for (int ph = kTraced; ph <= kPlain; ++ph) {
    r.attempted += reads[ph].replies;
    r.failed += reads[ph].errors;
    if (reads[ph].errors > 0) r.correct = false;
  }
  const ReadTally& rd = reads[kTraced];
  r.fact("commits", static_cast<double>(traced.commit_ms.size()));
  r.fact("replies", static_cast<double>(rd.replies));
  r.fact("replies_per_s", static_cast<double>(rd.replies) / traced.wall_s);
  r.fact("cache_hit_rate", session.metrics().cache_hit_rate());

  if (!o.trace) {
    time_set_ups(kSetups - kSetups / 2);  // replaces the measured session
    r.set("setup_s", setup_s.median(), "s", setup_s.size());
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.latency("refresh_ms", traced.commit_ms, "ms");
    r.latency_ns("reply_us", rd.hist, 1e-3, "us");
    r.set("served_per_s",
          static_cast<double>(rd.replies + traced.writes) / traced.wall_s, "1/s",
          rd.replies + traced.writes);
    return r;
  }

  pass_metrics(r, traced.slack_evals, traced.stats, traced.counted);
  r.set("service.image_kb", static_cast<double>(traced.image_bytes) / 1024.0, "count");
  r.set("service.commit_unattributed_ms", traced.unattributed_ms.median(), "ms",
        traced.unattributed_ms.size());
  std::vector<const Tracer*> natural = {&main_t};
  for (const auto& t : reader_t) natural.push_back(t.get());
  layer_metrics(r, natural, {&probe});
  r.set("trace.coverage", traced.coverage.median(), "ratio", traced.coverage.size());
  r.set("trace.overhead", traced.commit_ms.median() / plain.commit_ms.median() - 1, "ratio",
        traced.commit_ms.size());
  r.fact("reader_replay_coverage", rd.replay_ms / rd.replayed_reply_ms);
  r.fact("reader_overhead",
         (static_cast<double>(reads[kPlain].replies) / plain.wall_s) /
                 (static_cast<double>(rd.replies) / traced.wall_s) - 1);
  if (!o.trace_file.empty()) {
    std::vector<const Tracer*> all = natural;
    all.push_back(&probe);
    write_trace(o.trace_file, all);
  }
  return r;
}

}  // namespace perfbench
