// replica_reads: a read-only replica host over the snapshot image a
// random_large session saved during set-up, serving three closed-loop
// binary-protocol (proto2) connections.  Connection 0 also remaps every
// kRemapEvery requests: `snapshot load`, which maps the newest generation,
// then one `slack` read, the first on the new view, which pays the view's
// deferred name sort.  The only workload on the mmap'd SnapshotView, the
// store's load path and the typed-frame reply cache; no analysis runs in it.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "service/proto2.hpp"
#include "service/protocol.hpp"
#include "sta/analysis_pass.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hb;

namespace {

constexpr int kConns = 3;
constexpr std::size_t kMixLen = 1 << 16;
// Connection 0's requests per remap.  A remap replaces the served view,
// which empties every connection's typed-frame cache, so the spacing sets
// both the cache hit share and the share of connection 0's time spent
// remapping; both are printed as facts, and README.md ("Remap spacing")
// gives the measurement behind the value.
constexpr std::size_t kRemapEvery = 40000;
constexpr std::size_t kFirstSlacks = 64;   // seeded slack reads after remaps
constexpr std::size_t kCheckEvery = 1024;  // replies rendered and compared
constexpr std::size_t kReplayEvery = 64;   // traced: sampled replays
// ProtocolHandler keeps at most this many typed reply frames per
// connection and drops them all when the served source changes.
constexpr std::size_t kFrameCacheCap = 4096;

/// What one timed set-up builds.
struct Replica {
  std::shared_ptr<Session> saver;  // dropped after set-up (kept for probes)
  std::unique_ptr<ServiceHost> host;
};

/// The connections' seeded requests and the saving session's text replies
/// to check against.  They depend only on the seed and the node names, so
/// they are built once, after the timed set-ups.
struct Requests {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> lines;     // per connection
  std::vector<std::vector<std::string>> payloads;  // proto2 payloads of `lines`
  std::vector<std::vector<std::uint32_t>> keys;    // distinct-payload ids of `lines`
  std::vector<std::vector<std::string>> refs;      // every kCheckEvery-th reply
  std::string remap_payload;
  std::vector<std::string> first_payloads;  // the slack read after a remap
  std::vector<std::uint32_t> first_keys;
  std::vector<std::string> first_refs;
  std::size_t distinct = 0;
};

std::string payload_of(const std::string& line) {
  std::string frame;
  const ParsedQuery q = parse_query(line);
  if (!q.ok || !proto2_encode_request(q, frame)) proto2_encode_text(line, frame);
  return frame.substr(4);
}

/// The timed set-up: the network, the saving session's first analysis and
/// captures, one store save, and the replica host mapping the image.
std::unique_ptr<Replica> set_up(const std::string& store_dir, Report& r) {
  auto s = std::make_unique<Replica>();
  Network net = make_random_large();
  s->saver = std::make_shared<Session>(std::move(net.design), std::move(net.clocks),
                                       HummingbirdOptions{}, whatif_session_options(1));
  {
    SnapshotStore store({store_dir, 4});
    if (!store.save(*s->saver->snapshot()).ok) r.mismatch("set-up snapshot save failed");
  }
  ServiceConfig rc;
  rc.snapshot_dir = store_dir;
  rc.replica = true;
  s->host = std::make_unique<ServiceHost>(rc);
  return s;
}

Requests make_requests(Session& saver, std::uint64_t seed) {
  Requests q;
  q.names = node_names(*saver.snapshot());
  std::unordered_map<std::string, std::uint32_t> ids;
  const auto key_of = [&ids](const std::string& payload) {
    return ids.emplace(payload, static_cast<std::uint32_t>(ids.size())).first->second;
  };
  for (int c = 0; c < kConns; ++c) {
    std::vector<std::string> lines =
        read_mix(q.names, seed * 1000003 + 17 + static_cast<std::uint64_t>(c), kMixLen);
    std::vector<std::string> payloads, refs;
    std::vector<std::uint32_t> keys;
    payloads.reserve(kMixLen);
    keys.reserve(kMixLen);
    for (std::size_t i = 0; i < kMixLen; ++i) {
      payloads.push_back(payload_of(lines[i]));
      keys.push_back(key_of(payloads.back()));
      if (i % kCheckEvery == 0) refs.push_back(to_wire(saver.execute(lines[i])));
    }
    q.lines.push_back(std::move(lines));
    q.payloads.push_back(std::move(payloads));
    q.keys.push_back(std::move(keys));
    q.refs.push_back(std::move(refs));
  }
  q.remap_payload = payload_of("snapshot load");
  Rng rng(seed * 1000003 + 29);
  for (std::size_t k = 0; k < kFirstSlacks; ++k) {
    const std::string line = "slack " + q.names[rng.pick(q.names.size())];
    q.first_payloads.push_back(payload_of(line));
    q.first_keys.push_back(key_of(q.first_payloads.back()));
    q.first_refs.push_back(to_wire(saver.execute(line)));
  }
  q.distinct = ids.size();
  return q;
}

/// Which replies ProtocolHandler's typed-frame cache serves, by its rule:
/// a successful reply is kept while fewer than kFrameCacheCap are, and all
/// are dropped when the served source changes, here at every remap.  The
/// handler exposes no hit counter, so each connection replays the rule.
class FrameCacheModel {
 public:
  explicit FrameCacheModel(std::size_t distinct) : cached_in_(distinct, 0) {}
  /// Before each request: the number of remaps made so far.
  void sync(std::uint64_t remaps) {
    if (remaps + 1 != epoch_) {
      epoch_ = remaps + 1;
      size_ = 0;
    }
  }
  /// Whether the request with distinct-payload id `key` is a hit.
  bool serve(std::uint32_t key) {
    if (cached_in_[key] == epoch_) return true;
    if (size_ < kFrameCacheCap) {
      cached_in_[key] = epoch_;
      ++size_;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> cached_in_;  // epoch a payload was cached in; 0: never
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
};

enum Phase : int { kWarm = 0, kTraced = 1, kPlain = 2, kStop = 3 };

struct ConnTally {
  LatencyHist hist;
  Samples remap_ms;
  std::uint64_t requests = 0;  // replies, plus two per remap
  std::uint64_t replies = 0;
  std::uint64_t cache_hits = 0;  // by FrameCacheModel
  std::uint64_t errors = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  double replay_ms = 0;
  double replayed_reply_ms = 0;
};

void connection(int c, const Requests& q, ServiceHost& host,
                std::atomic<std::uint64_t>& remaps, const std::atomic<int>& phase,
                ConnTally* tallies, Tracer* t) {
  ProtocolHandler h(host);
  if (h.handle_line("proto 2") != "ok proto 2\n") {
    ++tallies[kTraced].errors;
    return;
  }
  const std::size_t ci = static_cast<std::size_t>(c);
  const std::vector<std::string>& payloads = q.payloads[ci];
  const std::vector<std::uint32_t>& keys = q.keys[ci];
  const std::vector<std::string>& lines = q.lines[ci];
  const std::vector<std::string>& refs = q.refs[ci];
  FrameCacheModel cache(q.distinct);
  std::string text, remap_reply;
  std::uint32_t op = 0;
  std::size_t remap_no = 0;
  // Reply frames carry a 4-byte length prefix, then the status byte.
  const auto render = [&text](const std::string& frame) {
    text.clear();
    return frame.size() > 4 && proto2_render_payload(std::string_view(frame).substr(4), text);
  };
  try {
    for (std::size_t i = 0;; ++i) {
      const int ph = phase.load(std::memory_order_relaxed);
      if (ph == kStop) break;
      ConnTally& tally = tallies[ph];
      cache.sync(remaps.load(std::memory_order_relaxed));
      if (c == 0 && i % kRemapEvery == kRemapEvery - 1) {
        const std::size_t f = remap_no++ % kFirstSlacks;
        const auto t0 = Clock::now();
        remap_reply = h.handle_frame(q.remap_payload);
        remaps.fetch_add(1, std::memory_order_relaxed);
        const std::string& frame = h.handle_frame(q.first_payloads[f]);
        const double ms = ms_since(t0);
        cache.sync(remaps.load(std::memory_order_relaxed));
        cache.serve(q.first_keys[f]);
        tally.requests += 2;
        if (!render(remap_reply) || text.compare(0, 16, "ok snapshot load") != 0) {
          ++tally.errors;
        }
        ++tally.checked;
        if (!render(frame) || text != q.first_refs[f]) ++tally.mismatched;
        if (ph == kWarm) continue;
        tally.remap_ms.add(ms);
        if (ph == kTraced && t != nullptr) {
          probe_remap(*host.store(), q.names[i % q.names.size()], *t, op++);
        }
        continue;
      }
      const std::size_t k = i & (kMixLen - 1);
      const auto t0 = Clock::now();
      const std::string& frame = h.handle_frame(payloads[k]);
      const auto t1 = Clock::now();
      const bool hit = cache.serve(keys[k]);
      ++tally.requests;
      if (frame.size() < 5 || frame[4] == static_cast<char>(Proto2Status::kError)) {
        ++tally.errors;
      }
      if (k % kCheckEvery == 0) {
        ++tally.checked;
        if (!render(frame) || text != refs[k / kCheckEvery]) ++tally.mismatched;
      }
      if (ph == kWarm) continue;
      const std::uint64_t ns =
          static_cast<std::uint64_t>(std::chrono::nanoseconds(t1 - t0).count());
      tally.hist.add_ns(ns);
      ++tally.replies;
      if (hit) ++tally.cache_hits;
      if (ph == kTraced && t != nullptr && i % kReplayEvery == 1) {
        tally.replay_ms +=
            replay_frame_read(payloads[k], lines[k], *host.warm_source(), *t, op++);
        tally.replayed_reply_ms += 1e-6 * static_cast<double>(ns);
      }
    }
  } catch (const std::exception&) {
    ++tallies[kTraced].errors;  // the connection stops; the run reports the failure
  }
}

/// Probes on the saving session's design: the sign-off calls, a few
/// mirrored commits and the session cache, before the session is dropped.
void probe_layers(Session& session, const Requests& q, const Options& o, Tracer& probe,
                  Report& r) {
  probe_signoff(session.design(), session.clocks(), probe, r);
  probe_pool(session.design(), session.clocks(), probe, r);
  SnapshotStore store({o.work_dir + "/replica-probe-store", 2});
  probe_commits(session, store, 1, o.work_dir + "/replica-mirror", o.seed, 16, probe, r);
  for (std::size_t i = 0; i < 20000; ++i) session.execute(q.lines[0][i]);
  r.set("service.cache_hit_ratio", session.metrics().cache_hit_rate(), "ratio", 20000,
        "probe");
}

}  // namespace

Report run_replica_reads(const Options& o) {
  Report r;
  namespace fs = std::filesystem;
  const std::string store_dir = o.work_dir + "/replica-store";
  Samples setup_s;
  std::unique_ptr<Replica> s;
  const auto time_set_ups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      s.reset();
      fs::remove_all(store_dir);
      const auto t0 = Clock::now();
      s = set_up(store_dir, r);
      setup_s.add(ms_since(t0) / 1000.0);
    }
  };
  time_set_ups(o.trace ? 1 : kSetups / 2);
  if (!s->host->warm_mapped()) r.mismatch("replica is not serving a mapped view");
  const Requests q = make_requests(*s->saver, o.seed);
  Tracer probe("probe");
  if (o.trace) probe_layers(*s->saver, q, o, probe, r);
  r.fact("cells", static_cast<double>(s->saver->design().total_cell_count()));
  s->saver.reset();
  r.fact("named_nodes", static_cast<double>(q.names.size()));
  r.fact("distinct_requests", static_cast<double>(q.distinct));
  r.fact("threads", kConns);
  r.fact("clients", kConns);
  r.fact("kernel", active_kernel_name());

  std::atomic<int> phase{kWarm};
  std::atomic<std::uint64_t> remaps{0};
  ConnTally tallies[kConns][3];  // by phase, kWarm..kPlain
  std::vector<std::unique_ptr<Tracer>> conn_t;
  std::vector<std::thread> conns;
  for (int c = 0; c < kConns; ++c) {
    conn_t.push_back(std::make_unique<Tracer>("conn" + std::to_string(c)));
    conns.emplace_back(connection, c, std::cref(q), std::ref(*s->host), std::ref(remaps),
                       std::cref(phase), tallies[c],
                       o.trace ? conn_t.back().get() : nullptr);
  }
  const auto sleep_for = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  sleep_for(0.5);
  auto start = Clock::now();
  phase = kTraced;
  sleep_for(o.trace ? o.traced_seconds() : o.seconds);
  const double measured_s = std::chrono::duration<double>(Clock::now() - start).count();
  double plain_s = 0;
  if (o.trace) {
    start = Clock::now();
    phase = kPlain;
    sleep_for(o.plain_seconds());
    plain_s = std::chrono::duration<double>(Clock::now() - start).count();
  }
  phase = kStop;
  for (std::thread& th : conns) th.join();

  ConnTally sum[3];
  for (int c = 0; c < kConns; ++c) {
    for (int ph = kWarm; ph <= kPlain; ++ph) {
      const ConnTally& t = tallies[c][ph];
      sum[ph].hist.merge(t.hist);
      sum[ph].remap_ms.append(t.remap_ms);
      sum[ph].requests += t.requests;
      sum[ph].replies += t.replies;
      sum[ph].cache_hits += t.cache_hits;
      sum[ph].errors += t.errors;
      sum[ph].checked += t.checked;
      sum[ph].mismatched += t.mismatched;
      sum[ph].replay_ms += t.replay_ms;
      sum[ph].replayed_reply_ms += t.replayed_reply_ms;
    }
  }
  for (int ph = kWarm; ph <= kPlain; ++ph) {
    r.attempted += sum[ph].requests;
    r.failed += sum[ph].errors + sum[ph].mismatched;
    if (sum[ph].errors + sum[ph].mismatched > 0) r.correct = false;
  }
  const std::uint64_t checked = sum[kWarm].checked + sum[kTraced].checked + sum[kPlain].checked;
  if (checked == 0) r.mismatch("no reply was checked against the saving session");
  const ConnTally& m = sum[kTraced];
  r.fact("replies", static_cast<double>(m.replies));
  r.fact("replies_checked", static_cast<double>(checked));
  r.fact("remaps", static_cast<double>(m.remap_ms.size()));
  // Connection 0 alone remaps: the share of its time.
  r.fact("remap_share", m.remap_ms.sum() / (1000 * measured_s));
  r.fact("frame_cache_hit_share", static_cast<double>(m.cache_hits) /
                                      static_cast<double>(std::max<std::uint64_t>(m.replies, 1)));
  r.fact("replies_per_s", static_cast<double>(m.replies) / measured_s);

  if (!o.trace) {
    time_set_ups(kSetups - kSetups / 2);  // replaces the measured host
    r.set("setup_s", setup_s.median(), "s", setup_s.size());
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.latency("refresh_ms", m.remap_ms, "ms");
    r.latency_ns("reply_us", m.hist, 1e-3, "us");
    r.set("served_per_s", static_cast<double>(m.requests) / measured_s, "1/s", m.requests);
    return r;
  }
  std::vector<const Tracer*> natural;
  for (const auto& t : conn_t) natural.push_back(t.get());
  layer_metrics(r, natural, {&probe});
  r.set("trace.coverage", m.replay_ms / m.replayed_reply_ms, "ratio");
  r.set("trace.overhead",
        (static_cast<double>(sum[kPlain].replies) / plain_s) /
                (static_cast<double>(m.replies) / measured_s) - 1,
        "ratio");
  if (!o.trace_file.empty()) {
    std::vector<const Tracer*> all = natural;
    all.push_back(&probe);
    write_trace(o.trace_file, all);
  }
  return r;
}

}  // namespace perfbench
