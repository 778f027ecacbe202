// Query-service throughput and what-if latency.
//
// Scenario: one Session over the largest generated random network, hammered
// by 1/4/8 client threads issuing a realistic read mix (summary,
// worst_paths, histogram, slack over a rotating node set), then a what-if
// loop (set_delay + commit) running under 4 concurrent readers.  Each
// thread-count run uses a fresh session.  Every text read is evaluated
// against the published snapshot; only binary connections replay replies
// (the per-connection typed-frame cache).
// Both figures swing widely between back-to-back runs of one binary, so
// each is measured `runs` times and reported as the median with its
// quartiles.
//
// Two read-path measurements ride along (docs/SERVICE.md):
//   * proto1 vs proto2 — the same hot read mix through one text-protocol
//     connection and one binary-protocol connection against the same host,
//     in interleaved rounds so frequency scaling hits both sides equally;
//   * warm restart — time to the first served query through the mmap'd
//     SnapshotView (map_file + evaluate `summary`), and to the first
//     `slack` (which builds the view's name table), each checked against
//     the live snapshot's reply.
//
// Writes BENCH_service.json.  `hardware_threads` records the machine the
// numbers came from: read scaling across client threads is limited by the
// cores available (a 1-core container serialises every client).
// `--quick` shrinks every iteration and run count for the CI perf-smoke
// schema check; the JSON records which mode produced it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "service/proto2.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot_read.hpp"
#include "service/snapshot_source.hpp"
#include "service/snapshot_store.hpp"
#include "service/snapshot_view.hpp"
#include "util/time.hpp"

namespace hb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::shared_ptr<Session> make_bench_session() {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 8;
  spec.bank_width = 10;
  spec.gates_per_stage = 220;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  return std::make_shared<Session>(std::move(net.design), std::move(net.clocks));
}

/// The per-client read mix, parameterised by iteration so slack queries
/// rotate through the node set.
std::string read_query(const std::vector<std::string>& nodes, int k) {
  switch (k % 4) {
    case 0: return "summary";
    case 1: return "worst_paths 8";
    case 2: return "histogram 8";
    default:
      return "slack " + nodes[static_cast<std::size_t>(k / 4) % nodes.size()];
  }
}

struct ThroughputResult {
  int clients = 0;
  double qps = 0;
};

/// Median and quartiles of repeated runs (linear interpolation).
struct Spread {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double x = p * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(x);
    if (i + 1 >= v.size()) return v.back();
    return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
  };
  return Spread{at(0.25), at(0.5), at(0.75)};
}

std::string spread_json(const Spread& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"q1\": %.2f, \"median\": %.2f, \"q3\": %.2f}", s.q1,
                s.median, s.q3);
  return buf;
}

struct SnapshotCodecResult {
  std::size_t image_bytes = 0;
  double serialize_mb_s = 0;  // MB/s through serialize_snapshot
  double attach_mb_s = 0;     // MB/s through SnapshotView::attach (validated)
};

/// Serialise throughput of the persistence codec, and validation plus
/// indexing throughput of the view, over the bench session's fully
/// captured snapshot — the cost of one store save and one warm-restart
/// load, minus the disk.
SnapshotCodecResult measure_snapshot_codec(int iters) {
  auto session = make_bench_session();
  const AnalysisSnapshot& snap = *session->snapshot();
  SnapshotCodecResult r;

  std::string image;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) image = serialize_snapshot(snap);
  const double ser_s = seconds_since(start);
  r.image_bytes = image.size();
  r.serialize_mb_s =
      static_cast<double>(image.size()) * iters / ser_s / 1e6;

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const SnapshotView::MapResult m = SnapshotView::attach(image);
    if (!m.ok()) {
      std::printf("snapshot attach failed: %s\n", m.error.c_str());
      std::exit(1);
    }
  }
  const double attach_s = seconds_since(start);
  r.attach_mb_s = static_cast<double>(image.size()) * iters / attach_s / 1e6;
  return r;
}

ThroughputResult measure_reads(int clients, int queries_per_client) {
  auto session = make_bench_session();
  std::vector<std::string> nodes;
  for (const auto& [name, node] : session->snapshot()->names->node_by_name) {
    nodes.push_back(name);
    if (nodes.size() == 256) break;
  }
  std::sort(nodes.begin(), nodes.end());  // deterministic rotation order

  auto client = [&](int offset) {
    for (int k = 0; k < queries_per_client; ++k) {
      session->execute(read_query(nodes, k + offset));
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, 17 * c);
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(start);

  ThroughputResult r;
  r.clients = clients;
  r.qps = static_cast<double>(clients) * queries_per_client / elapsed;
  return r;
}

struct WhatIfResult {
  double mean_us = 0;
  double p50_us = 0;
  double max_us = 0;
};

WhatIfResult measure_whatif(int readers, int commits) {
  auto session = make_bench_session();
  std::vector<std::string> comb;
  for (const Instance& inst : session->design().top().insts()) {
    if (inst.is_cell() &&
        !session->design().lib().cell(inst.cell).is_sequential()) {
      comb.push_back(inst.name);
      if (comb.size() == 32) break;
    }
  }
  std::vector<std::string> nodes;
  for (const auto& [name, node] : session->snapshot()->names->node_by_name) {
    nodes.push_back(name);
    if (nodes.size() == 64) break;
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      for (int k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        session->execute(read_query(nodes, k + 17 * c));
      }
    });
  }

  std::vector<double> latency_us;
  latency_us.reserve(static_cast<std::size_t>(commits));
  for (int k = 0; k < commits; ++k) {
    const std::string& inst = comb[static_cast<std::size_t>(k) % comb.size()];
    session->execute("set_delay " + inst + (k % 2 == 0 ? " 5" : " -5"));
    const auto start = std::chrono::steady_clock::now();
    session->execute("commit");
    latency_us.push_back(1e6 * seconds_since(start));
  }
  stop = true;
  for (std::thread& t : threads) t.join();

  WhatIfResult r;
  std::sort(latency_us.begin(), latency_us.end());
  for (double v : latency_us) r.mean_us += v;
  r.mean_us /= static_cast<double>(latency_us.size());
  r.p50_us = latency_us[latency_us.size() / 2];
  r.max_us = latency_us.back();
  return r;
}

struct ProtocolCompareResult {
  int queries_per_side = 0;
  double proto1_qps = 0;
  double proto2_qps = 0;
  double speedup = 0;
};

/// The same hot read mix through one text connection and one already
/// negotiated binary connection on the same host.  Rounds interleave so
/// both protocols see the same machine state; requests are pre-rendered so
/// only the serving path is on the clock.  After the warm-up every binary
/// reply is replayed from the connection's typed-frame cache, while every
/// text reply is evaluated.
ProtocolCompareResult measure_protocols(int rounds, int queries_per_round) {
  ServiceHost host;
  host.adopt(make_bench_session());
  std::vector<std::string> nodes;
  for (const auto& [name, node] :
       host.session()->snapshot()->names->node_by_name) {
    nodes.push_back(name);
    if (nodes.size() == 64) break;
  }
  std::sort(nodes.begin(), nodes.end());

  std::vector<std::string> lines;
  std::vector<std::string> payloads;  // proto2 frame payloads, sans prefix
  for (int k = 0; k < queries_per_round; ++k) {
    lines.push_back(read_query(nodes, k));
    const ParsedQuery q = parse_query(lines.back());
    std::string frame;
    if (!q.ok || !proto2_encode_request(q, frame)) {
      std::printf("no typed encoding for '%s'\n", lines.back().c_str());
      std::exit(1);
    }
    payloads.push_back(std::string(std::string_view(frame).substr(4)));
  }

  ProtocolHandler h1(host);
  ProtocolHandler h2(host);
  if (h2.handle_line("proto 2") != "ok proto 2\n") {
    std::printf("proto 2 negotiation failed\n");
    std::exit(1);
  }
  // Warm both connections: typed-frame cache filled, arenas grown.
  for (const std::string& l : lines) h1.handle_line(l);
  for (const std::string& p : payloads) h2.handle_frame(p);

  double t1 = 0, t2 = 0;
  std::size_t sink = 0;
  for (int r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (const std::string& l : lines) sink += h1.handle_line(l).size();
    t1 += seconds_since(start);
    start = std::chrono::steady_clock::now();
    for (const std::string& p : payloads) sink += h2.handle_frame(p).size();
    t2 += seconds_since(start);
  }
  if (sink == 0) std::printf("empty replies\n");

  ProtocolCompareResult r;
  r.queries_per_side = rounds * queries_per_round;
  r.proto1_qps = r.queries_per_side / t1;
  r.proto2_qps = r.queries_per_side / t2;
  r.speedup = r.proto2_qps / r.proto1_qps;
  return r;
}

struct WarmRestartResult {
  std::size_t image_bytes = 0;
  double view_first_query_us = 0;
  double view_first_slack_us = 0;
  double view_mb_s = 0;
};

/// Warm-restart cost to the first served reply: map_file, then evaluate
/// `summary` through the view; and map_file, then a first `slack <node>`,
/// which also builds the view's name table.  Fresh mapping every iteration,
/// the two measurements alternating; the file stays in page cache, so this
/// is validation and indexing, not disk.  Each reply is checked against
/// the live snapshot's.
WarmRestartResult measure_warm_restart(int iters) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "hb-bench-warm").string();
  fs::remove_all(dir);
  SnapshotStore store({dir, 2});
  const ParsedQuery summary = parse_query("summary");
  ParsedQuery slack;
  std::string path;
  std::string live_summary;
  std::string live_slack;
  {
    auto session = make_bench_session();
    const SnapshotStore::SaveResult save = store.save(*session->snapshot());
    if (!save.ok) {
      std::printf("snapshot save failed: %s\n", save.error.c_str());
      std::exit(1);
    }
    path = save.path;
    const std::vector<std::string>& names =
        session->snapshot()->names->node_names;
    slack = parse_query("slack " + names[names.size() / 2]);
    const SnapshotCopySource live(*session->snapshot());
    BudgetTimer timer{AnalysisBudget{}};
    live_summary = to_wire(evaluate_snapshot_read(summary, live, timer));
    live_slack = to_wire(evaluate_snapshot_read(slack, live, timer));
  }

  WarmRestartResult r;
  // Seconds for map_file plus the first reply to `q`.
  const auto first_reply_s = [&](const ParsedQuery& q,
                                 const std::string& want) {
    const auto start = std::chrono::steady_clock::now();
    const SnapshotView::MapResult mr = SnapshotView::map_file(path);
    if (!mr.ok()) {
      std::printf("view map failed: %s\n", mr.error.c_str());
      std::exit(1);
    }
    BudgetTimer timer{AnalysisBudget{}};
    const std::string reply =
        to_wire(evaluate_snapshot_read(q, *mr.view, timer));
    const double s = seconds_since(start);
    r.image_bytes = mr.view->image_bytes();
    if (reply != want) {
      std::printf("view reply diverged from the live snapshot's reply\n");
      std::exit(1);
    }
    return s;
  };
  double summary_s = 0;
  double slack_s = 0;
  for (int i = -1; i < iters; ++i) {  // iteration -1 is the warm-up
    const double a = first_reply_s(summary, live_summary);
    const double b = first_reply_s(slack, live_slack);
    if (i < 0) continue;
    summary_s += a;
    slack_s += b;
  }
  fs::remove_all(dir);

  r.view_first_query_us = 1e6 * summary_s / iters;
  r.view_first_slack_us = 1e6 * slack_s / iters;
  r.view_mb_s = static_cast<double>(r.image_bytes) / (summary_s / iters) / 1e6;
  return r;
}

}  // namespace
}  // namespace hb

int main(int argc, char** argv) {
  using namespace hb;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int runs = quick ? 2 : 5;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u%s, %d runs per noisy figure\n", hw,
              quick ? " (quick mode)" : "", runs);
  std::printf("%4s %8s %12s\n", "run", "clients", "queries/s");

  // reads[run][k]: clients 1, 4, 8.
  std::vector<std::vector<ThroughputResult>> reads(runs);
  std::vector<double> scalings;
  for (int run = 0; run < runs; ++run) {
    for (int clients : {1, 4, 8}) {
      reads[run].push_back(measure_reads(clients, quick ? 400 : 4000));
      const ThroughputResult& r = reads[run].back();
      std::printf("%4d %8d %12.0f\n", run, r.clients, r.qps);
    }
    scalings.push_back(reads[run].back().qps / reads[run].front().qps);
  }
  const Spread scaling = spread_of(scalings);
  std::printf("read throughput scaling 1 -> 8 clients: median %.2fx "
              "(quartiles %.2f-%.2f)\n",
              scaling.median, scaling.q1, scaling.q3);

  const int commits = quick ? 8 : 40;
  std::vector<double> commit_p50, commit_mean, commit_max;
  for (int run = 0; run < runs; ++run) {
    const WhatIfResult w = measure_whatif(4, commits);
    commit_p50.push_back(w.p50_us);
    commit_mean.push_back(w.mean_us);
    commit_max.push_back(w.max_us);
  }
  const Spread p50 = spread_of(commit_p50);
  std::printf(
      "what-if commit under 4 readers: p50 median %.0f us (quartiles "
      "%.0f-%.0f), %d commits per run\n",
      p50.median, p50.q1, p50.q3, commits);

  const SnapshotCodecResult codec = measure_snapshot_codec(quick ? 3 : 20);
  std::printf(
      "snapshot codec (%zu byte image): serialize %.0f MB/s, attach %.0f "
      "MB/s\n",
      codec.image_bytes, codec.serialize_mb_s, codec.attach_mb_s);

  const ProtocolCompareResult proto =
      measure_protocols(quick ? 20 : 200, 64);
  std::printf(
      "protocol compare (%d queries/side): proto1 %.0f q/s, proto2 %.0f q/s, "
      "%.2fx\n",
      proto.queries_per_side, proto.proto1_qps, proto.proto2_qps,
      proto.speedup);

  const WarmRestartResult warm = measure_warm_restart(quick ? 5 : 15);
  std::printf(
      "warm restart to first query (%zu byte image): view %.0f us "
      "(%.0f MB/s), to first slack %.0f us\n",
      warm.image_bytes, warm.view_first_query_us, warm.view_mb_s,
      warm.view_first_slack_us);

  FILE* json = std::fopen("BENCH_service.json", "w");
  std::fprintf(json,
               "{\n  \"hardware_threads\": %u,\n  \"threads_used\": %u,\n"
               "  \"quick\": %s,\n  \"runs\": %d,\n"
               "  \"read_throughput\": [\n",
               hw, hw > 0 ? hw : 1, quick ? "true" : "false", runs);
  // Per client count: the median run's throughput.
  for (std::size_t k = 0; k < reads[0].size(); ++k) {
    std::vector<double> qps;
    for (const std::vector<ThroughputResult>& run : reads) {
      qps.push_back(run[k].qps);
    }
    std::fprintf(json,
                 "    {\"clients\": %d, \"queries_per_second\": %s}%s\n",
                 reads[0][k].clients, spread_json(spread_of(qps)).c_str(),
                 k + 1 < reads[0].size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"read_scaling_1_to_8\": %s,\n"
               "  \"whatif_commit_under_4_readers\": {\"p50_us\": %s, "
               "\"mean_us\": %s, \"max_us\": %s, \"commits\": %d},\n"
               "  \"snapshot_codec\": {\"image_bytes\": %zu, "
               "\"serialize_mb_s\": %.1f, \"attach_mb_s\": %.1f},\n",
               spread_json(scaling).c_str(), spread_json(p50).c_str(),
               spread_json(spread_of(commit_mean)).c_str(),
               spread_json(spread_of(commit_max)).c_str(), commits,
               codec.image_bytes, codec.serialize_mb_s, codec.attach_mb_s);
  std::fprintf(json,
               "  \"proto2\": {\"queries_per_side\": %d, "
               "\"proto1_qps\": %.0f, \"proto2_qps\": %.0f, "
               "\"speedup\": %.2f, "
               "\"verbs\": [\"summary\", \"worst_paths\", \"histogram\", "
               "\"slack\"]},\n"
               "  \"warm_restart\": {\"image_bytes\": %zu, "
               "\"view_first_query_us\": %.1f, "
               "\"view_first_slack_us\": %.1f, \"view_mb_s\": %.1f}"
               "\n}\n",
               proto.queries_per_side, proto.proto1_qps, proto.proto2_qps,
               proto.speedup, warm.image_bytes, warm.view_first_query_us,
               warm.view_first_slack_us, warm.view_mb_s);
  std::fclose(json);
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
