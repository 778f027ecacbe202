// Command-line driver: the shape of the tool a downstream flow would call
// in place of the original Hummingbird.
//
// One-shot analysis (legacy form): reads a netlist file and a timing
// specification (clocks + port arrivals/requireds), runs the analysis, and
// prints the report; optionally Algorithm 2 constraints and hold checks.
//
//   hummingbird_cli <netlist> <timing-spec> [--paths N] [--constraints]
//                   [--hold <margin>]
//
// BLIF frontend (docs/FRONTEND.md): `analyze` accepts either the native
// netlist format or BLIF (detected by the .blif extension, also honoured by
// the legacy form and the service `load` verb).  For BLIF inputs the timing
// spec is optional — without one, a simple staggered clock per `.clock`
// port is synthesised over --period:
//
//   hummingbird_cli analyze <netlist-or-blif> [<timing-spec>] [--period T]
//                   [one-shot flags]
//
// Query-service frontends (docs/SERVICE.md):
//
//   hummingbird_cli serve [<netlist> <timing-spec>] [--lib F] [--tcp PORT]
//                   [--snapshot-dir D] [--replica]
//     Line-protocol request loop on stdin/stdout; with --tcp also serves
//     the same protocol on 127.0.0.1:PORT (0 = ephemeral, port printed to
//     stderr).  Exits 3 when the initial load fails.  With --snapshot-dir
//     the host persists every published snapshot into D and, on restart,
//     answers read queries from the newest valid one before any design is
//     loaded (docs/SERVICE.md "Persistence & warm restart").  --replica
//     makes the host a read-only replica over the store: `load` is
//     disabled and reads answer from the mmap'd snapshot view
//     (docs/SERVICE.md "Replica mode").
//
//   hummingbird_cli query <netlist> <timing-spec> [--lib F] [--proto2]
//                   <query>...
//     One-shot: loads the design, executes each <query> argument as one
//     protocol line and prints the replies.  --proto2 negotiates the
//     binary protocol and round-trips every query through its typed
//     frames (replies re-rendered as text).  Exits 3 when any reply is an
//     error, 0 otherwise.
//
// Run without arguments to execute a built-in demo: the tool writes a small
// two-phase latch design and its spec to ./hummingbird_demo.* and analyses
// them.  `--help` prints this usage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "clocks/clock_io.hpp"
#include "gen/pipeline.hpp"
#include "netlist/blif_builder.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/library_io.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stdcells.hpp"
#include "scenario/corner_analysis.hpp"
#include "service/protocol.hpp"
#include "service/tcp_server.hpp"
#include "sta/hummingbird.hpp"
#include "sta/visualize.hpp"
#include "util/error.hpp"

namespace {

struct CliFlags {
  std::size_t max_paths = 10;
  bool want_constraints = false;
  bool want_hold = false;
  hb::TimePs hold_margin = 0;
  bool want_histogram = false;
  std::string dot_path;   // write a Graphviz view here when non-empty
  std::string lib_path;   // cell library file; built-in hbcells when empty
  std::string corners_path;  // corner-spec file (docs/SCENARIOS.md)
  int threads = 1;        // analysis workers; 0 = hardware concurrency
  hb::TimePs period = hb::ns(20);  // default-clock period for spec-less BLIF
};

/// Parse the shared one-shot flags starting at argv[start]; returns 0 or
/// the exit code on a usage error.
int parse_flags(int argc, char** argv, int start, CliFlags& flags) {
  for (int i = start; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paths") == 0 && i + 1 < argc) {
      flags.max_paths = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--constraints") == 0) {
      flags.want_constraints = true;
    } else if (std::strcmp(argv[i], "--hold") == 0 && i + 1 < argc) {
      flags.want_hold = true;
      flags.hold_margin = hb::parse_time(argv[++i]);
    } else if (std::strcmp(argv[i], "--histogram") == 0) {
      flags.want_histogram = true;
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      flags.dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lib") == 0 && i + 1 < argc) {
      flags.lib_path = argv[++i];
    } else if (std::strcmp(argv[i], "--corners") == 0 && i + 1 < argc) {
      flags.corners_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      flags.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--period") == 0 && i + 1 < argc) {
      flags.period = hb::parse_time(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  return 0;
}

/// Read and parse a corner-spec file; throws hb::Error on open or parse
/// failure (first error diagnostic, with its line/column).
hb::CornerSet load_corners(const std::string& path) {
  std::ifstream cf(path);
  if (!cf) hb::raise("cannot open corner spec '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(cf)),
                   std::istreambuf_iterator<char>());
  return hb::parse_corner_spec_or_throw(text);
}

int run(const std::string& netlist_path, const std::string& spec_path,
        const CliFlags& flags) {
  using namespace hb;
  std::shared_ptr<const Library> lib;
  if (flags.lib_path.empty()) {
    lib = make_standard_library();
  } else {
    std::ifstream lf(flags.lib_path);
    if (!lf) {
      std::fprintf(stderr, "cannot open library '%s'\n", flags.lib_path.c_str());
      return 2;
    }
    lib = load_library(lf);
  }

  std::ifstream nf(netlist_path);
  if (!nf) {
    std::fprintf(stderr, "cannot open netlist '%s'\n", netlist_path.c_str());
    return 2;
  }
  Design design =
      is_blif_path(netlist_path) ? load_blif(nf, lib) : load_netlist(nf, lib);

  TimingSpec spec;
  if (spec_path.empty()) {
    // Spec-less BLIF analysis: synthesise one staggered clock per `.clock`
    // port (throws when the design declares none).
    spec.clocks = default_blif_clocks(design, flags.period);
  } else {
    std::ifstream sf(spec_path);
    if (!sf) {
      std::fprintf(stderr, "cannot open timing spec '%s'\n", spec_path.c_str());
      return 2;
    }
    spec = load_timing_spec(sf);
  }

  HummingbirdOptions options;
  options.sync.input_arrivals = spec.input_arrivals;
  options.sync.output_requireds = spec.output_requireds;

  // --threads: one pool drives pass-level fan-out (one task per analysis
  // pass) and the corner sweep; results are identical at every thread count.
  std::unique_ptr<ThreadPool> pool;
  if (flags.threads != 1) {
    pool = std::make_unique<ThreadPool>(flags.threads);
    options.alg1.pool = pool.get();
  }

  Hummingbird analyser(design, spec.clocks, options);
  const Algorithm1Result result = analyser.analyze();

  std::printf("design %s: %zu cells, %zu nets, %zu clusters, %zu passes\n",
              design.name().c_str(), analyser.stats().cells, analyser.stats().nets,
              analyser.stats().clusters, analyser.stats().analysis_passes);
  std::printf("pre-process %.4f s, analysis %.4f s\n",
              analyser.stats().preprocess_seconds, analyser.stats().analysis_seconds);
  std::printf("%s", analyser.report(flags.max_paths).c_str());

  if (!flags.corners_path.empty()) {
    // Sign off the settled schedule under every corner in one K-lane sweep
    // (docs/SCENARIOS.md); the full path report prints for the worst corner.
    const CornerSet corners = load_corners(flags.corners_path);
    CornerAnalysis ca(analyser.engine(), corners);
    ca.compute(pool.get());
    const MergedSlack worst = ca.merged_worst_slack();
    std::printf("multi-corner analysis: %zu corner(s), worst corner %s\n",
                ca.num_corners(), corners.corner(worst.corner).name.c_str());
    const SyncModel& sync = analyser.sync_model();
    for (std::size_t k = 0; k < ca.num_corners(); ++k) {
      std::size_t violations = 0;
      for (std::size_t i = 0; i < sync.num_instances(); ++i) {
        const SyncId sid(static_cast<std::uint32_t>(i));
        if (!sync.at(sid).data_in.valid()) continue;
        const TimePs s = ca.capture_slack(k, sid);
        if (s < 0) ++violations;
      }
      const Corner& c = corners.corner(k);
      std::printf(
          "  corner %zu %-12s derate %u wire %u worst slack %s, "
          "%zu violation(s)\n",
          k, c.name.c_str(), c.derate_pm, c.wire_pm,
          format_time(ca.worst_terminal_slack(k)).c_str(), violations);
    }
    std::printf("worst-corner report (%s):\n%s",
                corners.corner(worst.corner).name.c_str(),
                ca.report(worst.corner, flags.max_paths).c_str());
  }

  if (flags.want_histogram) {
    std::printf("terminal slack histogram:\n%s",
                slack_histogram(analyser.engine()).c_str());
  }
  if (!flags.dot_path.empty()) {
    std::ofstream df(flags.dot_path);
    df << to_dot(analyser.engine());
    std::printf("wrote %s\n", flags.dot_path.c_str());
  }

  if (flags.want_constraints && !result.works_as_intended) {
    const ConstraintSet cs = analyser.generate_constraints();
    std::printf("re-synthesis constraints for violating endpoints:\n");
    const TimingGraph& graph = analyser.graph();
    for (std::uint32_t n = 0; n < graph.num_nodes(); ++n) {
      const ConstraintTimes& ct = cs.at(TNodeId(n));
      if (!ct.has_ready || !ct.has_required || ct.slack > 0) continue;
      std::printf("  %-24s ready %-10s required %-10s slack %s\n",
                  graph.node_name(TNodeId(n)).c_str(),
                  format_time(std::max(ct.ready.rise, ct.ready.fall)).c_str(),
                  format_time(std::min(ct.required.rise, ct.required.fall)).c_str(),
                  format_time(ct.slack).c_str());
    }
  }

  if (flags.want_hold) {
    const auto holds = analyser.check_hold_times(flags.hold_margin);
    std::printf("hold check (margin %s): %zu violation(s)\n",
                format_time(flags.hold_margin).c_str(), holds.size());
    for (const HoldViolation& v : holds) {
      std::printf("  %s -> %s margin %s\n",
                  analyser.sync_model().at(v.launch).label.c_str(),
                  analyser.sync_model().at(v.capture).label.c_str(),
                  format_time(v.margin).c_str());
    }
  }
  return result.works_as_intended ? 0 : 1;
}

int demo() {
  using namespace hb;
  auto lib = make_standard_library();
  PipelineSpec pspec;
  pspec.stage_depths = {40, 12};
  pspec.width = 1;
  const Design design = make_pipeline(lib, pspec);
  {
    std::ofstream nf("hummingbird_demo.net");
    save_netlist(design, nf);
  }
  {
    std::ofstream sf("hummingbird_demo.spec");
    sf << "# two-phase non-overlapping clocks, 6 ns period\n"
          "clock phi1 period 6ns pulse 0 2.4ns\n"
          "clock phi2 period 6ns pulse 3ns 5.4ns\n"
          "input d0 arrival 0\n"
          "output q0 required 0\n";
  }
  std::printf("demo: wrote hummingbird_demo.net / hummingbird_demo.spec\n");
  CliFlags flags;
  flags.max_paths = 5;
  flags.want_constraints = true;
  flags.want_hold = true;
  flags.want_histogram = true;
  return run("hummingbird_demo.net", "hummingbird_demo.spec", flags);
}

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage:\n"
      "  hummingbird_cli <netlist> <timing-spec> [--paths N] [--constraints]\n"
      "                  [--hold <margin>] [--histogram] [--dot F] [--lib F]\n"
      "                  [--threads N] [--corners F]\n"
      "  hummingbird_cli analyze <netlist-or-blif> [<timing-spec>]\n"
      "                  [--period T] [one-shot flags]\n"
      "  hummingbird_cli serve [<netlist> <timing-spec>] [--lib F] [--tcp PORT]\n"
      "                  [--snapshot-dir D] [--replica] [--corners F]\n"
      "  hummingbird_cli query <netlist> <timing-spec> [--lib F] [--proto2]\n"
      "                  <query>...\n"
      "  hummingbird_cli --help\n"
      "\n"
      "Netlist inputs ending in .blif are parsed as BLIF (docs/FRONTEND.md);\n"
      "for those `analyze` may omit the timing spec, synthesising a clock\n"
      "per `.clock` port over --period (default 20ns).\n"
      "--corners evaluates every corner of a corner-spec file in one K-lane\n"
      "sweep (docs/SCENARIOS.md); serve --corners attaches per-corner\n"
      "sections to every snapshot and enables the `corner` verbs.\n"
      "serve --replica hosts a read-only replica over --snapshot-dir (reads\n"
      "served from the mmap'd view; `load` disabled).  query --proto2 drives\n"
      "the binary protocol v2 end to end (docs/SERVICE.md).\n"
      "With no arguments, runs a built-in demo.  serve/query speak the line\n"
      "protocol documented in docs/SERVICE.md (`help` lists the verbs).\n"
      "Exit codes: 0 ok, 1 timing violations (one-shot analysis), 2 usage,\n"
      "3 protocol error (query: any error reply; serve: initial load failed).\n");
}

int run_analyze(int argc, char** argv) {
  std::string netlist, spec;
  int i = 2;
  if (i < argc && argv[i][0] != '-') netlist = argv[i++];
  if (i < argc && argv[i][0] != '-') spec = argv[i++];
  if (netlist.empty()) {
    std::fprintf(stderr, "analyze: need <netlist-or-blif> [<timing-spec>]\n");
    return 2;
  }
  CliFlags flags;
  if (const int rc = parse_flags(argc, argv, i, flags)) return rc;
  if (spec.empty() && !hb::is_blif_path(netlist)) {
    std::fprintf(stderr,
                 "analyze: a timing spec is required for non-BLIF netlists\n");
    return 2;
  }
  return run(netlist, spec, flags);
}

int run_serve(int argc, char** argv) {
  using namespace hb;
  std::string netlist, spec, lib, snapshot_dir, corners;
  bool replica = false;
  int tcp_port = -1;  // -1 = no TCP listener
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lib") == 0 && i + 1 < argc) {
      lib = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc) {
      tcp_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--snapshot-dir") == 0 && i + 1 < argc) {
      snapshot_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replica") == 0) {
      replica = true;
    } else if (std::strcmp(argv[i], "--corners") == 0 && i + 1 < argc) {
      corners = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "serve: unknown option '%s'\n", argv[i]);
      return 2;
    } else if (netlist.empty()) {
      netlist = argv[i];
    } else if (spec.empty()) {
      spec = argv[i];
    } else {
      std::fprintf(stderr, "serve: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (netlist.empty() != spec.empty()) {
    std::fprintf(stderr, "serve: need both <netlist> and <timing-spec>\n");
    return 2;
  }
  if (replica && snapshot_dir.empty()) {
    std::fprintf(stderr, "serve: --replica requires --snapshot-dir\n");
    return 2;
  }
  if (replica && !netlist.empty()) {
    std::fprintf(stderr,
                 "serve: --replica is read-only and takes no netlist\n");
    return 2;
  }

  ServiceConfig config;
  config.snapshot_dir = snapshot_dir;
  config.replica = replica;
  if (!corners.empty()) config.session.corners = load_corners(corners);
  ServiceHost host(std::move(config));
  if (const auto warm = host.warm_source()) {
    std::fprintf(stderr,
                 "warm restart: serving snapshot %llu of '%s' (mmap view)\n",
                 static_cast<unsigned long long>(warm->id()),
                 std::string(warm->design_name()).c_str());
  }
  if (!netlist.empty()) {
    const QueryResult loaded = host.load(netlist, spec, lib);
    if (!loaded.ok) {
      std::fputs(to_wire(loaded).c_str(), stderr);
      return 3;
    }
  }
  std::unique_ptr<TcpServer> tcp;
  if (tcp_port >= 0) {
    tcp = std::make_unique<TcpServer>(host, static_cast<std::uint16_t>(tcp_port));
    std::fprintf(stderr, "listening on 127.0.0.1:%u\n", tcp->port());
  }
  serve_stream(host, std::cin, std::cout);
  return 0;
}

int run_query(int argc, char** argv) {
  using namespace hb;
  std::string netlist, spec, lib;
  bool proto2 = false;
  std::vector<std::string> queries;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lib") == 0 && i + 1 < argc) {
      lib = argv[++i];
    } else if (std::strcmp(argv[i], "--proto2") == 0) {
      proto2 = true;
    } else if (netlist.empty()) {
      netlist = argv[i];
    } else if (spec.empty()) {
      spec = argv[i];
    } else {
      queries.push_back(argv[i]);
    }
  }
  if (spec.empty() || queries.empty()) {
    std::fprintf(stderr, "query: need <netlist> <timing-spec> <query>...\n");
    return 2;
  }

  ServiceHost host;
  const QueryResult loaded = host.load(netlist, spec, lib);
  if (!loaded.ok) {
    std::fputs(to_wire(loaded).c_str(), stderr);
    return 3;
  }
  ProtocolHandler handler(host);
  bool any_error = false;
  if (proto2) {
    // Negotiate, then round-trip every query through the binary protocol:
    // typed frames for the hot read verbs, text-wrapped frames for the
    // rest, replies rendered back into proto-1 text for printing.
    const std::string ack = handler.handle_line("proto 2");
    std::fputs(ack.c_str(), stdout);
    if (ack.rfind("err ", 0) == 0) return 3;
    std::string frame, text;
    for (const std::string& qline : queries) {
      const ParsedQuery q = parse_query(qline);
      if (!q.ok && q.error.lines.empty()) continue;  // blank/comment
      frame.clear();
      // Lines of an in-flight batch must reach the text collector verbatim.
      if (!q.ok || handler.collecting() || !proto2_encode_request(q, frame)) {
        frame.clear();
        proto2_encode_text(qline, frame);
      }
      const std::string& reply =
          handler.handle_frame(std::string_view(frame).substr(4));
      text.clear();
      if (reply.size() < 4 ||
          !proto2_render_payload(std::string_view(reply).substr(4), text)) {
        std::fprintf(stderr, "query: undecodable reply frame\n");
        return 3;
      }
      if (text.rfind("err ", 0) == 0) any_error = true;
      std::fputs(text.c_str(), stdout);
      if (handler.quit()) break;
    }
    return any_error ? 3 : 0;
  }
  for (const std::string& q : queries) {
    const std::string reply = handler.handle_line(q);
    if (reply.rfind("err ", 0) == 0) any_error = true;
    std::fputs(reply.c_str(), stdout);
    if (handler.quit()) break;
  }
  if (handler.collecting()) {
    std::fprintf(stderr, "query: batch left incomplete\n");
    return 2;
  }
  return any_error ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
      print_usage(stdout);
      return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) return run_serve(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "query") == 0) return run_query(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "analyze") == 0) return run_analyze(argc, argv);
    if (argc < 3) return demo();
    CliFlags flags;
    if (const int rc = parse_flags(argc, argv, 3, flags)) return rc;
    return run(argv[1], argv[2], flags);
  } catch (const hb::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
