#include "service/protocol.hpp"

#include <chrono>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>

#include "clocks/clock_io.hpp"
#include "netlist/blif_builder.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/library_io.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stdcells.hpp"
#include "service/snapshot_codec.hpp"
#include "service/snapshot_read.hpp"
#include "service/snapshot_source.hpp"
#include "service/snapshot_store.hpp"
#include "util/error.hpp"

namespace hb {

ServiceHost::ServiceHost(ServiceConfig config) : config_(std::move(config)) {
  if (config_.snapshot_dir.empty()) {
    if (config_.replica) {
      raise("replica mode needs a snapshot store (serve --replica requires "
            "--snapshot-dir)");
    }
    return;
  }
  SnapshotStore::Options opt;
  opt.dir = config_.snapshot_dir;
  opt.retain = config_.snapshot_retain;
  store_ = std::make_unique<SnapshotStore>(std::move(opt));
  // Warm restart: map the newest valid persisted snapshot, quarantining
  // anything corrupt on the way; an empty or fully corrupt store is a cold
  // start, not an error.
  SnapshotStore::SourceResult warm = store_->load_newest_source();
  warm_rejected_ = warm.rejected;
  warm_loaded_ = warm.ok();
  warm_view_ = std::move(warm.view);
}

ServiceHost::~ServiceHost() = default;

void ServiceHost::adopt(std::shared_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session != nullptr && store_ != nullptr) {
    session->set_snapshot_store(store_.get());
    // The construction-time warm load happened before any session existed;
    // transfer its recovery counters into the first session's metrics so
    // `stats` reflects the restart.
    ServiceMetrics& m = session->metrics();
    if (warm_loaded_) m.record_snapshot_loaded();
    if (warm_rejected_ > 0) {
      m.record_snapshots_rejected(warm_rejected_);
      m.record_snapshot_self_heal();
    }
    warm_loaded_ = false;
    warm_rejected_ = 0;
  }
  session_ = std::move(session);
}

std::shared_ptr<Session> ServiceHost::session() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return session_;
}

std::shared_ptr<const SnapshotSource> ServiceHost::warm_source() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_view_;
}

bool ServiceHost::warm_mapped() const { return warm_source() != nullptr; }

QueryResult ServiceHost::snapshot_command(const ParsedQuery& q) {
  if (store_ == nullptr) {
    return make_error(DiagCode::kServiceRejected,
                      "no snapshot store configured (serve --snapshot-dir)");
  }
  const std::string& sub = q.args[0];
  if (sub == "save") {
    const std::shared_ptr<Session> session = this->session();
    if (session == nullptr) {
      return make_error(DiagCode::kServiceRejected,
                        "snapshot save needs a loaded design; use `load "
                        "<netlist> <spec>`");
    }
    const std::shared_ptr<const AnalysisSnapshot> snap = session->snapshot();
    const SnapshotStore::SaveResult res = store_->save(*snap);
    if (!res.ok) return make_error(res.code, res.error);
    session->metrics().record_snapshot_saved();
    return make_ok("ok snapshot save " + snap->design_name + " generation " +
                   std::to_string(res.generation) + " snapshot " +
                   std::to_string(snap->id));
  }
  if (sub == "load") {
    const std::string design = q.args.size() > 1 ? q.args[1] : std::string();
    SnapshotStore::SourceResult res = store_->load_newest_source(design);
    const std::shared_ptr<Session> session = this->session();
    if (session != nullptr) {
      ServiceMetrics& m = session->metrics();
      if (res.rejected > 0) {
        m.record_snapshots_rejected(res.rejected);
        m.record_snapshot_self_heal();
      }
      if (res.ok()) m.record_snapshot_loaded();
    }
    if (!res.ok()) return make_error(res.code, res.error);
    QueryResult r = make_ok(
        "ok snapshot load " + std::string(res.view->design_name()) +
        " generation " + std::to_string(res.generation) + " snapshot " +
        std::to_string(res.view->id()) + " rejected " +
        std::to_string(res.rejected));
    std::lock_guard<std::mutex> lock(mutex_);
    warm_view_ = std::move(res.view);
    return r;
  }
  // stat: store-level truth (counters since this process opened the store).
  std::vector<std::string> lines;
  const auto add = [&lines](const std::string& name, const std::string& v) {
    lines.push_back("  store " + name + " " + v);
  };
  add("dir", store_->dir());
  add("retain", std::to_string(store_->retain()));
  const std::vector<std::string> designs = store_->designs();
  std::size_t files = 0;
  for (const std::string& d : designs) files += store_->generations(d).size();
  add("designs", std::to_string(designs.size()));
  add("files", std::to_string(files));
  add("saves", std::to_string(store_->saves()));
  add("save_failures", std::to_string(store_->save_failures()));
  add("loads", std::to_string(store_->loads()));
  add("snapshots_rejected", std::to_string(store_->snapshots_rejected()));
  add("self_heals", std::to_string(store_->self_heals()));
  std::shared_ptr<const SnapshotView> warm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    warm = warm_view_;
  }
  add("warm", warm == nullptr
                  ? std::string("none")
                  : std::string(warm->design_name()) + " " +
                        std::to_string(warm->id()));
  std::vector<SnapshotSectionInfo> sections;
  std::size_t image_bytes = 0;
  if (warm != nullptr) {
    add("warm_mode", "mapped");
    sections = warm->sections();
    image_bytes = warm->image_bytes();
  } else if (store_->saves() > 0) {
    // No warm source: report the image the most recent save produced.
    sections = store_->last_save_sections();
    image_bytes = store_->last_save_bytes();
  }
  if (!sections.empty()) {
    add("image_bytes", std::to_string(image_bytes));
    for (const SnapshotSectionInfo& s : sections) {
      const char* name =
          s.kind < kNumSnapshotSections
              ? snapshot_section_name(static_cast<SnapshotSection>(s.kind))
              : "unknown";
      add(std::string("section_") + name, std::to_string(s.payload_size));
    }
  }
  QueryResult r = make_ok("ok snapshot stat " + std::to_string(lines.size()));
  for (std::string& l : lines) r.lines.push_back(std::move(l));
  return r;
}

QueryResult ServiceHost::load(const std::string& netlist_path,
                              const std::string& spec_path,
                              const std::string& lib_path) {
  if (config_.replica) {
    return make_error(DiagCode::kServiceRejected,
                      "replica mode: `load` is disabled (read-only replica "
                      "over the snapshot store)");
  }
  try {
    std::shared_ptr<const Library> lib = config_.lib;
    if (!lib_path.empty()) {
      std::ifstream lf(lib_path);
      if (!lf) {
        return make_error(DiagCode::kServiceRejected,
                          "cannot open library '" + lib_path + "'");
      }
      lib = load_library(lf);
    }
    if (lib == nullptr) lib = make_standard_library();

    std::ifstream nf(netlist_path);
    if (!nf) {
      return make_error(DiagCode::kServiceRejected,
                        "cannot open netlist '" + netlist_path + "'");
    }
    Design design = is_blif_path(netlist_path) ? load_blif(nf, lib)
                                               : load_netlist(nf, lib);

    // "-" in place of a spec file derives default clocks from the design's
    // clock ports (BLIF netlists usually carry no companion spec).
    TimingSpec spec;
    if (spec_path == "-") {
      spec.clocks = default_blif_clocks(design, ns(20));
    } else {
      std::ifstream sf(spec_path);
      if (!sf) {
        return make_error(DiagCode::kServiceRejected,
                          "cannot open timing spec '" + spec_path + "'");
      }
      spec = load_timing_spec(sf);
    }

    HummingbirdOptions analysis = config_.analysis;
    analysis.sync.input_arrivals = spec.input_arrivals;
    analysis.sync.output_requireds = spec.output_requireds;

    const std::string name = design.name();
    const std::size_t cells = design.total_cell_count();
    auto session = std::make_shared<Session>(std::move(design), spec.clocks,
                                             std::move(analysis),
                                             config_.session);
    const std::uint64_t snap = session->snapshot()->id;
    adopt(std::move(session));
    return make_ok("ok load " + name + " cells " + std::to_string(cells) +
                   " snapshot " + std::to_string(snap));
  } catch (const Error& e) {
    return make_error(DiagCode::kParseStructure, e.what());
  }
}

// ---------------------------------------------------------------------------

namespace {

double seconds_between(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Why a host with neither a session nor a warm source cannot serve.
const char* nothing_to_serve(const ServiceConfig& config) {
  return config.replica ? "replica has no snapshot to serve (snapshot store "
                          "empty or corrupt)"
                        : "no design loaded; use `load <netlist> <spec>`";
}

}  // namespace

ProtocolHandler::ProtocolHandler(ServiceHost& host)
    : host_(&host), timer_(AnalysisBudget{}) {}

BudgetTimer& ProtocolHandler::arm(double deadline_ms) {
  token_.reset();
  AnalysisBudget budget;
  budget.wall_seconds = deadline_ms / 1000.0;
  budget.cancel = &token_;
  timer_.rearm(budget);
  return timer_;
}

const std::string& ProtocolHandler::handle_line(const std::string& line) {
  wire_.clear();
  handle_line_into(line, wire_);
  return wire_;
}

void ProtocolHandler::handle_line_into(const std::string& line,
                                       std::string& wire) {
  if (batch_pending_ > 0) {
    batch_lines_.push_back(line);
    if (--batch_pending_ > 0) return;
    append_result(run_batch(), wire);
    return;
  }
  if (!parse_query_into(line, parsed_)) {
    // Blank/comment lines parse to an empty error: emit nothing.
    if (!parsed_.error.lines.empty()) append_result(parsed_.error, wire);
    return;
  }
  if (parsed_.verb == QueryVerb::kBatch) {
    batch_pending_ = static_cast<std::size_t>(parsed_.number);
    batch_lines_.clear();
    return;
  }
  dispatch_into(parsed_, wire);
}

void ProtocolHandler::append_result(const QueryResult& r, std::string& wire) {
  for (const std::string& l : r.lines) {
    wire.append(l);
    wire.push_back('\n');
  }
}

void ProtocolHandler::dispatch_into(const ParsedQuery& q, std::string& wire) {
  switch (q.verb) {
    case QueryVerb::kQuit:
      quit_ = true;
      wire.append("ok bye\n");
      return;
    case QueryVerb::kProto:
      // Negotiate the wire protocol.  The acknowledgement itself is sent in
      // the current (text) encoding; everything after it is binary frames.
      if (q.args[0] == "2") {
        wire.append("ok proto 2\n");
        binary_ = true;
        return;
      }
      append_result(
          make_error(DiagCode::kServiceRejected,
                     "unsupported protocol version '" + q.args[0] +
                         "' (this build speaks 1 and 2; 1 is the default)"),
          wire);
      return;
    case QueryVerb::kHelp: {
      std::vector<std::string> lines = protocol_help_lines();
      wire.append("ok help " + std::to_string(lines.size()) + "\n");
      for (const std::string& l : lines) {
        wire.append(l);
        wire.push_back('\n');
      }
      return;
    }
    case QueryVerb::kLoad:
      append_result(host_->load(q.args[0], q.args[1],
                                q.args.size() > 2 ? q.args[2] : std::string()),
                    wire);
      return;
    case QueryVerb::kSnapshot:
      append_result(host_->snapshot_command(q), wire);
      return;
    default: {
      const std::shared_ptr<Session> session = host_->session();
      if (session == nullptr) {
        // Warm restart / replica: before any design is loaded, read queries
        // answer from the snapshot source the host recovered from the store
        // — byte-identical to the session that saved it, via the shared
        // snapshot evaluator (a zero-copy mmap view when mapped).
        const std::shared_ptr<const SnapshotSource> warm =
            host_->warm_source();
        if (warm != nullptr && is_read_query(q.verb)) {
          render_snapshot_read(q, *warm, arm(0), wire);
          return;
        }
        if (warm != nullptr) {
          append_result(
              make_error(
                  DiagCode::kServiceRejected,
                  "warm snapshot " + std::to_string(warm->id()) + " of '" +
                      std::string(warm->design_name()) + "' is read-only; " +
                      (host_->config().replica
                           ? std::string(
                                 "this host is a replica (serve --replica)")
                           : std::string("`load <netlist> <spec>` to edit"))),
              wire);
          return;
        }
        append_result(make_error(DiagCode::kServiceRejected,
                                 nothing_to_serve(host_->config())),
                      wire);
        return;
      }
      BudgetTimer& timer = arm(session->deadline_ms());
      if (is_read_query(q.verb)) {
        session->read_into(q, &timer, wire);
      } else {
        append_result(session->execute(q, &timer), wire);
      }
      return;
    }
  }
}

const std::string& ProtocolHandler::handle_frame(std::string_view payload) {
  frame_wire_.clear();
  const Proto2Request req = proto2_decode_request(payload);
  if (!req.ok) {
    proto2_error_frame(req.code, req.error, frame_wire_);
    ++frame_errors_;
    return frame_wire_;
  }
  if (req.op == Proto2Op::kText) {
    // A wrapped line-protocol request: quit, batch, load, snapshot and every
    // verb without a typed encoding flow through the text dispatcher and
    // the reply text comes back in a status-2 frame.
    text_scratch_.assign(req.text);
    wire_.clear();
    handle_line_into(text_scratch_, wire_);
    if (wire_.rfind("err ", 0) == 0) ++frame_errors_;
    proto2_text_frame(wire_, frame_wire_);
    return frame_wire_;
  }
  if (req.op == Proto2Op::kPing) {
    proto2_ping_frame(frame_wire_);
    return frame_wire_;
  }
  // Typed read request, served by the session's current snapshot or else
  // by the warm source.  A serving session supplies the deadline and takes
  // the metrics.
  const std::shared_ptr<Session> session = host_->session();
  ServiceMetrics* metrics = session != nullptr ? &session->metrics() : nullptr;
  const auto t0 = metrics != nullptr ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
  // Replies are pure functions of (request payload, served source), so a
  // repeated payload replays the recorded frame until the served source's
  // owner changes.
  const auto serve_from = [this](const auto& owner) {
    if (typed_cache_owner_.owner_before(owner) ||
        owner.owner_before(typed_cache_owner_)) {
      typed_cache_.clear();
      typed_cache_owner_ = owner;
    }
  };
  std::shared_ptr<const AnalysisSnapshot> snap;
  std::optional<SnapshotCopySource> copy;
  std::shared_ptr<const SnapshotSource> warm;
  if (session != nullptr) {
    if (req.op == Proto2Op::kCorner) metrics->record_corner_read();
    snap = session->snapshot();
    serve_from(snap);
    copy.emplace(*snap);
  } else if ((warm = host_->warm_source()) != nullptr) {
    serve_from(warm);
  } else {
    proto2_error_frame(DiagCode::kServiceRejected,
                       nothing_to_serve(host_->config()), frame_wire_);
    ++frame_errors_;
    return frame_wire_;
  }
  if (const auto it = typed_cache_.find(payload); it != typed_cache_.end()) {
    frame_wire_ = it->second;
    if (metrics != nullptr) {
      metrics->record_cache(true);
      metrics->record_request(true, true, false, seconds_between(t0));
    }
    return frame_wire_;
  }
  const Proto2Eval e = proto2_evaluate(
      req, copy ? *copy : *warm,
      arm(session != nullptr ? session->deadline_ms() : 0), frame_wire_);
  if (metrics != nullptr) {
    metrics->record_cache(false);
    metrics->record_request(true, e.ok, e.timed_out, seconds_between(t0));
  }
  if (!e.ok) ++frame_errors_;
  if (e.ok && typed_cache_.size() < kTypedCacheCap) {
    typed_cache_.emplace(std::string(payload), frame_wire_);
  }
  return frame_wire_;
}

QueryResult ProtocolHandler::run_batch() {
  const std::shared_ptr<Session> session = host_->session();
  if (session == nullptr) {
    return make_error(DiagCode::kServiceRejected,
                      "no design loaded; use `load <netlist> <spec>`");
  }
  const std::vector<QueryResult> results = session->execute_batch(batch_lines_);
  batch_lines_.clear();
  std::size_t emitted = 0;
  for (const QueryResult& r : results) {
    if (!r.lines.empty()) ++emitted;
  }
  QueryResult out = make_ok("ok batch " + std::to_string(emitted));
  for (const QueryResult& r : results) {
    for (const std::string& l : r.lines) out.lines.push_back(l);
  }
  return out;
}

std::vector<std::string> protocol_help_lines() {
  return {
      "  slack <node>             slack of one timing-graph node",
      "  worst_paths <K>          the K worst slow paths of the snapshot",
      "  histogram <bins>         capture-terminal slack histogram",
      "  constraints <instance>   per-pin timing window of an instance",
      "  summary                  snapshot-level analysis summary",
      "  set_delay <inst> <time>  add delay to an instance (pending edit)",
      "  upsize <inst>            swap to the next stronger variant",
      "  commit                   re-analyse edits, publish next snapshot",
      "  check_hold [<margin>]    hold pairs below margin, from the snapshot's"
      " hold capture",
      "  gen_constraints          Algorithm 2 constraint times from the"
      " snapshot's capture",
      "  corner list              corners of the snapshot's multi-corner"
      " capture",
      "  corner <name|k> <query>  scope slack/worst_paths/histogram/summary/"
      "check_hold to one corner",
      "  deadline <ms>            per-request deadline (0 = unlimited)",
      "  stats                    service counters and latency percentiles",
      "  ping                     liveness check",
      "  proto <version>          negotiate the wire protocol (2 = binary"
      " frames; docs/SERVICE.md)",
      "  load <netlist> <spec> [<lib>]  start a session from files"
      " (.blif netlists accepted; spec `-` derives clocks from clock ports)",
      "  snapshot save            persist the current snapshot to the store",
      "  snapshot load [<design>] adopt the newest valid stored snapshot",
      "  snapshot stat            snapshot-store counters and contents",
      "  batch <N>                execute the next N lines as one batch",
      "  help                     this text",
      "  quit                     end the connection",
  };
}

int serve_stream(ServiceHost& host, std::istream& in, std::ostream& out) {
  ProtocolHandler handler(host);
  int errors = 0;
  std::string line;
  while (!handler.binary() && std::getline(in, line)) {
    const std::string& reply = handler.handle_line(line);
    if (!reply.empty()) {
      if (reply.rfind("err ", 0) == 0) ++errors;
      out << reply;
      out.flush();
    }
    if (handler.quit()) return errors;
  }
  if (!handler.binary()) return errors;
  // Binary frame loop: u32 little-endian length, then that many payload
  // bytes, one reply frame per request frame.
  std::string payload;
  char hdr[4];
  while (in.read(hdr, 4)) {
    const std::uint32_t len =
        codec_read_le32(reinterpret_cast<const unsigned char*>(hdr));
    if (len > kProto2MaxFrame) {
      std::string err;
      proto2_error_frame(DiagCode::kServiceRejected,
                         "request frame of " + std::to_string(len) +
                             " bytes exceeds the " +
                             std::to_string(kProto2MaxFrame) + "-byte limit",
                         err);
      out.write(err.data(), static_cast<std::streamsize>(err.size()));
      out.flush();
      ++errors;
      break;
    }
    payload.resize(len);
    if (len > 0 && !in.read(payload.data(), len)) break;
    const std::string& reply = handler.handle_frame(payload);
    out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
    out.flush();
    if (handler.quit()) break;
  }
  errors += static_cast<int>(handler.frame_errors());
  return errors;
}

}  // namespace hb
