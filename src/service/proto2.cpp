#include "service/proto2.hpp"

#include "service/read_eval.hpp"
#include "service/snapshot_codec.hpp"

namespace hb {
namespace {

/// Reserves the 4-byte length prefix, patches it on finish().  Appending
/// into a grow-only arena keeps the steady-state reply path allocation
/// free once the arena has grown to the working set.
class FrameWriter {
 public:
  explicit FrameWriter(std::string& out) : out_(out), base_(out.size()) {
    out_.append(4, '\0');
  }
  void finish() {
    const std::uint32_t len =
        static_cast<std::uint32_t>(out_.size() - base_ - 4);
    for (int i = 0; i < 4; ++i) {
      out_[base_ + static_cast<std::size_t>(i)] =
          static_cast<char>((len >> (8 * i)) & 0xFF);
    }
  }

 private:
  std::string& out_;
  std::size_t base_;
};

/// Writes one typed reply frame into the arena.  An error drops whatever
/// was written of the frame and writes an error frame in its place.
class FrameSink {
 public:
  explicit FrameSink(std::string& out)
      : out_(out), base_(out.size()), frame_(out) {}

  Proto2Eval finish() {
    if (result_.ok) frame_.finish();
    return result_;
  }

  void error(DiagCode code, std::string_view message) {
    out_.resize(base_);
    proto2_error_frame(code, message, out_);
    result_.ok = false;
    result_.timed_out = code == DiagCode::kAnalysisBudget;
  }
  void scope(std::string_view name) {
    scoped_ = true;
    corner_ = name;
  }
  void pong() { head(Proto2Op::kPing); }
  void summary(std::uint64_t id, AnalysisStatus status, bool works,
               TimePs worst, std::uint64_t terminals,
               std::uint64_t violations, std::uint64_t paths) {
    head(Proto2Op::kSummary);
    put_u64(out_, id);
    put_u8(out_, static_cast<std::uint8_t>(status));
    put_u8(out_, works ? 1 : 0);
    put_i64(out_, worst);
    put_u64(out_, terminals);
    put_u64(out_, violations);
    put_u64(out_, paths);
  }
  void corner_summary(std::uint64_t id, std::uint32_t derate_pm,
                      std::uint32_t wire_pm, TimePs worst,
                      std::uint64_t violations, std::uint64_t paths) {
    head(Proto2Op::kSummary);
    put_u64(out_, id);
    put_u32(out_, derate_pm);
    put_u32(out_, wire_pm);
    put_i64(out_, worst);
    put_u64(out_, violations);
    put_u64(out_, paths);
  }
  void slack(std::string_view node, TimePs slack) {
    head(Proto2Op::kSlack);
    put_str(out_, node);
    put_i64(out_, slack);
  }
  void worst_paths(std::uint64_t served, std::uint64_t of) {
    head(Proto2Op::kWorstPaths);
    put_u64(out_, served);
    put_u64(out_, of);
  }
  void path(std::uint64_t, const SourcePath& p) {
    put_i64(out_, p.slack);
    put_str(out_, p.launch);
    put_str(out_, p.capture);
    put_str(out_, p.from);
    put_str(out_, p.to);
    put_u64(out_, p.steps);
  }
  // The renderer recomputes the bin edges from bins, min and max.
  void histogram(std::uint64_t bins, std::uint64_t n, TimePs mn, TimePs mx) {
    head(Proto2Op::kHistogram);
    put_u64(out_, bins);
    put_u64(out_, n);
    put_i64(out_, mn);
    put_i64(out_, mx);
  }
  void bin(std::uint64_t, std::uint64_t count) { put_u64(out_, count); }
  void constraints(std::string_view inst, std::uint64_t pins) {
    head(Proto2Op::kConstraints);
    put_str(out_, inst);
    put_u64(out_, pins);
  }
  void pin(std::string_view name, const NodeTiming& t) {
    put_str(out_, name);
    put_i64(out_, t.slack);
    put_i64(out_, t.ready.rise);
    put_i64(out_, t.ready.fall);
    put_i64(out_, t.required.rise);
    put_i64(out_, t.required.fall);
  }
  void check_hold(TimePs margin, std::uint64_t violations) {
    head(Proto2Op::kCheckHold);
    put_i64(out_, margin);
    put_u64(out_, violations);
  }
  void hold(const SourceHoldPair& p) {
    put_i64(out_, p.margin);
    put_str(out_, p.launch_label);
    put_str(out_, p.capture_label);
  }
  void gen_constraints(AnalysisStatus status, std::int32_t backward,
                       std::int32_t forward, std::uint64_t endpoints) {
    head(Proto2Op::kGenConstraints);
    put_u8(out_, static_cast<std::uint8_t>(status));
    put_u32(out_, static_cast<std::uint32_t>(backward));
    put_u32(out_, static_cast<std::uint32_t>(forward));
    put_u64(out_, endpoints);
  }
  void endpoint(std::string_view node, TimePs ready, TimePs required,
                TimePs slack) {
    put_str(out_, node);
    put_i64(out_, ready);
    put_i64(out_, required);
    put_i64(out_, slack);
  }
  void corner_list(std::uint64_t n, std::string_view worst) {
    head(Proto2Op::kCorner);
    put_u8(out_, kProto2CornerList);
    put_u64(out_, n);
    put_str(out_, worst);
  }
  void corner_entry(std::uint64_t, const SourceCorner& c, TimePs worst,
                    std::uint64_t violations) {
    put_str(out_, c.name);
    put_u32(out_, c.derate_pm);
    put_u32(out_, c.wire_pm);
    put_i64(out_, worst);
    put_u64(out_, violations);
  }

 private:
  /// Status byte and opcode echo; a corner-scoped reply is wrapped as
  /// kCorner, the scoped opcode and the corner's name.
  void head(Proto2Op op) {
    put_u8(out_, static_cast<std::uint8_t>(Proto2Status::kTyped));
    if (!scoped_) {
      put_u8(out_, static_cast<std::uint8_t>(op));
      return;
    }
    put_u8(out_, static_cast<std::uint8_t>(Proto2Op::kCorner));
    put_u8(out_, static_cast<std::uint8_t>(op));
    put_str(out_, corner_);
  }

  std::string& out_;
  std::size_t base_;
  FrameWriter frame_;
  Proto2Eval result_;
  bool scoped_ = false;
  std::string_view corner_;
};

bool malformed(Proto2Request& req, DiagCode code, std::string msg) {
  req.ok = false;
  req.code = code;
  req.error = std::move(msg);
  return false;
}

/// Decode the body of typed verb `op` into `req`: a top-level request's
/// body, or the sub body of a corner-scoped one.
bool decode_body(Proto2Op op, std::string_view body, Proto2Request& req) {
  Reader r = reader_of(body);
  switch (op) {
    case Proto2Op::kText:
      req.text = body;
      return true;
    case Proto2Op::kSlack:
    case Proto2Op::kConstraints:
      req.name = body;
      return true;
    case Proto2Op::kCorner: {
      const std::uint8_t sub = r.u8();
      req.selector = r.str_view();
      req.corner_list = sub == kProto2CornerList;
      if (r.fail || req.corner_list) {
        if (!r.fail && r.remaining() != 0) {
          return malformed(req, DiagCode::kParseSyntax,
                           "'corner list' takes no further arguments");
        }
        break;
      }
      req.sub = static_cast<Proto2Op>(sub);
      if (!corner_scopable(req.sub)) {
        return malformed(req, DiagCode::kParseSyntax,
                         "'corner' scopes slack, worst_paths, histogram, "
                         "summary or check_hold");
      }
      return decode_body(req.sub, body.substr(r.pos), req);
    }
    case Proto2Op::kWorstPaths:
    case Proto2Op::kHistogram:
      req.count = r.u32();
      break;
    case Proto2Op::kCheckHold:
      req.margin = r.i64();
      break;
    case Proto2Op::kPing:
    case Proto2Op::kSummary:
    case Proto2Op::kGenConstraints:
      break;
  }
  // Fixed-width bodies (a corner list's included): exactly the fields, then
  // the value's range.
  if (r.fail || r.remaining() != 0) {
    return malformed(req, DiagCode::kParseSyntax, "malformed proto2 request");
  }
  if (op == Proto2Op::kWorstPaths || op == Proto2Op::kHistogram) {
    const ArgRange range =
        op == Proto2Op::kHistogram ? kHistogramBins : kWorstPathsCount;
    if (req.count < range.lo || req.count > range.hi) {
      return malformed(req, DiagCode::kParseBadNumber,
                       range_error(std::to_string(req.count), range));
    }
  }
  return true;
}

/// The typed opcode of a text verb; kText when it has none.
Proto2Op op_of(QueryVerb verb) {
  switch (verb) {
    case QueryVerb::kPing: return Proto2Op::kPing;
    case QueryVerb::kSummary: return Proto2Op::kSummary;
    case QueryVerb::kSlack: return Proto2Op::kSlack;
    case QueryVerb::kWorstPaths: return Proto2Op::kWorstPaths;
    case QueryVerb::kHistogram: return Proto2Op::kHistogram;
    case QueryVerb::kConstraints: return Proto2Op::kConstraints;
    case QueryVerb::kCheckHold: return Proto2Op::kCheckHold;
    case QueryVerb::kGenConstraints: return Proto2Op::kGenConstraints;
    case QueryVerb::kCorner: return Proto2Op::kCorner;
    default: return Proto2Op::kText;
  }
}

}  // namespace

Proto2Request proto2_decode_request(std::string_view payload) {
  Proto2Request req;
  if (payload.empty()) {
    malformed(req, DiagCode::kParseSyntax, "empty request frame");
    return req;
  }
  const std::uint8_t op = static_cast<std::uint8_t>(payload[0]);
  if (op > static_cast<std::uint8_t>(Proto2Op::kCorner)) {
    malformed(req, DiagCode::kParseUnknownKeyword,
              "unknown proto2 opcode " + std::to_string(op));
    return req;
  }
  req.op = static_cast<Proto2Op>(op);
  req.ok = decode_body(req.op, payload.substr(1), req);
  return req;
}

Proto2Request proto2_request_of(const ParsedQuery& q) {
  Proto2Request req;
  if (!q.ok) return req;
  req.ok = true;
  req.op = op_of(q.verb);
  const bool scoped = req.op == Proto2Op::kCorner;
  if (scoped) {
    req.selector = q.args[0];
    req.corner_list = q.corner_sub == QueryVerb::kUnknown;
    req.sub = op_of(q.corner_sub);
  }
  switch (scoped ? req.sub : req.op) {
    case Proto2Op::kSlack:
    case Proto2Op::kConstraints:
      req.name = q.args[scoped ? 1 : 0];
      break;
    case Proto2Op::kWorstPaths:
    case Proto2Op::kHistogram:
      req.count = static_cast<std::uint32_t>(q.number);
      break;
    case Proto2Op::kCheckHold:
      req.margin = q.number;
      break;
    default:
      break;
  }
  return req;
}

Proto2Eval proto2_evaluate(const Proto2Request& req, const SnapshotSource& src,
                           BudgetTimer& timer, std::string& out) {
  FrameSink sink(out);
  evaluate_read(req, src, timer, sink);
  return sink.finish();
}

void proto2_error_frame(DiagCode code, std::string_view message,
                        std::string& out) {
  FrameWriter frame(out);
  put_u8(out, static_cast<std::uint8_t>(Proto2Status::kError));
  put_u16(out, static_cast<std::uint16_t>(code));
  out.append(message);
  frame.finish();
}

void proto2_text_frame(std::string_view text, std::string& out) {
  FrameWriter frame(out);
  put_u8(out, static_cast<std::uint8_t>(Proto2Status::kText));
  out.append(text);
  frame.finish();
}

void proto2_ping_frame(std::string& out) {
  FrameWriter frame(out);
  put_u8(out, static_cast<std::uint8_t>(Proto2Status::kTyped));
  put_u8(out, static_cast<std::uint8_t>(Proto2Op::kPing));
  frame.finish();
}

bool proto2_encode_request(const ParsedQuery& q, std::string& out) {
  const Proto2Request req = proto2_request_of(q);
  if (!req.ok || req.op == Proto2Op::kText) return false;
  FrameWriter frame(out);
  put_u8(out, static_cast<std::uint8_t>(req.op));
  Proto2Op body = req.op;  // the encoding decode_body reads back
  if (req.op == Proto2Op::kCorner) {
    put_u8(out, req.corner_list ? kProto2CornerList
                                : static_cast<std::uint8_t>(req.sub));
    put_str(out, req.corner_list ? std::string_view() : req.selector);
    body = req.sub;
  }
  switch (body) {
    case Proto2Op::kSlack:
    case Proto2Op::kConstraints:
      out.append(req.name);
      break;
    case Proto2Op::kWorstPaths:
    case Proto2Op::kHistogram:
      put_u32(out, req.count);
      break;
    case Proto2Op::kCheckHold:
      put_i64(out, req.margin);
      break;
    default:
      break;
  }
  frame.finish();
  return true;
}

void proto2_encode_text(std::string_view line, std::string& out) {
  FrameWriter frame(out);
  put_u8(out, static_cast<std::uint8_t>(Proto2Op::kText));
  out.append(line);
  frame.finish();
}

// ---------------------------------------------------------------------------
// Response rendering (client side): decode a typed body and drive the text
// evaluator's TextSink with its fields.  Every length field is checked
// against the bytes left before a loop runs on it; a malformed payload
// renders nothing.

namespace {

/// The `n` items of a list reply, each decoded by `item` into the sink.  n
/// is checked against the bytes left first (every item takes at least 8),
/// and the reply must end with the last item.
template <typename Item>
bool render_items(Reader& r, std::uint64_t n, Item item) {
  if (r.fail || n > r.remaining() / 8) return false;
  for (std::uint64_t i = 0; i < n && !r.fail; ++i) item(i);
  return !r.fail && r.remaining() == 0;
}

bool render_typed(Reader& r, TextSink& sink) {
  std::uint8_t op = r.u8();
  if (r.fail) return false;
  bool scoped = false;
  if (op == static_cast<std::uint8_t>(Proto2Op::kCorner)) {
    const std::uint8_t sub = r.u8();
    if (r.fail) return false;
    if (sub == kProto2CornerList) {
      const std::uint64_t n = r.u64();
      sink.corner_list(n, r.str_view());
      return render_items(r, n, [&](std::uint64_t k) {
        SourceCorner c;
        c.name = r.str_view();
        c.derate_pm = r.u32();
        c.wire_pm = r.u32();
        const TimePs ws = r.i64();
        sink.corner_entry(k, c, ws, r.u64());
      });
    }
    const std::string_view cname = r.str_view();
    if (r.fail || !corner_scopable(static_cast<Proto2Op>(sub))) return false;
    sink.scope(cname);
    scoped = true;
    op = sub;
  }
  switch (static_cast<Proto2Op>(op)) {
    case Proto2Op::kPing:
      if (r.remaining() != 0) return false;
      sink.pong();
      return true;
    case Proto2Op::kSummary: {
      const std::uint64_t id = r.u64();
      if (scoped) {
        const std::uint32_t derate = r.u32();
        const std::uint32_t wire = r.u32();
        const TimePs ws = r.i64();
        const std::uint64_t violations = r.u64();
        const std::uint64_t paths = r.u64();
        if (r.fail || r.remaining() != 0) return false;
        sink.corner_summary(id, derate, wire, ws, violations, paths);
        return true;
      }
      const std::uint8_t st = r.u8();
      const std::uint8_t works = r.u8();
      const TimePs worst = r.i64();
      const std::uint64_t terminals = r.u64();
      const std::uint64_t violations = r.u64();
      const std::uint64_t paths = r.u64();
      if (r.fail || r.remaining() != 0 || st > 2) return false;
      sink.summary(id, static_cast<AnalysisStatus>(st), works != 0, worst,
                   terminals, violations, paths);
      return true;
    }
    case Proto2Op::kSlack: {
      const std::string_view name = r.str_view();
      const TimePs slack = r.i64();
      if (r.fail || r.remaining() != 0) return false;
      sink.slack(name, slack);
      return true;
    }
    case Proto2Op::kWorstPaths: {
      const std::uint64_t served = r.u64();
      sink.worst_paths(served, r.u64());
      return render_items(r, served, [&](std::uint64_t i) {
        SourcePath p;
        p.slack = r.i64();
        p.launch = r.str_view();
        p.capture = r.str_view();
        p.from = r.str_view();
        p.to = r.str_view();
        p.steps = static_cast<std::size_t>(r.u64());
        sink.path(i, p);
      });
    }
    case Proto2Op::kHistogram: {
      const std::uint64_t bins = r.u64();
      const std::uint64_t n = r.u64();
      const TimePs mn = r.i64();
      const TimePs mx = r.i64();
      if (bins == 0 && n != 0) return false;
      sink.histogram(bins, n, mn, mx);
      return render_items(r, bins,
                          [&](std::uint64_t i) { sink.bin(i, r.u64()); });
    }
    case Proto2Op::kConstraints: {
      const std::string_view inst = r.str_view();
      const std::uint64_t pins = r.u64();
      sink.constraints(inst, pins);
      return render_items(r, pins, [&](std::uint64_t) {
        const std::string_view pin = r.str_view();
        NodeTiming t;
        t.slack = r.i64();
        t.ready.rise = r.i64();
        t.ready.fall = r.i64();
        t.required.rise = r.i64();
        t.required.fall = r.i64();
        sink.pin(pin, t);
      });
    }
    case Proto2Op::kCheckHold: {
      const TimePs margin = r.i64();
      const std::uint64_t violations = r.u64();
      sink.check_hold(margin, violations);
      return render_items(r, violations, [&](std::uint64_t) {
        SourceHoldPair p;
        p.margin = r.i64();
        p.launch_label = r.str_view();
        p.capture_label = r.str_view();
        sink.hold(p);
      });
    }
    case Proto2Op::kGenConstraints: {
      const std::uint8_t st = r.u8();
      const std::uint32_t backward = r.u32();
      const std::uint32_t forward = r.u32();
      const std::uint64_t endpoints = r.u64();
      if (r.fail || st > 2) return false;
      sink.gen_constraints(static_cast<AnalysisStatus>(st),
                           static_cast<std::int32_t>(backward),
                           static_cast<std::int32_t>(forward), endpoints);
      return render_items(r, endpoints, [&](std::uint64_t) {
        const std::string_view name = r.str_view();
        const TimePs ready = r.i64();
        const TimePs required = r.i64();
        sink.endpoint(name, ready, required, r.i64());
      });
    }
    default:
      return false;
  }
}

}  // namespace

bool proto2_render_payload(std::string_view payload, std::string& text) {
  Reader r = reader_of(payload);
  const std::uint8_t status = r.u8();
  if (r.fail) return false;
  if (status == static_cast<std::uint8_t>(Proto2Status::kText)) {
    text.append(payload.substr(1));
    return true;
  }
  if (status == static_cast<std::uint8_t>(Proto2Status::kError)) {
    const std::uint16_t code = r.u16();
    if (r.fail) return false;
    TextSink(text).error(static_cast<DiagCode>(code), payload.substr(3));
    return true;
  }
  const std::size_t base = text.size();
  TextSink sink(text);
  if (status == static_cast<std::uint8_t>(Proto2Status::kTyped) &&
      render_typed(r, sink)) {
    return true;
  }
  text.resize(base);  // a malformed payload renders nothing
  return false;
}

}  // namespace hb
