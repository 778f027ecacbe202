// The one read evaluator behind both query protocols.
//
// evaluate_read() answers one read request against a SnapshotSource and
// streams the reply's typed fields, in wire order, into a sink chosen at
// compile time.  Two sinks exist: TextSink (below) builds proto-1 reply
// lines, and proto2.cpp's FrameSink writes the typed v2 frame.
// proto2_render_payload decodes a typed frame and drives the same
// TextSink, so each reply line format is written exactly once and the two
// protocols agree by construction; tests/proto2_test.cpp keeps
// differentials as a guard.
//
// Corner scope is a parameter: `corner k <verb>` runs the same evaluation
// as `<verb>` over ReadScope{k}, with only the `ok corner <name> ` header
// prefix added (TextSink) or the kCorner wrapping (FrameSink).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/proto2.hpp"
#include "service/query.hpp"
#include "service/snapshot_source.hpp"
#include "util/cancel.hpp"

namespace hb {

/// Histogram bin width over [mn, mx] in unsigned 64-bit arithmetic: exact
/// for every span of a well-formed snapshot, defined for any i64 pair.  It
/// wraps to 0 only for bins == 1 over the full 2^64 - 1 span, where every
/// value lands in bin 0 (histogram_bin).
inline std::uint64_t histogram_width(TimePs mn, TimePs mx, std::uint64_t bins) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(mx) - static_cast<std::uint64_t>(mn);
  return span / bins + 1;
}

/// Bin of `s` in [mn, mx]; always < bins for a width from histogram_width.
inline std::size_t histogram_bin(TimePs s, TimePs mn, std::uint64_t width) {
  if (width == 0) return 0;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(s) - static_cast<std::uint64_t>(mn)) /
      width);
}

/// Reply sink that formats proto-1 text: header line first, then the
/// two-space-indented continuation lines.  An error replaces the reply.
class TextSink {
 public:
  explicit TextSink(QueryResult& out) : out_(out) {}

  void error(DiagCode code, const std::string& message) {
    out_ = make_error(code, message);
  }

  void scope(std::string_view name) {
    scoped_ = true;
    corner_ = name;
  }

  void pong() { head("pong"); }

  void summary(std::uint64_t id, AnalysisStatus status, bool works,
               TimePs worst, std::uint64_t terminals,
               std::uint64_t violations, std::uint64_t paths) {
    head("summary snapshot ") += std::to_string(id) + " fields 6";
    item("status ") += analysis_status_name(status);
    item("works_as_intended ") += works ? "true" : "false";
    item("worst_slack ") += fmt_ps(worst);
    item("terminals ") += std::to_string(terminals);
    item("violations ") += std::to_string(violations);
    item("paths ") += std::to_string(paths);
  }

  void corner_summary(std::uint64_t id, std::uint32_t derate_pm,
                      std::uint32_t wire_pm, TimePs worst,
                      std::uint64_t violations, std::uint64_t paths) {
    head("summary snapshot ") += std::to_string(id) + " fields 5";
    item("derate ") += std::to_string(derate_pm);
    item("wire ") += std::to_string(wire_pm);
    item("worst_slack ") += fmt_ps(worst);
    item("violations ") += std::to_string(violations);
    item("paths ") += std::to_string(paths);
  }

  void slack(std::string_view node, TimePs slack) {
    std::string& line = head("slack ");
    line.append(node);
    line += ' ';
    line += fmt_ps(slack);
  }

  void worst_paths(std::uint64_t served, std::uint64_t of) {
    head("worst_paths ") +=
        std::to_string(served) + " of " + std::to_string(of);
  }

  void path(std::uint64_t i, const SourcePath& p) {
    std::string& line = item("path ");
    line += std::to_string(i) + " slack " + fmt_ps(p.slack) + " launch ";
    line.append(p.launch);
    line += " capture ";
    line.append(p.capture);
    line += " from ";
    line.append(p.from);
    line += " to ";
    line.append(p.to);
    line += " steps " + std::to_string(p.steps);
  }

  void histogram(std::uint64_t bins, std::uint64_t n, TimePs mn, TimePs mx) {
    head("histogram ") += std::to_string(bins) + " count " +
                          std::to_string(n) + " min " + fmt_ps(mn) + " max " +
                          fmt_ps(mx);
    hist_min_ = mn;
    hist_width_ = bins == 0 ? 0 : histogram_width(mn, mx, bins);
  }

  void bin(std::uint64_t i, std::uint64_t count) {
    // Bin edges wrap like the width: exact on well-formed snapshots, defined
    // on any.
    const std::uint64_t lo =
        static_cast<std::uint64_t>(hist_min_) + i * hist_width_;
    item("bin ") += std::to_string(i) + " lo " +
                    fmt_ps(static_cast<TimePs>(lo)) + " hi " +
                    fmt_ps(static_cast<TimePs>(lo + hist_width_)) + " count " +
                    std::to_string(count);
  }

  void constraints(std::string_view inst, std::uint64_t pins) {
    std::string& line = head("constraints ");
    line.append(inst);
    line += " pins " + std::to_string(pins);
  }

  void pin(std::string_view name, const NodeTiming& t) {
    std::string& line = item("pin ");
    line.append(name);
    line += " slack " + fmt_ps(t.slack) + " ready " + fmt_ps(t.ready.rise) +
            " " + fmt_ps(t.ready.fall) + " required " +
            fmt_ps(t.required.rise) + " " + fmt_ps(t.required.fall);
  }

  void check_hold(TimePs margin, std::uint64_t violations) {
    head("check_hold ") +=
        fmt_ps(margin) + " violations " + std::to_string(violations);
  }

  void hold(const SourceHoldPair& p) {
    std::string& line = item("hold ");
    line.append(p.launch_label);
    line += " -> ";
    line.append(p.capture_label);
    line += " margin " + fmt_ps(p.margin);
  }

  void gen_constraints(AnalysisStatus status, std::int32_t backward,
                       std::int32_t forward, std::uint64_t endpoints) {
    head("gen_constraints status ") +=
        std::string(analysis_status_name(status)) + " backward " +
        std::to_string(backward) + " forward " + std::to_string(forward) +
        " endpoints " + std::to_string(endpoints);
  }

  void endpoint(std::string_view node, TimePs ready, TimePs required,
                TimePs slack) {
    std::string& line = item("node ");
    line.append(node);
    line += " ready " + fmt_ps(ready) + " required " + fmt_ps(required) +
            " slack " + fmt_ps(slack);
  }

  void corner_list(std::uint64_t n, std::string_view worst) {
    std::string& line = head("corner list ");
    line += std::to_string(n) + " worst ";
    line.append(worst);
  }

  void corner_entry(std::uint64_t k, const SourceCorner& c, TimePs worst,
                    std::uint64_t violations) {
    std::string& line = item("corner ");
    line += std::to_string(k) + " ";
    line.append(c.name);
    line += " derate " + std::to_string(c.derate_pm) + " wire " +
            std::to_string(c.wire_pm) + " worst_slack " + fmt_ps(worst) +
            " violations " + std::to_string(violations);
  }

 private:
  std::string& head(std::string_view verb) {
    std::string& line = out_.lines.emplace_back("ok ");
    if (scoped_) {
      line += "corner ";
      line.append(corner_);
      line += ' ';
    }
    line.append(verb);
    return line;
  }

  std::string& item(std::string_view text) {
    std::string& line = out_.lines.emplace_back("  ");
    line.append(text);
    return line;
  }

  QueryResult& out_;
  bool scoped_ = false;
  std::string_view corner_;
  TimePs hist_min_ = 0;
  std::uint64_t hist_width_ = 0;
};

/// The verbs `corner <sel>` may scope.
inline bool corner_scopable(Proto2Op op) {
  return op == Proto2Op::kSlack || op == Proto2Op::kWorstPaths ||
         op == Proto2Op::kHistogram || op == Proto2Op::kSummary ||
         op == Proto2Op::kCheckHold;
}

/// A `corner` selector to a corner index: a corner name first, then a
/// decimal index of at most 9 digits; npos when it matches neither.
inline std::size_t resolve_corner(const SnapshotSource& src,
                                  std::string_view sel) {
  for (std::size_t k = 0; k < src.num_corners(); ++k) {
    if (src.corner(k).name == sel) return k;
  }
  if (!sel.empty() && sel.size() <= 9 &&
      sel.find_first_not_of("0123456789") == std::string_view::npos) {
    std::size_t k = 0;
    for (const char c : sel) k = k * 10 + static_cast<std::size_t>(c - '0');
    if (k < src.num_corners()) return k;
  }
  return SnapshotSource::npos;
}

/// The request evaluate_read() serves for a parsed text query: views into
/// q's arguments, no allocation.  Verbs without a typed opcode map to kText.
Proto2Request proto2_request_of(const ParsedQuery& q);

/// Evaluate one read request into `sink`.  Pure: the same request and
/// source data give the same fields, on any thread.  Every emitted list
/// item is charged to `timer` first; an exhausted budget turns the reply
/// into the deadline error.
template <typename Sink>
void evaluate_read(const Proto2Request& req, const SnapshotSource& src,
                   BudgetTimer& timer, Sink& sink) {
  if (!req.ok) return sink.error(req.code, req.error);
  const auto deadline = [&] {
    sink.error(DiagCode::kAnalysisBudget,
               "read deadline exceeded; snapshot " + std::to_string(src.id()) +
                   " unaffected");
  };
  const auto spent = [&] {
    timer.count_cycle();
    if (!timer.exhausted()) return false;
    deadline();
    return true;
  };
  if (timer.exhausted()) return deadline();

  ReadScope scope;
  Proto2Op op = req.op;
  if (op == Proto2Op::kCorner) {
    if (!src.has_corners()) {
      return sink.error(DiagCode::kServiceRejected,
                        "snapshot " + std::to_string(src.id()) +
                            " carries no corner capture "
                            "(session ran without a corner set)");
    }
    if (req.corner_list) {
      const std::size_t n = src.num_corners();
      sink.corner_list(n, src.corner(src.worst_corner()).name);
      for (std::size_t k = 0; k < n; ++k) {
        if (spent()) return;
        sink.corner_entry(k, src.corner(k), src.worst_slack(ReadScope{k}),
                          src.num_violations(ReadScope{k}));
      }
      return;
    }
    scope.corner = resolve_corner(src, req.selector);
    if (scope.corner == SnapshotSource::npos) {
      return sink.error(DiagCode::kParseUnknownName,
                        "unknown corner '" + std::string(req.selector) +
                            "' (try `corner list`)");
    }
    if (!corner_scopable(req.sub)) {
      return sink.error(DiagCode::kParseSyntax, "not a corner read query");
    }
    sink.scope(src.corner(scope.corner).name);
    op = req.sub;
  }

  switch (op) {
    case Proto2Op::kPing:
      return sink.pong();
    case Proto2Op::kSummary:
      if (scope.base()) {
        return sink.summary(src.id(), src.status(), src.works_as_intended(),
                            src.worst_slack(scope), src.num_terminals(),
                            src.num_violations(scope), src.num_paths(scope));
      } else {
        const SourceCorner c = src.corner(scope.corner);
        return sink.corner_summary(src.id(), c.derate_pm, c.wire_pm,
                                   src.worst_slack(scope),
                                   src.num_violations(scope),
                                   src.num_paths(scope));
      }
    case Proto2Op::kSlack: {
      const std::size_t idx = src.find_node(req.name);
      const std::optional<TimePs> slack =
          idx == SnapshotSource::npos ? std::nullopt
                                      : src.node_slack(scope, idx);
      if (!slack) {
        return sink.error(DiagCode::kParseUnknownName,
                          "unknown node '" + std::string(req.name) + "'");
      }
      return sink.slack(req.name, *slack);
    }
    case Proto2Op::kWorstPaths: {
      const std::size_t served =
          std::min<std::size_t>(req.count, src.num_paths(scope));
      sink.worst_paths(served, src.num_violations(scope));
      for (std::size_t i = 0; i < served; ++i) {
        if (spent()) return;
        sink.path(i, src.path(scope, i));
      }
      return;
    }
    case Proto2Op::kHistogram: {
      const std::size_t n = src.num_capture_slacks(scope);
      if (n == 0) return sink.histogram(0, 0, 0, 0);
      TimePs mn = src.capture_slack(scope, 0), mx = mn;
      for (std::size_t i = 1; i < n; ++i) {
        const TimePs s = src.capture_slack(scope, i);
        mn = std::min(mn, s);
        mx = std::max(mx, s);
      }
      const std::uint64_t bins = req.count;
      const std::uint64_t width = histogram_width(mn, mx, bins);
      static thread_local std::vector<std::uint64_t> count;
      count.assign(static_cast<std::size_t>(bins), 0);
      for (std::size_t i = 0; i < n; ++i) {
        ++count[histogram_bin(src.capture_slack(scope, i), mn, width)];
      }
      sink.histogram(bins, n, mn, mx);
      for (std::size_t i = 0; i < bins; ++i) {
        if (spent()) return;
        sink.bin(i, count[i]);
      }
      return;
    }
    case Proto2Op::kConstraints: {
      const SnapshotSource::InstRef ref = src.find_instance(req.name);
      if (!ref.found) {
        return sink.error(DiagCode::kParseUnknownName,
                          "unknown instance '" + std::string(req.name) + "'");
      }
      const std::size_t pins = src.num_instance_pins(ref);
      sink.constraints(req.name, pins);
      for (std::size_t i = 0; i < pins; ++i) {
        if (spent()) return;
        const SourcePin pin = src.instance_pin(ref, i);
        sink.pin(pin.name, src.node_timing(pin.node));
      }
      return;
    }
    case Proto2Op::kCheckHold: {
      if (!src.has_hold(scope)) {
        const std::string corner =
            scope.base() ? std::string()
                         : " for corner " +
                               std::string(src.corner(scope.corner).name);
        return sink.error(DiagCode::kServiceRejected,
                          "snapshot " + std::to_string(src.id()) +
                              " carries no hold capture" + corner +
                              " (SessionOptions::capture_hold disabled)");
      }
      // The hold capture holds every connected pair with its worst margin,
      // in the live sweep's (launch, capture) order: filtering by
      // margin < m reproduces check_hold(m) on the analyser byte for byte.
      const std::size_t pairs = src.num_hold_pairs(scope);
      std::size_t violations = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (src.hold_pair(scope, i).margin < req.margin) ++violations;
      }
      sink.check_hold(req.margin, violations);
      for (std::size_t i = 0; i < pairs; ++i) {
        const SourceHoldPair p = src.hold_pair(scope, i);
        if (p.margin >= req.margin) continue;
        if (spent()) return;
        sink.hold(p);
      }
      return;
    }
    case Proto2Op::kGenConstraints: {
      if (!src.has_constraints()) {
        return sink.error(DiagCode::kServiceRejected,
                          "snapshot " + std::to_string(src.id()) +
                              " carries no constraint capture "
                              "(SessionOptions::capture_constraints disabled)");
      }
      // Violating endpoints, as the one-shot CLI prints them: nodes with a
      // full Algorithm 2 window and non-positive slack.
      const auto endpoint = [](const ConstraintTimes& ct) {
        return ct.has_ready && ct.has_required && ct.slack <= 0;
      };
      const std::size_t cons = src.num_constraint_nodes();
      std::size_t endpoints = 0;
      for (std::size_t i = 0; i < cons; ++i) {
        if (endpoint(src.constraint_node(i))) ++endpoints;
      }
      sink.gen_constraints(src.constraints_status(),
                           src.backward_snatch_cycles(),
                           src.forward_snatch_cycles(), endpoints);
      for (std::size_t i = 0; i < cons; ++i) {
        const ConstraintTimes ct = src.constraint_node(i);
        if (!endpoint(ct)) continue;
        if (spent()) return;
        const std::string unnamed =
            i < src.num_node_names() ? std::string() : std::to_string(i);
        sink.endpoint(i < src.num_node_names() ? src.node_name(i) : unnamed,
                      std::max(ct.ready.rise, ct.ready.fall),
                      std::min(ct.required.rise, ct.required.fall), ct.slack);
      }
      return;
    }
    case Proto2Op::kText:
    case Proto2Op::kCorner:
      break;
  }
  sink.error(DiagCode::kParseSyntax, "not a read query");
}

}  // namespace hb
