// The one read evaluator behind both query protocols.
//
// evaluate_read() answers one read request against a SnapshotSource and
// streams the reply's typed fields, in wire order, into a sink chosen at
// compile time.  Two sinks exist: TextSink (below) writes proto-1 reply
// text, and proto2.cpp's FrameSink writes the typed v2 frame.
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
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Reply sink that writes proto-1 text straight into a reply buffer: the
/// header line, then two-space-indented continuation lines, each ending in
/// '\n'.  Numbers are appended in place.  An error truncates the buffer back
/// to where the reply began and writes the error line instead, as FrameSink
/// drops a half-written frame.
class TextSink {
 public:
  explicit TextSink(std::string& out) : out_(out), base_(out.size()) {}

  ReplyStatus status() const { return status_; }

  void error(DiagCode code, std::string_view message) {
    out_.resize(base_);
    *this << "err " << diag_code_name(code) << ' ' << message << '\n';
    status_ = ReplyStatus{false, code};
  }

  void scope(std::string_view name) {
    scoped_ = true;
    corner_ = name;
  }

  void pong() { head("pong") << '\n'; }

  void summary(std::uint64_t id, AnalysisStatus status, bool works,
               TimePs worst, std::uint64_t terminals,
               std::uint64_t violations, std::uint64_t paths) {
    head("summary snapshot ") << id << " fields 6\n";
    item("status ") << analysis_status_name(status) << '\n';
    item("works_as_intended ") << (works ? "true" : "false") << '\n';
    item("worst_slack ") << Ps{worst} << '\n';
    item("terminals ") << terminals << '\n';
    item("violations ") << violations << '\n';
    item("paths ") << paths << '\n';
  }

  void corner_summary(std::uint64_t id, std::uint32_t derate_pm,
                      std::uint32_t wire_pm, TimePs worst,
                      std::uint64_t violations, std::uint64_t paths) {
    head("summary snapshot ") << id << " fields 5\n";
    item("derate ") << derate_pm << '\n';
    item("wire ") << wire_pm << '\n';
    item("worst_slack ") << Ps{worst} << '\n';
    item("violations ") << violations << '\n';
    item("paths ") << paths << '\n';
  }

  void slack(std::string_view node, TimePs slack) {
    head("slack ") << node << ' ' << Ps{slack} << '\n';
  }

  void worst_paths(std::uint64_t served, std::uint64_t of) {
    head("worst_paths ") << served << " of " << of << '\n';
  }

  void path(std::uint64_t i, const SourcePath& p) {
    item("path ") << i << " slack " << Ps{p.slack} << " launch " << p.launch
                  << " capture " << p.capture << " from " << p.from << " to "
                  << p.to << " steps " << p.steps << '\n';
  }

  void histogram(std::uint64_t bins, std::uint64_t n, TimePs mn, TimePs mx) {
    head("histogram ") << bins << " count " << n << " min " << Ps{mn}
                       << " max " << Ps{mx} << '\n';
    hist_min_ = mn;
    hist_width_ = bins == 0 ? 0 : histogram_width(mn, mx, bins);
  }

  void bin(std::uint64_t i, std::uint64_t count) {
    // Bin edges wrap like the width: exact on well-formed snapshots, defined
    // on any.
    const std::uint64_t lo =
        static_cast<std::uint64_t>(hist_min_) + i * hist_width_;
    item("bin ") << i << " lo " << Ps{static_cast<TimePs>(lo)} << " hi "
                 << Ps{static_cast<TimePs>(lo + hist_width_)} << " count "
                 << count << '\n';
  }

  void constraints(std::string_view inst, std::uint64_t pins) {
    head("constraints ") << inst << " pins " << pins << '\n';
  }

  void pin(std::string_view name, const NodeTiming& t) {
    item("pin ") << name << " slack " << Ps{t.slack} << " ready "
                 << Ps{t.ready.rise} << ' ' << Ps{t.ready.fall} << " required "
                 << Ps{t.required.rise} << ' ' << Ps{t.required.fall} << '\n';
  }

  void check_hold(TimePs margin, std::uint64_t violations) {
    head("check_hold ") << Ps{margin} << " violations " << violations << '\n';
  }

  void hold(const SourceHoldPair& p) {
    item("hold ") << p.launch_label << " -> " << p.capture_label << " margin "
                  << Ps{p.margin} << '\n';
  }

  void gen_constraints(AnalysisStatus status, std::int32_t backward,
                       std::int32_t forward, std::uint64_t endpoints) {
    head("gen_constraints status ") << analysis_status_name(status)
                                    << " backward " << backward << " forward "
                                    << forward << " endpoints " << endpoints
                                    << '\n';
  }

  void endpoint(std::string_view node, TimePs ready, TimePs required,
                TimePs slack) {
    item("node ") << node << " ready " << Ps{ready} << " required "
                  << Ps{required} << " slack " << Ps{slack} << '\n';
  }

  void corner_list(std::uint64_t n, std::string_view worst) {
    head("corner list ") << n << " worst " << worst << '\n';
  }

  void corner_entry(std::uint64_t k, const SourceCorner& c, TimePs worst,
                    std::uint64_t violations) {
    item("corner ") << k << ' ' << c.name << " derate " << c.derate_pm
                    << " wire " << c.wire_pm << " worst_slack " << Ps{worst}
                    << " violations " << violations << '\n';
  }

 private:
  /// A time, appended as fmt_ps formats it.
  struct Ps {
    TimePs t;
  };

  TextSink& head(std::string_view verb) {
    *this << "ok ";
    if (scoped_) *this << "corner " << corner_ << ' ';
    return *this << verb;
  }

  TextSink& item(std::string_view text) { return *this << "  " << text; }

  TextSink& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  TextSink& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
  TextSink& operator<<(Int v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  TextSink& operator<<(Ps p) {
    append_ps(out_, p.t);
    return *this;
  }

  std::string& out_;
  std::size_t base_;
  ReplyStatus status_;
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
                              " (published without captures)");
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
                              "(published without captures)");
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
