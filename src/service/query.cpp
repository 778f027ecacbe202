#include "service/query.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "clocks/clock_io.hpp"  // parse_time
#include "util/error.hpp"

namespace hb {
namespace {

struct VerbSpec {
  const char* name;
  QueryVerb verb;
  int min_args;
  int max_args;
};

constexpr VerbSpec kVerbs[] = {
    {"slack", QueryVerb::kSlack, 1, 1},
    {"worst_paths", QueryVerb::kWorstPaths, 1, 1},
    {"histogram", QueryVerb::kHistogram, 1, 1},
    {"constraints", QueryVerb::kConstraints, 1, 1},
    {"summary", QueryVerb::kSummary, 0, 0},
    {"set_delay", QueryVerb::kSetDelay, 2, 2},
    {"upsize", QueryVerb::kUpsize, 1, 1},
    {"commit", QueryVerb::kCommit, 0, 0},
    {"check_hold", QueryVerb::kCheckHold, 0, 1},
    {"gen_constraints", QueryVerb::kGenConstraints, 0, 0},
    {"corner", QueryVerb::kCorner, 1, 4},
    {"deadline", QueryVerb::kDeadline, 1, 1},
    {"stats", QueryVerb::kStats, 0, 0},
    {"ping", QueryVerb::kPing, 0, 0},
    {"load", QueryVerb::kLoad, 2, 3},
    {"snapshot", QueryVerb::kSnapshot, 1, 2},
    {"batch", QueryVerb::kBatch, 1, 1},
    {"proto", QueryVerb::kProto, 1, 1},
    {"help", QueryVerb::kHelp, 0, 0},
    {"quit", QueryVerb::kQuit, 0, 0},
    {"exit", QueryVerb::kQuit, 0, 0},
};

constexpr ArgRange kBatchLines{1, 100000};

}  // namespace

bool is_read_query(QueryVerb verb) {
  switch (verb) {
    case QueryVerb::kSlack:
    case QueryVerb::kWorstPaths:
    case QueryVerb::kHistogram:
    case QueryVerb::kConstraints:
    case QueryVerb::kSummary:
    case QueryVerb::kCheckHold:
    case QueryVerb::kGenConstraints:
    case QueryVerb::kCorner:
      return true;
    default:
      return false;
  }
}

bool is_write_query(QueryVerb verb) {
  return verb == QueryVerb::kSetDelay || verb == QueryVerb::kUpsize ||
         verb == QueryVerb::kCommit;
}

bool is_session_query(QueryVerb verb) {
  return is_read_query(verb) || is_write_query(verb) ||
         verb == QueryVerb::kDeadline || verb == QueryVerb::kStats ||
         verb == QueryVerb::kPing;
}

QueryResult make_ok(std::string header) {
  QueryResult r;
  r.lines.push_back(std::move(header));
  return r;
}

QueryResult make_error(DiagCode code, const std::string& message) {
  QueryResult r;
  r.ok = false;
  r.code = code;
  r.lines.push_back("err " + std::string(diag_code_name(code)) + " " + message);
  return r;
}

std::string to_wire(const QueryResult& r) {
  std::string out;
  for (const std::string& line : r.lines) {
    out += line;
    out += '\n';
  }
  return out;
}

QueryResult from_wire(std::string_view wire, ReplyStatus status) {
  QueryResult r;
  r.ok = status.ok;
  r.code = status.code;
  while (!wire.empty()) {
    const std::size_t end = wire.find('\n');
    r.lines.emplace_back(wire.substr(0, end));
    if (end == std::string_view::npos) break;
    wire.remove_prefix(end + 1);
  }
  return r;
}

void append_ps(std::string& out, TimePs t) {
  if (t >= kInfinitePs) {
    out += "+inf";
  } else if (t <= -kInfinitePs) {
    out += "-inf";
  } else {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, t).ptr);
  }
}

std::string fmt_ps(TimePs t) {
  std::string out;
  append_ps(out, t);
  return out;
}

std::string range_error(std::string_view token, ArgRange range) {
  return "'" + std::string(token) + "' is not an integer in [" +
         std::to_string(range.lo) + ", " + std::to_string(range.hi) + "]";
}

ParsedQuery parse_query(const std::string& line) {
  ParsedQuery q;
  parse_query_into(line, q);
  return q;
}

bool parse_query_into(const std::string& line, ParsedQuery& q) {
  q.verb = QueryVerb::kUnknown;
  q.number = 0;
  q.fraction = 0;
  q.corner_sub = QueryVerb::kUnknown;
  q.ok = false;
  q.error.ok = true;
  q.error.code = DiagCode::kParseSyntax;
  q.error.lines.clear();

  const auto fail = [&q](DiagCode code, const std::string& message) {
    q.ok = false;
    q.error = make_error(code, message);
    return false;
  };

  // Tokenise with offsets into `line` — the same rules as split_tokens
  // (whitespace separators, '#' starts a comment) without per-token copies.
  struct TokView {
    const char* ptr;
    std::size_t len;
  };
  constexpr std::size_t kMaxToks = 16;
  TokView toks[kMaxToks];
  std::size_t ntoks = 0;       // tokens stored (capped at kMaxToks)
  std::size_t total_toks = 0;  // tokens seen — drives the arity check
  {
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (i >= line.size() || line[i] == '#') break;
      const std::size_t start = i;
      while (i < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[i]))) {
        ++i;
      }
      if (ntoks < kMaxToks) toks[ntoks++] = TokView{line.data() + start, i - start};
      ++total_toks;
    }
  }
  if (total_toks == 0) {
    // Blank / comment line: ok=false with an empty error — callers skip it.
    q.args.clear();
    return false;
  }

  static thread_local std::string verb;
  verb.assign(toks[0].ptr, toks[0].len);
  std::transform(verb.begin(), verb.end(), verb.begin(),
                 [](unsigned char c) { return std::tolower(c); });

  const VerbSpec* spec = nullptr;
  for (const VerbSpec& v : kVerbs) {
    if (verb == v.name) {
      spec = &v;
      break;
    }
  }
  if (spec == nullptr) {
    q.args.clear();
    return fail(DiagCode::kParseUnknownKeyword,
                "unknown query '" + verb + "' (try `help`)");
  }
  q.verb = spec->verb;
  // Reuse the argument strings in place; surplus entries are dropped.
  const std::size_t stored_args = ntoks - 1;
  if (q.args.size() > stored_args) q.args.resize(stored_args);
  for (std::size_t i = 1; i < ntoks; ++i) {
    if (i - 1 < q.args.size()) {
      q.args[i - 1].assign(toks[i].ptr, toks[i].len);
    } else {
      q.args.emplace_back(toks[i].ptr, toks[i].len);
    }
  }
  const int argc = static_cast<int>(total_toks - 1);
  if (argc < spec->min_args || argc > spec->max_args) {
    return fail(DiagCode::kParseSyntax,
                "'" + std::string(spec->name) + "' expects " +
                    std::to_string(spec->min_args) +
                    (spec->max_args != spec->min_args
                         ? ".." + std::to_string(spec->max_args)
                         : "") +
                    " argument(s), got " + std::to_string(argc));
  }

  // Per-verb numeric validation.
  switch (q.verb) {
    case QueryVerb::kWorstPaths:
    case QueryVerb::kHistogram:
    case QueryVerb::kBatch: {
      char* end = nullptr;
      const long long v = std::strtoll(q.args[0].c_str(), &end, 10);
      const ArgRange range = q.verb == QueryVerb::kWorstPaths ? kWorstPathsCount
                             : q.verb == QueryVerb::kHistogram ? kHistogramBins
                                                               : kBatchLines;
      if (end == nullptr || *end != '\0' || q.args[0].empty() ||
          v < range.lo || v > range.hi) {
        return fail(DiagCode::kParseBadNumber, range_error(q.args[0], range));
      }
      q.number = v;
      break;
    }
    case QueryVerb::kSetDelay: {
      TimePs delta = 0;
      try {
        delta = parse_time(q.args[1]);
      } catch (const Error& e) {
        return fail(DiagCode::kParseBadNumber, e.what());
      }
      q.number = delta;
      break;
    }
    case QueryVerb::kCheckHold: {
      TimePs margin = 0;
      if (!q.args.empty()) {
        try {
          margin = parse_time(q.args[0]);
        } catch (const Error& e) {
          return fail(DiagCode::kParseBadNumber, e.what());
        }
      }
      q.number = margin;
      break;
    }
    case QueryVerb::kCorner: {
      // `corner list` or `corner <name|index> <read query>`.  The selector
      // stays case-sensitive (it may name a corner); the scoped query is
      // parsed recursively so its validation matches the unscoped verb
      // exactly.
      std::string sub = q.args[0];
      std::transform(sub.begin(), sub.end(), sub.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (sub == "list") {
        if (q.args.size() > 1) {
          return fail(DiagCode::kParseSyntax,
                      "'corner list' takes no further arguments");
        }
        q.args[0] = "list";
        break;
      }
      if (q.args.size() < 2) {
        return fail(DiagCode::kParseSyntax,
                    "'corner' expects `list` or `<name|index> <read query>`");
      }
      std::string scoped;
      for (std::size_t i = 1; i < q.args.size(); ++i) {
        if (i > 1) scoped += ' ';
        scoped += q.args[i];
      }
      ParsedQuery inner = parse_query(scoped);
      if (!inner.ok) {
        std::string msg = inner.error.lines.empty()
                              ? std::string("invalid scoped query")
                              : inner.error.lines[0];
        const std::string prefix =
            "err " + std::string(diag_code_name(inner.error.code)) + " ";
        if (msg.compare(0, prefix.size(), prefix) == 0) {
          msg = msg.substr(prefix.size());
        }
        return fail(inner.error.code, msg);
      }
      switch (inner.verb) {
        case QueryVerb::kSlack:
        case QueryVerb::kWorstPaths:
        case QueryVerb::kHistogram:
        case QueryVerb::kSummary:
        case QueryVerb::kCheckHold:
          break;
        default:
          return fail(DiagCode::kParseSyntax,
                      "'corner' scopes slack, worst_paths, histogram, "
                      "summary or check_hold");
      }
      q.corner_sub = inner.verb;
      q.number = inner.number;
      // Rewrite args to [selector, <sub args...>] so the evaluator reads the
      // scoped query's arguments at the same positions as the unscoped one.
      std::vector<std::string> rebuilt;
      rebuilt.push_back(q.args[0]);
      for (std::string& a : inner.args) rebuilt.push_back(std::move(a));
      q.args = std::move(rebuilt);
      break;
    }
    case QueryVerb::kSnapshot: {
      // Subcommand spelled case-insensitively; the optional second argument
      // (`snapshot load <design>`) stays case-sensitive — it names a design.
      std::string sub = q.args[0];
      std::transform(sub.begin(), sub.end(), sub.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (sub != "save" && sub != "load" && sub != "stat") {
        return fail(DiagCode::kParseUnknownKeyword,
                    "unknown snapshot subcommand '" + q.args[0] +
                        "' (save | load [<design>] | stat)");
      }
      if (sub != "load" && q.args.size() > 1) {
        return fail(DiagCode::kParseSyntax,
                    "'snapshot " + sub + "' takes no further arguments");
      }
      q.args[0] = sub;
      break;
    }
    case QueryVerb::kDeadline: {
      char* end = nullptr;
      const double ms = std::strtod(q.args[0].c_str(), &end);
      if (end == nullptr || *end != '\0' || q.args[0].empty() || ms < 0 ||
          !(ms <= 1e9)) {
        return fail(DiagCode::kParseBadNumber,
                    "'" + q.args[0] + "' is not a deadline in milliseconds");
      }
      q.fraction = ms;
      break;
    }
    default:
      break;
  }
  q.ok = true;
  return true;
}

}  // namespace hb
