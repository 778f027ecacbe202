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

namespace {

bool fail(ParsedQuery& q, DiagCode code, const std::string& message) {
  q.ok = false;
  q.error = make_error(code, message);
  return false;
}

/// ASCII case-insensitive match of `token` against lower-case `word`.
bool iequals(std::string_view token, std::string_view word) {
  if (token.size() != word.size()) return false;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(token[i])) != word[i]) {
      return false;
    }
  }
  return true;
}

/// Validate the query spelled by toks[0..ntoks), verb first — `total`
/// counts its tokens, stored or not — and store its verb, pre-parsed
/// numbers and raw arguments, the latter at q.args[base..].  A scoped
/// `corner <sel> <query>` validates its query by recursing on the same
/// token views with base + 1, so the scoped arguments sit where the
/// evaluator reads them and every error reads as the unscoped verb's.
bool parse_tokens(const std::string_view* toks, std::size_t ntoks,
                  std::size_t total, std::size_t base, ParsedQuery& q) {
  const VerbSpec* spec = nullptr;
  for (const VerbSpec& v : kVerbs) {
    if (iequals(toks[0], v.name)) {
      spec = &v;
      break;
    }
  }
  if (spec == nullptr) {
    std::string verb(toks[0]);
    std::transform(verb.begin(), verb.end(), verb.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    q.args.resize(base);
    return fail(q, DiagCode::kParseUnknownKeyword,
                "unknown query '" + verb + "' (try `help`)");
  }
  q.verb = spec->verb;
  // Reuse the argument strings in place; surplus entries are dropped.
  const std::size_t stored = base + ntoks - 1;
  if (q.args.size() > stored) q.args.resize(stored);
  for (std::size_t i = 1; i < ntoks; ++i) {
    if (base + i - 1 < q.args.size()) {
      q.args[base + i - 1].assign(toks[i]);
    } else {
      q.args.emplace_back(toks[i]);
    }
  }
  const int argc = static_cast<int>(total - 1);
  if (argc < spec->min_args || argc > spec->max_args) {
    return fail(q, DiagCode::kParseSyntax,
                "'" + std::string(spec->name) + "' expects " +
                    std::to_string(spec->min_args) +
                    (spec->max_args != spec->min_args
                         ? ".." + std::to_string(spec->max_args)
                         : "") +
                    " argument(s), got " + std::to_string(argc));
  }
  std::string* const args = q.args.data() + base;

  // Per-verb numeric validation.
  switch (q.verb) {
    case QueryVerb::kWorstPaths:
    case QueryVerb::kHistogram:
    case QueryVerb::kBatch: {
      char* end = nullptr;
      const long long v = std::strtoll(args[0].c_str(), &end, 10);
      const ArgRange range = q.verb == QueryVerb::kWorstPaths ? kWorstPathsCount
                             : q.verb == QueryVerb::kHistogram ? kHistogramBins
                                                               : kBatchLines;
      if (end == nullptr || *end != '\0' || args[0].empty() ||
          v < range.lo || v > range.hi) {
        return fail(q, DiagCode::kParseBadNumber, range_error(args[0], range));
      }
      q.number = v;
      break;
    }
    case QueryVerb::kSetDelay: {
      TimePs delta = 0;
      try {
        delta = parse_time(args[1]);
      } catch (const Error& e) {
        return fail(q, DiagCode::kParseBadNumber, e.what());
      }
      q.number = delta;
      break;
    }
    case QueryVerb::kCheckHold: {
      TimePs margin = 0;
      if (argc == 1) {
        try {
          margin = parse_time(args[0]);
        } catch (const Error& e) {
          return fail(q, DiagCode::kParseBadNumber, e.what());
        }
      }
      q.number = margin;
      break;
    }
    case QueryVerb::kCorner: {
      // `corner list` or `corner <name|index> <read query>`.  The selector
      // stays case-sensitive (it may name a corner).
      if (iequals(toks[1], "list")) {
        if (argc > 1) {
          return fail(q, DiagCode::kParseSyntax,
                      "'corner list' takes no further arguments");
        }
        args[0] = "list";
        break;
      }
      if (argc < 2) {
        return fail(q, DiagCode::kParseSyntax,
                    "'corner' expects `list` or `<name|index> <read query>`");
      }
      const bool sub_ok =
          parse_tokens(toks + 2, ntoks - 2, total - 2, base + 1, q);
      const QueryVerb sub = q.verb;
      q.verb = QueryVerb::kCorner;
      if (!sub_ok) return false;
      switch (sub) {
        case QueryVerb::kSlack:
        case QueryVerb::kWorstPaths:
        case QueryVerb::kHistogram:
        case QueryVerb::kSummary:
        case QueryVerb::kCheckHold:
          break;
        default:
          return fail(q, DiagCode::kParseSyntax,
                      "'corner' scopes slack, worst_paths, histogram, "
                      "summary or check_hold");
      }
      q.corner_sub = sub;
      break;
    }
    case QueryVerb::kSnapshot: {
      // Subcommand spelled case-insensitively; the optional second argument
      // (`snapshot load <design>`) stays case-sensitive — it names a design.
      std::string sub = args[0];
      std::transform(sub.begin(), sub.end(), sub.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (sub != "save" && sub != "load" && sub != "stat") {
        return fail(q, DiagCode::kParseUnknownKeyword,
                    "unknown snapshot subcommand '" + args[0] +
                        "' (save | load [<design>] | stat)");
      }
      if (sub != "load" && argc > 1) {
        return fail(q, DiagCode::kParseSyntax,
                    "'snapshot " + sub + "' takes no further arguments");
      }
      args[0] = sub;
      break;
    }
    case QueryVerb::kDeadline: {
      char* end = nullptr;
      const double ms = std::strtod(args[0].c_str(), &end);
      if (end == nullptr || *end != '\0' || args[0].empty() || ms < 0 ||
          !(ms <= 1e9)) {
        return fail(q, DiagCode::kParseBadNumber,
                    "'" + args[0] + "' is not a deadline in milliseconds");
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

}  // namespace

bool parse_query_into(const std::string& line, ParsedQuery& q) {
  q.verb = QueryVerb::kUnknown;
  q.number = 0;
  q.fraction = 0;
  q.corner_sub = QueryVerb::kUnknown;
  q.ok = false;
  q.error.ok = true;
  q.error.code = DiagCode::kParseSyntax;
  q.error.lines.clear();

  // Tokenise into views of `line` — the same rules as split_tokens
  // (whitespace separators, '#' starts a comment) without per-token copies.
  constexpr std::size_t kMaxToks = 16;
  std::string_view toks[kMaxToks];
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
      if (ntoks < kMaxToks) {
        toks[ntoks++] = std::string_view(line).substr(start, i - start);
      }
      ++total_toks;
    }
  }
  if (total_toks == 0) {
    // Blank / comment line: ok=false with an empty error — callers skip it.
    q.args.clear();
    return false;
  }
  return parse_tokens(toks, ntoks, total_toks, 0, q);
}

}  // namespace hb
