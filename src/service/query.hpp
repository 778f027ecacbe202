// Query grammar of the timing service's line protocol (docs/SERVICE.md).
//
// One request per line; the reply is one header line ("ok ..." or
// "err <code> <message>") plus zero or more continuation lines, each
// indented with two spaces.  The header of a multi-line reply always
// carries the continuation count, so clients can frame replies without
// sentinels.
//
// Parsing validates every query (verb spelling, arity, numeric literals)
// and pre-parses its numeric arguments, so "worst_paths 010" and
// "worst_paths 10" evaluate identically.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/diagnostics.hpp"
#include "util/time.hpp"

namespace hb {

enum class QueryVerb {
  // Read queries: evaluated against the current snapshot.
  // check_hold and gen_constraints read the snapshot's hold-pair and
  // Algorithm 2 captures — they never touch the live analyser or take the
  // writer lock (service/snapshot_read.hpp).
  kSlack,
  kWorstPaths,
  kHistogram,
  kConstraints,
  kSummary,
  kCheckHold,
  kGenConstraints,
  /// `corner list` or `corner <name|index> <read query>` — serves from the
  /// snapshot's per-corner sections (docs/SCENARIOS.md).
  kCorner,
  // Write queries: funnel through the session's single writer.
  kSetDelay,
  kUpsize,
  kCommit,
  // Session control (neither read nor written).
  kDeadline,
  kStats,
  kPing,
  // Host-level verbs, handled by the protocol layer, not the session.
  kLoad,
  kSnapshot,
  kBatch,
  /// `proto <version>` — negotiate the wire protocol (docs/SERVICE.md
  /// "Binary protocol v2").  After `proto 2` the connection switches to
  /// length-prefixed binary frames.
  kProto,
  kHelp,
  kQuit,
  kUnknown,
};

bool is_read_query(QueryVerb verb);
bool is_write_query(QueryVerb verb);
/// Read, write or control — everything a Session executes itself.
bool is_session_query(QueryVerb verb);

/// One reply: header line first, continuation lines (two-space indented)
/// after.  `code` is meaningful only when !ok.
struct QueryResult {
  bool ok = true;
  DiagCode code = DiagCode::kParseSyntax;
  std::vector<std::string> lines;

  bool timed_out() const { return !ok && code == DiagCode::kAnalysisBudget; }
};

QueryResult make_ok(std::string header);
QueryResult make_error(DiagCode code, const std::string& message);

/// Reply text on the wire: all lines joined, newline-terminated.
std::string to_wire(const QueryResult& r);

/// The status of a reply rendered straight into wire text: a QueryResult
/// without its lines.
struct ReplyStatus {
  bool ok = true;
  DiagCode code = DiagCode::kParseSyntax;

  bool timed_out() const { return !ok && code == DiagCode::kAnalysisBudget; }
};

/// The inverse of to_wire: split newline-terminated reply text into lines.
QueryResult from_wire(std::string_view wire, ReplyStatus status);

struct ParsedQuery {
  QueryVerb verb = QueryVerb::kUnknown;
  /// Raw argument tokens (names case-sensitive, numbers unparsed).
  std::vector<std::string> args;
  /// Pre-parsed numeric arguments, by grammar position (see parse_query).
  std::int64_t number = 0;
  double fraction = 0;
  /// For kCorner: the scoped read verb (`corner <sel> <sub>`); kUnknown for
  /// `corner list`.  args[0] is the selector, args[1..] the sub-query's.
  QueryVerb corner_sub = QueryVerb::kUnknown;
  /// Verb recognised and arity/format valid.
  bool ok = false;
  /// The reply to send when !ok.
  QueryResult error;
};

/// Accepted values of a numeric read argument.  The text parser and the
/// proto2 request decoder both check against these.
struct ArgRange {
  std::int64_t lo;
  std::int64_t hi;
};
inline constexpr ArgRange kHistogramBins{1, 1000};
inline constexpr ArgRange kWorstPathsCount{0, 100000};

/// "'<token>' is not an integer in [lo, hi]" — the out-of-range message of
/// both request decoders.
std::string range_error(std::string_view token, ArgRange range);

/// Parse and validate one query line.  Empty and '#'-comment lines yield
/// verb kUnknown with ok=false — callers skip them silently (error.lines is
/// empty for exactly this case).
ParsedQuery parse_query(const std::string& line);

/// As parse_query, but re-parses into an existing ParsedQuery, reusing its
/// string and vector capacity — the steady-state read path allocates
/// nothing for queries it has seen the shape of before.  Returns q.ok.
bool parse_query_into(const std::string& line, ParsedQuery& q);

/// "+inf" for the unconstrained sentinel, the plain picosecond integer
/// otherwise — the machine-readable time format of every reply.
std::string fmt_ps(TimePs t);
/// fmt_ps(t), appended to `out` in place.
void append_ps(std::string& out, TimePs t);

}  // namespace hb
