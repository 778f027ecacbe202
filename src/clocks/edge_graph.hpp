// Section 7 of the paper: deciding where to "break open" the clock period.
//
// A directed graph represents the cyclic sequence of clock edges within one
// overall period.  Each way of breaking open the period corresponds to
// removing one original arc — equivalently, to choosing the *break node* v
// the linear order starts at.  Every cluster input/output combination with a
// switching path adds a requirement: the input's ideal assertion edge `a`
// must appear strictly before the output's ideal closure edge `c` in the
// linear order.
//
// With the linearisation used here (assertion times map to [0, T), closure
// times to (0, T], so a closure coinciding with the break maps to T), a
// break at node v satisfies requirement (a, c) exactly when v lies in the
// cyclic segment [c .. a] walked forward from c (for a == c, only v == a —
// this is the flip-flop-to-flip-flop "exactly one period" case).
//
// Correctness of per-output pass assignment (used by the slack engine, and
// verified by property tests): for a requirement (a, c), every satisfying
// break places c at linear position >= T - dist(c, a), and every violating
// break places it strictly lower.  Hence if the chosen break set hits every
// requirement, the break that places c *closest to the end* satisfies all
// of c's requirements simultaneously — one analysis pass per break node
// suffices, and each output's slack is read from its assigned pass.
//
// The minimum break set is a minimum hitting set over the per-requirement
// allowed segments, found — as in the paper — "by exhaustive search of the
// graph, starting with ... each single original arc, then ... all possible
// pairs, and so on".  We search exhaustively up to size 4 (the paper: "very
// seldom is it necessary to remove more than two arcs") and fall back to a
// greedy cover beyond that, which preserves correctness but not minimality.
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"

namespace hb {

class ClockEdgeGraph {
 public:
  /// Build from explicit edge times (deduplicated, sorted internally).
  /// All times must lie in [0, overall_period).
  ClockEdgeGraph(std::vector<TimePs> edge_times, TimePs overall_period);

  TimePs overall_period() const { return period_; }
  std::size_t num_nodes() const { return times_.size(); }
  TimePs node_time(std::size_t n) const { return times_.at(n); }
  /// Node whose time equals t (exact); throws if absent.
  std::size_t node_at(TimePs t) const;

  /// Record that assertion edge `a` must precede closure edge `c`.
  /// Duplicate pairs are ignored.  Both must be existing edge times.
  void add_requirement(TimePs assertion, TimePs closure);
  std::size_t num_requirements() const { return requirements_.size(); }

  /// Break nodes that satisfy a single requirement: the cyclic segment
  /// [c .. a] inclusive (just {a} when a == c).
  std::vector<std::size_t> allowed_breaks(TimePs assertion, TimePs closure) const;

  /// Minimum-cardinality set of break nodes hitting all requirements.
  /// With no requirements, returns a single arbitrary break (one pass is
  /// always needed).  Deterministic: the lexicographically first minimal
  /// set in node order.
  std::vector<std::size_t> solve_min_breaks() const;

  /// Linearised coordinate of an assertion time relative to break node b:
  /// in [0, T).
  TimePs linear_assert(TimePs t, std::size_t break_node) const;
  /// Linearised coordinate of a closure time relative to break node b:
  /// in (0, T] (the break instant itself maps to T — "one full period").
  TimePs linear_close(TimePs t, std::size_t break_node) const;

 private:
  bool requirement_hit(const std::pair<std::size_t, std::size_t>& req,
                       const std::vector<std::size_t>& breaks) const;
  bool in_segment(std::size_t c, std::size_t a, std::size_t v) const;

  TimePs period_ = 0;
  std::vector<TimePs> times_;  // sorted distinct edge times
  std::vector<std::pair<std::size_t, std::size_t>> requirements_;  // (a, c)
};

}  // namespace hb
