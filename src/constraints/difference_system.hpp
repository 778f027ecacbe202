// A system of difference constraints over integer variables:
//     x <= c,   x >= c,   x_j - x_i >= c,
// solved by Bellman-Ford negative-cycle detection on the standard
// constraint graph.  Used as the independent feasibility oracle for the
// paper's proposition ("path p is too slow if and only if no combination of
// offsets satisfying the synchronising element constraints satisfies all
// path constraints") — see constraints/feasibility.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace hb {

class DifferenceSystem {
 public:
  /// Adds a variable; returns its index.
  int add_variable(std::string name);
  std::size_t num_variables() const { return names_.size(); }
  const std::string& name(int v) const { return names_.at(static_cast<std::size_t>(v)); }

  void add_upper(int var, TimePs c);             // x_var <= c
  void add_lower(int var, TimePs c);             // x_var >= c
  void add_diff_ge(int j, int i, TimePs c);      // x_j - x_i >= c
  /// Record a constant constraint already known to be violated.
  void add_contradiction(std::string reason);

  struct Result {
    bool feasible = false;
    /// A satisfying assignment when feasible (one of many).
    std::vector<TimePs> solution;
    std::string reason;  // first contradiction, if any
  };

  /// Bellman-Ford over variables plus an origin node.
  Result solve() const;

 private:
  struct Edge {
    int from;
    int to;
    TimePs weight;  // x_to - x_from <= weight
  };

  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  bool contradiction_ = false;
  std::string reason_;
};

}  // namespace hb
