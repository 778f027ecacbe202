#include "clocks/edge_graph.hpp"

#include <algorithm>
#include <functional>

#include "util/error.hpp"

namespace hb {

ClockEdgeGraph::ClockEdgeGraph(std::vector<TimePs> edge_times, TimePs overall_period)
    : period_(overall_period), times_(std::move(edge_times)) {
  if (period_ <= 0) raise("clock edge graph needs a positive overall period");
  std::sort(times_.begin(), times_.end());
  times_.erase(std::unique(times_.begin(), times_.end()), times_.end());
  if (times_.empty()) raise("clock edge graph needs at least one edge");
  for (TimePs t : times_) {
    if (t < 0 || t >= period_) raise("clock edge time outside the overall period");
  }
}

std::size_t ClockEdgeGraph::node_at(TimePs t) const {
  auto it = std::lower_bound(times_.begin(), times_.end(), t);
  if (it == times_.end() || *it != t) {
    raise("no clock edge at time " + format_time(t));
  }
  return static_cast<std::size_t>(it - times_.begin());
}

void ClockEdgeGraph::add_requirement(TimePs assertion, TimePs closure) {
  const std::pair<std::size_t, std::size_t> req{node_at(assertion), node_at(closure)};
  if (std::find(requirements_.begin(), requirements_.end(), req) ==
      requirements_.end()) {
    requirements_.push_back(req);
  }
}

bool ClockEdgeGraph::in_segment(std::size_t c, std::size_t a, std::size_t v) const {
  // Is v in the cyclic segment [c .. a] walked forward from c?
  if (a == c) return v == a;
  if (c <= a) return v >= c && v <= a;
  return v >= c || v <= a;  // segment wraps past the period boundary
}

std::vector<std::size_t> ClockEdgeGraph::allowed_breaks(TimePs assertion,
                                                        TimePs closure) const {
  const std::size_t a = node_at(assertion);
  const std::size_t c = node_at(closure);
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < times_.size(); ++v) {
    if (in_segment(c, a, v)) out.push_back(v);
  }
  return out;
}

bool ClockEdgeGraph::requirement_hit(const std::pair<std::size_t, std::size_t>& req,
                                     const std::vector<std::size_t>& breaks) const {
  for (std::size_t v : breaks) {
    if (in_segment(req.second, req.first, v)) return true;
  }
  return false;
}

std::vector<std::size_t> ClockEdgeGraph::solve_min_breaks() const {
  const std::size_t n = times_.size();
  if (requirements_.empty()) return {0};

  auto all_hit = [&](const std::vector<std::size_t>& breaks) {
    return std::all_of(requirements_.begin(), requirements_.end(),
                       [&](const auto& r) { return requirement_hit(r, breaks); });
  };

  // Exhaustive search in increasing size, as in the paper.  Lexicographic
  // combination enumeration makes the result deterministic.
  const std::size_t kExhaustiveLimit = 4;
  std::vector<std::size_t> combo;
  // Recursive lambda over combinations of size k starting at `start`.
  std::function<bool(std::size_t, std::size_t)> search =
      [&](std::size_t start, std::size_t remaining) -> bool {
    if (remaining == 0) return all_hit(combo);
    for (std::size_t v = start; v + remaining <= n; ++v) {
      combo.push_back(v);
      if (search(v + 1, remaining - 1)) return true;
      combo.pop_back();
    }
    return false;
  };
  for (std::size_t k = 1; k <= std::min(n, kExhaustiveLimit); ++k) {
    combo.clear();
    if (search(0, k)) return combo;
  }

  // Greedy fallback: repeatedly pick the break covering the most unmet
  // requirements.  Always terminates because every requirement's segment is
  // non-empty.
  std::vector<std::size_t> breaks;
  std::vector<bool> met(requirements_.size(), false);
  std::size_t unmet = requirements_.size();
  while (unmet > 0) {
    std::size_t best = 0, best_cover = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t cover = 0;
      for (std::size_t r = 0; r < requirements_.size(); ++r) {
        if (!met[r] && in_segment(requirements_[r].second, requirements_[r].first, v)) {
          ++cover;
        }
      }
      if (cover > best_cover) {
        best_cover = cover;
        best = v;
      }
    }
    HB_ASSERT(best_cover > 0);
    breaks.push_back(best);
    for (std::size_t r = 0; r < requirements_.size(); ++r) {
      if (!met[r] && in_segment(requirements_[r].second, requirements_[r].first, best)) {
        met[r] = true;
        --unmet;
      }
    }
  }
  std::sort(breaks.begin(), breaks.end());
  return breaks;
}

TimePs ClockEdgeGraph::linear_assert(TimePs t, std::size_t break_node) const {
  return mod_period(t - times_.at(break_node), period_);
}

TimePs ClockEdgeGraph::linear_close(TimePs t, std::size_t break_node) const {
  return mod_period(t - times_.at(break_node) - 1, period_) + 1;
}

}  // namespace hb
