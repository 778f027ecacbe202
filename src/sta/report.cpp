#include "sta/report.hpp"

#include <algorithm>
#include <sstream>

namespace hb {
namespace {

/// Backtrace the critical chain from `end` through lane `lane` of the
/// pass's ready annotations, matching `prev + d == arrival` with the arc
/// delays the pass was swept with (LaneResults' convention).
std::vector<PathStep> backtrace(const SlackEngine& engine, ClusterId c,
                                const PassResult& res, TNodeId end,
                                std::size_t lane, const RiseFall* arc_delay,
                                std::size_t stride) {
  const TimingGraph& graph = engine.graph();
  std::vector<PathStep> rev;

  HB_ASSERT(res.ready.has(engine.local_index(end)));
  const RiseFall end_ready = res.ready.at(engine.local_index(end), lane);
  bool rising = end_ready.rise >= end_ready.fall;
  TNodeId node = end;
  TimePs arrival = rising ? end_ready.rise : end_ready.fall;

  for (;;) {
    rev.push_back({node, arrival, rising});
    if (!engine.sync().launches_at(node).empty()) break;  // reached a launch

    bool found = false;
    for (std::uint32_t ai : graph.fanin(node)) {
      const TArcRec& arc = graph.arc(ai);
      if (!engine.clusters().cluster_of(arc.from).valid() ||
          engine.clusters().cluster_of(arc.from) != c) {
        continue;
      }
      if (!res.ready.has(engine.local_index(arc.from))) continue;
      const RiseFall from_ready =
          res.ready.at(engine.local_index(arc.from), lane);
      const RiseFall darc =
          arc_delay != nullptr ? arc_delay[ai * stride + lane] : arc.delay;
      const TimePs d = rising ? darc.rise : darc.fall;
      // Which input transition explains this output transition?
      bool prev_rising = rising;
      TimePs prev_arrival = 0;
      switch (arc.unate) {
        case Unate::kPositive:
          prev_rising = rising;
          break;
        case Unate::kNegative:
          prev_rising = !rising;
          break;
        case Unate::kNone:
          prev_rising = from_ready.rise >= from_ready.fall;
          break;
      }
      prev_arrival = prev_rising ? from_ready.rise : from_ready.fall;
      if (prev_arrival + d == arrival) {
        node = arc.from;
        arrival = prev_arrival;
        rising = prev_rising;
        found = true;
        break;
      }
    }
    if (!found) break;  // should not happen; stop defensively
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

}  // namespace

std::vector<SlowPath> enumerate_slow_paths(const SlackEngine& engine,
                                           std::size_t max_paths,
                                           TimePs slack_limit,
                                           const LaneResults& from) {
  const SyncModel& sync = engine.sync();
  const auto capture_slack = [&](SyncId id) {
    return from.capture_slack != nullptr ? from.capture_slack[id.index()]
                                         : engine.capture_slack(id);
  };

  // Violating captures, worst first.
  std::vector<SyncId> violators;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (!si.data_in.valid()) continue;
    const TimePs s = capture_slack(SyncId(i));
    if (s != kInfinitePs && s < slack_limit) violators.push_back(SyncId(i));
  }
  // Order by (slack, SyncId): the id tie-break makes worst-K enumeration
  // deterministic when several paths share a slack (common under
  // multi-frequency clocks, where one element expands into several generic
  // instances with identical windows) — the same K paths in the same order
  // on every run, independent of evaluation schedule or thread count.
  std::sort(violators.begin(), violators.end(), [&](SyncId a, SyncId b) {
    const TimePs sa = capture_slack(a), sb = capture_slack(b);
    if (sa != sb) return sa < sb;
    return a.index() < b.index();
  });
  if (violators.size() > max_paths) violators.resize(max_paths);

  std::vector<SlowPath> out;
  for (SyncId cap : violators) {
    const SyncInstance& si = sync.at(cap);
    const ClusterId c = engine.clusters().cluster_of(si.data_in);
    if (!c.valid()) continue;
    // The cached pass is the pass run_pass_into() would re-evaluate: present
    // slots are exact, and a patched absent one stays absent under has().
    // A finite capture slack implies a present ready slot at the capture.
    const std::size_t pass = engine.assigned_pass(cap);
    const PassResult& res = from.passes != nullptr
                                ? (*from.passes)[c.index()][pass]
                                : engine.cached_pass(c, pass);

    SlowPath path;
    path.slack = capture_slack(cap);
    path.capture = cap;
    path.steps = backtrace(engine, c, res, si.data_in, from.lane,
                           from.arc_delay, from.stride);
    // Identify the launch terminal the chain starts at: the instance at the
    // first step whose assertion matches the start arrival.
    if (!path.steps.empty()) {
      const PathStep& first = path.steps.front();
      const auto& launches = sync.launches_at(first.node);
      for (SyncId l : launches) {
        path.launch = l;  // all launch instances share the node; keep last
      }
    }
    out.push_back(std::move(path));
  }
  return out;
}

std::string format_paths(const SlackEngine& engine,
                         const std::vector<SlowPath>& paths) {
  std::ostringstream os;
  const SyncModel& sync = engine.sync();
  for (const SlowPath& p : paths) {
    os << "slow path: slack " << format_time(p.slack) << ", capture "
       << sync.at(p.capture).label;
    if (p.launch.valid()) os << ", launch " << sync.at(p.launch).label;
    os << "\n";
    for (const PathStep& s : p.steps) {
      os << "    " << engine.graph().node_name(s.node) << " "
         << (s.rising ? "^" : "v") << " @ " << format_time(s.arrival) << "\n";
    }
  }
  return os.str();
}

void flag_slow_paths(Design& design, const TimingGraph& graph,
                     const std::vector<SlowPath>& paths) {
  for (const SlowPath& p : paths) {
    for (const PathStep& s : p.steps) {
      const NetId net = graph.node(s.node).net;
      if (net.valid()) design.flag_slow_net(net);
    }
  }
}

std::string timing_summary(const SlackEngine& engine,
                           const LaneResults& from) {
  const SyncModel& sync = engine.sync();
  std::size_t terminals = 0, violations = 0;
  TimePs worst = kInfinitePs;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncId id(i);
    const TimePs launch = from.launch_slack != nullptr
                              ? from.launch_slack[i]
                              : engine.launch_slack(id);
    const TimePs capture = from.capture_slack != nullptr
                               ? from.capture_slack[i]
                               : engine.capture_slack(id);
    for (TimePs s : {launch, capture}) {
      if (s == kInfinitePs) continue;
      ++terminals;
      if (s <= 0) ++violations;
      worst = std::min(worst, s);
    }
  }
  std::ostringstream os;
  os << "terminals: " << terminals << ", violations: " << violations
     << ", worst slack: " << (worst == kInfinitePs ? "+inf" : format_time(worst))
     << ", clusters: " << engine.clusters().num_clusters()
     << ", analysis passes: " << engine.num_passes_total() << "\n";
  return os.str();
}

}  // namespace hb
