#include "scenario/corner_analysis.hpp"

#include <algorithm>
#include <sstream>

#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"

namespace hb {
namespace {

/// Corner-k mirror of the report backtrace: trace the critical chain
/// through lane `lane`'s ready values, matching `prev + d == arrival` with
/// the corner's derated arc delays.
std::vector<PathStep> backtrace_corner(const SlackEngine& engine,
                                       const CornerDelays& delays,
                                       std::size_t lane, ClusterId c,
                                       const CornerPassResult& res,
                                       TNodeId end) {
  const TimingGraph& graph = engine.graph();
  std::vector<PathStep> rev;

  if (!res.ready.has(engine.local_index(end))) return rev;
  const RiseFall end_ready = res.ready.at(engine.local_index(end), lane);
  bool rising = end_ready.rise >= end_ready.fall;
  TNodeId node = end;
  TimePs arrival = rising ? end_ready.rise : end_ready.fall;

  for (;;) {
    rev.push_back({node, arrival, rising});
    if (!engine.sync().launches_at(node).empty()) break;

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
      const RiseFall darc = delays.row(ai)[lane];
      const TimePs d = rising ? darc.rise : darc.fall;
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

CornerAnalysis::CornerAnalysis(const SlackEngine& engine, CornerSet corners)
    : engine_(&engine),
      corners_(corners.empty() ? CornerSet::identity() : std::move(corners)),
      delays_(engine.graph(), corners_) {
  const TimingGraph& graph = engine.graph();
  const ClusterSet& clusters = engine.clusters();
  local_of_node_.assign(graph.num_nodes(), 0);
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    for (std::uint32_t i = 0; i < cl.nodes.size(); ++i) {
      local_of_node_[cl.nodes[i].index()] = i;
    }
  }
  cache_.resize(clusters.num_clusters());
  dirty_.resize(clusters.num_clusters());
  const std::size_t K = corners_.size();
  num_sync_ = engine.sync().num_instances();
  launch_slack_.assign(K * num_sync_, kInfinitePs);
  capture_slack_.assign(K * num_sync_, kInfinitePs);
  node_.assign(K, std::vector<NodeTiming>(graph.num_nodes()));
}

void CornerAnalysis::run_pass_into_cache(std::uint32_t c, std::size_t pass) {
  const ClusterId cid(c);
  run_corner_pass_into(engine_->graph(), engine_->sync(),
                       engine_->clusters().cluster(cid), local_of_node_,
                       engine_->edge_graph(cid), engine_->breaks(cid)[pass],
                       engine_->capture_insts(cid),
                       engine_->assigned_mask(cid, pass), delays_,
                       cache_[c].cache[pass]);
}

void CornerAnalysis::compute(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  ++istats_.full_computes;
  const ClusterSet& clusters = engine_->clusters();
  const std::size_t K = corners_.size();

  // One pool task per pass, dispatched like SlackEngine::compute: the
  // closures capture two pointers, so a warm recompute allocates nothing.
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    ClusterCache& cc = cache_[c];
    const std::size_t np = engine_->breaks(ClusterId(c)).size();
    while (cc.cache.size() < np) cc.cache.emplace_back(K);
  }
  const std::vector<SlackEngine::PassRef>& passes = engine_->all_passes();
  istats_.passes_evaluated += passes.size();
  auto eval = [this](const SlackEngine::PassRef& r) {
    run_pass_into_cache(r.cluster, r.pass);
  };
  if (pool != nullptr && pool->size() > 1) {
    task_fns_.clear();
    for (const SlackEngine::PassRef& r : passes) {
      task_fns_.push_back([&eval, &r] { eval(r); });
    }
    pool->run_batch(task_fns_);
  } else {
    for (const SlackEngine::PassRef& r : passes) eval(r);
  }

  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    ClusterCache& cc = cache_[c];
    const std::size_t np = engine_->breaks(ClusterId(c)).size();
    cc.checksums.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
      const CornerPassResult& res = cc.cache[p];
      cc.checksums[p] = pass_checksum(res.ready, res.required);
    }
  }

  accumulate_all();
  cache_valid_ = true;
  for (ClusterDirty& d : dirty_) d.clear();
  maybe_corrupt_lanes();
}

void CornerAnalysis::accumulate_all() {
  std::fill(launch_slack_.begin(), launch_slack_.end(), kInfinitePs);
  std::fill(capture_slack_.begin(), capture_slack_.end(), kInfinitePs);
  for (std::vector<NodeTiming>& per_corner : node_) {
    std::fill(per_corner.begin(), per_corner.end(), NodeTiming{});
  }
  const ClusterSet& clusters = engine_->clusters();
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const std::size_t np = engine_->breaks(ClusterId(c)).size();
    for (std::size_t p = 0; p < np; ++p) {
      accumulate(ClusterId(c), p, cache_[c].cache[p]);
    }
  }
}

void CornerAnalysis::accumulate(ClusterId c, std::size_t pass,
                                const CornerPassResult& res) {
  const SyncModel& sync = engine_->sync();
  const Cluster& cl = engine_->clusters().cluster(c);
  const ClockEdgeGraph& edges = engine_->edge_graph(c);
  const std::size_t break_node = engine_->breaks(c)[pass];
  const std::vector<SyncId>& captures = engine_->capture_insts(c);
  const std::vector<bool>& assigned = engine_->assigned_mask(c, pass);
  const std::size_t K = corners_.size();

  // Capture terminal slacks (assigned pass only), every corner lane.
  for (std::uint32_t k = 0; k < captures.size(); ++k) {
    if (!assigned[k]) continue;
    const SyncId id = captures[k];
    const SyncInstance& si = sync.at(id);
    const std::uint32_t li = local_of_node_[si.data_in.index()];
    if (!res.ready.has(li)) continue;
    const TimePs close =
        edges.linear_close(si.ideal_close, break_node) + si.close_offset();
    for (std::size_t lane = 0; lane < K; ++lane) {
      TimePs& slot = capture_slack_[lane * num_sync_ + id.index()];
      slot = std::min(slot, close - res.ready.at(li, lane).max());
    }
  }

  // Launch terminal slacks: min over passes of required - assertion.
  for (TNodeId n : cl.source_nodes) {
    const std::uint32_t li = local_of_node_[n.index()];
    if (!res.required.has(li)) continue;
    for (SyncId id : sync.launches_at(n)) {
      const SyncInstance& si = sync.at(id);
      const TimePs a =
          edges.linear_assert(si.ideal_assert, break_node) + si.assert_offset();
      for (std::size_t lane = 0; lane < K; ++lane) {
        TimePs& slot = launch_slack_[lane * num_sync_ + id.index()];
        slot = std::min(slot, res.required.at(li, lane).min() - a);
      }
    }
  }

  // Node timings, lane-wise (same merge rules as SlackEngine::accumulate).
  for (std::uint32_t i = 0; i < cl.nodes.size(); ++i) {
    if (!res.ready.has(i)) continue;
    const bool has_req = res.required.has(i);
    const std::size_t node_ix = cl.nodes[i].index();
    for (std::size_t lane = 0; lane < K; ++lane) {
      const RiseFall rdy = res.ready.at(i, lane);
      NodeTiming& nt = node_[lane][node_ix];
      ++nt.settling_count;
      if (!nt.has_ready) {
        nt.has_ready = true;
        if (!nt.has_constraint) nt.ready = rdy;
      } else if (!nt.has_constraint) {
        nt.ready = rf_max(nt.ready, rdy);
      }
      if (!has_req) continue;
      const RiseFall req = res.required.at(i, lane);
      const TimePs pass_slack =
          std::min(req.rise - rdy.rise, req.fall - rdy.fall);
      if (pass_slack < nt.slack) {
        nt.slack = pass_slack;
        nt.ready = rdy;
        nt.required = req;
        nt.has_constraint = true;
      }
    }
  }
}

void CornerAnalysis::reset_accumulation(ClusterId c) {
  const SyncModel& sync = engine_->sync();
  const Cluster& cl = engine_->clusters().cluster(c);
  const std::size_t K = corners_.size();
  for (std::size_t lane = 0; lane < K; ++lane) {
    for (TNodeId n : cl.source_nodes) {
      for (SyncId id : sync.launches_at(n)) {
        launch_slack_[lane * num_sync_ + id.index()] = kInfinitePs;
      }
    }
    for (TNodeId n : cl.sink_nodes) {
      for (SyncId id : sync.captures_at(n)) {
        capture_slack_[lane * num_sync_ + id.index()] = kInfinitePs;
      }
    }
    for (TNodeId n : cl.nodes) node_[lane][n.index()] = NodeTiming{};
  }
}

void CornerAnalysis::invalidate_offsets(SyncId id) {
  const SyncModel& sync = engine_->sync();
  const ClusterSet& clusters = engine_->clusters();
  const SyncInstance& si = sync.at(id);
  if (si.data_out.valid()) {
    const ClusterId c = clusters.cluster_of(si.data_out);
    if (c.valid()) {
      dirty_[c.index()].fwd.push_back(local_of_node_[si.data_out.index()]);
    }
  }
  if (si.data_in.valid()) {
    const ClusterId c = clusters.cluster_of(si.data_in);
    if (c.valid()) {
      dirty_[c.index()].bwd_of_pass.emplace_back(
          static_cast<std::uint32_t>(engine_->assigned_pass(id)),
          local_of_node_[si.data_in.index()]);
    }
  }
}

void CornerAnalysis::invalidate_offsets(const std::vector<SyncId>& ids) {
  for (SyncId id : ids) invalidate_offsets(id);
}

void CornerAnalysis::invalidate_node(TNodeId node) {
  const ClusterId c = engine_->clusters().cluster_of(node);
  if (!c.valid()) return;
  ClusterDirty& d = dirty_[c.index()];
  const std::uint32_t li = local_of_node_[node.index()];
  d.fwd.push_back(li);
  d.bwd.push_back(li);
}

void CornerAnalysis::invalidate_all() { cache_valid_ = false; }

bool CornerAnalysis::has_pending_invalidations() const {
  if (!cache_valid_) return true;
  for (const ClusterDirty& d : dirty_) {
    if (d.any()) return true;
  }
  return false;
}

void CornerAnalysis::refresh_arc_delays(
    const std::vector<std::uint32_t>& arc_ids) {
  delays_.refresh_arcs(engine_->graph(), corners_, arc_ids);
}

void CornerAnalysis::update(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  if (cache_valid_ && self_check_) {
    if (!verify_cache()) ++istats_.self_heals;
  }
  if (!cache_valid_) {
    compute(pool);
    return;
  }
  ++istats_.updates;

  const ClusterSet& clusters = engine_->clusters();
  num_update_tasks_ = 0;
  auto new_task = [this]() -> UpdateTask& {
    if (num_update_tasks_ == update_tasks_.size()) update_tasks_.emplace_back();
    UpdateTask& t = update_tasks_[num_update_tasks_++];
    t.bwd.clear();
    t.full = false;
    t.retraced = 0;
    return t;
  };
  dirty_clusters_.clear();
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    ClusterDirty& d = dirty_[c];
    if (!d.any()) continue;
    dirty_clusters_.push_back(c);
    const Cluster& cl = clusters.cluster(ClusterId(c));
    const std::size_t np = engine_->breaks(ClusterId(c)).size();

    // Same cost model as SlackEngine::update, probe stopped at the limit.
    const std::size_t limit =
        cl.nodes.size() * kFullSweepNum * 2 / kFullSweepDen;
    probe_bwd_.clear();
    for (std::uint32_t li : d.bwd) probe_bwd_.push_back(li);
    for (const auto& [pass, li] : d.bwd_of_pass) probe_bwd_.push_back(li);
    const bool full =
        pass_cone_size(cl, d.fwd, probe_bwd_, probe_ws_, limit) > limit;

    for (std::size_t p = 0; p < np; ++p) {
      UpdateTask& task = new_task();
      task.cluster = c;
      task.pass = static_cast<std::uint32_t>(p);
      task.bwd = d.bwd;
      for (const auto& [pass, li] : d.bwd_of_pass) {
        if (pass == p) task.bwd.push_back(li);
      }
      if (d.fwd.empty() && task.bwd.empty()) {
        --num_update_tasks_;
        continue;
      }
      task.full = full;
      if (full) {
        ++istats_.passes_full_swept;
      } else {
        ++istats_.passes_updated;
      }
    }
  }
  istats_.passes_reused += engine_->num_passes_total() - num_update_tasks_;

  auto run_task = [this](UpdateTask& task) {
    const ClusterId cid(task.cluster);
    const Cluster& cl = engine_->clusters().cluster(cid);
    ClusterCache& cc = cache_[task.cluster];
    if (task.full) {
      run_pass_into_cache(task.cluster, task.pass);
      task.retraced = 2 * cl.nodes.size();
    } else {
      task.retraced = update_corner_pass(
          engine_->graph(), engine_->sync(), cl, engine_->edge_graph(cid),
          engine_->breaks(cid)[task.pass], engine_->capture_insts(cid),
          engine_->assigned_mask(cid, task.pass), delays_,
          dirty_[task.cluster].fwd, task.bwd, cc.cache[task.pass], task.ws);
    }
  };
  if (pool != nullptr && pool->size() > 1 && num_update_tasks_ > 1) {
    task_fns_.clear();
    for (std::size_t i = 0; i < num_update_tasks_; ++i) {
      UpdateTask* task = &update_tasks_[i];
      task_fns_.push_back([&run_task, task] { run_task(*task); });
    }
    pool->run_batch(task_fns_);
  } else {
    for (std::size_t i = 0; i < num_update_tasks_; ++i) {
      run_task(update_tasks_[i]);
    }
  }
  for (std::size_t i = 0; i < num_update_tasks_; ++i) {
    const UpdateTask& task = update_tasks_[i];
    istats_.nodes_retraced += task.retraced;
    ClusterCache& cc = cache_[task.cluster];
    const CornerPassResult& res = cc.cache[task.pass];
    cc.checksums[task.pass] = pass_checksum(res.ready, res.required);
  }

  for (std::uint32_t c : dirty_clusters_) {
    reset_accumulation(ClusterId(c));
    const std::size_t np = engine_->breaks(ClusterId(c)).size();
    for (std::size_t p = 0; p < np; ++p) {
      accumulate(ClusterId(c), p, cache_[c].cache[p]);
    }
    dirty_[c].clear();
  }
  maybe_corrupt_lanes();
}

bool CornerAnalysis::verify_cache() {
  if (!cache_valid_) return true;
  ++istats_.self_checks;
  const ClusterSet& clusters = engine_->clusters();
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const ClusterCache& cc = cache_[c];
    const std::size_t np = engine_->breaks(ClusterId(c)).size();
    for (std::size_t p = 0; p < np; ++p) {
      const CornerPassResult& res = cc.cache[p];
      if (pass_checksum(res.ready, res.required) != cc.checksums[p]) {
        cache_valid_ = false;
        return false;
      }
    }
  }
  return true;
}

void CornerAnalysis::maybe_corrupt_lanes() {
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.armed()) return;
  if (!injector.should_fire(FaultSite::kCornerLaneCorrupt)) return;
  const std::vector<SlackEngine::PassRef>& passes = engine_->all_passes();
  if (passes.empty()) return;
  const std::uint64_t r = injector.draw(FaultSite::kCornerLaneCorrupt);
  const SlackEngine::PassRef& target = passes[r % passes.size()];
  const std::size_t lane =
      static_cast<std::size_t>(r / passes.size()) % corners_.size();
  CornerPassResult& res = cache_[target.cluster].cache[target.pass];
  for (std::size_t i = 0; i < res.ready.size(); ++i) {
    if (res.ready.has(i)) {
      RiseFall e = res.ready.at(i, lane);
      e.rise += 1000;  // 1ns of silent error in one corner lane
      res.ready.set(i, lane, e);
      return;
    }
  }
  if (res.ready.size() > 0) res.ready.set(0, lane, RiseFall{0, 0});
}

TimePs CornerAnalysis::worst_terminal_slack(std::size_t k) const {
  TimePs worst = kInfinitePs;
  for (std::size_t i = 0; i < num_sync_; ++i) {
    worst = std::min(worst, launch_slack_[k * num_sync_ + i]);
    worst = std::min(worst, capture_slack_[k * num_sync_ + i]);
  }
  return worst;
}

MergedSlack CornerAnalysis::merged_launch_slack(SyncId id) const {
  MergedSlack m;
  for (std::size_t k = 0; k < corners_.size(); ++k) {
    const TimePs s = launch_slack(k, id);
    if (s < m.slack) {
      m.slack = s;
      m.corner = static_cast<std::uint32_t>(k);
    }
  }
  return m;
}

MergedSlack CornerAnalysis::merged_capture_slack(SyncId id) const {
  MergedSlack m;
  for (std::size_t k = 0; k < corners_.size(); ++k) {
    const TimePs s = capture_slack(k, id);
    if (s < m.slack) {
      m.slack = s;
      m.corner = static_cast<std::uint32_t>(k);
    }
  }
  return m;
}

MergedSlack CornerAnalysis::merged_worst_slack() const {
  MergedSlack m;
  for (std::size_t k = 0; k < corners_.size(); ++k) {
    const TimePs s = worst_terminal_slack(k);
    if (s < m.slack) {
      m.slack = s;
      m.corner = static_cast<std::uint32_t>(k);
    }
  }
  return m;
}

std::vector<SlowPath> CornerAnalysis::slow_paths(std::size_t k,
                                                 std::size_t max_paths) const {
  const SyncModel& sync = engine_->sync();
  const TimePs slack_limit = 0;

  std::vector<SyncId> violators;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    const SyncInstance& si = sync.at(SyncId(i));
    if (!si.data_in.valid()) continue;
    const TimePs s = capture_slack(k, SyncId(i));
    if (s != kInfinitePs && s < slack_limit) violators.push_back(SyncId(i));
  }
  // (slack, SyncId) order — identical to the single-corner enumeration, so
  // the K=1 identity run reproduces the legacy path list byte for byte.
  std::sort(violators.begin(), violators.end(), [&](SyncId a, SyncId b) {
    const TimePs sa = capture_slack(k, a), sb = capture_slack(k, b);
    if (sa != sb) return sa < sb;
    return a.index() < b.index();
  });
  if (violators.size() > max_paths) violators.resize(max_paths);

  std::vector<SlowPath> out;
  for (SyncId cap : violators) {
    const SyncInstance& si = sync.at(cap);
    const ClusterId c = engine_->clusters().cluster_of(si.data_in);
    if (!c.valid()) continue;
    // The slacks above come from the cached K-lane passes: trace the same.
    const CornerPassResult& res = cached_pass(c, engine_->assigned_pass(cap));

    SlowPath path;
    path.slack = capture_slack(k, cap);
    path.capture = cap;
    path.steps = backtrace_corner(*engine_, delays_, k, c, res, si.data_in);
    if (!path.steps.empty()) {
      const PathStep& first = path.steps.front();
      for (SyncId l : sync.launches_at(first.node)) {
        path.launch = l;  // all launch instances share the node; keep last
      }
    }
    out.push_back(std::move(path));
  }
  return out;
}

std::vector<CornerPath> CornerAnalysis::merged_slow_paths(
    std::size_t max_paths) const {
  const SyncModel& sync = engine_->sync();
  // Violating (corner, capture) pairs, ordered by (slack, corner index,
  // SyncId) — equal worst slacks across corners resolve to the lower corner
  // index, mirroring the (slack, SyncId) rule within one corner.
  struct Entry {
    TimePs slack;
    std::uint32_t corner;
    SyncId capture;
  };
  std::vector<Entry> entries;
  for (std::size_t k = 0; k < corners_.size(); ++k) {
    for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
      const SyncInstance& si = sync.at(SyncId(i));
      if (!si.data_in.valid()) continue;
      const TimePs s = capture_slack(k, SyncId(i));
      if (s != kInfinitePs && s < 0) {
        entries.push_back({s, static_cast<std::uint32_t>(k), SyncId(i)});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.slack != b.slack) return a.slack < b.slack;
    if (a.corner != b.corner) return a.corner < b.corner;
    return a.capture.index() < b.capture.index();
  });
  if (entries.size() > max_paths) entries.resize(max_paths);

  std::vector<CornerPath> out;
  for (const Entry& e : entries) {
    const SyncInstance& si = sync.at(e.capture);
    const ClusterId c = engine_->clusters().cluster_of(si.data_in);
    if (!c.valid()) continue;
    const CornerPassResult& res =
        cached_pass(c, engine_->assigned_pass(e.capture));
    CornerPath cp;
    cp.corner = e.corner;
    cp.path.slack = e.slack;
    cp.path.capture = e.capture;
    cp.path.steps =
        backtrace_corner(*engine_, delays_, e.corner, c, res, si.data_in);
    if (!cp.path.steps.empty()) {
      for (SyncId l : sync.launches_at(cp.path.steps.front().node)) {
        cp.path.launch = l;
      }
    }
    out.push_back(std::move(cp));
  }
  return out;
}

std::string CornerAnalysis::report(std::size_t k, std::size_t max_paths) const {
  const SyncModel& sync = engine_->sync();
  // Summary, format-identical to timing_summary() over this corner's slacks.
  std::size_t terminals = 0, violations = 0;
  TimePs worst = kInfinitePs;
  for (std::uint32_t i = 0; i < sync.num_instances(); ++i) {
    for (TimePs s : {launch_slack(k, SyncId(i)), capture_slack(k, SyncId(i))}) {
      if (s == kInfinitePs) continue;
      ++terminals;
      if (s <= 0) ++violations;
      worst = std::min(worst, s);
    }
  }
  std::ostringstream os;
  os << "terminals: " << terminals << ", violations: " << violations
     << ", worst slack: "
     << (worst == kInfinitePs ? "+inf" : format_time(worst))
     << ", clusters: " << engine_->clusters().num_clusters()
     << ", analysis passes: " << engine_->num_passes_total() << "\n";

  // Paths, format-identical to format_paths() with corner-k arrivals.
  for (const SlowPath& p : slow_paths(k, max_paths)) {
    os << "slow path: slack " << format_time(p.slack) << ", capture "
       << sync.at(p.capture).label;
    if (p.launch.valid()) os << ", launch " << sync.at(p.launch).label;
    os << "\n";
    for (const PathStep& s : p.steps) {
      os << "    " << engine_->graph().node_name(s.node) << " "
         << (s.rising ? "^" : "v") << " @ " << format_time(s.arrival) << "\n";
    }
  }
  return os.str();
}

std::vector<HoldViolation> CornerAnalysis::check_hold_times(
    std::size_t k, TimePs hold_margin, ThreadPool* pool) const {
  return check_hold(*engine_, hold_margin, pool, delays_.data(),
                    delays_.lanes(), k);
}

}  // namespace hb
