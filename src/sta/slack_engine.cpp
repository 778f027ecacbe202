#include "sta/slack_engine.hpp"

#include <algorithm>
#include <functional>

#include "util/faultinject.hpp"
#include "util/thread_pool.hpp"
#include "util/xxhash.hpp"

namespace hb {

std::uint64_t pass_checksum(const PassSide& ready, const PassSide& required) {
  static_assert(sizeof(RiseFall) == 2 * sizeof(TimePs),
                "slot arrays hash as packed (rise, fall) pairs");
  auto side = [](const PassSide& s, std::uint64_t seed) {
    return xxhash64(s.data(), s.flat_size() * sizeof(RiseFall),
                    seed ^ (std::uint64_t{s.size()} << 8) ^ s.lanes());
  };
  return side(required, side(ready, 0));
}

SlackEngine::SlackEngine(const TimingGraph& graph, const ClusterSet& clusters,
                         const SyncModel& sync)
    : graph_(&graph), clusters_(&clusters), sync_(&sync) {
  local_of_node_.assign(graph.num_nodes(), 0);
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    for (std::uint32_t i = 0; i < cl.nodes.size(); ++i) {
      local_of_node_[cl.nodes[i].index()] = i;
    }
  }
  analyses_.resize(clusters.num_clusters());
  assigned_pass_of_capture_.assign(sync.num_instances(), 0);
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    prepare_cluster(ClusterId(c));
    for (std::uint32_t p = 0; p < analyses_[c].breaks.size(); ++p) {
      passes_.push_back(PassRef{c, p});
    }
  }
  dirty_.resize(clusters.num_clusters());
  launch_slack_.assign(sync.num_instances(), kInfinitePs);
  capture_slack_.assign(sync.num_instances(), kInfinitePs);
  node_.assign(graph.num_nodes(), NodeTiming{});
}

void SlackEngine::prepare_cluster(ClusterId c) {
  const Cluster& cl = clusters_->cluster(c);
  ClusterAnalysis& ca = analyses_[c.index()];

  // Capture instances in a fixed order.
  for (TNodeId n : cl.sink_nodes) {
    for (SyncId id : sync_->captures_at(n)) ca.capture_insts.push_back(id);
  }
  ca.terminal.assign(cl.nodes.size(), 0);
  for (TNodeId n : cl.source_nodes) ca.terminal[local_of_node_[n.index()]] = 1;
  for (TNodeId n : cl.sink_nodes) ca.terminal[local_of_node_[n.index()]] = 1;

  if (cl.source_nodes.empty() || ca.capture_insts.empty()) {
    // Pure control cones or unconstrained logic: nothing to analyse.
    ca.breaks.clear();
    return;
  }

  // Edge-graph nodes: every ideal assertion/closure time in this cluster.
  std::vector<TimePs> times;
  for (TNodeId n : cl.source_nodes) {
    for (SyncId id : sync_->launches_at(n)) {
      times.push_back(sync_->at(id).ideal_assert);
    }
  }
  for (SyncId id : ca.capture_insts) times.push_back(sync_->at(id).ideal_close);
  ca.edges = std::make_unique<ClockEdgeGraph>(std::move(times),
                                              sync_->overall_period());

  // Reachability from each source node to the cluster's sink nodes, then one
  // requirement per connected (launch instance, capture instance) pair.
  std::vector<std::uint32_t> sink_pos(graph_->num_nodes(), UINT32_MAX);
  for (std::uint32_t k = 0; k < cl.sink_nodes.size(); ++k) {
    sink_pos[cl.sink_nodes[k].index()] = k;
  }
  std::vector<char> visited(cl.nodes.size(), 0);
  std::vector<TNodeId> stack;
  for (TNodeId src : cl.source_nodes) {
    std::fill(visited.begin(), visited.end(), 0);
    stack.clear();
    stack.push_back(src);
    visited[local_of_node_[src.index()]] = 1;
    std::vector<TNodeId> reached_sinks;
    while (!stack.empty()) {
      const TNodeId n = stack.back();
      stack.pop_back();
      if (sink_pos[n.index()] != UINT32_MAX) reached_sinks.push_back(n);
      const NodeRole role = graph_->node(n).role;
      if (role == NodeRole::kSyncDataIn || role == NodeRole::kSyncControl) continue;
      for (std::uint32_t ai : graph_->fanout(n)) {
        const TNodeId to = graph_->arc(ai).to;
        char& v = visited[local_of_node_[to.index()]];
        if (!v) {
          v = 1;
          stack.push_back(to);
        }
      }
    }
    for (SyncId li : sync_->launches_at(src)) {
      for (TNodeId sink : reached_sinks) {
        for (SyncId cj : sync_->captures_at(sink)) {
          ca.edges->add_requirement(sync_->at(li).ideal_assert,
                                    sync_->at(cj).ideal_close);
        }
      }
    }
  }

  ca.breaks = ca.edges->solve_min_breaks();

  // Assign each capture instance to the pass where its ideal closure time
  // appears closest to the end of the broken-open period.
  ca.assigned_mask.assign(ca.breaks.size(),
                          std::vector<bool>(ca.capture_insts.size(), false));
  for (std::uint32_t k = 0; k < ca.capture_insts.size(); ++k) {
    const SyncInstance& si = sync_->at(ca.capture_insts[k]);
    std::size_t best = 0;
    TimePs best_pos = -1;
    for (std::size_t p = 0; p < ca.breaks.size(); ++p) {
      const TimePs pos = ca.edges->linear_close(si.ideal_close, ca.breaks[p]);
      if (pos > best_pos) {
        best_pos = pos;
        best = p;
      }
    }
    ca.assigned_mask[best][k] = true;
    assigned_pass_of_capture_[ca.capture_insts[k].index()] =
        static_cast<std::uint32_t>(best);
  }
}

void SlackEngine::compute(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  ++istats_.full_computes;

  // Evaluate every pass into the cache; passes are independent, so with a
  // pool each one is a task that owns its result slot.  Cached PassResult
  // buffers are reused in place, and each closure captures two pointers
  // (libstdc++'s std::function keeps 16 bytes inline), so recomputes over a
  // warm cache allocate nothing.
  for (ClusterAnalysis& ca : analyses_) ca.cache.resize(ca.breaks.size());
  istats_.passes_evaluated += passes_.size();
  auto eval = [this](const PassRef& r) {
    run_pass_into(ClusterId(r.cluster), r.pass,
                  analyses_[r.cluster].cache[r.pass]);
  };
  if (pool != nullptr && pool->size() > 1) {
    task_fns_.clear();
    for (const PassRef& r : passes_) {
      task_fns_.push_back([&eval, &r] { eval(r); });
    }
    pool->run_batch(task_fns_);
  } else {
    for (const PassRef& r : passes_) eval(r);
  }

  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
    ClusterAnalysis& ca = analyses_[c];
    ca.checksums.resize(ca.breaks.size());
    for (std::size_t p = 0; p < ca.breaks.size(); ++p) {
      const PassResult& res = ca.cache[p];
      ca.checksums[p] = pass_checksum(res.ready, res.required);
    }
  }

  // Every node, launch and capture belongs to exactly one cluster, and a
  // fold overwrites them; the rest keep their constructed defaults.
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) fold_cluster(c);
  cache_valid_ = true;
  for (ClusterDirty& d : dirty_) d.clear();
  maybe_corrupt_cache();
}

void SlackEngine::invalidate_offsets(SyncId id) {
  const SyncInstance& si = sync_->at(id);
  if (si.data_out.valid()) {
    const ClusterId c = clusters_->cluster_of(si.data_out);
    if (c.valid()) {
      dirty_[c.index()].fwd.push_back(local_of_node_[si.data_out.index()]);
    }
  }
  if (si.data_in.valid()) {
    const ClusterId c = clusters_->cluster_of(si.data_in);
    if (c.valid()) {
      dirty_[c.index()].bwd_of_pass.emplace_back(
          assigned_pass_of_capture_[id.index()],
          local_of_node_[si.data_in.index()]);
    }
  }
}

void SlackEngine::invalidate_offsets(const std::vector<SyncId>& ids) {
  for (SyncId id : ids) invalidate_offsets(id);
}

void SlackEngine::invalidate_node(TNodeId node) {
  const ClusterId c = clusters_->cluster_of(node);
  if (!c.valid()) return;
  ClusterDirty& d = dirty_[c.index()];
  const std::uint32_t li = local_of_node_[node.index()];
  d.fwd.push_back(li);
  d.bwd.push_back(li);
}

void SlackEngine::invalidate_instance(InstId inst) {
  const Design& design = graph_->design();
  const Instance& self = design.top().inst(inst);
  for (std::uint32_t p = 0; p < self.conn.size(); ++p) {
    if (!self.conn[p].valid()) continue;
    invalidate_node(graph_->pin_node(inst, p));
    if (design.target_port_dir(self, p) != PortDirection::kInput) continue;
    // The instance's pin caps load its input nets: the drivers' output-arc
    // delays change with them.  Their output pins seed both cones; the
    // backward closure reaches the drivers' inputs from there.
    for (const PinRef& pin : design.top().net(self.conn[p]).pins) {
      const Instance& other = design.top().inst(pin.inst);
      if (design.target_port_dir(other, pin.port) == PortDirection::kOutput) {
        invalidate_node(graph_->pin_node(pin.inst, pin.port));
      }
    }
  }
}

void SlackEngine::invalidate_all() { cache_valid_ = false; }

bool SlackEngine::has_pending_invalidations() const {
  if (!cache_valid_) return true;
  for (const ClusterDirty& d : dirty_) {
    if (d.any()) return true;
  }
  return false;
}

void SlackEngine::update(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  if (cache_valid_ && self_check_) {
    // Paranoid mode: re-verify every cached pass against its write-time
    // checksum before trusting it.  A divergence drops the cache, and the
    // update below degenerates into a (bit-identical) full compute.
    if (!verify_cache()) ++istats_.self_heals;
  }
  if (!cache_valid_) {
    compute(pool);
    return;
  }
  ++istats_.updates;

  // One task per dirty (cluster, pass); each owns its cached result and its
  // workspace, so the pool schedule cannot affect the outcome.  Task slots
  // and seed buffers are persistent members, reused across updates.
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
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
    ClusterDirty& d = dirty_[c];
    if (!d.any()) continue;
    dirty_clusters_.push_back(c);
    const Cluster& cl = clusters_->cluster(ClusterId(c));
    const ClusterAnalysis& ca = analyses_[c];

    // Cost model: probe the union dirty cone once per cluster.  Each dirty
    // pass re-derives (at least) this cone, at the same per-node cost as
    // the full levelized sweep — so past kFullSweepNum/kFullSweepDen of the
    // cluster, re-evaluating the pass from scratch is cheaper than patching
    // (docs/ALGORITHMS.md §7).  full <=> cone * Den > nodes * Num * 2 <=>
    // cone > limit, and the probe stops walking past the limit.
    const std::size_t limit =
        cl.nodes.size() * kFullSweepNum * 2 / kFullSweepDen;
    // The walk records the cone: every pass's patch stays inside it, so it
    // is all a patched cluster has to re-fold.
    probe_bwd_.clear();
    for (std::uint32_t li : d.bwd) probe_bwd_.push_back(li);
    for (const auto& [pass, li] : d.bwd_of_pass) probe_bwd_.push_back(li);
    d.cone.clear();
    d.full = pass_cone_size(cl, d.fwd, probe_bwd_, probe_ws_, limit,
                            &d.cone) > limit;

    for (std::size_t p = 0; p < ca.breaks.size(); ++p) {
      UpdateTask& task = new_task();
      task.cluster = c;
      task.pass = static_cast<std::uint32_t>(p);
      task.bwd = d.bwd;
      for (const auto& [pass, li] : d.bwd_of_pass) {
        if (pass == p) task.bwd.push_back(li);
      }
      if (d.fwd.empty() && task.bwd.empty()) {
        --num_update_tasks_;  // pass untouched by this change set
        continue;
      }
      task.full = d.full;
      if (d.full) {
        ++istats_.passes_full_swept;
      } else {
        ++istats_.passes_updated;
      }
    }
  }
  istats_.passes_reused += num_passes_total() - num_update_tasks_;

  auto run_task = [this](UpdateTask& task) {
    const Cluster& cl = clusters_->cluster(ClusterId(task.cluster));
    ClusterAnalysis& ca = analyses_[task.cluster];
    if (task.full) {
      run_pass_into(ClusterId(task.cluster), task.pass, ca.cache[task.pass]);
      task.retraced = 2 * cl.nodes.size();  // both sides, every node
    } else {
      task.retraced = update_analysis_pass(
          *graph_, *sync_, cl, local_of_node_, *ca.edges, ca.breaks[task.pass],
          ca.capture_insts, ca.assigned_mask[task.pass],
          dirty_[task.cluster].fwd, task.bwd, ca.cache[task.pass], task.ws);
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
    ClusterAnalysis& ca = analyses_[task.cluster];
    const PassResult& res = ca.cache[task.pass];
    ca.checksums[task.pass] = pass_checksum(res.ready, res.required);
  }

  // Re-fold what can have changed.  A node's per-pass ready and required
  // values change only inside the cones of the seeds, and a terminal's slack
  // depends only on its node's values and its own offsets (an offset change
  // seeds that node) — so a patched cluster re-folds its probe cone, each
  // node once (the probe workspace's clean bitmap dedupes the two cones).
  // A fully swept cluster re-folds whole.
  std::vector<std::uint64_t>& once = probe_ws_.marks;
  for (std::uint32_t c : dirty_clusters_) {
    ClusterDirty& d = dirty_[c];
    const std::size_t cluster_nodes =
        clusters_->cluster(ClusterId(c)).nodes.size();
    istats_.dirty_cluster_nodes += cluster_nodes;
    if (d.full) {
      fold_cluster(c);
      istats_.nodes_refolded += cluster_nodes;
    } else {
      for (std::uint32_t li : d.cone) {
        std::uint64_t& word = once[li >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (li & 63);
        if (word & bit) continue;
        word |= bit;
        fold_node(c, li);
        ++istats_.nodes_refolded;
      }
      for (std::uint32_t li : d.cone) once[li >> 6] = 0;
    }
    d.clear();
  }
  maybe_corrupt_cache();
}

bool SlackEngine::verify_cache() {
  if (!cache_valid_) return true;
  ++istats_.self_checks;
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
    const ClusterAnalysis& ca = analyses_[c];
    for (std::size_t p = 0; p < ca.breaks.size(); ++p) {
      const PassResult& res = ca.cache[p];
      if (pass_checksum(res.ready, res.required) != ca.checksums[p]) {
        cache_valid_ = false;
        return false;
      }
    }
  }
  return true;
}

void SlackEngine::maybe_corrupt_cache() {
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.armed()) return;
  if (!injector.should_fire(FaultSite::kCacheCorrupt)) return;
  // Pick a deterministic cached entry and flip it *after* its checksum was
  // taken, modelling silent corruption of the incremental state.
  if (passes_.empty()) return;
  const PassRef& r =
      passes_[injector.draw(FaultSite::kCacheCorrupt) % passes_.size()];
  PassResult& res = analyses_[r.cluster].cache[r.pass];
  for (std::size_t i = 0; i < res.ready.size(); ++i) {
    if (res.ready.has(i)) {
      RiseFall e = res.ready.at(i);
      e.rise += 1000;  // 1ns of silent error
      res.ready.set(i, e);
      return;
    }
  }
  if (res.ready.size() > 0) res.ready.set(0, RiseFall{0, 0});
}

PassResult SlackEngine::run_pass(ClusterId c, std::size_t pass) const {
  PassResult res;
  run_pass_into(c, pass, res);
  return res;
}

void SlackEngine::run_pass_into(ClusterId c, std::size_t pass,
                                PassResult& out) const {
  const ClusterAnalysis& ca = analyses_.at(c.index());
  run_analysis_pass_into(*graph_, *sync_, clusters_->cluster(c), local_of_node_,
                         *ca.edges, ca.breaks.at(pass), ca.capture_insts,
                         ca.assigned_mask.at(pass), out);
}

void SlackEngine::fold_node(std::uint32_t c, std::uint32_t li) {
  const ClusterAnalysis& ca = analyses_[c];
  const TNodeId n = clusters_->cluster(ClusterId(c)).nodes[li];
  const std::size_t np = ca.breaks.size();

  // Node timing: worst slack over the passes, with the critical pass's
  // ready/required window (eq. 1/2 results, block-oriented merge).
  NodeTiming nt;
  for (std::size_t p = 0; p < np; ++p) {
    const PassResult& res = ca.cache[p];
    if (!res.ready.has(li)) continue;
    const RiseFall rdy = res.ready.at(li);
    ++nt.settling_count;
    if (!nt.has_ready) {
      nt.has_ready = true;
      if (!nt.has_constraint) nt.ready = rdy;
    } else if (!nt.has_constraint) {
      nt.ready = rf_max(nt.ready, rdy);
    }
    if (!res.required.has(li)) continue;
    const RiseFall req = res.required.at(li);
    const TimePs pass_slack =
        std::min(req.rise - rdy.rise, req.fall - rdy.fall);
    if (pass_slack < nt.slack) {
      nt.slack = pass_slack;
      nt.ready = rdy;
      nt.required = req;
      nt.has_constraint = true;
    }
  }
  node_[n.index()] = nt;
  if (!ca.terminal[li]) return;

  // Launch terminals: min over passes of required - assertion.
  for (SyncId id : sync_->launches_at(n)) {
    const SyncInstance& si = sync_->at(id);
    TimePs slack = kInfinitePs;
    for (std::size_t p = 0; p < np; ++p) {
      const PassSide& required = ca.cache[p].required;
      if (!required.has(li)) continue;
      const TimePs a = ca.edges->linear_assert(si.ideal_assert, ca.breaks[p]) +
                       si.assert_offset();
      slack = std::min(slack, required.at(li).min() - a);
    }
    launch_slack_[id.index()] = slack;
  }

  // Capture terminals: closure - ready, in the assigned pass only.
  for (SyncId id : sync_->captures_at(n)) {
    TimePs slack = kInfinitePs;
    const std::size_t p = assigned_pass_of_capture_[id.index()];
    if (p < np && ca.cache[p].ready.has(li)) {
      const SyncInstance& si = sync_->at(id);
      const TimePs close =
          ca.edges->linear_close(si.ideal_close, ca.breaks[p]) +
          si.close_offset();
      slack = std::min(slack, close - ca.cache[p].ready.at(li).max());
    }
    capture_slack_[id.index()] = slack;
  }
}

void SlackEngine::fold_cluster(std::uint32_t c) {
  const std::size_t n = clusters_->cluster(ClusterId(c)).nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) fold_node(c, li);
}

TimePs SlackEngine::worst_terminal_slack() const {
  TimePs worst = kInfinitePs;
  for (TimePs s : launch_slack_) worst = std::min(worst, s);
  for (TimePs s : capture_slack_) worst = std::min(worst, s);
  return worst;
}

std::size_t SlackEngine::num_requirements(ClusterId c) const {
  const ClusterAnalysis& ca = analyses_.at(c.index());
  return ca.edges ? ca.edges->num_requirements() : 0;
}

std::size_t SlackEngine::assigned_pass(SyncId capture) const {
  return assigned_pass_of_capture_.at(capture.index());
}

}  // namespace hb
