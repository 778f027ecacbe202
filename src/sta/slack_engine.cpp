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
  std::size_t largest = 0;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    for (std::uint32_t i = 0; i < cl.nodes.size(); ++i) {
      local_of_node_[cl.nodes[i].index()] = i;
    }
    if (!cl.source_nodes.empty() && !cl.sink_nodes.empty()) {
      largest = std::max(largest, cl.nodes.size());
    }
  }
  row_scratch_.ensure(largest);
  analyses_.resize(clusters.num_clusters());
  assigned_pass_of_capture_.assign(sync.num_instances(), 0);
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    prepare_cluster(c);
    for (std::uint32_t p = 0; p < analyses_[c].breaks.size(); ++p) {
      passes_.push_back(PassRef{c, p});
    }
    // The rows are swept; the first refresh evaluates the terminals.
    if (!analyses_[c].breaks.empty()) mark_terminals_dirty(c);
  }
  tables_valid_ = true;
  tables_epoch_ = graph.delay_epoch();
  launch_slack_.assign(sync.num_instances(), kInfinitePs);
  capture_slack_.assign(sync.num_instances(), kInfinitePs);
  // Only the active state is sized here; the parked one gets its buffers at
  // the first fork.
  state_.clusters.resize(clusters.num_clusters());
  state_.node.assign(graph.num_nodes(), NodeTiming{});
  state_.assert_offset.assign(sync.num_instances(), 0);
  state_.close_offset.assign(sync.num_instances(), 0);
}

void SlackEngine::prepare_cluster(std::uint32_t c) {
  const Cluster& cl = clusters_->cluster(ClusterId(c));
  ClusterAnalysis& ca = analyses_[c];
  TerminalTable& t = ca.table;

  // Capture instances in a fixed order: by sink node, then captures_at().
  for (TNodeId n : cl.sink_nodes) {
    for (SyncId id : sync_->captures_at(n)) ca.capture_insts.push_back(id);
  }

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

  // The table's row and sink index, then every row, each over its source's
  // reachable cone.
  t.row_of_local.assign(cl.nodes.size(), TerminalTable::kNone);
  t.sink_of_local.assign(cl.nodes.size(), TerminalTable::kNone);
  t.row_launch_begin.assign(1, 0);
  for (std::uint32_t r = 0; r < cl.source_nodes.size(); ++r) {
    const TNodeId n = cl.source_nodes[r];
    t.row_of_local[local_of_node_[n.index()]] = r;
    t.row_launch_begin.push_back(
        t.row_launch_begin.back() +
        static_cast<std::uint32_t>(sync_->launches_at(n).size()));
  }
  t.sink_cap_begin.assign(1, 0);
  for (std::uint32_t k = 0; k < cl.sink_nodes.size(); ++k) {
    const TNodeId n = cl.sink_nodes[k];
    t.sink_of_local[local_of_node_[n.index()]] = k;
    t.sink_cap_begin.push_back(
        t.sink_cap_begin.back() +
        static_cast<std::uint32_t>(sync_->captures_at(n).size()));
  }
  t.row_begin.assign(1, 0);
  for (std::uint32_t r = 0; r < cl.source_nodes.size(); ++r) sweep_row(c, r);

  // One requirement per connected (launch instance, capture instance) pair:
  // a row's sinks are exactly the sink nodes its source reaches.
  for (std::uint32_t r = 0; r < cl.source_nodes.size(); ++r) {
    for (SyncId li : sync_->launches_at(cl.source_nodes[r])) {
      const TimePs assertion = sync_->at(li).ideal_assert;
      for (std::uint32_t q = t.row_begin[r]; q < t.row_begin[r + 1]; ++q) {
        const std::uint32_t k = t.pair_sink[q];
        for (std::uint32_t j = t.sink_cap_begin[k]; j < t.sink_cap_begin[k + 1];
             ++j) {
          ca.edges->add_requirement(assertion,
                                    sync_->at(ca.capture_insts[j]).ideal_close);
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

  // Linearised ideal times are fixed by pre-processing: a step adds only the
  // current assert_offset() / close_offset().
  const std::size_t np = ca.breaks.size();
  for (TNodeId n : cl.source_nodes) {
    for (SyncId id : sync_->launches_at(n)) {
      for (std::size_t p = 0; p < np; ++p) {
        t.launch_assert.push_back(
            ca.edges->linear_assert(sync_->at(id).ideal_assert, ca.breaks[p]));
      }
    }
  }
  for (SyncId id : ca.capture_insts) {
    const std::uint32_t p = assigned_pass_of_capture_[id.index()];
    t.cap_pass.push_back(p);
    t.cap_close.push_back(
        ca.edges->linear_close(sync_->at(id).ideal_close, ca.breaks[p]));
  }
}

void SlackEngine::compute(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  ++istats_.full_computes;

  // Evaluate every pass into the active state; passes are independent, so
  // with a pool each one is a task that owns its result slot.  Cached
  // PassResult buffers are reused in place, and each closure captures two
  // pointers (libstdc++'s std::function keeps 16 bytes inline), so
  // recomputes over a warm cache allocate nothing.  The parked state may
  // have missed a change nobody reported, so it goes.
  drop_parked();
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
    state_.clusters[c].passes.resize(analyses_[c].breaks.size());
  }
  istats_.passes_evaluated += passes_.size();
  auto eval = [this](const PassRef& r) {
    run_pass_into(ClusterId(r.cluster), r.pass,
                  state_.clusters[r.cluster].passes[r.pass]);
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

  for (ClusterState& cs : state_.clusters) {
    cs.checksums.resize(cs.passes.size());
    for (std::size_t p = 0; p < cs.passes.size(); ++p) {
      const PassResult& res = cs.passes[p];
      cs.checksums[p] = pass_checksum(res.ready, res.required);
    }
  }

  // Every node belongs to exactly one cluster, and a fold overwrites it;
  // the rest keep their constructed defaults.  Likewise every terminal of an
  // analysed cluster is re-evaluated from the table.
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) fold_cluster(c);
  state_.valid = true;
  for (ClusterState& cs : state_.clusters) cs.dirty.clear();
  record_pass_offsets();
  if (tables_epoch_ != graph_->delay_epoch()) tables_valid_ = false;
  for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
    if (!analyses_[c].breaks.empty()) mark_terminals_dirty(c);
  }
  refresh_terminals();
  maybe_corrupt_cache();
}

void SlackEngine::record_pass_offsets() {
  for (std::uint32_t i = 0; i < sync_->num_instances(); ++i) {
    const SyncInstance& si = sync_->at(SyncId(i));
    state_.assert_offset[i] = si.assert_offset();
    state_.close_offset[i] = si.close_offset();
  }
}

void SlackEngine::invalidate_offsets(SyncId id) {
  const SyncInstance& si = sync_->at(id);
  for (TNodeId n : {si.data_out, si.data_in}) {
    if (!n.valid()) continue;
    const ClusterId c = clusters_->cluster_of(n);
    if (c.valid() && !analyses_[c.index()].breaks.empty()) {
      mark_terminals_dirty(c.index());
    }
  }
}

void SlackEngine::invalidate_offsets(const std::vector<SyncId>& ids) {
  for (SyncId id : ids) invalidate_offsets(id);
}

void SlackEngine::invalidate_node(TNodeId node) {
  const ClusterId c = clusters_->cluster_of(node);
  if (!c.valid()) return;
  const std::uint32_t li = local_of_node_[node.index()];
  ClusterDirty& d = state_.clusters[c.index()].dirty;
  d.fwd.push_back(li);
  d.bwd.push_back(li);
  if (parked_.valid) {
    // A parked state nobody returns to (an analyze()-only loop) would pile
    // up seeds without bound; past one cluster's worth it is cheaper to
    // fork afresh.
    ClusterDirty& pd = parked_.clusters[c.index()].dirty;
    pd.fwd.push_back(li);
    pd.bwd.push_back(li);
    if (pd.fwd.size() > clusters_->cluster(c).nodes.size()) drop_parked();
  }
  ClusterAnalysis& ca = analyses_[c.index()];
  if (ca.breaks.empty()) return;
  ca.table.seeds.push_back(li);
  mark_terminals_dirty(c.index());
}

void SlackEngine::delays_reported(std::uint64_t before) {
  if (tables_epoch_ == before) tables_epoch_ = graph_->delay_epoch();
}

void SlackEngine::invalidate_all() {
  state_.valid = false;
  drop_parked();
  tables_valid_ = false;
}

void SlackEngine::drop_parked() {
  if (!parked_.valid) return;
  parked_.valid = false;
  for (ClusterState& cs : parked_.clusters) cs.dirty.clear();
}

void SlackEngine::choose_state() {
  // How far each state is from the current offsets, in terminals.
  std::size_t active = 0;
  std::size_t parked = 0;
  for (std::uint32_t i = 0; i < sync_->num_instances(); ++i) {
    const SyncInstance& si = sync_->at(SyncId(i));
    const TimePs a = si.assert_offset();
    const TimePs z = si.close_offset();
    active += (a != state_.assert_offset[i]) + (z != state_.close_offset[i]);
    if (parked_.valid) {
      parked +=
          (a != parked_.assert_offset[i]) + (z != parked_.close_offset[i]);
    }
  }
  if (parked_.valid && parked < active) {
    std::swap(state_, parked_);
    ++istats_.state_swaps;
    active = parked;
  } else if (active > 0 && !parked_.valid) {
    parked_ = state_;  // keep the state being left
    ++istats_.state_forks;
  }
  if (active == 0) return;

  // Seed the net offset change since this state's last refresh: offsets
  // that terminal-only steps moved and moved back cost nothing.
  for (std::uint32_t i = 0; i < sync_->num_instances(); ++i) {
    const SyncInstance& si = sync_->at(SyncId(i));
    const TimePs a = si.assert_offset();
    if (a != state_.assert_offset[i]) {
      state_.assert_offset[i] = a;
      const ClusterId c = si.data_out.valid() ? clusters_->cluster_of(si.data_out)
                                              : ClusterId::invalid();
      if (c.valid()) {
        state_.clusters[c.index()].dirty.fwd.push_back(
            local_of_node_[si.data_out.index()]);
      }
    }
    const TimePs z = si.close_offset();
    if (z != state_.close_offset[i]) {
      state_.close_offset[i] = z;
      const ClusterId c = si.data_in.valid() ? clusters_->cluster_of(si.data_in)
                                             : ClusterId::invalid();
      if (c.valid()) {
        state_.clusters[c.index()].dirty.bwd_of_pass.emplace_back(
            assigned_pass_of_capture_[i], local_of_node_[si.data_in.index()]);
      }
    }
  }
}

void SlackEngine::update(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();
  if (self_check_) {
    // Paranoid mode: re-verify every cached pass and table row against its
    // write-time checksum before trusting it.  A divergence drops both
    // caches, and the update below degenerates into a (bit-identical) full
    // compute.
    if (!verify_cache()) ++istats_.self_heals;
  }
  if (!state_.valid) {
    compute(pool);
    return;
  }
  ++istats_.updates;
  choose_state();

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
    ClusterDirty& d = state_.clusters[c].dirty;
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
    const ClusterAnalysis& ca = analyses_[task.cluster];
    ClusterState& cs = state_.clusters[task.cluster];
    PassResult& res = cs.passes[task.pass];
    if (task.full) {
      run_pass_into(ClusterId(task.cluster), task.pass, res);
      task.retraced = 2 * cl.nodes.size();  // both sides, every node
    } else {
      task.retraced = update_analysis_pass(
          *graph_, *sync_, cl, local_of_node_, *ca.edges, ca.breaks[task.pass],
          ca.capture_insts, ca.assigned_mask[task.pass],
          cs.dirty.fwd, task.bwd, res, task.ws);
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
    ClusterState& cs = state_.clusters[task.cluster];
    const PassResult& res = cs.passes[task.pass];
    cs.checksums[task.pass] = pass_checksum(res.ready, res.required);
  }

  // Re-fold what can have changed.  A node's per-pass ready and required
  // values change only inside the cones of the seeds, so a patched cluster
  // re-folds its probe cone, each node once (the probe workspace's clean
  // bitmap dedupes the two cones).  A fully swept cluster re-folds whole.
  std::vector<std::uint64_t>& once = probe_ws_.marks;
  for (std::uint32_t c : dirty_clusters_) {
    ClusterDirty& d = state_.clusters[c].dirty;
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
  refresh_terminals();
  maybe_corrupt_cache();
}

void SlackEngine::update_terminals() {
  if (self_check_ && !verify_cache()) ++istats_.self_heals;
  ++istats_.terminal_updates;
  refresh_terminals();
  maybe_corrupt_table();
}

bool SlackEngine::state_intact(const NodeState& st) {
  if (!st.valid) return true;
  for (const ClusterState& cs : st.clusters) {
    for (std::size_t p = 0; p < cs.passes.size(); ++p) {
      const PassResult& res = cs.passes[p];
      if (pass_checksum(res.ready, res.required) != cs.checksums[p]) {
        return false;
      }
    }
  }
  return true;
}

bool SlackEngine::verify_cache() {
  if (!state_.valid && !parked_.valid && !tables_valid_) return true;
  ++istats_.self_checks;
  bool ok = state_intact(state_) && state_intact(parked_);
  for (std::uint32_t c = 0; ok && tables_valid_ && c < analyses_.size(); ++c) {
    const TerminalTable& t = analyses_[c].table;
    for (std::uint32_t r = 0; r < t.row_checksum.size(); ++r) {
      if (hash_row(t, r) != t.row_checksum[r]) ok = false;
    }
  }
  if (!ok) {
    state_.valid = false;
    drop_parked();
    tables_valid_ = false;
  }
  return ok;
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
  PassResult& res = state_.clusters[r.cluster].passes[r.pass];
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

void SlackEngine::maybe_corrupt_table() {
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.armed() || !tables_valid_) return;
  if (!injector.should_fire(FaultSite::kCacheCorrupt)) return;
  // The table's counterpart of maybe_corrupt_cache: one pair's max or min
  // delay, after its row's checksum was taken.
  const std::uint64_t draw = injector.draw(FaultSite::kCacheCorrupt);
  for (std::size_t i = 0; i < analyses_.size(); ++i) {
    TerminalTable& t = analyses_[(draw + i) % analyses_.size()].table;
    const std::size_t n = t.pair_delay.size();
    if (n == 0) continue;
    const std::size_t slot = draw % (2 * n);
    std::vector<TimePs>& column = slot < n ? t.pair_delay : t.pair_min;
    column[slot % n] += 1000;  // 1ns of silent error
    return;
  }
}

void SlackEngine::run_pass_into(ClusterId c, std::size_t pass, PassResult& out,
                                const RiseFall* arc_delay,
                                std::size_t stride) const {
  const ClusterAnalysis& ca = analyses_.at(c.index());
  run_analysis_pass_into(*graph_, *sync_, clusters_->cluster(c), local_of_node_,
                         *ca.edges, ca.breaks.at(pass), ca.capture_insts,
                         ca.assigned_mask.at(pass), out, arc_delay, stride);
}

void SlackEngine::fold_node(std::uint32_t c, std::uint32_t li) {
  const TNodeId n = clusters_->cluster(ClusterId(c)).nodes[li];
  NodeTiming nt;
  fold_node_timing(state_.clusters[c].passes, li, &nt);
  state_.node[n.index()] = nt;
}

void SlackEngine::fold_cluster(std::uint32_t c) {
  const std::size_t n = clusters_->cluster(ClusterId(c)).nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) fold_node(c, li);
}

// -- Terminal delay table ----------------------------------------------------

void SlackEngine::sweep_row(std::uint32_t c, std::uint32_t r) {
  const Cluster& cl = clusters_->cluster(ClusterId(c));
  TerminalTable& t = analyses_[c].table;
  const bool append = t.row_begin.size() == r + 1;
  std::uint32_t q = t.row_begin[r];
  const std::size_t visited = passdetail::sweep_cone(
      cl, graph_->arcs_data(), local_of_node_[cl.source_nodes[r].index()],
      [](const TArcRec& arc, std::uint32_t) { return arc.delay; },
      row_scratch_, [&](std::uint32_t li, RiseFall v, TimePs m) {
        const std::uint32_t k = t.sink_of_local[li];
        if (k == TerminalTable::kNone) return;
        if (append) {
          t.pair_sink.push_back(k);
          t.pair_delay.push_back(v.max());
          t.pair_min.push_back(m);
        } else {
          HB_ASSERT(t.pair_sink[q] == k);
          t.pair_delay[q] = v.max();
          t.pair_min[q++] = m;
        }
      });
  if (append) {
    t.row_begin.push_back(static_cast<std::uint32_t>(t.pair_sink.size()));
    t.row_checksum.push_back(hash_row(t, r));
  } else {
    HB_ASSERT(q == t.row_begin[r + 1]);
    t.row_checksum[r] = hash_row(t, r);
  }
  ++istats_.rows_swept;
  istats_.row_nodes_swept += visited;
}

std::uint64_t SlackEngine::hash_row(const TerminalTable& t, std::uint32_t r) {
  const std::size_t b = t.row_begin[r];
  const std::size_t n = t.row_begin[r + 1] - b;
  std::uint64_t h =
      xxhash64(t.pair_sink.data() + b, n * sizeof(std::uint32_t), r);
  h = xxhash64(t.pair_delay.data() + b, n * sizeof(TimePs), h);
  return xxhash64(t.pair_min.data() + b, n * sizeof(TimePs), h);
}

void SlackEngine::mark_terminals_dirty(std::uint32_t c) {
  TerminalTable& t = analyses_[c].table;
  if (t.dirty) return;
  t.dirty = true;
  terminal_dirty_.push_back(c);
}

void SlackEngine::refresh_terminals() {
  if (!tables_valid_) {
    // After a drop or an unreported delay change: every row of every
    // analysed cluster, re-swept in place (reachability is fixed).
    for (std::uint32_t c = 0; c < clusters_->num_clusters(); ++c) {
      if (analyses_[c].breaks.empty()) continue;
      TerminalTable& t = analyses_[c].table;
      for (std::uint32_t r = 0; r + 1 < t.row_begin.size(); ++r) {
        sweep_row(c, r);
      }
      t.seeds.clear();
      mark_terminals_dirty(c);
    }
    tables_valid_ = true;
    tables_epoch_ = graph_->delay_epoch();
  }
  for (std::uint32_t c : terminal_dirty_) {
    TerminalTable& t = analyses_[c].table;
    if (!t.seeds.empty()) {
      // A delay change moves D only for the sources that reach it: the
      // backward cone of the invalidated nodes, under sweep_backward's
      // blocked rule (a blocked node scatters nothing).
      stale_rows_.clear();
      passdetail::sweep_backward(clusters_->cluster(ClusterId(c)), t.seeds,
                                 row_scratch_.ws, [this, &t](std::uint32_t li) {
                                   const std::uint32_t r = t.row_of_local[li];
                                   if (r != TerminalTable::kNone) {
                                     stale_rows_.push_back(r);
                                   }
                                 });
      for (std::uint32_t r : stale_rows_) sweep_row(c, r);
      t.seeds.clear();
    }
    evaluate_terminals(c);
    t.dirty = false;
  }
  terminal_dirty_.clear();
}

void SlackEngine::evaluate_terminals(std::uint32_t c) {
  const ClusterAnalysis& ca = analyses_[c];
  const TerminalTable& t = ca.table;
  const std::size_t np = ca.breaks.size();
  const std::size_t rows = t.row_launch_begin.size() - 1;
  const std::size_t caps = ca.capture_insts.size();
  const std::vector<TNodeId>& sources =
      clusters_->cluster(ClusterId(c)).source_nodes;

  // seed(s, p): the latest linearised assertion over the launches at s, as
  // the pass seeds it.
  row_seed_time_.resize(rows * np);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<SyncId>& launches = sync_->launches_at(sources[r]);
    for (std::size_t p = 0; p < np; ++p) {
      TimePs latest = -kInfinitePs;
      for (std::size_t i = 0; i < launches.size(); ++i) {
        const TimePs a = t.launch_assert[(t.row_launch_begin[r] + i) * np + p] +
                         sync_->at(launches[i]).assert_offset();
        latest = std::max(latest, a);
      }
      row_seed_time_[r * np + p] = latest;
    }
  }
  cap_close_now_.resize(caps);
  cap_ready_.resize(caps);
  for (std::size_t j = 0; j < caps; ++j) {
    cap_close_now_[j] =
        t.cap_close[j] + sync_->at(ca.capture_insts[j]).close_offset();
    cap_ready_[j] = -kInfinitePs;
  }

  // One pass over the pairs serves both sides.  A capture's ready time in
  // its pass is max over sources of (seed + D): eq. 1 is max-plus linear in
  // the seeds.  A source's required time in pass p is min over p's
  // captures it reaches of (closure - D): eq. 2 is the min-plus dual.
  row_required_.resize(np);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(row_required_.begin(), row_required_.end(), kInfinitePs);
    const TimePs* seed = row_seed_time_.data() + r * np;
    for (std::uint32_t q = t.row_begin[r]; q < t.row_begin[r + 1]; ++q) {
      const std::uint32_t k = t.pair_sink[q];
      const TimePs d = t.pair_delay[q];
      for (std::uint32_t j = t.sink_cap_begin[k]; j < t.sink_cap_begin[k + 1]; ++j) {
        const std::uint32_t p = t.cap_pass[j];
        cap_ready_[j] = std::max(cap_ready_[j], seed[p] + d);
        row_required_[p] = std::min(row_required_[p], cap_close_now_[j] - d);
      }
    }
    // Launch slack: min over passes of required - assertion; +inf when the
    // source reaches no capture.
    const std::vector<SyncId>& launches = sync_->launches_at(sources[r]);
    for (std::size_t i = 0; i < launches.size(); ++i) {
      const TimePs offset = sync_->at(launches[i]).assert_offset();
      TimePs slack = kInfinitePs;
      for (std::size_t p = 0; p < np; ++p) {
        if (row_required_[p] == kInfinitePs) continue;
        const TimePs a =
            t.launch_assert[(t.row_launch_begin[r] + i) * np + p] + offset;
        slack = std::min(slack, row_required_[p] - a);
      }
      launch_slack_[launches[i].index()] = slack;
    }
  }
  // Capture slack: closure - ready in the assigned pass; +inf when no
  // source reaches the capture.
  for (std::size_t j = 0; j < caps; ++j) {
    capture_slack_[ca.capture_insts[j].index()] =
        cap_ready_[j] == -kInfinitePs ? kInfinitePs
                                      : cap_close_now_[j] - cap_ready_[j];
  }
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
