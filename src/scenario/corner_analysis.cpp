#include "scenario/corner_analysis.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace hb {
namespace {

RiseFall derate_rf(RiseFall d, std::uint32_t pm) {
  return {derate_time(d.rise, pm), derate_time(d.fall, pm)};
}

/// Derate factor of one arc under one corner: net arcs take wire_pm,
/// component arcs the per-cell override (by library cell name) else
/// derate_pm.  Submodule instances have no library cell name and take
/// derate_pm.
std::uint32_t arc_factor(const TimingGraph& graph, const TArcRec& arc,
                         const Corner& corner) {
  if (arc.is_net) return corner.wire_pm;
  if (corner.cell_pm.empty()) return corner.derate_pm;
  const TNode& head = graph.node(arc.to);
  if (head.is_top_port) return corner.derate_pm;
  const Instance& inst = graph.design().top().inst(head.inst);
  if (!inst.is_cell()) return corner.derate_pm;
  return corner.cell_factor(graph.design().lib().cell(inst.cell).name());
}

}  // namespace

CornerDelays::CornerDelays(const TimingGraph& graph, const CornerSet& corners)
    : lanes_(corners.size()) {
  const std::size_t na = graph.num_arcs();
  delay_.resize(na * lanes_);
  for (std::size_t a = 0; a < na; ++a) {
    const TArcRec& arc = graph.arc(a);
    for (std::size_t c = 0; c < lanes_; ++c) {
      delay_[a * lanes_ + c] =
          derate_rf(arc.delay, arc_factor(graph, arc, corners.corner(c)));
    }
  }
}

CornerAnalysis::CornerAnalysis(const SlackEngine& engine, CornerSet corners)
    : engine_(&engine),
      corners_(corners.empty() ? CornerSet::identity() : std::move(corners)),
      delays_(engine.graph(), corners_) {
  const ClusterSet& clusters = engine.clusters();
  const std::size_t K = corners_.size();
  passes_.resize(clusters.num_clusters());
  seeds_.resize(clusters.num_clusters());
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    passes_[c].assign(engine.num_passes(ClusterId(c)), PassResult(K));
  }
  num_sync_ = engine.sync().num_instances();
  launch_slack_.assign(K * num_sync_, kInfinitePs);
  capture_slack_.assign(K * num_sync_, kInfinitePs);
  node_.assign(K, std::vector<NodeTiming>(engine.graph().num_nodes()));
  lane_fold_.resize(K);
}

void CornerAnalysis::compute(ThreadPool* pool) {
  if (pool == nullptr) pool = env_analysis_pool();

  // The engine's own seeds helper, at the current offsets; then one pool
  // task per pass: the closures capture two pointers, so a repeated compute
  // allocates nothing.
  const ClusterSet& clusters = engine_->clusters();
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    engine_->seeds_into(ClusterId(c), seeds_[c]);
  }
  auto eval = [this, &clusters](const SlackEngine::PassRef& r) {
    const ClusterId c(r.cluster);
    run_analysis_pass_into(engine_->graph(), clusters.cluster(c),
                           engine_->terminal_table(c), seeds_[r.cluster],
                           r.pass, passes_[r.cluster][r.pass], delays_.data(),
                           delays_.lanes());
  };
  const std::vector<SlackEngine::PassRef>& passes = engine_->all_passes();
  if (pool != nullptr && pool->size() > 1) {
    task_fns_.clear();
    for (const SlackEngine::PassRef& r : passes) {
      task_fns_.push_back([&eval, &r] { eval(r); });
    }
    pool->run_batch(task_fns_);
  } else {
    for (const SlackEngine::PassRef& r : passes) eval(r);
  }

  // Every node belongs to exactly one cluster, and a fold overwrites it.
  std::fill(launch_slack_.begin(), launch_slack_.end(), kInfinitePs);
  std::fill(capture_slack_.begin(), capture_slack_.end(), kInfinitePs);
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    fold_terminals(ClusterId(c));
    const std::vector<TNodeId>& nodes = clusters.cluster(ClusterId(c)).nodes;
    for (std::uint32_t li = 0; li < nodes.size(); ++li) {
      fold_node_timing(passes_[c], li, lane_fold_.data(), lane_fold_.size());
      for (std::size_t k = 0; k < lane_fold_.size(); ++k) {
        node_[k][nodes[li].index()] = lane_fold_[k];
      }
    }
  }
}

void CornerAnalysis::fold_terminals(ClusterId c) {
  const std::vector<PassResult>& passes = passes_[c.index()];
  if (passes.empty()) return;  // unanalysed: no terminals
  const TerminalTable& t = engine_->terminal_table(c);
  const TerminalSeeds& seeds = seeds_[c.index()];
  const SyncModel& sync = engine_->sync();
  const std::vector<SyncId>& captures = engine_->capture_insts(c);
  const std::size_t K = corners_.size();
  const std::size_t np = passes.size();

  // Capture slacks: closure - ready, in the assigned pass only.
  for (std::uint32_t k = 0; k < t.sink_local.size(); ++k) {
    const std::uint32_t li = t.sink_local[k];
    for (std::uint32_t j = t.sink_cap_begin[k]; j < t.sink_cap_begin[k + 1]; ++j) {
      const PassSide& ready = passes[t.cap_pass[j]].ready;
      if (!ready.has(li)) continue;
      for (std::size_t lane = 0; lane < K; ++lane) {
        capture_slack_[lane * num_sync_ + captures[j].index()] =
            seeds.close[j] - ready.at(li, lane).max();
      }
    }
  }

  // Launch slacks: min over passes of required - assertion.
  const std::vector<TNodeId>& sources = engine_->clusters().cluster(c).source_nodes;
  for (std::uint32_t r = 0; r < t.row_local.size(); ++r) {
    const std::uint32_t li = t.row_local[r];
    const std::vector<SyncId>& launches = sync.launches_at(sources[r]);
    for (std::size_t p = 0; p < np; ++p) {
      const PassSide& required = passes[p].required;
      if (!required.has(li)) continue;
      for (std::size_t i = 0; i < launches.size(); ++i) {
        const TimePs a = t.launch_assert[(t.row_launch_begin[r] + i) * np + p] +
                         sync.at(launches[i]).assert_offset();
        for (std::size_t lane = 0; lane < K; ++lane) {
          TimePs& slot = launch_slack_[lane * num_sync_ + launches[i].index()];
          slot = std::min(slot, required.at(li, lane).min() - a);
        }
      }
    }
  }
}

TimePs CornerAnalysis::worst_terminal_slack(std::size_t k) const {
  TimePs worst = kInfinitePs;
  for (std::size_t i = 0; i < num_sync_; ++i) {
    worst = std::min(worst, launch_slack_[k * num_sync_ + i]);
    worst = std::min(worst, capture_slack_[k * num_sync_ + i]);
  }
  return worst;
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

LaneResults CornerAnalysis::lane(std::size_t k) const {
  return LaneResults{k,
                     launch_slack_.data() + k * num_sync_,
                     capture_slack_.data() + k * num_sync_,
                     &passes_,
                     delays_.data(),
                     delays_.lanes()};
}

std::vector<SlowPath> CornerAnalysis::slow_paths(std::size_t k,
                                                 std::size_t max_paths) const {
  return enumerate_slow_paths(*engine_, max_paths, /*slack_limit=*/0, lane(k));
}

std::string CornerAnalysis::report(std::size_t k, std::size_t max_paths) const {
  return timing_summary(*engine_, lane(k)) +
         format_paths(*engine_, slow_paths(k, max_paths));
}

std::vector<HoldViolation> CornerAnalysis::check_hold_times(
    std::size_t k, TimePs hold_margin) const {
  return check_hold(*engine_, hold_margin, delays_.data(), delays_.lanes(), k);
}

}  // namespace hb
