// Multi-corner analysis orchestrator (docs/SCENARIOS.md).
//
// Wraps a prepared SlackEngine and evaluates its analysis passes under all
// K corners of a CornerSet in single K-lane sweeps (scenario/corner_sweep).
// The engine's pre-processing — clusters, clock-edge graphs, break nodes,
// capture/pass assignment — depends only on the ideal clock schedule, never
// on delays, so it is shared verbatim across corners: the schedule is
// settled once (Algorithm 1 on the base corner) and signed off under every
// corner here.
//
// The orchestrator mirrors the engine's incremental contract lane-wise:
// invalidations dirty the same cones, the same cone-vs-full-sweep cost
// model decides patch or re-sweep per cluster, cached K-lane results carry
// write-time checksums with optional paranoid verification and self-heal,
// and update() reproduces compute() bit for bit per corner
// (tests/corner_test.cpp).  A K=1 identity CornerSet reproduces the
// wrapped engine's slacks, node timings and report text byte for byte.
//
// Cross-corner merges (worst slack per terminal, globally worst corner,
// merged path enumeration) break ties deterministically by corner *index*,
// mirroring the (slack, SyncId) rule of the path reports.
#pragma once

#include <string>

#include "scenario/corner_sweep.hpp"
#include "sta/hold_check.hpp"
#include "sta/report.hpp"

namespace hb {

/// A worst-across-corners merge result: the worst slack and the corner
/// index it came from (lowest index among equal-slack corners).
struct MergedSlack {
  TimePs slack = kInfinitePs;
  std::uint32_t corner = 0;
};

/// One enumerated slow path tagged with its corner.
struct CornerPath {
  std::uint32_t corner = 0;
  SlowPath path;
};

class CornerAnalysis {
 public:
  /// `engine` must stay alive and keep its pre-processing (it need not have
  /// been computed); `corners` must be non-empty.
  CornerAnalysis(const SlackEngine& engine, CornerSet corners);

  std::size_t num_corners() const { return corners_.size(); }
  const CornerSet& corner_set() const { return corners_; }
  const SlackEngine& engine() const { return *engine_; }
  const CornerDelays& delays() const { return delays_; }

  /// Evaluate every pass under all corners in K-lane sweeps.  Pooling
  /// mirrors SlackEngine::compute: each pass is one pool task; results are
  /// byte-identical at every thread count.
  void compute(ThreadPool* pool = nullptr);

  // -- Dirty-set API (mirrors SlackEngine's; see slack_engine.hpp) --------
  void invalidate_offsets(SyncId id);
  void invalidate_offsets(const std::vector<SyncId>& ids);
  void invalidate_node(TNodeId node);
  void invalidate_all();
  bool has_pending_invalidations() const;

  /// Re-derate the delay rows of `arc_ids` from the graph's current delays
  /// (after TimingGraph::update_instance_delays; pair with invalidate_node
  /// on the changed arcs' endpoints).
  void refresh_arc_delays(const std::vector<std::uint32_t>& arc_ids);

  /// Bring all corners up to date; incremental when the cache is valid,
  /// bit-identical to compute() either way.
  void update(ThreadPool* pool = nullptr);

  const IncrementalStats& incremental_stats() const { return istats_; }

  void set_self_check(bool on) { self_check_ = on; }
  bool self_check() const { return self_check_; }
  /// Verify cached K-lane results against their write-time checksums; drops
  /// the cache and returns false on divergence (any lane of any slot).
  bool verify_cache();

  // -- Per-corner results (valid after compute()/update()) ----------------
  TimePs launch_slack(std::size_t k, SyncId id) const {
    return launch_slack_[k * num_sync_ + id.index()];
  }
  TimePs capture_slack(std::size_t k, SyncId id) const {
    return capture_slack_[k * num_sync_ + id.index()];
  }
  TimePs worst_terminal_slack(std::size_t k) const;
  const NodeTiming& node_timing(std::size_t k, TNodeId id) const {
    return node_[k][id.index()];
  }
  const std::vector<NodeTiming>& node_timings(std::size_t k) const {
    return node_[k];
  }

  // -- Worst-across-corners merges (ties -> lowest corner index) ----------
  MergedSlack merged_launch_slack(SyncId id) const;
  MergedSlack merged_capture_slack(SyncId id) const;
  /// Worst terminal slack over all corners.
  MergedSlack merged_worst_slack() const;

  /// Corner-k slow paths: violating captures under corner k, worst first,
  /// each backtraced through corner k's lane values and derated delays.
  std::vector<SlowPath> slow_paths(std::size_t k,
                                   std::size_t max_paths = 10) const;
  /// Merged enumeration over all corners, ordered by (slack, corner index,
  /// capture SyncId) — the deterministic cross-corner tie-break.
  std::vector<CornerPath> merged_slow_paths(std::size_t max_paths = 10) const;

  /// Corner-k text report, format-identical to Hummingbird::report(); with
  /// a K=1 identity set the bytes match it exactly.
  std::string report(std::size_t k, std::size_t max_paths = 10) const;

  /// Hold checks under corner k's derated delays.
  std::vector<HoldViolation> check_hold_times(std::size_t k,
                                              TimePs hold_margin = 0,
                                              ThreadPool* pool = nullptr) const;

  /// Cached K-lane result of one pass (exposed for the differential tests).
  const CornerPassResult& cached_pass(ClusterId c, std::size_t pass) const {
    return cache_[c.index()].cache.at(pass);
  }

 private:
  struct ClusterCache {
    std::vector<CornerPassResult> cache;   // [pass], K lanes each
    std::vector<std::uint64_t> checksums;  // [pass], taken at write time
  };
  /// Pending invalidations of one cluster, in local node indices (the same
  /// shape as SlackEngine's dirty sets).
  struct ClusterDirty {
    std::vector<std::uint32_t> fwd;
    std::vector<std::uint32_t> bwd;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> bwd_of_pass;
    bool any() const {
      return !fwd.empty() || !bwd.empty() || !bwd_of_pass.empty();
    }
    void clear() {
      fwd.clear();
      bwd.clear();
      bwd_of_pass.clear();
    }
  };

  // Same cone-vs-full-sweep crossover as SlackEngine (docs/ALGORITHMS.md
  // §7); the K-lane fold scales both sides of the comparison equally.
  static constexpr std::size_t kFullSweepNum = 1;
  static constexpr std::size_t kFullSweepDen = 2;

  void run_pass_into_cache(std::uint32_t c, std::size_t pass);
  void accumulate(ClusterId c, std::size_t pass, const CornerPassResult& res);
  void reset_accumulation(ClusterId c);
  void accumulate_all();
  /// Fault-injection hook (FaultSite::kCornerLaneCorrupt): perturb one lane
  /// of one cached entry after its checksum was taken.
  void maybe_corrupt_lanes();

  const SlackEngine* engine_;
  CornerSet corners_;
  CornerDelays delays_;
  std::vector<std::uint32_t> local_of_node_;

  std::vector<ClusterCache> cache_;  // by cluster
  std::vector<ClusterDirty> dirty_;  // by cluster
  bool cache_valid_ = false;
  bool self_check_ = false;
  IncrementalStats istats_;

  // Persistent compute()/update() machinery, mirroring SlackEngine's.
  struct UpdateTask {
    std::uint32_t cluster = 0;
    std::uint32_t pass = 0;
    bool full = false;
    std::vector<std::uint32_t> bwd;
    PassWorkspace ws;
    std::size_t retraced = 0;
  };
  std::vector<UpdateTask> update_tasks_;
  std::size_t num_update_tasks_ = 0;
  std::vector<std::function<void()>> task_fns_;
  std::vector<std::uint32_t> dirty_clusters_;
  std::vector<std::uint32_t> probe_bwd_;
  PassWorkspace probe_ws_;

  // Per-corner accumulation: flat [corner * num_sync_ + SyncId] slacks and
  // one NodeTiming array per corner.
  std::size_t num_sync_ = 0;
  std::vector<TimePs> launch_slack_;
  std::vector<TimePs> capture_slack_;
  std::vector<std::vector<NodeTiming>> node_;
};

}  // namespace hb
