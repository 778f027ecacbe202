// Multi-pass slack computation (paper Section 7).
//
// Pre-processing, done once per design+clock configuration:
//   * per cluster, build the clock-edge graph over the ideal assertion and
//     closure times of its launch/capture instances;
//   * lay out and sweep the cluster's terminal delay table (below): one row
//     per launch node, holding every capture node its cone reaches;
//   * add one ordering requirement per (launch instance, capture instance)
//     pair connected by a combinational path, read from those rows;
//   * solve for the minimum set of break nodes (analysis passes);
//   * assign every capture instance to the pass in which its ideal closure
//     time appears closest to the end of the broken-open period;
//   * linearise every launch's ideal assertion in every pass and every
//     capture's ideal closure in its pass, once.  seeds_into() adds the
//     current offsets to these bases; the result seeds the pass kernels,
//     the terminal evaluation and the corner sweeps alike.
//
// The engine keeps two results, each with its own refresh:
//   * per-instance terminal slacks (inputs of Algorithms 1 and 2), derived
//     from a per-cluster *terminal delay table*: for every launch node, the
//     longest combinational delay max(rise, fall) to every capture node it
//     reaches (and beside it the least delay, which the hold check reads).
//     Eqs. 1/2 are max-plus linear in the launch seeds, so a capture's
//     slack is its closure minus max over sources of (seed + D), and a
//     launch's the min over its reachable captures of (closure - D) minus
//     its assertion — exactly what the passes give (docs/ALGORITHMS.md §4).
//     update_terminals() refreshes only these: the table's rows follow
//     delays, the evaluation adds the current offsets;
//   * per-node slack / ready / required times (from the node's critical
//     pass) and settling-time counts — the paper's headline "minimum number
//     of settling times ... evaluated for the nodes".  compute() evaluates
//     every pass; update() patches the cached passes.
//
// Incremental re-analysis: the engine caches every pass result and accepts
// invalidations (invalidate_offsets / invalidate_node) describing local
// changes.  update() seeds the node-level patch with the
// recorded node invalidations plus the terminals whose offsets differ from
// the ones the cached passes were computed at — the *net* change since the
// last node-level refresh, however many terminal-only steps came between —
// then re-propagates only the affected reachability cone of each affected
// pass and re-folds only the nodes of those cones, reproducing compute() bit
// for bit — see docs/ALGORITHMS.md §7 and tests/incremental_test.cpp.
// compute() and update() share one task loop: compute() plans every pass as
// a full-sweep task, update() plans a cone patch or a full sweep per dirty
// pass.  With a ThreadPool each task is one pool task running the serial
// sweep kernels; the schedule never affects results because every pass owns
// its result slot and accumulation stays in cluster/pass order.
//
// The node-level results live in a NodeState, and the engine keeps two: the
// active one, which every reader sees, and a parked one at other offsets.
// update() patches whichever is nearer the current offsets, so a caller
// that alternates between two offset sets — Algorithm 1's exit and
// Algorithm 2's recording point after forward snatching, commit after
// commit — re-derives only its edits' cones, not the moves between the two
// sets.  Both states take every node invalidation; switching is a swap.
#pragma once

#include <functional>
#include <memory>

#include "clocks/edge_graph.hpp"
#include "sta/analysis_pass.hpp"

namespace hb {

class ThreadPool;

struct NodeTiming {
  /// Worst slack over all passes; +inf when unconstrained.
  TimePs slack = kInfinitePs;
  /// Ready/required pair from the critical pass (the coherent window for
  /// re-synthesis constraints).  `ready` falls back to the latest arrival
  /// over all passes when no pass constrains the node.
  RiseFall ready{-kInfinitePs, -kInfinitePs};
  RiseFall required{kInfinitePs, kInfinitePs};
  bool has_ready = false;
  bool has_constraint = false;
  /// Number of analysis passes that evaluated a settling time for the node.
  int settling_count = 0;
};

/// Node timing of local `li` over one cluster's passes, in each of their
/// first `lanes` lanes — the block-oriented merge of eqs. (1)/(2): per lane,
/// the worst slack over the passes, the critical pass's ready/required
/// window, and the settling count.  Passes merge in ascending order, which
/// is the tie-break order.  Lane k lands in out[k].  Presence is
/// lane-uniform, so each pass is tested once for all lanes.
inline void fold_node_timing(const std::vector<PassResult>& passes,
                             std::uint32_t li, NodeTiming* out,
                             std::size_t lanes = 1) {
  std::fill_n(out, lanes, NodeTiming{});
  for (const PassResult& res : passes) {
    if (!res.ready.has(li)) continue;
    const bool constrained = res.required.has(li);
    for (std::size_t k = 0; k < lanes; ++k) {
      NodeTiming& nt = out[k];
      const RiseFall rdy = res.ready.at(li, k);
      ++nt.settling_count;
      if (!nt.has_ready) {
        nt.has_ready = true;
        if (!nt.has_constraint) nt.ready = rdy;
      } else if (!nt.has_constraint) {
        nt.ready = rf_max(nt.ready, rdy);
      }
      if (!constrained) continue;
      const RiseFall req = res.required.at(li, k);
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

/// Bookkeeping for the incremental layer (see bench_incremental).
struct IncrementalStats {
  std::uint64_t full_computes = 0;     // compute() calls, fallbacks included
  std::uint64_t updates = 0;           // update() calls served incrementally
                                       // (node-level refreshes)
  std::uint64_t terminal_updates = 0;  // update_terminals() calls
  std::uint64_t passes_evaluated = 0;  // passes propagated from scratch
  std::uint64_t passes_updated = 0;    // passes patched over a dirty cone
  std::uint64_t passes_full_swept = 0; // dirty passes the cost model chose to
                                       // re-evaluate with a full levelized
                                       // sweep instead of a cone patch
  std::uint64_t passes_reused = 0;     // cached passes an update left untouched
  std::uint64_t nodes_retraced = 0;    // nodes re-derived by cone updates
  std::uint64_t nodes_refolded = 0;    // nodes update() re-folded into node
                                       // timings
  std::uint64_t dirty_cluster_nodes = 0;  // nodes of the clusters update()
                                          // touched (a whole-cluster fold)
  std::uint64_t self_checks = 0;       // cache verifications performed
  std::uint64_t self_heals = 0;        // divergences healed by full recompute
  std::uint64_t rows_swept = 0;        // terminal-table rows built or re-swept
  std::uint64_t row_nodes_swept = 0;   // nodes those row sweeps visited
  std::uint64_t state_forks = 0;       // active node states copied into the
                                       // empty parked slot before a patch
  std::uint64_t state_swaps = 0;       // updates that patched the parked
                                       // state, it being nearer
};

/// Write-time checksum of a cached pass result: XXH64 over each side's raw
/// slot array (flat_size() packed rise/fall pairs), seeded with the side's
/// size and lane count.  Any changed byte in any slot changes it, absent
/// slots included (docs/ROBUSTNESS.md §4).
std::uint64_t pass_checksum(const PassSide& ready, const PassSide& required);

class SlackEngine {
 public:
  SlackEngine(const TimingGraph& graph, const ClusterSet& clusters,
              const SyncModel& sync);

  /// Re-evaluate every pass with the current offsets.  With a pool, each
  /// pass is one pool task (results byte-identical at every thread count;
  /// the dispatch allocates nothing once the task list has grown).  When no
  /// pool is given, falls back to env_analysis_pool() (HB_THREADS).
  /// Also primes the incremental cache and clears pending invalidations.
  void compute(ThreadPool* pool = nullptr);

  // -- Dirty-set API ------------------------------------------------------
  // Record *what changed* between evaluations; update() re-derives exactly
  // the recorded cones.  Both may be mixed freely before one update().

  /// The adjustable/virtual offsets of `id` changed (SyncInstance::shift,
  /// a port-spec edit, a refreshed D_cz/D_dz).  The terminals of its
  /// clusters are re-evaluated at the next refresh.  The node level needs no
  /// report: update() compares every terminal's effective offsets with the
  /// ones the patched state's passes were computed at, and only a difference
  /// dirties the ready cone (launch side, every pass of its cluster) or the
  /// required cone (capture side, its assigned pass).
  void invalidate_offsets(SyncId id);
  void invalidate_offsets(const std::vector<SyncId>& ids);
  /// Delays of arcs incident to `node` changed: dirties the forward and
  /// backward cones from the node in every pass of its cluster, in both
  /// node states, and the terminal-table rows of the sources in its
  /// backward cone.  A parked state whose pending seeds in one cluster
  /// outgrow the cluster's node count is dropped instead.
  void invalidate_node(TNodeId node);
  /// Every arc whose delay changed in the TimingGraph::delay_epoch() step
  /// from `before` was reported through invalidate_node, so the terminal
  /// table stays current by re-sweeping the reported rows: compute() keeps
  /// it.  A table swept at another epoch saw a change nobody reported and
  /// is re-swept whole.
  void delays_reported(std::uint64_t before);
  /// Drop both caches entirely (both node states and the terminal delay
  /// table): the next update() is a full compute(), the next
  /// update_terminals() re-sweeps every row.
  void invalidate_all();

  /// Bring all results up to date with the recorded invalidations.  Of the
  /// two node states, patches the one with fewer terminals whose offsets
  /// differ from the current ones (the active one on a tie), forking the
  /// active state into the empty parked slot first when it is about to
  /// move.  The patch re-propagates only the dirty cones and re-folds only
  /// the nodes in them (whole clusters the cost model fully swept); with no
  /// valid state it falls back to compute().  The result state is
  /// bit-identical to a fresh compute() either way.
  void update(ThreadPool* pool = nullptr);

  /// Bring the terminal slacks (launch_slack, capture_slack,
  /// worst_terminal_slack) up to date with the recorded invalidations, and
  /// nothing else: re-sweeps the table rows the node invalidations reach
  /// and re-evaluates the clusters with a moved terminal or a re-swept row.
  /// Node timings and cached passes stay as of the last compute()/update(),
  /// and the invalidations stay pending for the next update().  Bit-identical
  /// to the terminal slacks of a fresh compute(); allocates nothing in
  /// steady state.
  void update_terminals();

  const IncrementalStats& incremental_stats() const { return istats_; }

  // -- Self-check / self-heal --------------------------------------------
  // Every cached pass result, and every cluster's terminal delay table,
  // carries a checksum taken when it was written.  In self-check (paranoid)
  // mode, update() and update_terminals() re-verify all cached checksums
  // before trusting the caches; on any divergence — memory corruption, a
  // faulty cone patch, or an injected fault — both caches are dropped and
  // rebuilt by the refresh itself (a full compute() for the passes), which
  // is bit-identical by construction.  The event is counted in
  // IncrementalStats::self_heals; analysis results are unaffected.

  void set_self_check(bool on) { self_check_ = on; }

  /// Verify all cached pass results of both node states and the terminal
  /// tables against their write-time checksums.  Returns true when
  /// consistent (or when there is no cache to verify); on divergence drops
  /// both caches, both node states included, and returns false.
  bool verify_cache();

  /// Terminal slacks (min over passes); +inf when unconstrained.  Valid
  /// after compute(), update() or update_terminals().
  TimePs launch_slack(SyncId id) const { return launch_slack_.at(id.index()); }
  TimePs capture_slack(SyncId id) const { return capture_slack_.at(id.index()); }
  /// Worst slack over every synchronising-element terminal.
  TimePs worst_terminal_slack() const;

  /// Node results, as of the last compute()/update() (update_terminals()
  /// leaves them alone).
  const NodeTiming& node_timing(TNodeId id) const {
    return state_.node.at(id.index());
  }
  /// All node timings, indexed by TNodeId (bulk accessor for snapshots).
  const std::vector<NodeTiming>& node_timings() const { return state_.node; }

  /// Pre-processing facts.
  std::size_t num_passes_total() const { return passes_.size(); }
  std::size_t num_passes(ClusterId c) const { return analyses_.at(c.index()).breaks.size(); }
  std::size_t num_requirements(ClusterId c) const;
  const std::vector<std::size_t>& breaks(ClusterId c) const {
    return analyses_.at(c.index()).breaks;
  }
  const ClockEdgeGraph& edge_graph(ClusterId c) const {
    return *analyses_.at(c.index()).edges;
  }
  /// Pass index (into breaks(cluster)) a capture instance is assigned to.
  std::size_t assigned_pass(SyncId capture) const;

  /// One analysis pass: a cluster and an index into breaks(cluster).
  struct PassRef {
    std::uint32_t cluster;
    std::uint32_t pass;
  };
  /// Every pass, in (cluster, pass) order — the unit of parallel
  /// evaluation.  Fixed by pre-processing.
  const std::vector<PassRef>& all_passes() const { return passes_; }

  /// Re-run a single pass into caller-owned buffers (no steady-state
  /// allocation), from the seeds the cluster's last refresh (or the
  /// construction) took.  With `arc_delay`, the pass sweeps a lane-major
  /// table of `stride` delays per arc instead of the graph's own, and `out`
  /// must have `stride` lanes (see run_analysis_pass_into).
  void run_pass_into(ClusterId c, std::size_t pass, PassResult& out,
                     const RiseFall* arc_delay = nullptr,
                     std::size_t stride = 1) const;
  /// Cluster `c`'s pass seeds at the current offsets: its table's
  /// linearised bases plus each terminal's assert_offset() / close_offset().
  /// Sizes `out` on first use; unanalysed clusters have none.
  void seeds_into(ClusterId c, TerminalSeeds& out) const;
  /// Cached result of one pass (valid after compute()/update(); read by the
  /// path reports and by the determinism sweep tests, which compare caches
  /// across thread counts).  A patched absent slot may hold a value near
  /// -kInfinitePs rather than the exact sentinel: test with has().
  const PassResult& cached_pass(ClusterId c, std::size_t pass) const {
    return state_.clusters.at(c.index()).passes.at(pass);
  }

  /// Capture instances of cluster `c` in the table's capture order.
  const std::vector<SyncId>& capture_insts(ClusterId c) const {
    return analyses_.at(c.index()).capture_insts;
  }

  const TimingGraph& graph() const { return *graph_; }
  const ClusterSet& clusters() const { return *clusters_; }
  const SyncModel& sync() const { return *sync_; }
  /// Position of a node inside its cluster's node list.
  std::uint32_t local_index(TNodeId n) const { return local_of_node_.at(n.index()); }

  /// Terminal delay table of cluster `c` as of the last refresh (empty for
  /// a cluster no pass analyses): the hold check reads its rows, the pass
  /// kernels its terminal index.
  const TerminalTable& terminal_table(ClusterId c) const {
    return analyses_.at(c.index()).table;
  }

 private:
  struct ClusterAnalysis {
    std::unique_ptr<ClockEdgeGraph> edges;
    std::vector<std::size_t> breaks;
    std::vector<SyncId> capture_insts;  // all captures in cluster
    TerminalTable table;  // rows current iff tables_valid_
    TerminalSeeds seeds;  // as of the last refresh that read them
  };

  /// Pending invalidations of one cluster, in local node indices.
  struct ClusterDirty {
    std::vector<std::uint32_t> fwd;  // ready cones, every pass
    std::vector<std::uint32_t> bwd;  // required cones, every pass
    /// required cones of a single pass (capture offset changes).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> bwd_of_pass;
    // Set by update()'s cost probe: the strategy, and for a patched cluster
    // the locals of the union cone (forward, then backward; a node in both
    // appears twice) — the only nodes whose folded values can change.
    bool full = false;
    std::vector<std::uint32_t> cone;
    bool any() const { return !fwd.empty() || !bwd.empty() || !bwd_of_pass.empty(); }
    void clear() {
      fwd.clear();
      bwd.clear();
      bwd_of_pass.clear();
      full = false;
      cone.clear();
    }
  };

  /// One cluster's share of a node state.
  struct ClusterState {
    std::vector<PassResult> passes;        // [pass]
    std::vector<std::uint64_t> checksums;  // [pass], taken at write time
    ClusterDirty dirty;                    // invalidations to apply
  };

  /// Everything a node-level refresh writes, at one set of offsets.
  /// Copying one is a fork; after the first, the copy reuses the target's
  /// buffers.
  struct NodeState {
    std::vector<ClusterState> clusters;
    std::vector<NodeTiming> node;  // by TNodeId
    /// Effective offsets (assert_offset(), close_offset()) by SyncId, as the
    /// passes reflect them.
    std::vector<TimePs> assert_offset;
    std::vector<TimePs> close_offset;
    bool valid = false;
  };

  /// Cost model for update(): when the union dirty cone of a cluster exceeds
  /// this fraction of the cluster's nodes, all of its dirty passes are
  /// re-evaluated with full levelized sweeps instead of per-pass cone
  /// patches (docs/ALGORITHMS.md §7).  Calibrated with bench_incremental:
  /// a cone re-derivation touches the same per-node work as the full sweep,
  /// so past ~half the cluster the sweep's linear access pattern wins.  Both
  /// strategies are bit-identical; the choice only trades constant factors.
  static constexpr std::size_t kFullSweepNum = 1;
  static constexpr std::size_t kFullSweepDen = 2;

  /// Pre-process cluster `c`: its edge graph, its terminal table's rows,
  /// the requirements read from them, the break nodes and the capture
  /// assignment.
  void prepare_cluster(std::uint32_t c);
  /// Fold local `li` of cluster `c` over all of the cluster's passes into
  /// its NodeTiming (fold_node_timing).  Overwrites, never merges, so
  /// folding a node twice is harmless.
  void fold_node(std::uint32_t c, std::uint32_t li);
  void fold_cluster(std::uint32_t c);

  // -- Terminal delay table -------------------------------------------------
  /// Sweep row `r` of cluster `c` over its source's cone and retake its
  /// checksum.  The row's pairs are appended when the table's layout ends at
  /// row `r` (construction, row by row), else rewritten in place.
  void sweep_row(std::uint32_t c, std::uint32_t r);
  /// Write-time checksum of one row: XXH64 over its pairs' sinks and both
  /// delays.
  static std::uint64_t hash_row(const TerminalTable& t, std::uint32_t r);
  void mark_terminals_dirty(std::uint32_t c);
  /// Re-sweep every row of a dropped or stale table, then the rows
  /// invalidated nodes reach, and re-evaluate the terminals of every queued
  /// cluster.
  void refresh_terminals();
  /// Launch and capture slacks of cluster `c` from its table and its seeds,
  /// which it first brings to the current offsets.
  void evaluate_terminals(std::uint32_t c);
  /// Record the effective offsets the active state's passes now reflect.
  void record_pass_offsets();
  /// Make the nearer node state active (forking or swapping), then seed its
  /// pending cones with the terminals whose offsets it does not reflect.
  void choose_state();
  void drop_parked();
  /// Every cached pass of `st` still matches its write-time checksum.
  static bool state_intact(const NodeState& st);
  /// Fault-injection hook: deterministically perturb one cached entry
  /// *after* its checksum was taken (no-op unless the injector is armed).
  void maybe_corrupt_cache();
  /// The same for one terminal-table delay (either column), after
  /// update_terminals().
  void maybe_corrupt_table();

  const TimingGraph* graph_;
  const ClusterSet* clusters_;
  const SyncModel* sync_;

  std::vector<std::uint32_t> local_of_node_;
  std::vector<ClusterAnalysis> analyses_;
  std::vector<PassRef> passes_;
  std::vector<std::uint32_t> assigned_pass_of_capture_;  // by SyncId

  /// The active node state, which every reader sees, and the parked one.
  NodeState state_;
  NodeState parked_;
  bool tables_valid_ = false;
  /// TimingGraph::delay_epoch() the tables reflect: set when they are swept
  /// whole, advanced by delays_reported().  compute(), which takes no
  /// invalidations, re-sweeps them when delays moved since.
  std::uint64_t tables_epoch_ = 0;
  /// Analysed clusters whose terminals the next refresh re-evaluates.
  std::vector<std::uint32_t> terminal_dirty_;
  bool self_check_ = false;
  IncrementalStats istats_;

  // -- The task loop of compute() and update() ------------------------------
  // Task slots, closures and seed buffers are reused across calls (grown,
  // never shrunk), so steady-state computes and updates perform no heap
  // allocation.
  struct PassTask {
    std::uint32_t cluster = 0;
    std::uint32_t pass = 0;
    bool full = true;                // a full sweep, else a cone patch
    std::vector<std::uint32_t> bwd;  // cone: bwd plus this pass's bwd_of_pass
    PassWorkspace ws;
    std::size_t retraced = 0;        // nodes_retraced's share
  };
  /// Append a full-sweep task for (c, p) to the planned tasks.
  PassTask& new_task(std::uint32_t c, std::uint32_t p);
  /// Run the planned tasks on the seeds of dirty_clusters_ at the current
  /// offsets, retake their checksums and re-fold what they can have changed.
  void run_tasks(ThreadPool* pool);
  std::vector<PassTask> tasks_;
  std::size_t num_tasks_ = 0;
  /// Pool tasks of compute()/update(); each closure captures two pointers,
  /// which libstdc++'s std::function stores inline, so refilling allocates
  /// nothing.
  std::vector<std::function<void()>> task_fns_;
  std::vector<std::uint32_t> dirty_clusters_;
  std::vector<std::uint32_t> probe_bwd_;  // union backward seeds (cost probe)
  PassWorkspace probe_ws_;

  // Terminal-table scratch, grown to the largest analysed cluster and
  // reused.
  passdetail::ConeScratch row_scratch_;    // row sweeps, stale-row search
  std::vector<std::uint32_t> stale_rows_;  // rows a refresh re-sweeps
  std::vector<TimePs> cap_ready_;           // [capture]
  std::vector<TimePs> row_required_;        // [pass]

  std::vector<TimePs> launch_slack_;
  std::vector<TimePs> capture_slack_;
};

}  // namespace hb
