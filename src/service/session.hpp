// A timing query session: one loaded design, one live analyser, one
// published snapshot, many concurrent readers.
//
// Concurrency model (docs/SERVICE.md):
//   * Read queries (slack, worst_paths, histogram, constraints, summary,
//     check_hold, gen_constraints) evaluate against the currently published
//     AnalysisSnapshot — an immutable value fetched under a tiny pointer
//     mutex — and may run from any number of threads at once.  They never
//     touch the analyser, the design or the thread pool, so they never
//     block the writer.  check_hold and gen_constraints read the hold-pair
//     and Algorithm 2 captures attached to every snapshot at publication
//     (service/snapshot_read.hpp).  Every read is evaluated per request,
//     its reply text rendered straight into the caller's buffer; no result
//     outlives its request, so publication is the store save plus the
//     pointer swap.
//   * Write queries (set_delay, upsize, commit) funnel through writer_mutex_.
//     Edits accumulate against the live analyser (absorbed incrementally via
//     Hummingbird::update_instance_delays / upsize_and_update when possible,
//     deferred to a rebuild otherwise).  `commit` has one path: pick the
//     analyser (the live one, or a fresh one over the edit history when an
//     edit was deferred), run Algorithm 1 through Hummingbird::analyze()
//     under the request budget — the SlackEngine dirty-set machinery makes
//     the live re-run bit-identical to a fresh full analysis — capture the
//     successor snapshot with capture_snapshot() and publish it.  Readers
//     observe the old analysis until the instant of publication, never a
//     half-updated one.
//   * The session owns its ThreadPool; pool_mutex_ serialises the two pool
//     users, batch read fan-out and commit's pass evaluation.  Lock order:
//     batch fan-out holds only pool_mutex_; commit takes writer_mutex_ then
//     pool_mutex_ — no cycle.  The pool is one thread budget shared by both
//     uses: commit's SlackEngine spends it on pass-level fan-out, one pool
//     task per pass, so SessionOptions::pool_threads bounds the session's
//     total analysis concurrency regardless of the mix.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "scenario/corner_set.hpp"
#include "service/metrics.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace hb {

class SnapshotStore;

struct SessionOptions {
  /// Workers in the session's pool, calling thread included; 0 = hardware.
  int pool_threads = 0;
  /// Corners evaluated at each publication (docs/SCENARIOS.md).  Non-empty,
  /// every snapshot carries per-corner sections — one K-lane corner sweep
  /// over the settled schedule — and the `corner` verbs serve from them.
  /// Empty (the default), corner queries answer a structured rejection.
  CornerSet corners;
};

class Session {
 public:
  /// Takes ownership of the design and clocks (the analyser holds
  /// references into them), builds the analyser, runs the initial analysis
  /// and publishes snapshot 1.
  Session(Design design, ClockSet clocks, HummingbirdOptions analysis = {},
          SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and execute one query line.  Thread-safe.  Blank/comment lines
  /// return an ok result with no lines (emit nothing).
  QueryResult execute(const std::string& line);

  /// Execute a parsed session query.  `timer` carries a read's per-request
  /// deadline/cancellation (e.g. a connection's re-armed BudgetTimer); when
  /// null the session's own deadline applies, as it always does to commits.
  QueryResult execute(const ParsedQuery& q, BudgetTimer* timer = nullptr);

  /// Evaluate a read query (q.ok and is_read_query(q.verb)) against the
  /// published snapshot under `timer`, or the session's own deadline when
  /// null, append the reply's wire text to `wire` and record the request —
  /// the protocol layer's read path.  Thread-safe; allocates nothing once
  /// `wire` has grown.
  ReplyStatus read_into(const ParsedQuery& q, BudgetTimer* timer,
                        std::string& wire);

  /// Execute a batch: maximal runs of read queries fan out over the
  /// session's pool; writes and control queries run serially in order.
  /// Results are index-aligned with `lines` and identical to sequential
  /// execution (reads are snapshot-consistent; writes publish only at
  /// commit).
  std::vector<QueryResult> execute_batch(const std::vector<std::string>& lines);

  /// The currently published snapshot (never null).
  std::shared_ptr<const AnalysisSnapshot> snapshot() const;

  /// Persist every published snapshot (the initial one included, saved
  /// retroactively) into `store`.  Not owned; must outlive the session.
  /// Call before serving traffic — installation is not synchronised.
  void set_snapshot_store(SnapshotStore* store);

  double deadline_ms() const { return deadline_ms_.load(std::memory_order_relaxed); }

  ServiceMetrics& metrics() { return metrics_; }
  const ServiceMetrics& metrics() const { return metrics_; }

  // -- Differential-test hooks --------------------------------------------
  // A fresh Hummingbird over design()/clocks() with delay_adjust_history()
  // in its options must reproduce the session's published analysis bit for
  // bit (tests/service_test.cpp).  Take these only when no writes are in
  // flight.
  const Design& design() const { return design_; }
  const ClockSet& clocks() const { return clocks_; }
  /// The analysis options' delay_adjust plus the accumulated set_delay
  /// edits, merged per instance and sorted by instance index (the map
  /// itself is order-free: adjustments are additive).  Every analyser the
  /// session builds starts from it.
  std::vector<InstDelayAdjust> delay_adjust_history() const;
  std::size_t pending_edits() const { return pending_edits_.load(std::memory_order_relaxed); }

 private:
  AnalysisBudget request_budget() const;
  /// An analyser over the session's design and clocks with
  /// delay_adjust_history() in place of the analysis options' own, its
  /// Algorithm 1 and 2 on the session's pool.
  std::unique_ptr<Hummingbird> build_analyser() const;
  QueryResult execute_write(const ParsedQuery& q);
  QueryResult execute_control(const ParsedQuery& q);
  QueryResult do_set_delay(const ParsedQuery& q);
  QueryResult do_upsize(const ParsedQuery& q);
  QueryResult do_commit();
  /// Save `snap` into the store, if any, and swap it in under
  /// snapshot_mutex_; the previous snapshot is destroyed after the lock is
  /// released.
  void publish(std::shared_ptr<const AnalysisSnapshot> snap);

  Design design_;
  ClockSet clocks_;
  HummingbirdOptions analysis_options_;
  SessionOptions options_;

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Hummingbird> hb_;
  std::shared_ptr<const NameIndex> names_;

  mutable std::mutex snapshot_mutex_;  // guards snapshot_ pointer only
  std::shared_ptr<const AnalysisSnapshot> snapshot_;

  std::mutex writer_mutex_;  // serialises write queries
  std::mutex pool_mutex_;    // serialises pool users (batch vs commit)

  /// Accumulated additive delay edits by InstId value (writer_mutex_).
  std::unordered_map<std::uint32_t, TimePs> delay_adjust_;
  std::atomic<std::size_t> pending_edits_{0};
  bool rebuild_required_ = false;  // writer_mutex_
  std::uint64_t snapshot_counter_ = 0;  // writer_mutex_ (and ctor)

  ServiceMetrics metrics_;
  std::atomic<double> deadline_ms_{0};
  SnapshotStore* store_ = nullptr;  // not owned; saves on publication
};

}  // namespace hb
