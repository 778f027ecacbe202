#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "service/snapshot_read.hpp"
#include "service/snapshot_store.hpp"
#include "synth/resize.hpp"

namespace hb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Session::Session(Design design, ClockSet clocks, HummingbirdOptions analysis,
                 SessionOptions options)
    : design_(std::move(design)),
      clocks_(std::move(clocks)),
      analysis_options_(std::move(analysis)),
      options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(options_.pool_threads)) {
  // The options' adjustments open the edit history, so a deferred commit's
  // rebuild keeps them.
  for (const InstDelayAdjust& a : analysis_options_.delay_adjust) {
    delay_adjust_[a.inst.value()] += a.delta;
  }
  hb_ = build_analyser();
  names_ = build_name_index(hb_->graph());
  const Algorithm1Result res = hb_->analyze();
  snapshot_ = capture_snapshot(*hb_, res, ++snapshot_counter_, names_,
                               options_.corners, pool_.get());
  metrics_.record_snapshot_published();
}

Session::~Session() = default;

std::shared_ptr<const AnalysisSnapshot> Session::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void Session::set_snapshot_store(SnapshotStore* store) {
  store_ = store;
  if (store_ == nullptr) return;
  // The initial snapshot was published during construction, before a store
  // could be installed: persist it now so a restart warm-serves even a
  // session that never committed.
  const std::shared_ptr<const AnalysisSnapshot> snap = snapshot();
  if (store_->save(*snap).ok) metrics_.record_snapshot_saved();
}

void Session::publish(std::shared_ptr<const AnalysisSnapshot> snap) {
  // Persist before the pointer swap: a crash between the two leaves the
  // store one generation ahead of what readers saw, never behind.  Runs
  // under writer_mutex_ (publication is writer-only), so the disk write
  // serialises with other commits, not with readers.
  if (store_ != nullptr && store_->save(*snap).ok) {
    metrics_.record_snapshot_saved();
  }
  // Swap under the lock; `snap`, now the previous snapshot, is destroyed
  // after it is released, so readers fetching the pointer never wait on
  // its teardown.
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.swap(snap);
  }
  metrics_.record_snapshot_published();
}

AnalysisBudget Session::request_budget() const {
  AnalysisBudget b;
  b.wall_seconds = deadline_ms_.load(std::memory_order_relaxed) / 1000.0;
  return b;
}

std::unique_ptr<Hummingbird> Session::build_analyser() const {
  HummingbirdOptions opt = analysis_options_;
  opt.alg1.pool = pool_.get();
  opt.alg2.pool = pool_.get();
  opt.delay_adjust = delay_adjust_history();
  return std::make_unique<Hummingbird>(design_, clocks_, std::move(opt));
}

std::vector<InstDelayAdjust> Session::delay_adjust_history() const {
  std::vector<InstDelayAdjust> out;
  out.reserve(delay_adjust_.size());
  for (const auto& [inst, delta] : delay_adjust_) {
    if (delta != 0) out.push_back(InstDelayAdjust{InstId(inst), delta});
  }
  std::sort(out.begin(), out.end(),
            [](const InstDelayAdjust& a, const InstDelayAdjust& b) {
              return a.inst.index() < b.inst.index();
            });
  return out;
}

QueryResult Session::execute(const std::string& line) {
  ParsedQuery q = parse_query(line);
  if (!q.ok && q.error.lines.empty()) return q.error;  // blank/comment input
  if (q.ok && !is_session_query(q.verb)) {
    return make_error(DiagCode::kParseSyntax,
                      "host-level command; not valid inside a session");
  }
  return execute(q);  // parse errors flow through so metrics count them
}

QueryResult Session::execute(const ParsedQuery& q, BudgetTimer* timer) {
  if (q.ok && is_read_query(q.verb)) {
    std::string wire;
    const ReplyStatus status = read_into(q, timer, wire);
    return from_wire(wire, status);
  }
  const auto t0 = std::chrono::steady_clock::now();
  QueryResult r = !q.ok                    ? q.error
                  : is_write_query(q.verb) ? execute_write(q)
                                           : execute_control(q);
  if (!q.error.lines.empty() || q.ok) {
    metrics_.record_request(is_read_query(q.verb), r.ok, r.timed_out(),
                            seconds_since(t0));
  }
  return r;
}

ReplyStatus Session::read_into(const ParsedQuery& q, BudgetTimer* timer,
                               std::string& wire) {
  const auto t0 = std::chrono::steady_clock::now();
  if (q.verb == QueryVerb::kCorner) metrics_.record_corner_read();
  metrics_.record_cache(false);  // every text read is evaluated
  std::optional<BudgetTimer> local;
  if (timer == nullptr) timer = &local.emplace(request_budget());
  const std::shared_ptr<const AnalysisSnapshot> snap = snapshot();
  const ReplyStatus status =
      render_snapshot_read(q, SnapshotCopySource(*snap), *timer, wire);
  metrics_.record_request(true, status.ok, status.timed_out(),
                          seconds_since(t0));
  return status;
}

std::vector<QueryResult> Session::execute_batch(
    const std::vector<std::string>& lines) {
  metrics_.record_batch();
  std::vector<QueryResult> out(lines.size());
  std::vector<ParsedQuery> parsed;
  parsed.reserve(lines.size());
  for (const std::string& line : lines) parsed.push_back(parse_query(line));

  std::size_t i = 0;
  while (i < lines.size()) {
    // Maximal run of read queries starting at i.
    std::size_t j = i;
    while (j < lines.size() && parsed[j].ok && is_read_query(parsed[j].verb)) ++j;
    if (j > i) {
      if (j - i == 1 || pool_->size() == 1) {
        for (std::size_t k = i; k < j; ++k) out[k] = execute(parsed[k]);
      } else {
        std::lock_guard<std::mutex> pool_lock(pool_mutex_);
        std::vector<std::function<void()>> tasks;
        tasks.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) {
          tasks.push_back([this, &out, &parsed, k] { out[k] = execute(parsed[k]); });
        }
        pool_->run_batch(tasks);
      }
      i = j;
      continue;
    }
    const ParsedQuery& q = parsed[i];
    if (!q.ok) {
      out[i] = q.error;
    } else if (is_session_query(q.verb)) {
      out[i] = execute(q);
    } else {
      out[i] = make_error(DiagCode::kParseSyntax,
                          "host-level command; not valid inside a batch");
    }
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Write queries — single writer.

QueryResult Session::execute_write(const ParsedQuery& q) {
  switch (q.verb) {
    case QueryVerb::kSetDelay: return do_set_delay(q);
    case QueryVerb::kUpsize: return do_upsize(q);
    case QueryVerb::kCommit: return do_commit();
    default:
      return make_error(DiagCode::kParseSyntax, "not a write query");
  }
}

QueryResult Session::do_set_delay(const ParsedQuery& q) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const InstId inst = design_.top().find_inst(q.args[0]);
  if (!inst.valid()) {
    return make_error(DiagCode::kParseUnknownName,
                      "unknown instance '" + q.args[0] + "'");
  }
  const TimePs delta = q.number;
  hb_->calculator_mut().adjust_instance(inst, delta);
  delay_adjust_[inst.value()] += delta;
  bool absorbed = false;
  if (!rebuild_required_) {
    absorbed = hb_->update_instance_delays(inst);
    if (!absorbed) rebuild_required_ = true;
  }
  const std::size_t pending =
      pending_edits_.fetch_add(1, std::memory_order_relaxed) + 1;
  return make_ok("ok set_delay " + q.args[0] + " " + std::to_string(delta) +
                 (absorbed ? " absorbed" : " deferred") + " pending " +
                 std::to_string(pending));
}

QueryResult Session::do_upsize(const ParsedQuery& q) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const InstId inst = design_.top().find_inst(q.args[0]);
  if (!inst.valid()) {
    return make_error(DiagCode::kParseUnknownName,
                      "unknown instance '" + q.args[0] + "'");
  }
  bool absorbed = false;
  if (rebuild_required_) {
    // The live analyser is already stale; mutate the design only.
    if (!upsize_instance(design_, inst)) {
      return make_error(DiagCode::kServiceRejected,
                        "'" + q.args[0] + "' has no stronger variant");
    }
  } else {
    switch (upsize_and_update(design_, inst, *hb_)) {
      case ResizeUpdate::kNotResized:
        return make_error(DiagCode::kServiceRejected,
                          "'" + q.args[0] + "' has no stronger variant");
      case ResizeUpdate::kAbsorbed:
        absorbed = true;
        break;
      case ResizeUpdate::kRebuildRequired:
        rebuild_required_ = true;
        break;
    }
  }
  const std::size_t pending =
      pending_edits_.fetch_add(1, std::memory_order_relaxed) + 1;
  return make_ok("ok upsize " + q.args[0] + " to " +
                 design_.target_name(design_.top().inst(inst)) +
                 (absorbed ? " absorbed" : " deferred") + " pending " +
                 std::to_string(pending));
}

// One path for every commit: Algorithm 1 through Hummingbird::analyze()
// under the request budget, on the live analyser or — when an edit was
// deferred — on a fresh one over the current design and edit history; then
// capture_snapshot() (hold, corners, Algorithm 2 last) and publication.
// Algorithm 2 leaves the analyser in its snatched state; nothing reads the
// live analyser between publications, and analyze() restarts from reset
// offsets, so nothing is restored (docs/SERVICE.md).  A timed-out
// Algorithm 1 leaves consistent but unsettled offsets and publishes nothing;
// the edits stay pending.
QueryResult Session::do_commit() {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  if (pending_edits_.load(std::memory_order_relaxed) == 0) {
    return make_ok("ok commit snapshot " + std::to_string(snapshot_counter_) +
                   " noop");
  }
  std::shared_ptr<const AnalysisSnapshot> snap;
  {
    std::lock_guard<std::mutex> pool_lock(pool_mutex_);
    std::unique_ptr<Hummingbird> fresh;
    if (rebuild_required_) fresh = build_analyser();
    const Algorithm1Result res =
        (fresh != nullptr ? *fresh : *hb_).analyze(request_budget());
    if (res.status == AnalysisStatus::kTimedOut) {
      return make_error(DiagCode::kAnalysisBudget,
                        "commit timed out; edits retained, snapshot " +
                            std::to_string(snapshot_counter_) + " unchanged");
    }
    if (fresh != nullptr) {
      hb_ = std::move(fresh);
      names_ = build_name_index(hb_->graph());
      rebuild_required_ = false;
    }
    snap = capture_snapshot(*hb_, res, ++snapshot_counter_, names_,
                            options_.corners, pool_.get());
  }
  const std::string reply =
      "ok commit snapshot " + std::to_string(snap->id) + " worst_slack " +
      fmt_ps(snap->worst_slack) + " violations " +
      std::to_string(snap->num_violations) + " status " +
      analysis_status_name(snap->status);
  publish(std::move(snap));
  pending_edits_.store(0, std::memory_order_relaxed);
  return make_ok(reply);
}

// ---------------------------------------------------------------------------
// Control queries.

QueryResult Session::execute_control(const ParsedQuery& q) {
  switch (q.verb) {
    case QueryVerb::kPing:
      return make_ok("ok pong");
    case QueryVerb::kDeadline: {
      deadline_ms_.store(q.fraction, std::memory_order_relaxed);
      return make_ok("ok deadline_ms " + q.args[0]);
    }
    case QueryVerb::kStats: {
      std::vector<std::string> lines = metrics_.to_lines();
      lines.push_back("  stat snapshot_id " +
                      std::to_string(snapshot()->id));
      lines.push_back("  stat pending_edits " +
                      std::to_string(pending_edits()));
      QueryResult r = make_ok("ok stats " + std::to_string(lines.size()));
      for (std::string& l : lines) r.lines.push_back(std::move(l));
      return r;
    }
    default:
      return make_error(DiagCode::kParseSyntax, "not a control query");
  }
}

}  // namespace hb
