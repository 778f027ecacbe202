// Small fixed-size worker pool for evaluating independent analysis tasks.
//
// The pool runs one kind of job: run_batch() hands every worker (plus the
// calling thread) tasks from a shared atomic counter and returns when all
// tasks have finished.  Tasks must be independent — the slack engine
// guarantees this by giving every (cluster, pass) task its own result slot —
// so the schedule never affects results, only wall-clock time.
//
// Fault containment: a task exception never terminates the process or a
// worker thread.  The job always runs to completion (a failed task does not
// starve the others), and the first exception thrown by any task is
// re-thrown on the calling thread after the job completes — identically on
// the serial and the pooled path.
//
// Cancellation is cooperative: when run_batch() is given a CancelToken and
// it trips mid-batch, tasks not yet started are skipped and run_batch
// returns false.  The caller owns the consequences (typically: discard the
// partial state and tag the analysis timed_out); the pool itself stays
// usable for the next job.
//
// Concurrent submitters are serialised by an internal mutex: two threads may
// safely call run_batch() on the same pool (they queue behind each other).
// Jobs are still not re-entrant: a task must not submit to the pool that is
// running it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hb {

class CancelToken;

class ThreadPool {
 public:
  /// `num_threads` counts workers *including* the calling thread: the pool
  /// spawns num_threads - 1 std::threads.  0 picks hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, calling thread included; always >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run tasks[0..n) to completion.  Each task is executed exactly once, on
  /// an unspecified worker.  Not re-entrant: tasks must not call run_batch.
  /// Returns true when every task ran; false when `cancel` tripped and the
  /// remaining tasks were skipped.  The first task exception is re-thrown
  /// here after the batch has drained.
  bool run_batch(const std::vector<std::function<void()>>& tasks,
                 const CancelToken* cancel = nullptr);

 private:
  void worker_loop();
  void work_through();

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // serialises concurrent job submitters
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;

  // All fields below except next_ are guarded by mutex_.
  const std::vector<std::function<void()>>* batch_ = nullptr;  // current job
  const CancelToken* cancel_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t completed_ = 0;
  std::size_t skipped_ = 0;
  int active_ = 0;  // workers currently inside the job
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Process-wide pool configured by the HB_THREADS environment variable, or
/// nullptr when unset / not greater than 1.  SlackEngine and CornerAnalysis
/// compute()/update() fall back to it when given no explicit pool, which
/// lets CI push the pass-task fan-out through every analysis in the tier-1
/// suite without touching test code (the pool serialises concurrent
/// submitters internally).
ThreadPool* env_analysis_pool();

}  // namespace hb
