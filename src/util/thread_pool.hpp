// Small fixed-size worker pool for evaluating independent analysis passes
// and for chunked data-parallel loops.
//
// The pool runs *jobs*: run_batch() hands every worker (plus the calling
// thread) tasks from a shared atomic counter and returns when all tasks have
// finished; parallel_for() does the same over fixed-size index chunks of a
// range.  Tasks and chunks must be independent — the slack engine guarantees
// this by giving every (cluster, pass) task its own result slot, and the
// hold checker by giving every chunk its own per-worker scratch — so the
// schedule never affects results, only wall-clock time.
//
// Chunk boundaries in parallel_for are a pure function of (n, grain), never
// of the worker count or the schedule: determinism across thread counts is
// preserved by construction, not by synchronisation.
//
// Fault containment: a task/chunk exception never terminates the process or
// a worker thread.  The job always runs to completion (a failed task does
// not starve the others), and the first exception thrown by any task is
// re-thrown on the calling thread after the job completes — identically
// on the serial and the pooled path.
//
// Cancellation is cooperative: when run_batch() is given a CancelToken and
// it trips mid-batch, tasks not yet started are skipped and run_batch
// returns false.  The caller owns the consequences (typically: discard the
// partial state and tag the analysis timed_out); the pool itself stays
// usable for the next job.
//
// Concurrent submitters are serialised by an internal mutex: two threads may
// safely call run_batch()/parallel_for() on the same pool (they queue behind
// each other).  Jobs are still not re-entrant: a task must not submit to the
// pool that is running it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <typeinfo>
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

  /// Chunked data-parallel loop: splits [0, n) into chunks of `grain`
  /// consecutive indices (the last chunk may be short) and calls
  /// `fn(begin, end, worker)` once per chunk, where `worker` in [0, size())
  /// identifies the executing worker — a stable scratch index, not a
  /// schedule promise.  Chunk boundaries depend only on (n, grain), never on
  /// the worker count, so a chunk-owns-its-writes kernel is bit-identical at
  /// every thread count by construction.  When the range fits a single
  /// chunk, or the pool has one worker, fn runs inline on the calling
  /// thread.  Steady state allocates nothing (fn is passed by reference
  /// through a plain function pointer, not a std::function).  The first
  /// chunk exception is re-thrown after the loop drains; injected kPoolTask
  /// faults fire per dispatched chunk, as for batch tasks.
  template <class Fn>
  void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    if (chunks <= 1 || workers_.empty()) {
      fn(std::size_t{0}, n, 0);
      return;
    }
    using Bare = std::remove_reference_t<Fn>;
    run_chunks(n, grain, &fn,
               [](void* ctx, std::size_t begin, std::size_t end, int worker) {
                 (*static_cast<Bare*>(ctx))(begin, end, worker);
               });
  }

  /// Reusable per-worker scratch of type T: one instance per (pool, worker,
  /// T), default-constructed on first use and reused across tasks, chunks
  /// and jobs ever after — parallel loops keep their zero-steady-state-
  /// allocation guarantee by parking grow-only buffers here.  Only the
  /// worker executing under index `worker` may touch its slot during a job
  /// (slots of distinct workers are independent).
  template <class T>
  T& scratch(int worker) {
    Holder<T>* holder = nullptr;
    std::vector<SlotEntry>& slots = scratch_[static_cast<std::size_t>(worker)];
    for (SlotEntry& entry : slots) {
      if (entry.type == &typeid(T)) {
        holder = static_cast<Holder<T>*>(entry.value.get());
        break;
      }
    }
    if (holder == nullptr) {
      auto fresh = std::make_unique<Holder<T>>();
      holder = fresh.get();
      slots.push_back(SlotEntry{&typeid(T), std::move(fresh)});
    }
    return holder->value;
  }

 private:
  struct ScratchBase {
    virtual ~ScratchBase() = default;
  };
  template <class T>
  struct Holder : ScratchBase {
    T value{};
  };
  struct SlotEntry {
    const std::type_info* type;
    std::unique_ptr<ScratchBase> value;
  };

  using ChunkFn = void (*)(void* ctx, std::size_t begin, std::size_t end,
                           int worker);

  void run_chunks(std::size_t n, std::size_t grain, void* ctx, ChunkFn fn);
  void worker_loop(int worker);
  void work_through(int worker);

  std::vector<std::thread> workers_;
  std::vector<std::vector<SlotEntry>> scratch_;  // by worker index
  std::mutex submit_mutex_;  // serialises concurrent job submitters
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;

  // All fields below except next_ are guarded by mutex_.
  const std::vector<std::function<void()>>* batch_ = nullptr;  // batch job
  ChunkFn chunk_fn_ = nullptr;                                 // chunk job
  void* chunk_ctx_ = nullptr;
  std::size_t chunk_n_ = 0;
  std::size_t chunk_grain_ = 0;
  std::size_t num_items_ = 0;  // tasks or chunks in the current job
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
