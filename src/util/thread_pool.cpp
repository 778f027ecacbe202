#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/cancel.hpp"
#include "util/faultinject.hpp"

namespace hb {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::run_batch(const std::vector<std::function<void()>>& tasks,
                           const CancelToken* cancel) {
  if (tasks.empty()) return true;
  std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &tasks;
    cancel_ = cancel;
    next_.store(0, std::memory_order_relaxed);
    completed_ = 0;
    skipped_ = 0;
    first_error_ = nullptr;
    ++generation_;
  }
  wake_.notify_all();
  work_through();
  std::exception_ptr error;
  bool complete = true;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait until every task ran AND every worker left the batch, so the
    // shared counter can be reset for the next job without a straggler
    // picking indices against a stale task list.
    done_.wait(lock, [&] { return completed_ == tasks.size() && active_ == 0; });
    batch_ = nullptr;
    cancel_ = nullptr;
    error = first_error_;
    complete = skipped_ == 0;
  }
  if (error) std::rethrow_exception(error);
  return complete;
}

void ThreadPool::work_through() {
  const std::vector<std::function<void()>>* batch;
  const CancelToken* cancel;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch = batch_;
    cancel = cancel_;
  }
  if (batch == nullptr) return;
  const std::size_t items = batch->size();
  std::size_t done_here = 0;
  std::size_t skipped_here = 0;
  std::exception_ptr error;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= items) break;
    if (cancel != nullptr && cancel->cancelled()) {
      // Cooperative cancellation: consume the index without running the
      // task so the job still drains and the pool stays consistent.
      ++skipped_here;
    } else {
      try {
        maybe_inject_fault(FaultSite::kPoolTask, "thread pool task");
        (*batch)[i]();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    ++done_here;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  completed_ += done_here;
  skipped_ += skipped_here;
  if (error && !first_error_) first_error_ = error;
  if (completed_ == items) done_.notify_all();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      ++active_;
    }
    work_through();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (active_ == 0) done_.notify_all();
    }
  }
}

ThreadPool* env_analysis_pool() {
  static ThreadPool* pool = []() -> ThreadPool* {
    const char* env = std::getenv("HB_THREADS");
    if (env == nullptr || *env == '\0') return nullptr;
    const int n = std::atoi(env);
    if (n <= 1) return nullptr;
    static ThreadPool instance(n);
    return &instance;
  }();
  return pool;
}

}  // namespace hb
