// Shared machinery of the end-to-end benchmark: clocks, latency samples,
// the outside-in span tracer, and the result line.
//
// Every workload fills one Report: end-to-end metrics from the untraced
// run, per-layer metrics from the traced run, plus the attempted/failed
// operation counts and a correctness verdict.  main.cpp prints it as the
// last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Exact samples (a few thousand at most: sign-off ops, commits, remaps).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in (0, 1].
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  double sum() const;

 private:
  std::vector<double> v_;
};

/// Log-linear latency histogram for millions of reply samples: 256
/// sub-buckets per power of two of nanoseconds (0.4% resolution), with
/// linear interpolation inside the bucket holding the requested rank.
class LatencyHist {
 public:
  LatencyHist();
  void add_ns(std::uint64_t ns);
  void merge(const LatencyHist& o);
  std::uint64_t count() const { return count_; }
  /// Percentile in nanoseconds, p in (0, 1].
  double percentile_ns(double p) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kSub = 1 << kSubBits;
  static std::size_t bucket_of(std::uint64_t ns);
  static double bucket_low(std::size_t b);
  static double bucket_high(std::size_t b);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The tail percentile of a sample set: the highest of p75, p90, p99 and
/// p99.9 that leaves at least ten samples beyond it.  Returns 0 when even
/// p75 does not (fewer than 40 samples); callers treat that as a failure.
double tail_quantile(std::uint64_t n);
std::string quantile_label(double q);

/// One traced interval.  Spans of one operation share `op`; `parent` is the
/// index of the enclosing span in the same tracer (-1 at top level).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint32_t op = 0;
};

/// Per-thread span recorder.  Spans stay in memory; write_jsonl() dumps
/// them at exit.  Not thread-safe: give every thread its own tracer.
class Tracer {
 public:
  explicit Tracer(std::string thread_name = "main");
  int begin(const char* name, std::uint32_t op);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread_name() const { return thread_name_; }
  std::int64_t now_ns() const;
  /// Duration of span `id` minus the union of its direct children.
  double self_ms(int id) const;
  /// Milliseconds since span `id` began (for a span still open).
  double elapsed_ms(int id) const {
    return 1e-6 * static_cast<double>(now_ns() - spans_[id].start_ns);
  }
  double dur_ms(int id) const {
    return 1e-6 * static_cast<double>(spans_[id].end_ns - spans_[id].start_ns);
  }
  /// Share of span `id` covered by its direct children.
  double child_coverage(int id) const;

 private:
  std::string thread_name_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint32_t op)
      : t_(t), id_(t != nullptr ? t->begin(name, op) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// Append every span of `tracers` to `path`, one JSON object per line.
void write_trace(const std::string& path, const std::vector<const Tracer*>& tracers);

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 1;
  std::string note;  // e.g. which percentile a tail is
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch space for snapshot stores
  std::string trace_file;  // span dump of the traced run

  // A traced run spends 60% of `seconds` traced, then 20% untraced for the
  // overhead comparison, so it lasts about as long as an untraced run.
  double traced_seconds() const { return 0.6 * seconds; }
  double plain_seconds() const { return 0.2 * seconds; }
};

/// Set-ups per untraced run, half before and half after the measured
/// window, so that a host episode of a few seconds cannot set the median
/// alone; setup_s is their median.
constexpr int kSetups = 12;

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Facts printed above the result line (thread counts, cells, ...).
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> mismatches;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1, std::string note = {});
  void fact(const std::string& key, const std::string& value);
  void fact(const std::string& key, double value);
  /// Record a failed output check (counts as a failed operation).
  void mismatch(const std::string& what);
  /// Add the p50/tail pair of a sample set under `base`.p50 / `base`.tail.
  void latency(const std::string& base, const Samples& s, const std::string& unit);
  void latency_ns(const std::string& base, const LatencyHist& h, double scale,
                  const std::string& unit);
};

double peak_rss_mb();
/// Minor page faults of the process so far.
std::uint64_t minor_faults();
int hardware_threads();

}  // namespace perfbench
