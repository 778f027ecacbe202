#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double Samples::percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p * static_cast<double>(s.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::sum() const {
  double t = 0;
  for (double v : v_) t += v;
  return t;
}

LatencyHist::LatencyHist() : buckets_(static_cast<std::size_t>(64) * kSub, 0) {}

std::size_t LatencyHist::bucket_of(std::uint64_t ns) {
  if (ns < static_cast<std::uint64_t>(kSub)) return static_cast<std::size_t>(ns);
  const int msb = 63 - __builtin_clzll(ns);  // >= kSubBits
  const int shift = msb - kSubBits;
  const std::uint64_t sub = (ns >> shift) & (kSub - 1);
  return static_cast<std::size_t>(shift + 1) * kSub + static_cast<std::size_t>(sub);
}

double LatencyHist::bucket_low(std::size_t b) {
  const std::size_t group = b / kSub;
  const std::size_t sub = b % kSub;
  if (group == 0) return static_cast<double>(sub);
  const int shift = static_cast<int>(group) - 1;
  return std::ldexp(static_cast<double>(kSub + sub), shift);
}

double LatencyHist::bucket_high(std::size_t b) {
  const std::size_t group = b / kSub;
  if (group == 0) return static_cast<double>(b % kSub) + 1;
  return bucket_low(b) + std::ldexp(1.0, static_cast<int>(group) - 1);
}

void LatencyHist::add_ns(std::uint64_t ns) {
  ++buckets_[std::min(bucket_of(ns), buckets_.size() - 1)];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double LatencyHist::percentile_ns(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::max(1.0, std::ceil(p * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(seen + buckets_[b]) >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double within =
          (rank - static_cast<double>(seen) - 0.5) / static_cast<double>(buckets_[b]);
      return bucket_low(b) + within * (bucket_high(b) - bucket_low(b));
    }
    seen += buckets_[b];
  }
  return bucket_high(buckets_.size() - 1);
}

double tail_quantile(std::uint64_t n) {
  double best = 0;
  for (double q : {0.75, 0.9, 0.99, 0.999}) {
    const double beyond =
        static_cast<double>(n) - std::ceil(q * static_cast<double>(n));
    if (beyond >= 10) best = q;
  }
  return best;
}

std::string quantile_label(double q) {
  if (q >= 0.999) return "p99.9";
  if (q >= 0.99) return "p99";
  if (q >= 0.9) return "p90";
  if (q >= 0.75) return "p75";
  return "none";
}

Tracer::Tracer(std::string thread_name) : thread_name_(std::move(thread_name)) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const char* name, std::uint32_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[id].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::child_coverage(int id) const {
  const Span& p = spans_[id];
  const double dur = static_cast<double>(p.end_ns - p.start_ns);
  if (dur <= 0) return 0;
  return (dur - 1e6 * self_ms(id)) / dur;
}

double Tracer::self_ms(int id) const {
  // Children of one parent never overlap (one thread, properly nested), so
  // the covered part is the sum of the children clipped to the parent.
  const Span& p = spans_[id];
  std::int64_t covered = 0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.start_ns > p.end_ns) break;
    if (c.parent != id) continue;
    covered += std::min(c.end_ns, p.end_ns) - std::max(c.start_ns, p.start_ns);
  }
  return 1e-6 * static_cast<double>(p.end_ns - p.start_ns - covered);
}

void write_trace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::app);
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"thread\":\"" << t->thread_name() << "\",\"id\":" << i
          << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::uint64_t samples, std::string note) {
  metrics[name] = Metric{value, unit, samples, std::move(note)};
}

void Report::fact(const std::string& key, const std::string& value) {
  facts.emplace_back(key, value);
}

void Report::fact(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  facts.emplace_back(key, buf);
}

void Report::mismatch(const std::string& what) {
  correct = false;
  ++failed;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

void Report::latency(const std::string& base, const Samples& s,
                     const std::string& unit) {
  for (double p : {0.1, 0.25, 0.75, 0.9}) {
    fact(base + ".q" + std::to_string(static_cast<int>(p * 100)), s.percentile(p));
  }
  fact(base + ".mean", s.sum() / static_cast<double>(std::max<std::size_t>(s.size(), 1)));
  const double q = tail_quantile(s.size());
  set(base + ".p50", s.median(), unit, s.size(), "p50");
  if (q == 0) {
    mismatch(base + ": " + std::to_string(s.size()) +
             " samples leave no tail percentile with 10 samples beyond it");
    set(base + ".tail", s.percentile(1.0), unit, s.size(), "max");
    return;
  }
  set(base + ".tail", s.percentile(q), unit, s.size(), quantile_label(q));
}

void Report::latency_ns(const std::string& base, const LatencyHist& h,
                        double scale, const std::string& unit) {
  for (double p : {0.1, 0.25, 0.75, 0.9}) {
    fact(base + ".q" + std::to_string(static_cast<int>(p * 100)), h.percentile_ns(p) * scale);
  }
  const double q = tail_quantile(h.count());
  set(base + ".p50", h.percentile_ns(0.5) * scale, unit, h.count(), "p50");
  if (q == 0) {
    mismatch(base + ": too few samples for a tail percentile");
    set(base + ".tail", h.percentile_ns(1.0) * scale, unit, h.count(), "max");
    return;
  }
  set(base + ".tail", h.percentile_ns(q) * scale, unit, h.count(),
      quantile_label(q));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace perfbench
