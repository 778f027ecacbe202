// Service-level observability: one counter block per Session, dumpable via
// the `stats` query.  Counters are relaxed atomics — pure monotone
// bookkeeping, never used for synchronisation — so concurrent queries pay
// one uncontended add each and the writer pays nothing extra.
//
// Latencies are recorded into a log2 histogram of microseconds; percentile
// queries report the upper bound of the bucket containing the requested
// rank (good to a factor of two, which is what a health check needs).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hb {

class ServiceMetrics {
 public:
  /// Record one finished request: its class, outcome and wall time.
  void record_request(bool is_read, bool ok, bool timed_out, double seconds);
  /// One read reply: replayed from a connection's typed-frame cache (hit)
  /// or evaluated against the snapshot (miss, every text read).
  void record_cache(bool hit);
  /// One corner-scoped read query (`corner ...`) reached evaluation.
  void record_corner_read();
  void record_snapshot_published();
  void record_batch();
  // Persistent snapshot store traffic (service/snapshot_store.hpp).
  void record_snapshot_saved();
  void record_snapshot_loaded();
  void record_snapshots_rejected(std::uint64_t n);
  void record_snapshot_self_heal();

  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  std::uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  std::uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  std::uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  std::uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  std::uint64_t corner_reads() const {
    return corner_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_published() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_saved() const {
    return snapshots_saved_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_loaded() const {
    return snapshots_loaded_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_rejected() const {
    return snapshots_rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_self_heals() const {
    return snapshot_self_heals_.load(std::memory_order_relaxed);
  }

  /// Hits / (hits + misses); 0 when no read was served yet.
  double cache_hit_rate() const;

  /// Approximate latency percentile in microseconds (p in [0, 100]):
  /// the upper bound of the log2 bucket holding the requested rank.
  std::uint64_t latency_us(double percentile) const;

  /// "stat <name> <value>" lines in a fixed order — the `stats` payload.
  std::vector<std::string> to_lines() const;

 private:
  static constexpr int kBuckets = 32;  // 2^31 us ≈ 36 min: ample headroom

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> corner_reads_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> snapshots_saved_{0};
  std::atomic<std::uint64_t> snapshots_loaded_{0};
  std::atomic<std::uint64_t> snapshots_rejected_{0};
  std::atomic<std::uint64_t> snapshot_self_heals_{0};
  std::atomic<std::uint64_t> latency_bucket_[kBuckets] = {};
};

}  // namespace hb
