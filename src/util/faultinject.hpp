// Deterministic fault injection for resilience tests.
//
// The injector is compiled into the library but disarmed by default: every
// hook is a single relaxed atomic load returning false, so production code
// pays (almost) nothing.  Tests arm it with a seed and per-site
// probabilities; firing decisions are a pure function of (seed, site,
// per-site draw counter), so a given seed produces the same fault sequence
// at each site on every run regardless of thread scheduling.
//
// Sites:
//   kPoolTask       — ThreadPool throws FaultInjectedError instead of
//                     running a task (exception-propagation paths);
//   kSpuriousCancel — CancelToken::cancelled() returns true spuriously
//                     (watchdog / timed_out paths);
//   kCacheCorrupt   — SlackEngine perturbs one cached pass result (after
//                     compute()/update()) or one terminal-table delay (after
//                     update_terminals()) before the next refresh
//                     (self-check / self-heal paths);
//   kSnapshotShortWrite  — SnapshotStore::save truncates the serialized
//                     image at a deterministic offset before it hits disk
//                     (torn-write / crash-mid-write recovery paths);
//   kSnapshotBitFlip     — SnapshotStore::save flips one deterministic bit
//                     of the image (silent media-corruption paths);
//   kSnapshotStaleVersion — SnapshotStore::save stamps a future format
//                     version into the header (version-skew rejection
//                     paths, e.g. a rollback after an upgrade).
#pragma once

#include <atomic>
#include <cstdint>

#include "util/error.hpp"

namespace hb {

enum class FaultSite : int {
  kPoolTask = 0,
  kSpuriousCancel = 1,
  kCacheCorrupt = 2,
  kSnapshotShortWrite = 3,
  kSnapshotBitFlip = 4,
  kSnapshotStaleVersion = 5,
};
inline constexpr int kNumFaultSites = 6;

/// Exception thrown by injected task faults; an hb::Error so recovery paths
/// treat it exactly like a real analysis failure.
class FaultInjectedError : public Error {
 public:
  explicit FaultInjectedError(const std::string& what) : Error(what) {}
};

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed = 1;
    /// Firing probability per site, in [0, 1].
    double probability[kNumFaultSites] = {};
  };

  /// Process-wide instance used by all hook points.
  static FaultInjector& instance();

  /// Arm with a config; resets all counters.  Not thread-safe against
  /// concurrent should_fire callers — arm before starting work.
  void arm(const Config& config);
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Decide whether the fault at `site` fires now.  Deterministic in the
  /// number of prior draws at the same site.
  bool should_fire(FaultSite site);

  /// Extra deterministic random stream for shaping a fired fault (e.g.
  /// which cache entry to corrupt).
  std::uint64_t draw(FaultSite site);

  /// Draws / fires at a site since arm().
  std::uint64_t draw_count(FaultSite site) const;
  std::uint64_t fire_count(FaultSite site) const;

  /// RAII arming for tests: disarms on scope exit.
  class Scope {
   public:
    explicit Scope(const Config& config) { FaultInjector::instance().arm(config); }
    ~Scope() { FaultInjector::instance().disarm(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

 private:
  std::atomic<bool> armed_{false};
  Config config_;
  std::atomic<std::uint64_t> draws_[kNumFaultSites] = {};
  std::atomic<std::uint64_t> fires_[kNumFaultSites] = {};
};

/// Hook helper: throws FaultInjectedError when the site fires.
inline void maybe_inject_fault(FaultSite site, const char* what) {
  if (FaultInjector::instance().should_fire(site)) {
    throw FaultInjectedError(std::string("injected fault: ") + what);
  }
}

}  // namespace hb
