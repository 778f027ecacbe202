// The two workloads and the pieces they share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "layers.hpp"
#include "service/session.hpp"

namespace perfbench {

Report run_whatif_commit(const Options& opt);
Report run_replica_reads(const Options& opt);

/// The host canary: a fixed ALU + memory loop, in milliseconds.
double calib_ms();

/// Fill every per-layer "<span>_ms" / "<span>_us" metric from span
/// durations (median per span instance).  Spans of `natural` tracers come
/// from the workload's own operations; `probe` spans fill only the metrics
/// the workload's operations do not reach.
void layer_metrics(Report& r, const std::vector<const Tracer*>& natural,
                   const std::vector<const Tracer*>& probe);

/// Engine counters of a set of commits, as per-layer metrics.
void pass_metrics(Report& r, int slack_evals, const hb::IncrementalStats& s,
                  std::size_t ops);

/// The 4-corner set of the probed sign-off.
hb::CornerSet signoff_corners();

/// One what-if edit: `set_delay <inst_name> <delta>`, then `commit`.
struct Edit {
  std::string inst_name;
  hb::InstId inst;
  hb::TimePs delta = 0;
};

/// Seeded edit stream over absorbable instances: deltas in [1, 40] ps,
/// signs chosen so each instance's accumulated edit stays in [0, 120] ps.
std::vector<Edit> edit_stream(const hb::Design& design,
                              const std::vector<hb::InstId>& insts,
                              std::uint64_t seed, std::size_t n);

/// What a run of commits measured.  With a mirror, every commit is
/// replayed; the engine counters of the first `count_limit` replays are
/// summed (a fixed prefix of a seeded edit stream, so they repeat exactly).
struct CommitTally {
  explicit CommitTally(std::size_t count_limit = 0) : count_limit(count_limit) {}
  Samples commit_ms;
  Samples unattributed_ms;  // commit minus the mirror's replayed blocks
  Samples coverage;         // replayed blocks / commit
  std::uint64_t writes = 0;
  double wall_s = 0;
  std::size_t count_limit;
  std::size_t counted = 0;
  int slack_evals = 0;
  hb::IncrementalStats stats;
  std::size_t image_bytes = 0;
};

/// One edit through `session`: set_delay, the timed commit and, with a
/// mirror, the mirror's replay of the commit's blocks (spans into `t`),
/// checked against the published snapshot.  Failures go to `r`.
void commit_edit(hb::Session& session, const Edit& e, CommitMirror* mirror, Tracer* t,
                 std::uint32_t op, CommitTally& tally, Report& r);

/// Session options of the live what-if session.
hb::SessionOptions whatif_session_options(int pool_threads);

/// Three traced sign-offs (no pool) of `design` written out as BLIF: the
/// construction-path per-layer metrics, which no timed op reaches.  The
/// three must agree; the share of the sign-off their spans cover is
/// printed as a fact.
void probe_signoff(const hb::Design& design, const hb::ClockSet& clocks, Tracer& t,
                   Report& r);

/// util.pool_speedup on a fresh analyser of `design`: compute() without a
/// pool against compute() with a pool of min(nproc, 4) workers.
void probe_pool(const hb::Design& design, const hb::ClockSet& clocks, Tracer& t,
                Report& r);

/// A few mirrored commits on a workload's own design, saving into `store`:
/// the commit-path per-layer metrics of workloads that do not commit.
void probe_commits(hb::Session& session, hb::SnapshotStore& store, int threads,
                   const std::string& mirror_dir, std::uint64_t seed, std::size_t n,
                   Tracer& t, Report& r);

}  // namespace perfbench
