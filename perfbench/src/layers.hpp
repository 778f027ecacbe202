// The building blocks the workloads drive through the public API, each
// callable with or without a tracer.  Traced variants split one user-level
// operation into the public calls it is composed of, one span per call;
// span names are the per-layer metric names without their unit suffix.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "netlist/design.hpp"
#include "netlist/library.hpp"
#include "scenario/corner_set.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_store.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Everything one sign-off needs.
struct SignoffInputs {
  std::shared_ptr<const hb::Library> lib;
  std::string blif;
  hb::ClockSet clocks;
  hb::CornerSet corners;
};

/// What a sign-off produces; sign-offs of one design must agree on
/// fingerprint().
struct SignoffOutputs {
  std::string report;
  hb::TimePs worst_slack = 0;
  std::size_t constrained_nodes = 0;
  int snatch_cycles = 0;
  std::size_t hold_violations = 0;
  std::vector<hb::TimePs> corner_worst;
  int slack_evaluations = 0;
  std::string fingerprint() const;
};

/// One serial sign-off: BLIF parse, validation, the constructors
/// Hummingbird composes, Algorithm 1, report(10), the hold check, a K-corner
/// CornerAnalysis::compute, Algorithm 2 and teardown, each call in its own
/// span under a "signoff.op" span.  Algorithm 2 runs last because it moves
/// the offsets the other outputs read.  Returns the id of the "signoff.op"
/// span in `out_op_span`.
SignoffOutputs signoff_traced(const SignoffInputs& in, Tracer& t, std::uint32_t op,
                              int* out_op_span);

/// A second analyser that absorbs the same edits as a live session and
/// replays a commit's building blocks one by one (the commit itself is one
/// opaque Session::execute call).
class CommitMirror {
 public:
  CommitMirror(const hb::Design& design, const hb::ClockSet& clocks,
               int threads, const std::string& store_dir);
  ~CommitMirror();
  CommitMirror(const CommitMirror&) = delete;
  CommitMirror& operator=(const CommitMirror&) = delete;

  /// adjust_instance + update_instance_delays; false when not absorbable.
  bool absorb(hb::InstId inst, hb::TimePs delta);

  struct Replay {
    int slack_evaluations = 0;
    hb::IncrementalStats delta;   // engine stats moved by the Algorithm 1 run
    std::size_t image_bytes = 0;
    double blocks_ms = 0;         // the commit blocks' spans, summed
    std::string summary;          // `summary` reply of the replayed snapshot
    bool saved = false;           // the store accepted the snapshot
  };
  /// Replay one commit publishing snapshot `id`: Algorithm 1 (reanalyze),
  /// take_snapshot, Algorithm 2, the restoring reanalyze, the hold capture
  /// and the store save -- plus, outside the commit's blocks, a warm
  /// compute() and a bare serialize_snapshot for reference.
  Replay replay(std::uint64_t id, Tracer& t, std::uint32_t op);


 private:
  std::unique_ptr<hb::ThreadPool> pool_;
  std::unique_ptr<hb::Hummingbird> hb_;
  std::shared_ptr<const hb::NameIndex> names_;
  std::unique_ptr<hb::SnapshotStore> store_;
};

/// Store load path only: load_newest_source, map_file, first slack.
void probe_remap(hb::SnapshotStore& store, const std::string& slack_node,
                 Tracer& t, std::uint32_t op);

/// Replay one text read uncached: parse_query, evaluate_snapshot_read,
/// to_wire.  Returns the milliseconds the three spans cover.
double replay_text_read(const std::string& line, const hb::SnapshotSource& src,
                        Tracer& t, std::uint32_t op);

/// Replay one proto2 read uncached: proto2_decode_request and
/// proto2_evaluate (which also writes the reply frame), plus -- for
/// comparison with the text path -- to_wire of the same query's text
/// reply.  Returns the milliseconds of the first two spans, the ones on
/// the proto2 reply path.
double replay_frame_read(std::string_view payload, const std::string& line,
                         const hb::SnapshotSource& src, Tracer& t, std::uint32_t op);

/// Median ratio of compute() without a pool to compute() with `pool`, over
/// `reps` alternating pairs; also records "sta.compute" spans at the
/// pool's thread count.
double pool_speedup(hb::SlackEngine& engine, hb::ThreadPool& pool, int reps,
                    Tracer& t, std::uint32_t op);

/// Combinational top-level instances whose delay edits the analyser absorbs
/// incrementally, in seeded order; at most `want`.
std::vector<hb::InstId> absorbable_instances(const hb::Design& design,
                                             const hb::ClockSet& clocks,
                                             std::uint64_t seed, std::size_t want);

/// The read mix of both read workloads: 80% `slack <node>` over all named
/// nodes, seeded-uniform; the rest split between summary, worst_paths 8 and
/// histogram 8.
std::vector<std::string> read_mix(const std::vector<std::string>& nodes,
                                  std::uint64_t seed, std::size_t n);

/// The random_large network of the service benches (1,952 cells).
struct Network {
  hb::Design design;
  hb::ClockSet clocks;
};
Network make_random_large();

/// Sorted names of every named timing-graph node of a snapshot.
std::vector<std::string> node_names(const hb::AnalysisSnapshot& snap);

}  // namespace perfbench
