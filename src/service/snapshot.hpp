// Immutable analysis snapshots — the consistency unit of the query service.
//
// A snapshot is a self-contained copy of everything read queries need:
// per-node timing, terminal slack distribution, the worst slow paths
// (pre-rendered to labels and node names) and the summary counters.  It
// holds no pointers into the analyser, the timing graph or the design, so
// the writer may mutate — or completely rebuild — all of those while
// readers keep serving from the published snapshot.  Publication is a
// shared_ptr swap; a snapshot, once published, never changes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/corner_set.hpp"
#include "sta/hummingbird.hpp"

namespace hb {

/// Worst paths a captured snapshot keeps (the upper bound of `worst_paths K`).
inline constexpr std::size_t kSnapshotPaths = 32;

/// Name lookup tables captured at graph-build time.  Shared by every
/// snapshot taken from the same graph build; replaced when the analyser is
/// rebuilt (names and node ids may then differ).  Filled by its builder
/// before it is shared, immutable afterwards.
struct NameIndex {
  /// Human-readable pin name per timing-graph node.
  std::vector<std::string> node_names;
  std::unordered_map<std::string, std::uint32_t> node_by_name;
  /// Instance name -> (pin name, node index) for every pin of every
  /// top-level instance — the `constraints` query's working set.
  std::unordered_map<std::string,
                     std::vector<std::pair<std::string, std::uint32_t>>>
      inst_pins;

  /// This index's name-index section of the snapshot image: its payload
  /// bytes and section checksum.
  struct ImageSection {
    std::string payload;
    std::uint64_t checksum = 0;
  };
  /// Encoded on first use (thread-safe) and reused by every serialisation
  /// of a snapshot sharing this index, so a commit that keeps the graph
  /// does not re-encode its names.  The bytes live and die with the index.
  /// Defined beside the image format in snapshot_store.cpp.
  const ImageSection& image_section() const;

 private:
  mutable std::once_flag image_once_;
  mutable ImageSection image_;
};

std::shared_ptr<const NameIndex> build_name_index(const TimingGraph& graph);

/// One slow path, reduced to what replies print (no graph references).
struct SnapshotPath {
  TimePs slack = 0;
  std::string launch;   // launch terminal label
  std::string capture;  // capture terminal label
  std::string from;     // first path node name
  std::string to;       // last path node name
  std::size_t steps = 0;
};

/// One connected (launch, capture) terminal pair with its worst hold margin
/// — the full hold-sweep result at an infinite threshold.  `check_hold <m>`
/// filters this list by margin < m, reproducing the live sweep byte for
/// byte without touching the analyser (tests/snapshot_store_test.cpp).
struct SnapshotHoldPair {
  std::uint32_t launch = 0;   // SyncId value
  std::uint32_t capture = 0;  // SyncId value
  TimePs margin = 0;          // worst (minimum) margin over all paths
  std::string launch_label;
  std::string capture_label;
};

/// Per-corner results captured from a multi-corner run (docs/SCENARIOS.md).
/// Each corner carries the same read-query working set as the snapshot's
/// top-level fields — slack distribution, worst paths, hold pairs — so
/// `corner <k> <query>` serves from the snapshot exactly like the unscoped
/// verbs do.
struct SnapshotCorner {
  std::string name;
  std::uint32_t derate_pm = 1000;
  std::uint32_t wire_pm = 1000;
  TimePs worst_slack = 0;
  std::size_t num_violations = 0;
  /// Per-node slack under this corner, by TNodeId index (`corner <k>
  /// slack <node>`); same length as AnalysisSnapshot::nodes.
  std::vector<TimePs> node_slacks;
  /// Finite capture-terminal slacks under this corner, in SyncId order.
  std::vector<TimePs> capture_slacks;
  /// This corner's worst paths, worst first.
  std::vector<SnapshotPath> paths;
  /// Hold pairs under this corner's derated delays (when captured).
  bool has_hold = false;
  std::vector<SnapshotHoldPair> hold_pairs;
};

struct AnalysisSnapshot {
  std::uint64_t id = 0;
  /// Top-module name of the analysed design — the persistence key of the
  /// snapshot store (src/service/snapshot_store.hpp).
  std::string design_name;
  AnalysisStatus status = AnalysisStatus::kComplete;
  bool works_as_intended = false;
  TimePs worst_slack = 0;

  std::size_t num_terminals = 0;   // generic sync instances
  std::size_t num_violations = 0;  // capture terminals with negative slack

  /// Finite capture-terminal slacks, in SyncId order (histogram input).
  std::vector<TimePs> capture_slacks;
  /// Worst paths, worst first, up to kSnapshotPaths.
  std::vector<SnapshotPath> paths;
  /// Per-node timing, by TNodeId index (slack / constraints queries).
  std::vector<NodeTiming> nodes;

  /// Hold-sweep inputs: every connected pair with its worst margin, sorted
  /// by (launch, capture).  Present in every captured snapshot
  /// (capture_snapshot); `check_hold` is then a snapshot read.
  bool has_hold = false;
  std::vector<SnapshotHoldPair> hold_pairs;

  /// Multi-corner sections, by corner index.  Present when the capture ran
  /// a CornerSet (SessionOptions::corners); `worst_corner` is the corner of
  /// the globally worst slack (ties -> lowest corner index).
  bool has_corners = false;
  std::uint32_t worst_corner = 0;
  std::vector<SnapshotCorner> corners;

  /// Algorithm 2 constraint times by TNodeId index (gen_constraints query).
  /// Present in every captured snapshot (capture_snapshot).
  bool has_constraints = false;
  AnalysisStatus constraints_status = AnalysisStatus::kComplete;
  std::int32_t backward_snatch_cycles = 0;
  std::int32_t forward_snatch_cycles = 0;
  std::vector<ConstraintTimes> constraint_nodes;

  std::shared_ptr<const NameIndex> names;
};

/// Copy the engine's current results into a fresh snapshot, without the
/// hold, corner and Algorithm 2 captures.  The engine must be fully up to
/// date.  The result is returned mutable so captures can be attached before
/// publication freezes it behind a const pointer.
std::shared_ptr<AnalysisSnapshot> take_snapshot(
    const SlackEngine& engine, const Algorithm1Result& result,
    std::uint64_t id, std::size_t max_paths,
    std::shared_ptr<const NameIndex> names);

/// Run the hold check at an infinite threshold and record every connected
/// pair's margin into `snap` (sets has_hold).  The check reads the engine's
/// terminal delay table and uses no pool; the parameter stays for callers
/// that pass one.
void capture_hold_into(AnalysisSnapshot& snap, const SlackEngine& engine,
                       ThreadPool* = nullptr);

/// The publication capture of an analyser that has just run Algorithm 1
/// (`result`), in its one order: take_snapshot (kSnapshotPaths worst
/// paths), the hold check, then — when `corners` is non-empty — one K-lane
/// corner sweep with each corner's hold pairs, all over the settled
/// schedule, and Algorithm 2 last (under the analyser's own Algorithm 2
/// options).  Algorithm 2 leaves `hb` in its snatched state; the next
/// analyze() starts from reset offsets and does not depend on it.  The
/// corner sweep fans out over `pool` when given.
std::shared_ptr<AnalysisSnapshot> capture_snapshot(
    Hummingbird& hb, const Algorithm1Result& result, std::uint64_t id,
    std::shared_ptr<const NameIndex> names, const CornerSet& corners,
    ThreadPool* pool = nullptr);

}  // namespace hb
