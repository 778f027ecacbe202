// SnapshotSource — the data interface of the one read evaluator
// (service/read_eval.hpp) behind every snapshot-served read verb, in both
// protocols.
//
// Two implementations exist: SnapshotCopySource (below) adapts a live
// session's in-memory AnalysisSnapshot, and SnapshotView (snapshot_view.hpp)
// serves every persisted image straight from its mmap'd bytes without
// materialising a single string.
// The evaluator is written against this interface only, so a live
// session, a warm-restarted host and a read-only replica all produce
// byte-identical replies — the differential contract of
// tests/proto2_test.cpp.
//
// The results a multi-corner capture repeats per corner (worst slack,
// violations, node slacks, worst paths, capture slacks, hold pairs) are
// read through scoped accessors: ReadScope{} selects the snapshot's own
// results, ReadScope{k} corner k's, so `slack` and `corner k slack` run
// the same evaluation.
//
// Accessors hand out string_views and small value structs; views point into
// storage owned by the source (the snapshot's strings, or the mapped
// image), valid for the source's lifetime.  Out-of-range indices return
// zeroed values rather than throwing: on images produced by
// serialize_snapshot the counts always agree, and a hostile image must
// degrade, not crash.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "service/snapshot.hpp"

namespace hb {

struct SourcePin {
  std::string_view name;
  std::uint32_t node = 0;
};

struct SourcePath {
  TimePs slack = 0;
  std::string_view launch;
  std::string_view capture;
  std::string_view from;
  std::string_view to;
  std::size_t steps = 0;
};

struct SourceHoldPair {
  TimePs margin = 0;
  std::string_view launch_label;
  std::string_view capture_label;
};

/// One entry of the corner table.
struct SourceCorner {
  std::string_view name;
  std::uint32_t derate_pm = 1000;
  std::uint32_t wire_pm = 1000;
};

/// Which results a scoped accessor reads: the snapshot's own (the base
/// scope) or corner k's section of a multi-corner capture.
struct ReadScope {
  static constexpr std::size_t kBase = static_cast<std::size_t>(-1);
  std::size_t corner = kBase;
  bool base() const { return corner == kBase; }
};

class SnapshotSource {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Opaque handle from find_instance(); valid only against the source
  /// that produced it, and only while that source lives.
  struct InstRef {
    const void* p = nullptr;
    std::size_t i = 0;
    bool found = false;
  };

  virtual ~SnapshotSource() = default;

  // -- meta ----------------------------------------------------------------
  virtual std::uint64_t id() const = 0;
  virtual std::string_view design_name() const = 0;
  virtual AnalysisStatus status() const = 0;
  virtual bool works_as_intended() const = 0;
  virtual std::size_t num_terminals() const = 0;

  // -- node timings / names ------------------------------------------------
  virtual NodeTiming node_timing(std::size_t i) const = 0;
  virtual std::size_t num_node_names() const = 0;
  virtual std::string_view node_name(std::size_t i) const = 0;
  /// Node id for a name; npos when unknown.  Duplicate names resolve to the
  /// lowest id (the NameIndex emplace-first-wins rule).
  virtual std::size_t find_node(std::string_view name) const = 0;

  // -- instance pin tables (constraints query) -----------------------------
  virtual InstRef find_instance(std::string_view name) const = 0;
  virtual std::size_t num_instance_pins(const InstRef& ref) const = 0;
  virtual SourcePin instance_pin(const InstRef& ref, std::size_t pin) const = 0;

  // -- constraint capture --------------------------------------------------
  virtual bool has_constraints() const = 0;
  virtual AnalysisStatus constraints_status() const = 0;
  virtual std::int32_t backward_snatch_cycles() const = 0;
  virtual std::int32_t forward_snatch_cycles() const = 0;
  virtual std::size_t num_constraint_nodes() const = 0;
  virtual ConstraintTimes constraint_node(std::size_t i) const = 0;

  // -- corner table --------------------------------------------------------
  virtual bool has_corners() const = 0;
  virtual std::uint32_t worst_corner() const = 0;
  virtual std::size_t num_corners() const = 0;
  virtual SourceCorner corner(std::size_t k) const = 0;

  // -- scoped results: the base scope or corner k --------------------------
  // A corner index out of range reads as an empty scope.
  virtual TimePs worst_slack(ReadScope s) const = 0;
  virtual std::size_t num_violations(ReadScope s) const = 0;
  /// Slack of node id `node`; nullopt when the scope's slack table has no
  /// such entry.  The base scope reads node_timing(node).slack and so
  /// answers every id, as node_timing does.
  virtual std::optional<TimePs> node_slack(ReadScope s,
                                           std::size_t node) const = 0;
  /// Worst paths, worst first.
  virtual std::size_t num_paths(ReadScope s) const = 0;
  virtual SourcePath path(ReadScope s, std::size_t i) const = 0;
  /// Finite capture-terminal slacks (histogram input).
  virtual std::size_t num_capture_slacks(ReadScope s) const = 0;
  virtual TimePs capture_slack(ReadScope s, std::size_t i) const = 0;
  /// Hold capture: every connected pair with its worst margin.
  virtual bool has_hold(ReadScope s) const = 0;
  virtual std::size_t num_hold_pairs(ReadScope s) const = 0;
  virtual SourceHoldPair hold_pair(ReadScope s, std::size_t i) const = 0;
};

/// Adapter over a live session's in-memory AnalysisSnapshot.  Construction
/// is free (two pointer stores), so the session read path builds one on the
/// stack per request.  The shared_ptr overload keeps the snapshot alive for
/// sources that outlive their caller's pointer.
class SnapshotCopySource final : public SnapshotSource {
 public:
  explicit SnapshotCopySource(const AnalysisSnapshot& snap) : snap_(&snap) {}
  explicit SnapshotCopySource(std::shared_ptr<const AnalysisSnapshot> snap)
      : owned_(std::move(snap)), snap_(owned_.get()) {}

  std::uint64_t id() const override { return snap_->id; }
  std::string_view design_name() const override { return snap_->design_name; }
  AnalysisStatus status() const override { return snap_->status; }
  bool works_as_intended() const override { return snap_->works_as_intended; }
  std::size_t num_terminals() const override { return snap_->num_terminals; }

  NodeTiming node_timing(std::size_t i) const override {
    return i < snap_->nodes.size() ? snap_->nodes[i] : NodeTiming{};
  }
  std::size_t num_node_names() const override {
    return snap_->names->node_names.size();
  }
  std::string_view node_name(std::size_t i) const override {
    return i < snap_->names->node_names.size()
               ? std::string_view(snap_->names->node_names[i])
               : std::string_view();
  }
  std::size_t find_node(std::string_view name) const override {
    const auto& by_name = snap_->names->node_by_name;
    const auto it = by_name.find(std::string(name));
    return it == by_name.end() ? npos : static_cast<std::size_t>(it->second);
  }

  InstRef find_instance(std::string_view name) const override {
    const auto& pins = snap_->names->inst_pins;
    const auto it = pins.find(std::string(name));
    InstRef ref;
    if (it == pins.end()) return ref;
    ref.p = &it->second;
    ref.found = true;
    return ref;
  }
  std::size_t num_instance_pins(const InstRef& ref) const override {
    if (!ref.found) return 0;
    return static_cast<const PinTable*>(ref.p)->size();
  }
  SourcePin instance_pin(const InstRef& ref, std::size_t pin) const override {
    SourcePin out;
    if (!ref.found) return out;
    const PinTable& table = *static_cast<const PinTable*>(ref.p);
    if (pin >= table.size()) return out;
    out.name = table[pin].first;
    out.node = table[pin].second;
    return out;
  }

  bool has_constraints() const override { return snap_->has_constraints; }
  AnalysisStatus constraints_status() const override {
    return snap_->constraints_status;
  }
  std::int32_t backward_snatch_cycles() const override {
    return snap_->backward_snatch_cycles;
  }
  std::int32_t forward_snatch_cycles() const override {
    return snap_->forward_snatch_cycles;
  }
  std::size_t num_constraint_nodes() const override {
    return snap_->constraint_nodes.size();
  }
  ConstraintTimes constraint_node(std::size_t i) const override {
    return i < snap_->constraint_nodes.size() ? snap_->constraint_nodes[i]
                                              : ConstraintTimes{};
  }

  bool has_corners() const override { return snap_->has_corners; }
  std::uint32_t worst_corner() const override { return snap_->worst_corner; }
  std::size_t num_corners() const override { return snap_->corners.size(); }
  SourceCorner corner(std::size_t k) const override {
    if (k >= snap_->corners.size()) return SourceCorner{};
    const SnapshotCorner& c = snap_->corners[k];
    return SourceCorner{c.name, c.derate_pm, c.wire_pm};
  }

  TimePs worst_slack(ReadScope s) const override {
    return scoped(s, TimePs{0}, [](const auto& x) { return x.worst_slack; });
  }
  std::size_t num_violations(ReadScope s) const override {
    return scoped(s, std::size_t{0},
                  [](const auto& x) { return x.num_violations; });
  }
  std::optional<TimePs> node_slack(ReadScope s,
                                   std::size_t node) const override {
    if (s.base()) return node_timing(node).slack;
    if (s.corner >= snap_->corners.size()) return std::nullopt;
    const std::vector<TimePs>& v = snap_->corners[s.corner].node_slacks;
    if (node >= v.size()) return std::nullopt;
    return v[node];
  }
  std::size_t num_paths(ReadScope s) const override {
    return scoped(s, std::size_t{0},
                  [](const auto& x) { return x.paths.size(); });
  }
  SourcePath path(ReadScope s, std::size_t i) const override {
    return scoped(s, SourcePath{}, [i](const auto& x) {
      if (i >= x.paths.size()) return SourcePath{};
      const SnapshotPath& p = x.paths[i];
      return SourcePath{p.slack, p.launch, p.capture, p.from, p.to, p.steps};
    });
  }
  std::size_t num_capture_slacks(ReadScope s) const override {
    return scoped(s, std::size_t{0},
                  [](const auto& x) { return x.capture_slacks.size(); });
  }
  TimePs capture_slack(ReadScope s, std::size_t i) const override {
    return scoped(s, TimePs{0}, [i](const auto& x) {
      return i < x.capture_slacks.size() ? x.capture_slacks[i] : TimePs{0};
    });
  }
  bool has_hold(ReadScope s) const override {
    return scoped(s, false, [](const auto& x) { return x.has_hold; });
  }
  std::size_t num_hold_pairs(ReadScope s) const override {
    return scoped(s, std::size_t{0},
                  [](const auto& x) { return x.hold_pairs.size(); });
  }
  SourceHoldPair hold_pair(ReadScope s, std::size_t i) const override {
    return scoped(s, SourceHoldPair{}, [i](const auto& x) {
      if (i >= x.hold_pairs.size()) return SourceHoldPair{};
      const SnapshotHoldPair& p = x.hold_pairs[i];
      return SourceHoldPair{p.margin, p.launch_label, p.capture_label};
    });
  }

 private:
  using PinTable = std::vector<std::pair<std::string, std::uint32_t>>;

  /// Apply `f` to the snapshot (base scope) or to corner k's section: both
  /// carry worst_slack, num_violations, paths, capture_slacks, has_hold and
  /// hold_pairs under the same names.  `none` for a corner out of range.
  template <typename R, typename F>
  R scoped(ReadScope s, R none, F f) const {
    if (s.base()) return f(*snap_);
    return s.corner < snap_->corners.size() ? f(snap_->corners[s.corner])
                                            : none;
  }

  std::shared_ptr<const AnalysisSnapshot> owned_;
  const AnalysisSnapshot* snap_;
};

}  // namespace hb
