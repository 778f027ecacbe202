// SnapshotView — a zero-copy SnapshotSource over an mmap'd snapshot image.
//
// map_file() maps the image read-only, verifies the header and every
// per-section xxhash64 checksum once, and builds offset tables instead of
// materialising strings: node names resolve through a (name, node_id)-sorted
// id permutation binary-searched against views into the image, instance pin
// tables through record offsets binary-searched by instance name.  After
// indexing, every accessor is a couple of bounds-checked loads straight from
// the page cache.
//
// The view is the only reader of the image format.  Indexing never trusts
// a length field, so arbitrary bytes — truncated files, bit flips, fuzzer
// output — are refused with kSnapshotCorrupt, and images newer than this
// build with kSnapshotVersionSkew, never a crash.  Version-1 images predate
// the corners section and are served with no corners.  The name-index
// instance table must be strictly sorted by name, as serialize_snapshot
// always emits it; an unsorted table is corrupt.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/snapshot_source.hpp"
#include "service/snapshot_store.hpp"
#include "util/diagnostics.hpp"

namespace hb {

class SnapshotView final : public SnapshotSource {
 public:
  struct MapResult {
    std::shared_ptr<SnapshotView> view;
    DiagCode code = DiagCode::kSnapshotCorrupt;
    std::string error;
    std::uint32_t version = 0;
    bool ok() const { return view != nullptr; }
  };

  /// mmap `path` read-only and index it.  The mapping lives as long as the
  /// returned view; an already-mapped view keeps serving even if the file
  /// is later unlinked by retention.
  static MapResult map_file(const std::string& path);

  /// Index borrowed bytes without mapping (tests, fuzzing, benches).  The
  /// caller must keep `bytes` alive for the view's lifetime.
  static MapResult attach(std::string_view bytes);

  ~SnapshotView() override;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  const std::vector<SnapshotSectionInfo>& sections() const { return sections_; }
  std::size_t image_bytes() const { return size_; }
  bool mapped() const { return mapping_ != nullptr; }

  // SnapshotSource
  std::uint64_t id() const override { return id_; }
  std::string_view design_name() const override { return design_name_; }
  AnalysisStatus status() const override { return status_; }
  bool works_as_intended() const override { return works_; }
  std::size_t num_terminals() const override { return num_terminals_; }

  NodeTiming node_timing(std::size_t i) const override;
  std::size_t num_node_names() const override { return name_offs_.size(); }
  std::string_view node_name(std::size_t i) const override;
  std::size_t find_node(std::string_view name) const override;

  InstRef find_instance(std::string_view name) const override;
  std::size_t num_instance_pins(const InstRef& ref) const override;
  SourcePin instance_pin(const InstRef& ref, std::size_t pin) const override;

  bool has_constraints() const override { return has_constraints_; }
  AnalysisStatus constraints_status() const override {
    return constraints_status_;
  }
  std::int32_t backward_snatch_cycles() const override { return backward_; }
  std::int32_t forward_snatch_cycles() const override { return forward_; }
  std::size_t num_constraint_nodes() const override { return num_cons_; }
  ConstraintTimes constraint_node(std::size_t i) const override;

  bool has_corners() const override { return has_corners_; }
  std::uint32_t worst_corner() const override { return worst_corner_; }
  std::size_t num_corners() const override { return corners_.size(); }
  SourceCorner corner(std::size_t k) const override;

  TimePs worst_slack(ReadScope s) const override {
    return scope_of(s).worst_slack;
  }
  std::size_t num_violations(ReadScope s) const override {
    return scope_of(s).num_violations;
  }
  std::optional<TimePs> node_slack(ReadScope s,
                                   std::size_t node) const override;
  std::size_t num_paths(ReadScope s) const override {
    return scope_of(s).path_offs.size();
  }
  SourcePath path(ReadScope s, std::size_t i) const override;
  std::size_t num_capture_slacks(ReadScope s) const override {
    return scope_of(s).num_caps;
  }
  TimePs capture_slack(ReadScope s, std::size_t i) const override;
  bool has_hold(ReadScope s) const override { return scope_of(s).has_hold; }
  std::size_t num_hold_pairs(ReadScope s) const override {
    return scope_of(s).hold_offs.size();
  }
  SourceHoldPair hold_pair(ReadScope s, std::size_t i) const override;

 private:
  /// One scope's results: the snapshot's own, or one corner's section.
  struct ScopeIdx {
    TimePs worst_slack = 0;
    std::size_t num_violations = 0;
    std::size_t cap_off = 0;
    std::size_t num_caps = 0;
    std::vector<std::size_t> path_offs;
    bool has_hold = false;
    std::vector<std::size_t> hold_offs;
  };
  struct CornerIdx {
    ScopeIdx scope;
    std::size_t name_off = 0;
    std::uint32_t derate_pm = 1000;
    std::uint32_t wire_pm = 1000;
    std::size_t node_slack_off = 0;
    std::size_t num_node_slacks = 0;
  };

  SnapshotView() = default;

  static MapResult index_bytes(std::string_view bytes, void* mapping,
                               std::size_t map_len);
  bool index(std::string_view bytes, DiagCode* code, std::string* error,
             std::uint32_t* version);
  bool index_meta(std::string_view payload);
  bool index_timings(std::string_view payload, std::size_t base);
  bool index_paths(std::string_view payload, std::size_t base);
  bool index_caps(std::string_view payload, std::size_t base);
  bool index_names(std::string_view payload, std::size_t base);
  bool index_holds(std::string_view payload, std::size_t base);
  bool index_constraints(std::string_view payload, std::size_t base);
  bool index_corners(std::string_view payload, std::size_t base);

  void build_name_order() const;
  std::string_view str_at(std::size_t off) const;
  SourcePath path_at(std::size_t off) const;
  SourceHoldPair hold_at(std::size_t off) const;
  /// The scope's index; an empty one for a corner out of range.
  const ScopeIdx& scope_of(ReadScope s) const;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapping_ = nullptr;
  std::size_t map_len_ = 0;

  // meta
  std::string_view design_name_;
  std::uint64_t id_ = 0;
  AnalysisStatus status_ = AnalysisStatus::kComplete;
  bool works_ = false;
  std::size_t num_terminals_ = 0;
  bool has_constraints_ = false;
  AnalysisStatus constraints_status_ = AnalysisStatus::kComplete;
  std::int32_t backward_ = 0;
  std::int32_t forward_ = 0;

  // fixed-stride sections: absolute offset of the first record
  std::size_t timings_off_ = 0;
  std::size_t num_timings_ = 0;
  std::size_t cons_off_ = 0;
  std::size_t num_cons_ = 0;

  // the base scope: meta counters, capture slacks, and the variable-stride
  // path and hold-pair sections (absolute offset per record)
  ScopeIdx base_;

  // name table: offset of each node name's length prefix, plus the node-id
  // permutation sorted by (name, id) — lower_bound lands on the lowest id
  // for duplicate names, matching NameIndex's emplace-first-wins rule.
  // The permutation is built lazily on the first find_node (thread-safe via
  // the once flag): sorting it is the most expensive indexing step and the
  // meta/paths/histogram verbs never need it.
  std::vector<std::size_t> name_offs_;
  mutable std::vector<std::uint32_t> name_order_;
  mutable std::once_flag name_order_once_;

  // instance pin tables: record offset per instance (strictly name-sorted in
  // the image, so binary search works on the offsets directly) and a flat
  // pin-record offset array partitioned by inst_first_pin_.
  std::vector<std::size_t> inst_offs_;
  std::vector<std::size_t> inst_first_pin_;
  std::vector<std::size_t> pin_offs_;

  bool has_corners_ = false;
  std::uint32_t worst_corner_ = 0;
  std::vector<CornerIdx> corners_;

  std::vector<SnapshotSectionInfo> sections_;
};

}  // namespace hb
