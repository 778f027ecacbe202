#include "service/snapshot_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <random>

#include "service/snapshot_codec.hpp"
#include "util/xxhash.hpp"

namespace hb {
namespace {

const char* section_name_of(std::uint32_t kind) {
  return kind < kNumSnapshotSections
             ? snapshot_section_name(static_cast<SnapshotSection>(kind))
             : "unknown";
}

bool valid_status(std::uint8_t v) { return v <= 2; }

/// Marks an empty slot of the node-name table.
constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

/// Hash of a node name under a per-process random seed, so no image can be
/// crafted to send every name down one probe chain.
std::uint64_t name_hash(std::string_view name) {
  static const std::uint64_t seed = [] {
    std::random_device rd;
    return (std::uint64_t{rd()} << 32) ^ rd();
  }();
  return xxhash64(name.data(), name.size(), seed);
}

}  // namespace

SnapshotView::~SnapshotView() {
  if (mapping_ != nullptr) ::munmap(mapping_, map_len_);
}

SnapshotView::MapResult SnapshotView::map_file(const std::string& path) {
  MapResult out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    out.code = DiagCode::kSnapshotIo;
    out.error = "open '" + path + "': " + std::strerror(errno);
    return out;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    out.code = DiagCode::kSnapshotIo;
    out.error = "fstat '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return out;
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len < 12) {
    out.code = DiagCode::kSnapshotCorrupt;
    out.error = "image shorter than the 12-byte header";
    ::close(fd);
    return out;
  }
  void* mem = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    out.code = DiagCode::kSnapshotIo;
    out.error = "mmap '" + path + "': " + std::strerror(errno);
    return out;
  }
  return index_bytes(
      std::string_view(static_cast<const char*>(mem), len), mem, len);
}

SnapshotView::MapResult SnapshotView::attach(std::string_view bytes) {
  return index_bytes(bytes, nullptr, 0);
}

SnapshotView::MapResult SnapshotView::index_bytes(std::string_view bytes,
                                                  void* mapping,
                                                  std::size_t map_len) {
  MapResult out;
  // shared_ptr so a warm host can hand the view to any number of reader
  // threads; private ctor, so no make_shared.
  std::shared_ptr<SnapshotView> view(new SnapshotView());
  view->mapping_ = mapping;
  view->map_len_ = map_len;
  if (view->index(bytes, &out.code, &out.error, &out.version)) {
    out.view = std::move(view);
  }
  // A failed view with a mapping still unmaps in its destructor.
  return out;
}

bool SnapshotView::index(std::string_view bytes, DiagCode* code,
                         std::string* error, std::uint32_t* version) {
  data_ = reinterpret_cast<const unsigned char*>(bytes.data());
  size_ = bytes.size();
  auto corrupt = [&](std::string msg) {
    *code = DiagCode::kSnapshotCorrupt;
    *error = std::move(msg);
    return false;
  };

  Reader r = reader_of(bytes);
  if (!r.need(12)) return corrupt("image shorter than the 12-byte header");
  const std::uint32_t magic = r.u32();
  if (magic != kSnapshotMagic) {
    return corrupt("bad magic (not a snapshot image)");
  }
  *version = r.u32();
  if (*version < kSnapshotMinFormatVersion ||
      *version > kSnapshotFormatVersion) {
    *code = DiagCode::kSnapshotVersionSkew;
    *error = "format version " + std::to_string(*version) +
             ", this build reads versions " +
             std::to_string(kSnapshotMinFormatVersion) + ".." +
             std::to_string(kSnapshotFormatVersion);
    return false;
  }
  const std::uint32_t num_sections = r.u32();

  std::string_view payloads[kNumSnapshotSections];
  std::size_t bases[kNumSnapshotSections] = {};
  bool seen[kNumSnapshotSections] = {};
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    SnapshotSectionInfo info;
    info.header_offset = r.pos;
    if (!r.need(20)) return corrupt("truncated section header");
    info.kind = r.u32();
    const std::uint64_t len = r.u64();
    info.checksum = r.u64();
    if (len > r.remaining()) {
      return corrupt(std::string("truncated payload of section ") +
                     section_name_of(info.kind));
    }
    info.payload_offset = r.pos;
    info.payload_size = static_cast<std::size_t>(len);
    const std::string_view payload =
        bytes.substr(r.pos, static_cast<std::size_t>(len));
    r.pos += static_cast<std::size_t>(len);
    sections_.push_back(info);
    if (snapshot_checksum(payload.data(), payload.size(), info.kind) !=
        info.checksum) {
      return corrupt(std::string("checksum mismatch in section ") +
                     section_name_of(info.kind));
    }
    if (info.kind < kNumSnapshotSections) {
      if (seen[info.kind]) {
        return corrupt(std::string("duplicate section ") +
                       section_name_of(info.kind));
      }
      seen[info.kind] = true;
      payloads[info.kind] = payload;
      bases[info.kind] = info.payload_offset;
    }
    // Unknown kinds are checksum-verified and skipped.
  }
  if (r.remaining() != 0) return corrupt("trailing bytes after last section");
  constexpr auto kCorners =
      static_cast<std::uint32_t>(SnapshotSection::kCorners);
  for (std::uint32_t k = 0; k < kNumSnapshotSections; ++k) {
    // Version-1 images predate the corners section, and a view without one
    // serves no corners; every other section is mandatory in every version.
    if (!seen[k] && !(k == kCorners && *version < 2)) {
      return corrupt(std::string("missing section ") + section_name_of(k));
    }
  }

  struct SectionIndexer {
    SnapshotSection kind;
    bool (SnapshotView::*index)(std::string_view, std::size_t);
  };
  if (!index_meta(payloads[0])) {
    return corrupt(std::string("undecodable section ") +
                   snapshot_section_name(SnapshotSection::kMeta));
  }
  const SectionIndexer indexers[] = {
      {SnapshotSection::kNodeTimings, &SnapshotView::index_timings},
      {SnapshotSection::kWorstPaths, &SnapshotView::index_paths},
      {SnapshotSection::kCaptureSlacks, &SnapshotView::index_caps},
      {SnapshotSection::kNameIndex, &SnapshotView::index_names},
      {SnapshotSection::kHoldPairs, &SnapshotView::index_holds},
      {SnapshotSection::kConstraints, &SnapshotView::index_constraints},
      {SnapshotSection::kCorners, &SnapshotView::index_corners},
  };
  for (const SectionIndexer& s : indexers) {
    const auto kind = static_cast<std::uint32_t>(s.kind);
    if (!seen[kind]) continue;  // absent corners in a version-1 image
    if (!(this->*s.index)(payloads[kind], bases[kind])) {
      return corrupt(std::string("undecodable section ") +
                     snapshot_section_name(s.kind));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-section indexers.  Each walks its section's records with the
// bounds-checked Reader, recording absolute record offsets instead of
// decoding.

bool SnapshotView::index_meta(std::string_view payload) {
  Reader r = reader_of(payload);
  design_name_ = r.str_view();
  id_ = r.u64();
  const std::uint8_t status = r.u8();
  works_ = r.u8() != 0;
  base_.worst_slack = r.i64();
  num_terminals_ = static_cast<std::size_t>(r.u64());
  base_.num_violations = static_cast<std::size_t>(r.u64());
  base_.has_hold = r.u8() != 0;
  has_constraints_ = r.u8() != 0;
  const std::uint8_t cstatus = r.u8();
  backward_ = static_cast<std::int32_t>(r.u32());
  forward_ = static_cast<std::int32_t>(r.u32());
  if (r.fail || r.remaining() != 0) return false;
  if (!valid_status(status) || !valid_status(cstatus)) return false;
  status_ = static_cast<AnalysisStatus>(status);
  constraints_status_ = static_cast<AnalysisStatus>(cstatus);
  return true;
}

namespace {
/// NodeTiming record bytes: 5 × i64 + 2 × u8 + u32.
constexpr std::size_t kTimingStride = 46;
/// ConstraintTimes record bytes: 2 × u8 + 5 × i64.
constexpr std::size_t kConstraintStride = 42;

/// Read a u64 count of path records and record each one's absolute offset
/// (`base` + position in `r`); false when one is truncated.  Shared by the
/// worst-paths section and every corner's path list.
bool index_path_records(Reader& r, std::size_t base,
                        std::vector<std::size_t>& offs) {
  const std::uint64_t count = r.u64();
  offs.clear();
  if (!r.fail && count <= r.remaining()) {
    offs.reserve(static_cast<std::size_t>(count));
  }
  for (std::uint64_t i = 0; i < count && !r.fail; ++i) {
    const std::size_t off = base + r.pos;
    r.i64();
    r.str_view();
    r.str_view();
    r.str_view();
    r.str_view();
    r.u64();
    if (!r.fail) offs.push_back(off);
  }
  return !r.fail && offs.size() == count;
}

/// As index_path_records, for hold-pair records.
bool index_hold_records(Reader& r, std::size_t base,
                        std::vector<std::size_t>& offs) {
  const std::uint64_t count = r.u64();
  offs.clear();
  if (!r.fail && count <= r.remaining()) {
    offs.reserve(static_cast<std::size_t>(count));
  }
  for (std::uint64_t i = 0; i < count && !r.fail; ++i) {
    const std::size_t off = base + r.pos;
    r.u32();
    r.u32();
    r.i64();
    r.str_view();
    r.str_view();
    if (!r.fail) offs.push_back(off);
  }
  return !r.fail && offs.size() == count;
}

}  // namespace

bool SnapshotView::index_timings(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  const std::uint64_t count = r.u64();
  if (r.fail) return false;
  if (count > r.remaining() / kTimingStride ||
      count * kTimingStride != r.remaining()) {
    return false;
  }
  timings_off_ = base + 8;
  num_timings_ = static_cast<std::size_t>(count);
  return true;
}

bool SnapshotView::index_paths(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  return index_path_records(r, base, base_.path_offs) && r.remaining() == 0;
}

bool SnapshotView::index_caps(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  const std::uint64_t count = r.u64();
  if (r.fail) return false;
  if (count > r.remaining() / 8 || count * 8 != r.remaining()) return false;
  base_.cap_off = base + 8;
  base_.num_caps = static_cast<std::size_t>(count);
  return true;
}

bool SnapshotView::index_names(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  const std::uint64_t nodes = r.u64();
  if (nodes >= kNoName) return false;  // ids must fit the name table's slots
  name_offs_.clear();
  if (!r.fail && nodes <= r.remaining()) {
    name_offs_.reserve(static_cast<std::size_t>(nodes));
  }
  for (std::uint64_t i = 0; i < nodes && !r.fail; ++i) {
    const std::size_t off = base + r.pos;
    r.str_view();
    if (!r.fail) name_offs_.push_back(off);
  }
  if (r.fail || name_offs_.size() != nodes) return false;

  const std::uint64_t insts = r.u64();
  inst_offs_.clear();
  inst_first_pin_.clear();
  pin_offs_.clear();
  inst_first_pin_.push_back(0);
  std::string_view prev;
  bool have_prev = false;
  for (std::uint64_t i = 0; i < insts && !r.fail; ++i) {
    const std::size_t off = base + r.pos;
    const std::string_view name = r.str_view();
    const std::uint64_t pins = r.u64();
    if (r.fail) break;
    // Strictly sorted instance names: what serialize_snapshot emits, and
    // what binary search over inst_offs_ requires.  An image that fails
    // here is corrupt, and the store quarantines it.
    if (have_prev && !(prev < name)) return false;
    prev = name;
    have_prev = true;
    const std::size_t first = pin_offs_.size();
    for (std::uint64_t pi = 0; pi < pins && !r.fail; ++pi) {
      const std::size_t poff = base + r.pos;
      r.str_view();
      r.u32();
      if (!r.fail) pin_offs_.push_back(poff);
    }
    if (r.fail || pin_offs_.size() != first + pins) return false;
    inst_offs_.push_back(off);
    inst_first_pin_.push_back(pin_offs_.size());
  }
  return !(r.fail || inst_offs_.size() != insts || r.remaining() != 0);
}

void SnapshotView::build_name_table() const {
  std::size_t cap = 1;
  while (cap < 2 * name_offs_.size()) cap *= 2;  // at most half full
  name_slots_.assign(cap, kNoName);
  const std::size_t mask = cap - 1;
  for (std::size_t id = 0; id < name_offs_.size(); ++id) {
    const std::string_view name = str_at(name_offs_[id]);
    for (std::size_t s = name_hash(name) & mask;; s = (s + 1) & mask) {
      if (name_slots_[s] == kNoName) {
        name_slots_[s] = static_cast<std::uint32_t>(id);
        break;
      }
      // A duplicate name keeps its lowest id, as in NameIndex.
      if (str_at(name_offs_[name_slots_[s]]) == name) break;
    }
  }
}

bool SnapshotView::index_holds(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  return index_hold_records(r, base, base_.hold_offs) && r.remaining() == 0;
}

bool SnapshotView::index_constraints(std::string_view payload,
                                     std::size_t base) {
  Reader r = reader_of(payload);
  const std::uint64_t count = r.u64();
  if (r.fail) return false;
  if (count > r.remaining() / kConstraintStride ||
      count * kConstraintStride != r.remaining()) {
    return false;
  }
  cons_off_ = base + 8;
  num_cons_ = static_cast<std::size_t>(count);
  return true;
}

bool SnapshotView::index_corners(std::string_view payload, std::size_t base) {
  Reader r = reader_of(payload);
  has_corners_ = r.u8() != 0;
  worst_corner_ = r.u32();
  const std::uint64_t count = r.u64();
  corners_.clear();
  if (!r.fail && count <= r.remaining()) {
    corners_.reserve(static_cast<std::size_t>(count));
  }
  for (std::uint64_t i = 0; i < count && !r.fail; ++i) {
    CornerIdx c;
    c.name_off = base + r.pos;
    r.str_view();
    c.derate_pm = r.u32();
    c.wire_pm = r.u32();
    c.scope.worst_slack = r.i64();
    c.scope.num_violations = static_cast<std::size_t>(r.u64());
    const std::uint64_t nn = r.u64();
    if (r.fail || nn > r.remaining() / 8) return false;
    c.node_slack_off = base + r.pos;
    c.num_node_slacks = static_cast<std::size_t>(nn);
    r.pos += static_cast<std::size_t>(nn) * 8;
    // One slack per graph node — keyed by the same TNodeId index as the
    // node-timings section.
    if (c.num_node_slacks != num_timings_) return false;
    const std::uint64_t ns = r.u64();
    if (r.fail || ns > r.remaining() / 8) return false;
    c.scope.cap_off = base + r.pos;
    c.scope.num_caps = static_cast<std::size_t>(ns);
    r.pos += static_cast<std::size_t>(ns) * 8;
    if (!index_path_records(r, base, c.scope.path_offs)) return false;
    c.scope.has_hold = r.u8() != 0;
    if (!index_hold_records(r, base, c.scope.hold_offs)) return false;
    corners_.push_back(std::move(c));
  }
  if (r.fail || corners_.size() != count || r.remaining() != 0) return false;
  if (has_corners_ != !corners_.empty()) return false;
  if (has_corners_ && worst_corner_ >= corners_.size()) return false;
  if (!has_corners_ && worst_corner_ != 0) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Accessors.  Offsets were validated at index time; the bounds checks here
// make a stale or foreign InstRef degrade instead of reading wild.

std::string_view SnapshotView::str_at(std::size_t off) const {
  const std::uint32_t len = codec_read_le32(data_ + off);
  return std::string_view(reinterpret_cast<const char*>(data_ + off + 4), len);
}

SourcePath SnapshotView::path_at(std::size_t off) const {
  Reader r;
  r.data = data_;
  r.size = size_;
  r.pos = off;
  SourcePath out;
  out.slack = r.i64();
  out.launch = r.str_view();
  out.capture = r.str_view();
  out.from = r.str_view();
  out.to = r.str_view();
  out.steps = static_cast<std::size_t>(r.u64());
  return out;
}

SourceHoldPair SnapshotView::hold_at(std::size_t off) const {
  Reader r;
  r.data = data_;
  r.size = size_;
  r.pos = off;
  SourceHoldPair out;
  r.u32();  // launch SyncId — replies print labels only
  r.u32();  // capture SyncId
  out.margin = r.i64();
  out.launch_label = r.str_view();
  out.capture_label = r.str_view();
  return out;
}

NodeTiming SnapshotView::node_timing(std::size_t i) const {
  NodeTiming nt;
  if (i >= num_timings_) return nt;
  const unsigned char* p = data_ + timings_off_ + i * kTimingStride;
  nt.slack = static_cast<TimePs>(codec_read_le64(p));
  nt.ready.rise = static_cast<TimePs>(codec_read_le64(p + 8));
  nt.ready.fall = static_cast<TimePs>(codec_read_le64(p + 16));
  nt.required.rise = static_cast<TimePs>(codec_read_le64(p + 24));
  nt.required.fall = static_cast<TimePs>(codec_read_le64(p + 32));
  nt.has_ready = p[40] != 0;
  nt.has_constraint = p[41] != 0;
  nt.settling_count = static_cast<int>(codec_read_le32(p + 42));
  return nt;
}

std::string_view SnapshotView::node_name(std::size_t i) const {
  return i < name_offs_.size() ? str_at(name_offs_[i]) : std::string_view();
}

std::size_t SnapshotView::find_node(std::string_view name) const {
  std::call_once(name_slots_once_, [this] { build_name_table(); });
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t s = name_hash(name) & mask;; s = (s + 1) & mask) {
    const std::uint32_t id = name_slots_[s];
    if (id == kNoName) return npos;
    if (str_at(name_offs_[id]) == name) return id;
  }
}

SnapshotSource::InstRef SnapshotView::find_instance(
    std::string_view name) const {
  const auto it = std::lower_bound(
      inst_offs_.begin(), inst_offs_.end(), name,
      [this](std::size_t off, std::string_view n) { return str_at(off) < n; });
  InstRef ref;
  if (it == inst_offs_.end() || str_at(*it) != name) return ref;
  ref.i = static_cast<std::size_t>(it - inst_offs_.begin());
  ref.found = true;
  return ref;
}

std::size_t SnapshotView::num_instance_pins(const InstRef& ref) const {
  if (!ref.found || ref.i + 1 >= inst_first_pin_.size()) return 0;
  return inst_first_pin_[ref.i + 1] - inst_first_pin_[ref.i];
}

SourcePin SnapshotView::instance_pin(const InstRef& ref,
                                     std::size_t pin) const {
  SourcePin out;
  if (!ref.found || ref.i + 1 >= inst_first_pin_.size()) return out;
  const std::size_t idx = inst_first_pin_[ref.i] + pin;
  if (idx >= inst_first_pin_[ref.i + 1]) return out;
  Reader r;
  r.data = data_;
  r.size = size_;
  r.pos = pin_offs_[idx];
  out.name = r.str_view();
  out.node = r.u32();
  return out;
}

ConstraintTimes SnapshotView::constraint_node(std::size_t i) const {
  ConstraintTimes ct;
  if (i >= num_cons_) return ct;
  const unsigned char* p = data_ + cons_off_ + i * kConstraintStride;
  ct.has_ready = p[0] != 0;
  ct.has_required = p[1] != 0;
  ct.ready.rise = static_cast<TimePs>(codec_read_le64(p + 2));
  ct.ready.fall = static_cast<TimePs>(codec_read_le64(p + 10));
  ct.required.rise = static_cast<TimePs>(codec_read_le64(p + 18));
  ct.required.fall = static_cast<TimePs>(codec_read_le64(p + 26));
  ct.slack = static_cast<TimePs>(codec_read_le64(p + 34));
  return ct;
}

SourceCorner SnapshotView::corner(std::size_t k) const {
  if (k >= corners_.size()) return SourceCorner{};
  const CornerIdx& c = corners_[k];
  return SourceCorner{str_at(c.name_off), c.derate_pm, c.wire_pm};
}

const SnapshotView::ScopeIdx& SnapshotView::scope_of(ReadScope s) const {
  static const ScopeIdx kEmpty;
  if (s.base()) return base_;
  return s.corner < corners_.size() ? corners_[s.corner].scope : kEmpty;
}

std::optional<TimePs> SnapshotView::node_slack(ReadScope s,
                                               std::size_t node) const {
  if (s.base()) return node_timing(node).slack;
  if (s.corner >= corners_.size()) return std::nullopt;
  const CornerIdx& c = corners_[s.corner];
  if (node >= c.num_node_slacks) return std::nullopt;
  return static_cast<TimePs>(
      codec_read_le64(data_ + c.node_slack_off + node * 8));
}

SourcePath SnapshotView::path(ReadScope s, std::size_t i) const {
  const ScopeIdx& x = scope_of(s);
  return i < x.path_offs.size() ? path_at(x.path_offs[i]) : SourcePath{};
}

TimePs SnapshotView::capture_slack(ReadScope s, std::size_t i) const {
  const ScopeIdx& x = scope_of(s);
  if (i >= x.num_caps) return 0;
  return static_cast<TimePs>(codec_read_le64(data_ + x.cap_off + i * 8));
}

SourceHoldPair SnapshotView::hold_pair(ReadScope s, std::size_t i) const {
  const ScopeIdx& x = scope_of(s);
  return i < x.hold_offs.size() ? hold_at(x.hold_offs[i]) : SourceHoldPair{};
}

}  // namespace hb
