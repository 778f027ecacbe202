#include "service/snapshot_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "service/snapshot_codec.hpp"
#include "service/snapshot_view.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/xxhash.hpp"

namespace fs = std::filesystem;

namespace hb {

std::uint64_t snapshot_checksum(const void* data, std::size_t len,
                                std::uint64_t seed) {
  return xxhash64(data, len, seed);
}

const char* snapshot_section_name(SnapshotSection s) {
  switch (s) {
    case SnapshotSection::kMeta: return "meta";
    case SnapshotSection::kNodeTimings: return "node-timings";
    case SnapshotSection::kWorstPaths: return "worst-paths";
    case SnapshotSection::kCaptureSlacks: return "capture-slacks";
    case SnapshotSection::kNameIndex: return "name-index";
    case SnapshotSection::kHoldPairs: return "hold-pairs";
    case SnapshotSection::kConstraints: return "constraints";
    case SnapshotSection::kCorners: return "corners";
  }
  return "unknown";
}

namespace {

// Little-endian encoding primitives live in service/snapshot_codec.hpp,
// shared with SnapshotView and protocol v2.

// ---------------------------------------------------------------------------
// Per-section payloads.  Each encoder is a template over its output and
// runs twice: with ByteCount to size the payload, then with ByteWriter to
// store it through a cursor into a buffer allocated once.  One encoder per
// section keeps the two passes from disagreeing on the format.

/// Sizing pass.
struct ByteCount {
  std::size_t n = 0;
  void u8(std::uint8_t) { n += 1; }
  void u32(std::uint32_t) { n += 4; }
  void u64(std::uint64_t) { n += 8; }
  void i64(std::int64_t) { n += 8; }
  void bytes(std::string_view b) { n += b.size(); }
  void str(std::string_view b) { n += 4 + b.size(); }
};

/// Writing pass: sized little-endian stores into memory the sizing pass
/// reserved.
struct ByteWriter {
  char* p;
  void u8(std::uint8_t v) { *p++ = static_cast<char>(v); }
  void u32(std::uint32_t v) {
    codec_store_le32(p, v);
    p += 4;
  }
  void u64(std::uint64_t v) {
    codec_store_le64(p, v);
    p += 8;
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(std::string_view b) {
    if (b.empty()) return;
    std::memcpy(p, b.data(), b.size());
    p += b.size();
  }
  void str(std::string_view b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }
};

template <class Out>
void encode_meta(Out& o, const AnalysisSnapshot& s) {
  o.str(s.design_name);
  o.u64(s.id);
  o.u8(static_cast<std::uint8_t>(s.status));
  o.u8(s.works_as_intended ? 1 : 0);
  o.i64(s.worst_slack);
  o.u64(s.num_terminals);
  o.u64(s.num_violations);
  o.u8(s.has_hold ? 1 : 0);
  o.u8(s.has_constraints ? 1 : 0);
  o.u8(static_cast<std::uint8_t>(s.constraints_status));
  o.u32(static_cast<std::uint32_t>(s.backward_snatch_cycles));
  o.u32(static_cast<std::uint32_t>(s.forward_snatch_cycles));
}

template <class Out>
void encode_node_timings(Out& o, const AnalysisSnapshot& s) {
  o.u64(s.nodes.size());
  for (const NodeTiming& nt : s.nodes) {
    o.i64(nt.slack);
    o.i64(nt.ready.rise);
    o.i64(nt.ready.fall);
    o.i64(nt.required.rise);
    o.i64(nt.required.fall);
    o.u8(nt.has_ready ? 1 : 0);
    o.u8(nt.has_constraint ? 1 : 0);
    o.u32(static_cast<std::uint32_t>(nt.settling_count));
  }
}

template <class Out>
void encode_path_list(Out& o, const std::vector<SnapshotPath>& paths) {
  o.u64(paths.size());
  for (const SnapshotPath& sp : paths) {
    o.i64(sp.slack);
    o.str(sp.launch);
    o.str(sp.capture);
    o.str(sp.from);
    o.str(sp.to);
    o.u64(sp.steps);
  }
}

template <class Out>
void encode_slack_list(Out& o, const std::vector<TimePs>& slacks) {
  o.u64(slacks.size());
  for (const TimePs t : slacks) o.i64(t);
}

/// `keys`: the instance names of idx.inst_pins in sorted order — the
/// unordered_map's iteration order must never leak into the image
/// (byte-stability).
template <class Out>
void encode_name_index(Out& o, const NameIndex& idx,
                       const std::vector<const std::string*>& keys) {
  o.u64(idx.node_names.size());
  for (const std::string& n : idx.node_names) o.str(n);
  o.u64(keys.size());
  for (const std::string* key : keys) {
    o.str(*key);
    const auto& pins = idx.inst_pins.at(*key);
    o.u64(pins.size());
    for (const auto& [pin, node] : pins) {
      o.str(pin);
      o.u32(node);
    }
  }
}

template <class Out>
void encode_hold_list(Out& o, const std::vector<SnapshotHoldPair>& pairs) {
  o.u64(pairs.size());
  for (const SnapshotHoldPair& hp : pairs) {
    o.u32(hp.launch);
    o.u32(hp.capture);
    o.i64(hp.margin);
    o.str(hp.launch_label);
    o.str(hp.capture_label);
  }
}

template <class Out>
void encode_constraints(Out& o, const AnalysisSnapshot& s) {
  o.u64(s.constraint_nodes.size());
  for (const ConstraintTimes& ct : s.constraint_nodes) {
    o.u8(ct.has_ready ? 1 : 0);
    o.u8(ct.has_required ? 1 : 0);
    o.i64(ct.ready.rise);
    o.i64(ct.ready.fall);
    o.i64(ct.required.rise);
    o.i64(ct.required.fall);
    o.i64(ct.slack);
  }
}

template <class Out>
void encode_corners(Out& o, const AnalysisSnapshot& s) {
  o.u8(s.has_corners ? 1 : 0);
  o.u32(s.worst_corner);
  o.u64(s.corners.size());
  for (const SnapshotCorner& c : s.corners) {
    o.str(c.name);
    o.u32(c.derate_pm);
    o.u32(c.wire_pm);
    o.i64(c.worst_slack);
    o.u64(c.num_violations);
    encode_slack_list(o, c.node_slacks);
    encode_slack_list(o, c.capture_slacks);
    encode_path_list(o, c.paths);
    o.u8(c.has_hold ? 1 : 0);
    encode_hold_list(o, c.hold_pairs);
  }
}

/// The payload of section `kind`; the name index is already encoded.
template <class Out>
void encode_section(Out& o, std::uint32_t kind, const AnalysisSnapshot& s) {
  switch (static_cast<SnapshotSection>(kind)) {
    case SnapshotSection::kMeta: return encode_meta(o, s);
    case SnapshotSection::kNodeTimings: return encode_node_timings(o, s);
    case SnapshotSection::kWorstPaths: return encode_path_list(o, s.paths);
    case SnapshotSection::kCaptureSlacks:
      return encode_slack_list(o, s.capture_slacks);
    case SnapshotSection::kNameIndex:
      return o.bytes(s.names->image_section().payload);
    case SnapshotSection::kHoldPairs: return encode_hold_list(o, s.hold_pairs);
    case SnapshotSection::kConstraints: return encode_constraints(o, s);
    case SnapshotSection::kCorners: return encode_corners(o, s);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Image assembly.

const NameIndex::ImageSection& NameIndex::image_section() const {
  std::call_once(image_once_, [this] {
    std::vector<const std::string*> keys;
    keys.reserve(inst_pins.size());
    for (const auto& [name, pins] : inst_pins) keys.push_back(&name);
    std::sort(keys.begin(), keys.end(), [](const std::string* a,
                                           const std::string* b) {
      return *a < *b;
    });
    ByteCount count;
    encode_name_index(count, *this, keys);
    image_.payload.assign(count.n, '\0');
    ByteWriter w{image_.payload.data()};
    encode_name_index(w, *this, keys);
    image_.checksum = snapshot_checksum(
        image_.payload.data(), image_.payload.size(),
        static_cast<std::uint64_t>(SnapshotSection::kNameIndex));
  });
  return image_;
}

std::string serialize_snapshot(const AnalysisSnapshot& snap) {
  return serialize_snapshot(snap, nullptr);
}

std::string serialize_snapshot(const AnalysisSnapshot& snap,
                               std::vector<SnapshotSectionInfo>* sections_out) {
  // Size every section, allocate the image once, then store each section
  // in place: 20-byte frame (kind, length, checksum), then the payload.
  std::size_t sizes[kNumSnapshotSections];
  std::size_t total = 12;
  for (std::uint32_t kind = 0; kind < kNumSnapshotSections; ++kind) {
    ByteCount count;
    encode_section(count, kind, snap);
    sizes[kind] = count.n;
    total += 20 + count.n;
  }
  std::string image(total, '\0');
  ByteWriter w{image.data()};
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotFormatVersion);
  w.u32(kNumSnapshotSections);
  if (sections_out != nullptr) sections_out->clear();
  for (std::uint32_t kind = 0; kind < kNumSnapshotSections; ++kind) {
    SnapshotSectionInfo info;
    info.kind = kind;
    info.header_offset = static_cast<std::size_t>(w.p - image.data());
    w.u32(kind);
    w.u64(sizes[kind]);
    char* const checksum_at = w.p;
    w.p += 8;
    info.payload_offset = static_cast<std::size_t>(w.p - image.data());
    info.payload_size = sizes[kind];
    encode_section(w, kind, snap);
    info.checksum =
        kind == static_cast<std::uint32_t>(SnapshotSection::kNameIndex)
            ? snap.names->image_section().checksum
            : snapshot_checksum(image.data() + info.payload_offset,
                                info.payload_size, kind);
    codec_store_le64(checksum_at, info.checksum);
    if (sections_out != nullptr) sections_out->push_back(info);
  }
  return image;
}

// ---------------------------------------------------------------------------
// The store.

namespace {

constexpr const char* kSnapshotSuffix = ".hbss";

/// Design name reduced to a filesystem-safe stem: anything outside
/// [A-Za-z0-9_-] becomes '_' ('.' included — it delimits the generation).
std::string sanitize_design(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "design";
  return out;
}

/// Split "<stem>.<generation>.hbss"; false for anything else (temp files,
/// quarantined files, foreign files).
bool parse_file_name(const std::string& name, std::string* stem,
                     std::uint64_t* generation) {
  const std::size_t suffix_len = std::strlen(kSnapshotSuffix);
  if (name.size() <= suffix_len || name.front() == '.' ||
      name.compare(name.size() - suffix_len, suffix_len, kSnapshotSuffix) != 0) {
    return false;
  }
  const std::string base = name.substr(0, name.size() - suffix_len);
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= base.size()) {
    return false;
  }
  std::uint64_t gen = 0;
  for (std::size_t i = dot + 1; i < base.size(); ++i) {
    if (base[i] < '0' || base[i] > '9') return false;
    gen = gen * 10 + static_cast<std::uint64_t>(base[i] - '0');
  }
  *stem = base.substr(0, dot);
  *generation = gen;
  return true;
}

bool write_file_synced(const std::string& path, const std::string& bytes,
                       std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "open '" + path + "': " + std::strerror(errno);
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = "write '" + path + "': " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    *error = "fsync '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::close(fd) != 0) {
    *error = "close '" + path + "': " + std::strerror(errno);
    return false;
  }
  return true;
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // durability best-effort; the rename itself succeeded
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

SnapshotStore::SnapshotStore(Options options) : options_(std::move(options)) {
  options_.retain = std::max<std::size_t>(options_.retain, 1);
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec || !fs::is_directory(options_.dir)) {
    raise("snapshot store: cannot create directory '" + options_.dir + "'" +
          (ec ? ": " + ec.message() : std::string()));
  }
  for (const FileEntry& e : scan_locked()) {
    next_generation_ = std::max(next_generation_, e.generation + 1);
  }
}

std::vector<SnapshotStore::FileEntry> SnapshotStore::scan_locked() const {
  std::vector<FileEntry> out;
  std::error_code ec;
  for (fs::directory_iterator it(options_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    FileEntry e;
    if (!parse_file_name(it->path().filename().string(), &e.stem,
                         &e.generation)) {
      continue;
    }
    e.path = it->path().string();
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const FileEntry& a, const FileEntry& b) {
    return a.generation < b.generation;
  });
  return out;
}

void SnapshotStore::retain_locked(const std::string& stem) {
  std::vector<FileEntry> mine;
  for (FileEntry& e : scan_locked()) {
    if (e.stem == stem) mine.push_back(std::move(e));
  }
  // scan_locked sorts oldest-first; drop from the front.
  std::error_code ec;
  for (std::size_t i = 0; i + options_.retain < mine.size(); ++i) {
    fs::remove(mine[i].path, ec);
  }
}

SnapshotStore::SaveResult SnapshotStore::save(const AnalysisSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mutex_);
  SaveResult res;
  std::vector<SnapshotSectionInfo> sections;
  std::string image = serialize_snapshot(snap, &sections);

  // Deterministic corruption of the in-memory image, so the injected fault
  // lands on disk through the normal (crash-safe) write path and must be
  // caught by load-time validation.
  FaultInjector& fi = FaultInjector::instance();
  if (fi.should_fire(FaultSite::kSnapshotStaleVersion) && image.size() >= 8) {
    const auto v = kSnapshotFormatVersion + 1 +
                   static_cast<std::uint32_t>(
                       fi.draw(FaultSite::kSnapshotStaleVersion) % 7);
    for (int i = 0; i < 4; ++i) {
      image[4 + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
  if (fi.should_fire(FaultSite::kSnapshotBitFlip) && !image.empty()) {
    const std::uint64_t bit =
        fi.draw(FaultSite::kSnapshotBitFlip) % (image.size() * 8);
    image[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
  if (fi.should_fire(FaultSite::kSnapshotShortWrite) && !image.empty()) {
    image.resize(fi.draw(FaultSite::kSnapshotShortWrite) % image.size());
  }

  const std::string stem = sanitize_design(snap.design_name);
  res.generation = next_generation_++;
  const std::string final_name =
      stem + "." + std::to_string(res.generation) + kSnapshotSuffix;
  const std::string tmp_path =
      (fs::path(options_.dir) / ("." + final_name + ".tmp")).string();
  const std::string final_path =
      (fs::path(options_.dir) / final_name).string();

  std::string err;
  if (!write_file_synced(tmp_path, image, &err)) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    ++save_failures_;
    res.code = DiagCode::kSnapshotIo;
    res.error = err;
    return res;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    err = "rename '" + tmp_path + "': " + std::strerror(errno);
    std::error_code ec;
    fs::remove(tmp_path, ec);
    ++save_failures_;
    res.code = DiagCode::kSnapshotIo;
    res.error = err;
    return res;
  }
  fsync_dir(options_.dir);
  retain_locked(stem);
  ++saves_;
  // Section frames of the image as serialised (pre-fault-injection sizes
  // still describe the layout; injected faults only perturb test runs).
  last_save_sections_ = std::move(sections);
  last_save_bytes_ = image.size();
  res.ok = true;
  res.path = final_path;
  return res;
}

std::vector<SnapshotSectionInfo> SnapshotStore::last_save_sections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_save_sections_;
}

std::size_t SnapshotStore::last_save_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_save_bytes_;
}

SnapshotStore::SourceResult SnapshotStore::load_newest_source(
    const std::string& design) {
  std::lock_guard<std::mutex> lock(mutex_);
  SourceResult res;
  const std::string stem =
      design.empty() ? std::string() : sanitize_design(design);

  std::vector<FileEntry> entries = scan_locked();
  if (!stem.empty()) {
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&stem](const FileEntry& e) {
                                   return e.stem != stem;
                                 }),
                  entries.end());
  }
  std::reverse(entries.begin(), entries.end());  // newest generation first

  DiagCode last_code = DiagCode::kSnapshotMissing;
  std::string last_error;
  for (const FileEntry& e : entries) {
    SnapshotView::MapResult m = SnapshotView::map_file(e.path);
    if (!m.ok()) {
      last_code = m.code;
      if (m.code == DiagCode::kSnapshotIo) {
        last_error = m.error;  // unreadable, not invalid: skip, keep the file
        continue;
      }
      // Quarantine: keep the file for post-mortems, but never retry it.
      std::error_code ec;
      fs::rename(e.path, e.path + ".quarantined", ec);
      ++rejected_;
      ++res.rejected;
      last_error = fs::path(e.path).filename().string() + ": " + m.error;
      continue;
    }
    if (!design.empty() && m.view->design_name() != design) {
      continue;  // stem collision with another design; not corruption
    }
    res.view = std::move(m.view);
    res.path = e.path;
    res.generation = e.generation;
    break;
  }

  if (res.rejected > 0) ++self_heals_;
  if (res.ok()) {
    ++loads_;
  } else {
    res.code = last_code;
    res.error = !last_error.empty()
                    ? last_error
                    : (design.empty()
                           ? std::string("store has no snapshots")
                           : "no snapshot for design '" + design + "'");
  }
  return res;
}

std::vector<std::string> SnapshotStore::designs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const FileEntry& e : scan_locked()) {
    if (std::find(out.begin(), out.end(), e.stem) == out.end()) {
      out.push_back(e.stem);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> SnapshotStore::generations(
    const std::string& design) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string stem = sanitize_design(design);
  std::vector<std::uint64_t> out;
  for (const FileEntry& e : scan_locked()) {
    if (e.stem == stem) out.push_back(e.generation);
  }
  return out;
}

}  // namespace hb
