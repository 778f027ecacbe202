// Crash-safe persistent snapshot store — the warm-restart tier of the
// query service (docs/SERVICE.md "Persistence & warm restart").
//
// An AnalysisSnapshot is serialised to a versioned binary image: a fixed
// header (magic, format version, section count) followed by framed
// sections, each carrying its own length and XXH64 checksum (util/xxhash)
// seeded by the section kind.  The one reader of the format is
// SnapshotView (snapshot_view.hpp): its indexer is bounds-checked end to end
// and never trusts a length field, so arbitrary bytes — truncated files, bit
// flips, fuzzer output — produce a structured DiagCode instead of a crash
// (tests/snapshot_store_test.cpp, the fixed-seed fuzz CI job).
//
// Writes are crash-safe: the image lands in a dot-prefixed temp file that
// is fsync'ed, atomically renamed to `<design>.<generation>.hbss`, and the
// directory entry is fsync'ed too — a crash at any instant leaves either
// the old generation set or the new one, never a torn file under a live
// name.  Generations are monotone across the whole store; bounded
// retention deletes the oldest files per design beyond `retain`.
//
// Recovery contract (docs/ROBUSTNESS.md): load_newest_source() walks
// generations newest-first and maps each file into a SnapshotView.  Every
// file the view rejects (kSnapshotCorrupt, kSnapshotVersionSkew) is
// quarantined by renaming it to `<name>.quarantined` (it is never retried,
// but kept for post-mortems) and the walk falls back to the next older
// generation; a file that cannot be opened or mapped (kSnapshotIo) is
// skipped but kept.  When nothing valid remains the caller degrades to a
// cold start.  Every quarantine increments `snapshots_rejected`; every load
// that had to quarantine at least one file increments `self_heals` —
// whether or not an older generation saved it.
//
// Fault injection (util/faultinject): save() perturbs the in-memory image
// before it reaches disk — kSnapshotShortWrite truncates it,
// kSnapshotBitFlip flips one deterministic bit, kSnapshotStaleVersion
// stamps a future format version — so the whole detect/quarantine/degrade
// path is exercised deterministically without real disk corruption.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/snapshot.hpp"
#include "service/snapshot_source.hpp"

namespace hb {

/// "HBSS" big-endian in the first four image bytes.
inline constexpr std::uint32_t kSnapshotMagic = 0x48425353u;
/// Bump on any incompatible layout change; newer files are rejected with
/// kSnapshotVersionSkew (never misread).  Version 2 added the corners
/// section; version-1 images (pre-corner) still load, with
/// has_corners() == false.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;
/// Oldest format this build still reads.
inline constexpr std::uint32_t kSnapshotMinFormatVersion = 1;

/// Section kinds, in serialisation order.  The checksum of each section is
/// seeded by its kind, so a corrupted kind field can never validate.
enum class SnapshotSection : std::uint32_t {
  kMeta = 0,           // identity, status words, counters, capture flags
  kNodeTimings = 1,    // NodeTiming per graph node
  kWorstPaths = 2,     // pre-rendered worst paths
  kCaptureSlacks = 3,  // histogram input
  kNameIndex = 4,      // node names + instance pin tables (sorted)
  kHoldPairs = 5,      // hold-sweep inputs (check_hold serving data)
  kConstraints = 6,    // Algorithm 2 constraint times
  kCorners = 7,        // per-corner results (version >= 2)
};
inline constexpr std::uint32_t kNumSnapshotSections = 8;

const char* snapshot_section_name(SnapshotSection s);

/// XXH64 of `len` bytes (util/xxhash), seeded by the section kind.
std::uint64_t snapshot_checksum(const void* data, std::size_t len,
                                std::uint64_t seed);

/// Serialise a snapshot to its canonical image.  Byte-stable: the same
/// analysis state always produces the same bytes (maps are emitted in
/// sorted order; derived tables such as node_by_name are not serialised).
/// The image is sized first and written in place into one buffer; the
/// name-index section is copied from NameIndex::image_section().
std::string serialize_snapshot(const AnalysisSnapshot& snap);

struct SnapshotSectionInfo;

/// As above, and also report the section frames of the produced image
/// (the `snapshot stat` per-section byte sizes).
std::string serialize_snapshot(const AnalysisSnapshot& snap,
                               std::vector<SnapshotSectionInfo>* sections_out);

/// Frame of one section inside an image, as laid down by the serialiser —
/// exposed so tests can corrupt images at exact section boundaries.
struct SnapshotSectionInfo {
  std::uint32_t kind = 0;
  std::size_t header_offset = 0;   // first byte of the section frame
  std::size_t payload_offset = 0;  // first payload byte
  std::size_t payload_size = 0;
  std::uint64_t checksum = 0;      // stored checksum
};

class SnapshotView;

class SnapshotStore {
 public:
  struct Options {
    std::string dir;
    /// Newest generations kept per design; older files are deleted on save.
    /// The newest is always kept: 0 acts as 1.
    std::size_t retain = 4;
  };

  struct SaveResult {
    bool ok = false;
    std::string path;          // final file path (when ok)
    std::uint64_t generation = 0;
    DiagCode code = DiagCode::kSnapshotIo;  // when !ok
    std::string error;
  };

  struct SourceResult {
    /// The mapped image; null when nothing valid remains.  Its design name,
    /// section frames and byte size are read from the view.
    std::shared_ptr<const SnapshotView> view;
    std::string path;
    std::uint64_t generation = 0;
    /// Files quarantined during this load (corrupt / version-skewed).
    std::size_t rejected = 0;
    DiagCode code = DiagCode::kSnapshotMissing;  // when view == nullptr
    std::string error;

    bool ok() const { return view != nullptr; }
  };

  /// Opens (and creates, if needed) the store directory and scans existing
  /// generation numbers.  Throws hb::Error only when the directory can
  /// neither be created nor read.
  explicit SnapshotStore(Options options);

  /// Serialise and persist one snapshot under the next generation number.
  /// Thread-safe; crash-safe (temp file + fsync + atomic rename).
  SaveResult save(const AnalysisSnapshot& snap);

  /// Newest valid snapshot for `design` — or, with an empty argument, for
  /// whichever design owns the newest valid generation in the store —
  /// mmap'd into a SnapshotView.  Invalid files encountered on the way are
  /// quarantined (renamed to `<name>.quarantined`) and counted.
  SourceResult load_newest_source(const std::string& design = std::string());

  /// Section frames and byte size of the most recent successful save()
  /// (empty before the first save).  The live host's `snapshot stat`
  /// per-section report.
  std::vector<SnapshotSectionInfo> last_save_sections() const;
  std::size_t last_save_bytes() const;

  /// Designs with at least one live (non-quarantined) snapshot file.
  std::vector<std::string> designs() const;
  /// Live generation numbers for one design, oldest first.
  std::vector<std::uint64_t> generations(const std::string& design) const;

  const std::string& dir() const { return options_.dir; }
  std::size_t retain() const { return options_.retain; }

  // Monotone counters since construction (the `snapshot stat` payload).
  // Relaxed atomics: written under mutex_, readable from any thread.
  std::uint64_t saves() const { return saves_.load(std::memory_order_relaxed); }
  std::uint64_t save_failures() const {
    return save_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t loads() const { return loads_.load(std::memory_order_relaxed); }
  std::uint64_t snapshots_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t self_heals() const {
    return self_heals_.load(std::memory_order_relaxed);
  }

 private:
  struct FileEntry {
    std::string path;
    std::string stem;  // sanitised design component
    std::uint64_t generation = 0;
  };

  std::vector<FileEntry> scan_locked() const;
  void retain_locked(const std::string& stem);

  Options options_;
  mutable std::mutex mutex_;
  std::uint64_t next_generation_ = 1;
  std::vector<SnapshotSectionInfo> last_save_sections_;
  std::size_t last_save_bytes_ = 0;
  std::atomic<std::uint64_t> saves_{0};
  std::atomic<std::uint64_t> save_failures_{0};
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> self_heals_{0};
};

}  // namespace hb
