// Tests for the persistent snapshot store (src/service/snapshot_store).
//
// Three contracts under test:
//   1. Round trip: serialisation is byte-stable, and a SnapshotView
//      attached to the image answers every accessor exactly like the
//      source snapshot, on every generator network, and on hand-written
//      name tables (duplicates resolve to their lowest id; absent
//      prefixes and extensions of present names are not found).
//   2. Corruption never crashes and is never misread: truncation at every
//      section boundary, a bit flip in every section, version skew,
//      an unsorted instance table and arbitrary fuzz bytes all produce a
//      structured rejection from the view; the store quarantines bad
//      files, falls back to older generations and degrades to a cold
//      start when nothing valid remains, with the recovery counters
//      advancing exactly as documented in docs/ROBUSTNESS.md.
//   3. Warm restart byte-identity: a ServiceHost restarted over the same
//      snapshot directory answers read queries (slack, worst_paths,
//      check_hold, summary, gen_constraints, ...) byte-for-byte like the
//      host that persisted them, before any design is loaded.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "scenario/corner_set.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot_codec.hpp"
#include "service/snapshot_store.hpp"
#include "service/snapshot_view.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/faultinject.hpp"

namespace hb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "hbsnap.XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* p = ::mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Analyse one workload and take a fully captured snapshot (hold pairs,
/// the corners of `corners` when given, and Algorithm 2 constraints), the
/// way a session publishes one.
std::shared_ptr<AnalysisSnapshot> snapshot_of(
    Hummingbird& hum, std::uint64_t id = 1,
    const CornerSet* corners = nullptr) {
  const Algorithm1Result res = hum.analyze();
  return capture_snapshot(hum, res, id, build_name_index(hum.graph()),
                          corners != nullptr ? *corners : CornerSet{});
}

void expect_same_path(const SourcePath& got, const SnapshotPath& want) {
  EXPECT_EQ(got.slack, want.slack);
  EXPECT_EQ(got.launch, want.launch);
  EXPECT_EQ(got.capture, want.capture);
  EXPECT_EQ(got.from, want.from);
  EXPECT_EQ(got.to, want.to);
  EXPECT_EQ(got.steps, want.steps);
}

/// One scope of the view (the base scope or a corner) against the source
/// snapshot's fields for that scope.
template <class Scope>
void expect_same_scope(const SnapshotView& v, ReadScope rs, const Scope& want,
                       const std::vector<TimePs>& node_slacks) {
  EXPECT_EQ(v.worst_slack(rs), want.worst_slack);
  EXPECT_EQ(v.num_violations(rs), want.num_violations);
  for (std::size_t i = 0; i < node_slacks.size(); ++i) {
    ASSERT_EQ(v.node_slack(rs, i), std::optional<TimePs>(node_slacks[i])) << i;
  }
  ASSERT_EQ(v.num_paths(rs), want.paths.size());
  for (std::size_t i = 0; i < want.paths.size(); ++i) {
    expect_same_path(v.path(rs, i), want.paths[i]);
  }
  ASSERT_EQ(v.num_capture_slacks(rs), want.capture_slacks.size());
  for (std::size_t i = 0; i < want.capture_slacks.size(); ++i) {
    EXPECT_EQ(v.capture_slack(rs, i), want.capture_slacks[i]);
  }
  EXPECT_EQ(v.has_hold(rs), want.has_hold);
  ASSERT_EQ(v.num_hold_pairs(rs), want.hold_pairs.size());
  for (std::size_t i = 0; i < want.hold_pairs.size(); ++i) {
    const SourceHoldPair got = v.hold_pair(rs, i);
    EXPECT_EQ(got.margin, want.hold_pairs[i].margin);
    EXPECT_EQ(got.launch_label, want.hold_pairs[i].launch_label);
    EXPECT_EQ(got.capture_label, want.hold_pairs[i].capture_label);
  }
}

/// The view's node names and instance pin tables against `want`.
void expect_same_names(const SnapshotView& v, const NameIndex& want) {
  ASSERT_EQ(v.num_node_names(), want.node_names.size());
  for (std::size_t i = 0; i < want.node_names.size(); ++i) {
    const std::string& name = want.node_names[i];
    ASSERT_EQ(v.node_name(i), name) << i;
    // Duplicate names resolve to their lowest id, as in node_by_name.
    EXPECT_EQ(v.find_node(name), want.node_by_name.at(name)) << name;
  }
  EXPECT_EQ(v.find_node("no such node"), SnapshotSource::npos);
  for (const auto& [inst, pins] : want.inst_pins) {
    SCOPED_TRACE(inst);
    const SnapshotSource::InstRef ref = v.find_instance(inst);
    ASSERT_TRUE(ref.found);
    ASSERT_EQ(v.num_instance_pins(ref), pins.size());
    for (std::size_t p = 0; p < pins.size(); ++p) {
      const SourcePin got = v.instance_pin(ref, p);
      EXPECT_EQ(got.name, pins[p].first);
      EXPECT_EQ(got.node, pins[p].second);
    }
  }
  EXPECT_FALSE(v.find_instance("no such instance").found);
}

/// Every accessor of `v` against the snapshot it was serialised from.
void expect_view_matches(const SnapshotView& v, const AnalysisSnapshot& s) {
  EXPECT_EQ(v.id(), s.id);
  EXPECT_EQ(v.design_name(), s.design_name);
  EXPECT_EQ(v.status(), s.status);
  EXPECT_EQ(v.works_as_intended(), s.works_as_intended);
  EXPECT_EQ(v.num_terminals(), s.num_terminals);

  std::vector<TimePs> node_slacks;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const NodeTiming got = v.node_timing(i);
    const NodeTiming& want = s.nodes[i];
    ASSERT_EQ(got.slack, want.slack) << i;
    ASSERT_EQ(got.ready, want.ready) << i;
    ASSERT_EQ(got.required, want.required) << i;
    ASSERT_EQ(got.has_ready, want.has_ready) << i;
    ASSERT_EQ(got.has_constraint, want.has_constraint) << i;
    ASSERT_EQ(got.settling_count, want.settling_count) << i;
    node_slacks.push_back(want.slack);
  }
  expect_same_names(v, *s.names);

  EXPECT_EQ(v.has_constraints(), s.has_constraints);
  EXPECT_EQ(v.constraints_status(), s.constraints_status);
  EXPECT_EQ(v.backward_snatch_cycles(), s.backward_snatch_cycles);
  EXPECT_EQ(v.forward_snatch_cycles(), s.forward_snatch_cycles);
  ASSERT_EQ(v.num_constraint_nodes(), s.constraint_nodes.size());
  for (std::size_t i = 0; i < s.constraint_nodes.size(); ++i) {
    const ConstraintTimes got = v.constraint_node(i);
    const ConstraintTimes& want = s.constraint_nodes[i];
    ASSERT_EQ(got.has_ready, want.has_ready) << i;
    ASSERT_EQ(got.has_required, want.has_required) << i;
    ASSERT_EQ(got.ready, want.ready) << i;
    ASSERT_EQ(got.required, want.required) << i;
    ASSERT_EQ(got.slack, want.slack) << i;
  }

  expect_same_scope(v, ReadScope{}, s, node_slacks);
  EXPECT_EQ(v.has_corners(), s.has_corners);
  EXPECT_EQ(v.worst_corner(), s.worst_corner);
  ASSERT_EQ(v.num_corners(), s.corners.size());
  for (std::size_t k = 0; k < s.corners.size(); ++k) {
    SCOPED_TRACE("corner " + std::to_string(k));
    const SnapshotCorner& c = s.corners[k];
    const SourceCorner got = v.corner(k);
    EXPECT_EQ(got.name, c.name);
    EXPECT_EQ(got.derate_pm, c.derate_pm);
    EXPECT_EQ(got.wire_pm, c.wire_pm);
    expect_same_scope(v, ReadScope{k}, c, c.node_slacks);
  }
}

RandomNetworkSpec small_spec() {
  RandomNetworkSpec spec;
  spec.seed = 7;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 4;
  spec.gates_per_stage = 40;
  return spec;
}

std::shared_ptr<Session> make_session() {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  return std::make_shared<Session>(std::move(net.design), std::move(net.clocks));
}

// -- Serialisation ----------------------------------------------------------

TEST(SnapshotStoreTest, RoundTripByteStableOnEveryGeneratorNetwork) {
  const CornerSet corners = parse_corner_spec_or_throw(
      "corner typical 1000\n"
      "corner slow 1250\nwire slow 1300\n"
      "corner fast 800\nwire fast 780\n");
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hum(w.design, w.clocks);
    const auto snap = snapshot_of(hum, 42, &corners);
    ASSERT_TRUE(snap->has_hold);
    ASSERT_TRUE(snap->has_constraints);
    ASSERT_TRUE(snap->has_corners);
    const std::string image = serialize_snapshot(*snap);
    EXPECT_EQ(serialize_snapshot(*snap), image);

    const SnapshotView::MapResult mr = SnapshotView::attach(image);
    ASSERT_TRUE(mr.ok()) << mr.error;
    EXPECT_EQ(mr.version, kSnapshotFormatVersion);
    EXPECT_EQ(mr.view->sections().size(), kNumSnapshotSections);
    EXPECT_EQ(mr.view->image_bytes(), image.size());
    expect_view_matches(*mr.view, *snap);
  }
}

TEST(SnapshotStoreTest, RejectsTruncationAtEverySectionBoundary) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  std::vector<SnapshotSectionInfo> sections;
  const std::string image = serialize_snapshot(*snap, &sections);
  ASSERT_TRUE(SnapshotView::attach(image).ok());

  std::vector<std::size_t> cuts = {0, 1, 11};  // inside the file header
  for (const SnapshotSectionInfo& s : sections) {
    cuts.push_back(s.header_offset);           // before the section frame
    cuts.push_back(s.payload_offset);          // header kept, payload gone
    cuts.push_back(s.payload_offset + s.payload_size / 2);  // mid-payload
    cuts.push_back(s.payload_offset + s.payload_size - 1);  // one byte short
  }
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncate at " + std::to_string(cut));
    ASSERT_LT(cut, image.size());
    const SnapshotView::MapResult p =
        SnapshotView::attach(std::string_view(image).substr(0, cut));
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(SnapshotStoreTest, RejectsBitFlipInEverySection) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  std::vector<SnapshotSectionInfo> sections;
  const std::string image = serialize_snapshot(*snap, &sections);
  ASSERT_TRUE(SnapshotView::attach(image).ok());

  std::vector<std::size_t> targets = {0};  // magic byte
  for (const SnapshotSectionInfo& s : sections) {
    targets.push_back(s.header_offset);      // kind field
    targets.push_back(s.header_offset + 12); // stored checksum
    if (s.payload_size > 0) {
      targets.push_back(s.payload_offset + s.payload_size / 2);
    }
  }
  for (const std::size_t at : targets) {
    SCOPED_TRACE("flip bit at byte " + std::to_string(at));
    std::string bad = image;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    const SnapshotView::MapResult p = SnapshotView::attach(bad);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
  }
}

TEST(SnapshotStoreTest, RejectsVersionSkewWithDedicatedCode) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  std::string image = serialize_snapshot(*snapshot_of(hum));
  image[4] = static_cast<char>(kSnapshotFormatVersion + 1);
  const SnapshotView::MapResult p = SnapshotView::attach(image);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.code, DiagCode::kSnapshotVersionSkew);
  EXPECT_EQ(p.version, kSnapshotFormatVersion + 1);
}

// Named SnapshotFuzz* so the CI fuzz job's --gtest_filter picks them up.
TEST(SnapshotFuzzTest, ParserSafeOnArbitraryBytes) {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 200; ++round) {
    std::string bytes(next() % 4096, '\0');
    for (char& c : bytes) c = static_cast<char>(next());
    // Half the rounds get a plausible header so parsing reaches the
    // section walk instead of bailing at the magic check.
    if (round % 2 == 0 && bytes.size() >= 12) {
      const std::uint32_t magic = kSnapshotMagic;
      const std::uint32_t version = kSnapshotFormatVersion;
      for (int i = 0; i < 4; ++i) {
        bytes[i] = static_cast<char>((magic >> (8 * i)) & 0xFF);
        bytes[4 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
      }
    }
    const SnapshotView::MapResult p = SnapshotView::attach(bytes);
    EXPECT_FALSE(p.ok());  // random bytes never checksum-validate
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(SnapshotFuzzTest, ParserSafeOnMutatedValidImages) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const std::string image = serialize_snapshot(*snapshot_of(hum));
  std::uint64_t state = 0xD1B54A32D192ED03ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 200; ++round) {
    std::string bad = image;
    const int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits; ++e) {
      bad[next() % bad.size()] = static_cast<char>(next());
    }
    if (next() % 4 == 0) bad.resize(next() % (bad.size() + 1));
    const SnapshotView::MapResult p = SnapshotView::attach(bad);  // no crash
    if (!p.ok()) {
      EXPECT_FALSE(p.error.empty());
    }
  }
}

// -- The store --------------------------------------------------------------

TEST(SnapshotStoreTest, SaveLoadRoundTripThroughDisk) {
  TempDir dir;
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum, 7);

  SnapshotStore store({dir.path, 4});
  const SnapshotStore::SaveResult saved = store.save(*snap);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.generation, 1u);
  EXPECT_TRUE(fs::exists(saved.path));
  EXPECT_EQ(read_file(saved.path), serialize_snapshot(*snap));

  const SnapshotStore::SourceResult loaded = store.load_newest_source();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.rejected, 0u);
  EXPECT_EQ(loaded.view->design_name(), snap->design_name);
  EXPECT_TRUE(loaded.view->mapped());
  EXPECT_EQ(loaded.view->image_bytes(), serialize_snapshot(*snap).size());
  expect_view_matches(*loaded.view, *snap);
  EXPECT_EQ(store.saves(), 1u);
  EXPECT_EQ(store.loads(), 1u);
  EXPECT_EQ(store.snapshots_rejected(), 0u);
  EXPECT_EQ(store.self_heals(), 0u);

  // A second store over the same directory continues the generation chain.
  SnapshotStore reopened({dir.path, 4});
  const SnapshotStore::SaveResult again = reopened.save(*snap);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.generation, 2u);
}

TEST(SnapshotStoreTest, RetentionDeletesOldestGenerations) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);

  // retain 0 keeps the newest generation, as retain 1 does.
  const std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>> cases =
      {{3, {3, 4, 5}}, {0, {5}}};
  for (const auto& [retain, kept] : cases) {
    TempDir dir;
    SnapshotStore store({dir.path, retain});
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.save(*snap).ok);
    EXPECT_EQ(store.generations(snap->design_name), kept) << "retain " << retain;
    EXPECT_EQ(store.designs(), std::vector<std::string>{snap->design_name});
  }
}

TEST(SnapshotStoreTest, QuarantinesCorruptNewestAndFallsBackToOlder) {
  TempDir dir;
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);

  SnapshotStore store({dir.path, 4});
  ASSERT_TRUE(store.save(*snap).ok);
  const SnapshotStore::SaveResult newest = store.save(*snap);
  ASSERT_TRUE(newest.ok);

  std::string bytes = read_file(newest.path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(newest.path, bytes);

  const SnapshotStore::SourceResult loaded = store.load_newest_source();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);  // healed by falling back
  EXPECT_EQ(loaded.rejected, 1u);
  EXPECT_EQ(store.snapshots_rejected(), 1u);
  EXPECT_EQ(store.self_heals(), 1u);
  EXPECT_TRUE(fs::exists(newest.path + ".quarantined"));
  EXPECT_FALSE(fs::exists(newest.path));

  // The quarantined file is never retried: the next load is clean.
  const SnapshotStore::SourceResult again = store.load_newest_source();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.rejected, 0u);
  EXPECT_EQ(store.self_heals(), 1u);
}

/// Save two generations of `snap`, overwrite the newer file with `image`,
/// and check that the loader quarantines it and serves generation 1.
void expect_quarantined_and_fell_back(const AnalysisSnapshot& snap,
                                      const std::string& image) {
  TempDir dir;
  SnapshotStore store({dir.path, 4});
  ASSERT_TRUE(store.save(snap).ok);
  const SnapshotStore::SaveResult newest = store.save(snap);
  ASSERT_TRUE(newest.ok);
  write_file(newest.path, image);

  const SnapshotStore::SourceResult loaded = store.load_newest_source();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.rejected, 1u);
  EXPECT_EQ(store.snapshots_rejected(), 1u);
  EXPECT_EQ(store.self_heals(), 1u);
  EXPECT_TRUE(fs::exists(newest.path + ".quarantined"));
  EXPECT_FALSE(fs::exists(newest.path));
}

// A count whose byte size wraps: 2^61 capture slacks in an 8-byte payload,
// under a recomputed (valid) section checksum.  The view must reject the
// image instead of indexing 2^61 slots, and the loader must quarantine it
// and serve the older generation.
TEST(SnapshotStoreTest, QuarantinesWrappingCaptureCountAndFallsBack) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  std::vector<SnapshotSectionInfo> sections;
  const std::string image = serialize_snapshot(*snap, &sections);

  std::string crafted = image.substr(0, 12);
  for (const SnapshotSectionInfo& s : sections) {
    std::string payload = image.substr(s.payload_offset, s.payload_size);
    if (s.kind == static_cast<std::uint32_t>(SnapshotSection::kCaptureSlacks)) {
      payload.clear();
      put_u64(payload, std::uint64_t{1} << 61);
    }
    put_u32(crafted, s.kind);
    put_u64(crafted, payload.size());
    put_u64(crafted, snapshot_checksum(payload.data(), payload.size(), s.kind));
    crafted += payload;
  }
  const SnapshotView::MapResult p = SnapshotView::attach(crafted);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
  expect_quarantined_and_fell_back(*snap, crafted);
}

// Two adjacent instance records of the name-index section swapped, under a
// recomputed section checksum: every instance name is still unique, but the
// table is no longer sorted, so binary search over it would miss names.
// No writer produces such a table; the view refuses it as corrupt, and the
// loader quarantines it and serves the older generation.
TEST(SnapshotStoreTest, QuarantinesUnsortedInstanceTableAndFallsBack) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  ASSERT_GE(snap->names->inst_pins.size(), 2u);
  std::vector<SnapshotSectionInfo> sections;
  std::string image = serialize_snapshot(*snap, &sections);
  const SnapshotSectionInfo& names =
      sections[static_cast<std::size_t>(SnapshotSection::kNameIndex)];
  ASSERT_EQ(names.kind, static_cast<std::uint32_t>(SnapshotSection::kNameIndex));

  // Walk past the node names and the instance count to the first two
  // instance records (name, pin count, pins).
  Reader r = reader_of(
      std::string_view(image).substr(names.payload_offset, names.payload_size));
  const std::uint64_t nodes = r.u64();
  for (std::uint64_t i = 0; i < nodes; ++i) r.str_view();
  ASSERT_GE(r.u64(), 2u);
  const auto skip_record = [&r] {
    r.str_view();
    const std::uint64_t pins = r.u64();
    for (std::uint64_t p = 0; p < pins; ++p) {
      r.str_view();
      r.u32();
    }
  };
  const std::size_t a = names.payload_offset + r.pos;
  skip_record();
  const std::size_t b = names.payload_offset + r.pos;
  skip_record();
  const std::size_t c = names.payload_offset + r.pos;
  ASSERT_FALSE(r.fail);
  image.replace(a, c - a, image.substr(b, c - b) + image.substr(a, b - a));
  std::string checksum;
  put_u64(checksum, snapshot_checksum(image.data() + names.payload_offset,
                                      names.payload_size, names.kind));
  image.replace(names.header_offset + 12, 8, checksum);

  const SnapshotView::MapResult p = SnapshotView::attach(image);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
  EXPECT_NE(p.error.find("name-index"), std::string::npos) << p.error;
  expect_quarantined_and_fell_back(*snap, image);
}

// Saves from two sessions over different networks, interleaved into one
// store.  A name-index section is encoded once per NameIndex and reused by
// every later save, so each image must still carry the index of the session
// that saved it.
TEST(SnapshotStoreTest, InterleavedSessionsEachSaveTheirOwnNameIndex) {
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::vector<std::string>> comb;
  for (Workload& w : all_generator_networks()) {
    if (w.name != "alu" && w.name != "pipeline") continue;
    std::vector<std::string> names;
    const Design& d = w.design;
    for (std::uint32_t i = 0; i < d.top().insts().size(); ++i) {
      const Instance& x = d.top().inst(InstId(i));
      if (x.is_cell() && !d.lib().cell(x.cell).is_sequential()) {
        names.push_back(x.name);
      }
    }
    comb.push_back(std::move(names));
    sessions.push_back(std::make_shared<Session>(std::move(w.design),
                                                 std::move(w.clocks)));
  }
  ASSERT_EQ(sessions.size(), 2u);
  ASSERT_NE(sessions[0]->snapshot()->design_name,
            sessions[1]->snapshot()->design_name);

  TempDir dir;
  SnapshotStore store({dir.path, 16});
  std::vector<std::pair<std::string, std::size_t>> saved;  // path, session
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      Session& session = *sessions[k];
      const std::string& inst = comb[k][static_cast<std::size_t>(round) %
                                        comb[k].size()];
      ASSERT_TRUE(session.execute("set_delay " + inst + " 25ps").ok);
      ASSERT_TRUE(session.execute("commit").ok);
      const SnapshotStore::SaveResult r = store.save(*session.snapshot());
      ASSERT_TRUE(r.ok) << r.error;
      saved.emplace_back(r.path, k);
    }
  }
  for (const auto& [path, k] : saved) {
    SCOPED_TRACE(path);
    const SnapshotView::MapResult m = SnapshotView::map_file(path);
    ASSERT_TRUE(m.ok()) << m.error;
    EXPECT_EQ(m.view->design_name(), sessions[k]->snapshot()->design_name);
    expect_same_names(*m.view, *sessions[k]->snapshot()->names);
  }
}

/// A snapshot that carries nothing but these node names.  node_by_name
/// keeps each name's first id, as build_name_index does.
std::shared_ptr<AnalysisSnapshot> names_only_snapshot(
    const std::vector<std::string>& node_names) {
  auto idx = std::make_shared<NameIndex>();
  idx->node_names = node_names;
  for (std::uint32_t i = 0; i < node_names.size(); ++i) {
    idx->node_by_name.emplace(node_names[i], i);
  }
  auto snap = std::make_shared<AnalysisSnapshot>();
  snap->design_name = "names";
  snap->names = std::move(idx);
  return snap;
}

// No generator network repeats a node name, so these name tables are
// written by hand: duplicates (which resolve to their lowest id, as in
// NameIndex), names sharing their first 8 or more bytes, and absent names
// that are a prefix or an extension of a present one.  Every table is read
// through an attached image and through a store-mapped one.
TEST(SnapshotStoreTest, ViewResolvesNameEdgeCases) {
  struct Case {
    const char* what;
    std::vector<std::string> names;
    std::vector<std::pair<std::string, std::size_t>> want;
    std::vector<std::string> absent;
  };
  std::vector<std::string> many;
  for (int i = 0; i < 300; ++i) {
    many.push_back("bank" + std::to_string(i % 7) + "/stage/gate_" +
                   std::to_string(i));
  }
  many.push_back("bank3/stage/gate_17");  // id 300, a duplicate of id 17
  const std::vector<Case> cases = {
      {"duplicates and shared prefixes",
       {"u1/Z", "abcdefgh", "abcdefgh1", "bank0/stage0/gate_a",
        "bank0/stage0/gate_b", "u1/Z", "abcdefgh12", "bank0/stage0/gate_b",
        "abcdefgh1", "u1/Z"},
       {{"u1/Z", 0}, {"abcdefgh", 1}, {"abcdefgh1", 2},
        {"bank0/stage0/gate_a", 3}, {"bank0/stage0/gate_b", 4},
        {"abcdefgh12", 6}},
       {"", "u1", "u1/", "u1/Z/", "u1/ZZ", "abcdefg", "abcdefgh123",
        "abcdefgh2", "bank0/stage0/gate_", "bank0/stage0/gate_c",
        "bank0/stage0/gate_ab"}},
      {"hundreds of names, one repeated",
       many,
       {{"bank0/stage/gate_0", 0}, {"bank3/stage/gate_17", 17},
        {"bank5/stage/gate_299", 299}},
       {"", "bank3/stage/gate_", "bank3/stage/gate_170",
        "bank3/stage/gate_17/", "bank0/stage/gate_300"}},
      {"the empty name, twice", {"a", "", "", "b"}, {{"", 1}, {"a", 0}},
       {"ab", " "}},
      {"no node names", {}, {}, {"", "u1/Z", "no such node"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto snap = names_only_snapshot(c.names);
    const std::string image = serialize_snapshot(*snap);
    TempDir dir;
    SnapshotStore store({dir.path, 4});
    ASSERT_TRUE(store.save(*snap).ok);
    const SnapshotView::MapResult attached = SnapshotView::attach(image);
    ASSERT_TRUE(attached.ok()) << attached.error;
    const SnapshotStore::SourceResult loaded = store.load_newest_source();
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_TRUE(loaded.view->mapped());
    const SnapshotView* views[] = {attached.view.get(), loaded.view.get()};
    for (const SnapshotView* v : views) {
      for (const auto& [name, id] : c.want) {
        EXPECT_EQ(v->find_node(name), id) << '"' << name << '"';
      }
      for (const std::string& name : c.absent) {
        EXPECT_EQ(v->find_node(name), SnapshotSource::npos)
            << '"' << name << '"';
      }
      expect_same_names(*v, *snap->names);
    }
  }
}

TEST(SnapshotStoreTest, DegradesToColdStartWhenEveryGenerationIsCorrupt) {
  TempDir dir;
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);

  SnapshotStore store({dir.path, 4});
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const SnapshotStore::SaveResult r = store.save(*snap);
    ASSERT_TRUE(r.ok);
    paths.push_back(r.path);
  }
  for (const std::string& p : paths) {
    std::string bytes = read_file(p);
    bytes.resize(bytes.size() / 3);
    write_file(p, bytes);
  }

  const SnapshotStore::SourceResult loaded = store.load_newest_source();
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.rejected, 3u);
  EXPECT_EQ(loaded.code, DiagCode::kSnapshotCorrupt);
  EXPECT_EQ(store.snapshots_rejected(), 3u);
  EXPECT_EQ(store.self_heals(), 1u);

  // Cold start: the store is usable again immediately.
  ASSERT_TRUE(store.save(*snap).ok);
  EXPECT_TRUE(store.load_newest_source().ok());
}

TEST(SnapshotStoreTest, MissingStoreReportsStructuredCode) {
  TempDir dir;
  SnapshotStore store({dir.path, 4});
  const SnapshotStore::SourceResult r = store.load_newest_source();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, DiagCode::kSnapshotMissing);
  const SnapshotStore::SourceResult named = store.load_newest_source("nope");
  EXPECT_FALSE(named.ok());
  EXPECT_EQ(named.code, DiagCode::kSnapshotMissing);
}

TEST(SnapshotStoreTest, FaultInjectionMatrixDegradesGracefully) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);

  const FaultSite sites[] = {FaultSite::kSnapshotShortWrite,
                             FaultSite::kSnapshotBitFlip,
                             FaultSite::kSnapshotStaleVersion};
  for (const FaultSite site : sites) {
    SCOPED_TRACE("site " + std::to_string(static_cast<int>(site)));
    TempDir dir;
    SnapshotStore store({dir.path, 4});
    ASSERT_TRUE(store.save(*snap).ok);  // one clean generation to heal onto

    {
      FaultInjector::Config cfg;
      cfg.seed = 11;
      cfg.probability[static_cast<int>(site)] = 1.0;
      FaultInjector::Scope scope(cfg);
      const SnapshotStore::SaveResult r = store.save(*snap);
      ASSERT_TRUE(r.ok) << r.error;  // the corruption is silent, as on real media
    }

    const SnapshotStore::SourceResult loaded = store.load_newest_source();
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(loaded.generation, 1u);
    EXPECT_EQ(loaded.rejected, 1u);
    EXPECT_EQ(store.snapshots_rejected(), 1u);
    EXPECT_EQ(store.self_heals(), 1u);
    if (site == FaultSite::kSnapshotStaleVersion) {
      // The quarantined file must have been rejected as version skew, so
      // a second all-corrupt load reports the dedicated code.
      TempDir dir2;
      SnapshotStore store2({dir2.path, 4});
      FaultInjector::Config cfg;
      cfg.seed = 11;
      cfg.probability[static_cast<int>(site)] = 1.0;
      FaultInjector::Scope scope(cfg);
      ASSERT_TRUE(store2.save(*snap).ok);
      const SnapshotStore::SourceResult skew = store2.load_newest_source();
      EXPECT_FALSE(skew.ok());
      EXPECT_EQ(skew.code, DiagCode::kSnapshotVersionSkew);
    }
  }
}

// -- Warm restart -----------------------------------------------------------

TEST(SnapshotStoreTest, WarmRestartedHostAnswersReadsByteIdentically) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;

  std::vector<std::string> queries = {"summary", "worst_paths 5",
                                      "histogram 4", "check_hold",
                                      "check_hold 5ns", "gen_constraints"};
  std::vector<std::string> before;
  {
    ServiceHost host(cfg);
    EXPECT_EQ(host.warm_source(), nullptr);  // empty store: cold start
    auto session = make_session();
    // A slack query on a real node, chosen from the published name index.
    queries.push_back("slack " + session->snapshot()->names->node_names.front());
    host.adopt(std::move(session));  // wires the store; saves snapshot 1
    ProtocolHandler h(host);
    for (const std::string& q : queries) before.push_back(h.handle_line(q));
  }

  // "Restart": a fresh host over the same directory, no design loaded.
  ServiceHost host(cfg);
  const auto warm = host.warm_source();
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->id(), 1u);
  ProtocolHandler h(host);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    EXPECT_EQ(h.handle_line(queries[i]), before[i]);
  }
  // Writes are rejected with a structured reply, not a crash.
  const std::string write = h.handle_line("set_delay x 10ps");
  EXPECT_EQ(write.rfind("err service-rejected", 0), 0u) << write;
  EXPECT_NE(write.find("read-only"), std::string::npos);
}

TEST(SnapshotStoreTest, WarmRestartSurvivesCorruptNewestGeneration) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  std::string summary_before;
  {
    ServiceHost host(cfg);
    host.adopt(make_session());
    ProtocolHandler h(host);
    summary_before = h.handle_line("summary");
    // A second generation, then corrupt it on disk.
    ASSERT_EQ(h.handle_line("snapshot save").rfind("ok snapshot save", 0), 0u);
  }
  const std::vector<std::string> designs =
      SnapshotStore({dir.path, 4}).designs();
  ASSERT_EQ(designs.size(), 1u);
  SnapshotStore probe({dir.path, 4});
  const std::vector<std::uint64_t> gens = probe.generations(designs[0]);
  ASSERT_EQ(gens.size(), 2u);
  const std::string newest = dir.path + "/" + designs[0] + "." +
                             std::to_string(gens.back()) + ".hbss";
  std::string bytes = read_file(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[20] = static_cast<char>(bytes[20] ^ 0x40);
  write_file(newest, bytes);

  ServiceHost host(cfg);
  ASSERT_NE(host.warm_source(), nullptr);  // healed onto generation 1
  ProtocolHandler h(host);
  EXPECT_EQ(h.handle_line("summary"), summary_before);
  EXPECT_TRUE(fs::exists(newest + ".quarantined"));

  // The warm-load recovery counters land in the first adopted session.
  auto session = make_session();
  host.adopt(session);
  EXPECT_EQ(session->metrics().snapshots_loaded(), 1u);
  EXPECT_EQ(session->metrics().snapshots_rejected(), 1u);
  EXPECT_EQ(session->metrics().snapshot_self_heals(), 1u);
}

TEST(SnapshotStoreTest, SnapshotVerbsRoundTrip) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  ServiceHost host(cfg);
  ProtocolHandler h(host);

  // Before any session: save has nothing to persist, stat still works.
  EXPECT_EQ(h.handle_line("snapshot save").rfind("err service-rejected", 0), 0u);
  EXPECT_EQ(h.handle_line("snapshot stat").rfind("ok snapshot stat", 0), 0u);
  EXPECT_EQ(h.handle_line("snapshot load").rfind("err snapshot-missing", 0), 0u);

  host.adopt(make_session());
  const std::string saved = h.handle_line("snapshot save");
  EXPECT_EQ(saved.rfind("ok snapshot save", 0), 0u) << saved;
  const std::string loaded = h.handle_line("snapshot load");
  EXPECT_EQ(loaded.rfind("ok snapshot load", 0), 0u) << loaded;
  const std::string stat = h.handle_line("snapshot stat");
  EXPECT_NE(stat.find("store saves 2"), std::string::npos) << stat;
  EXPECT_NE(stat.find("store snapshots_rejected 0"), std::string::npos);

  // Hosts without a store reject the verb with a structured reply.
  ServiceHost bare;
  ProtocolHandler hb2(bare);
  EXPECT_EQ(hb2.handle_line("snapshot stat").rfind("err service-rejected", 0),
            0u);
}

}  // namespace
}  // namespace hb
