// Tests for the persistent snapshot store (src/service/snapshot_store).
//
// Three contracts under test:
//   1. Round-trip byte stability: serialising any snapshot, parsing it and
//      serialising the parse result yields identical bytes, on every
//      generator network.
//   2. Corruption never crashes and never mis-decodes: truncation at every
//      section boundary, a bit flip in every section, version skew and
//      arbitrary fuzz bytes all produce a structured rejection; the store
//      quarantines bad files, falls back to older generations and degrades
//      to a cold start when nothing valid remains, with the recovery
//      counters advancing exactly as documented in docs/ROBUSTNESS.md.
//   3. Warm restart byte-identity: a ServiceHost restarted over the same
//      snapshot directory answers read queries (slack, worst_paths,
//      check_hold, summary, gen_constraints, ...) byte-for-byte like the
//      host that persisted them, before any design is loaded.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot_codec.hpp"
#include "service/snapshot_store.hpp"
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

/// Analyse one workload and take a fully captured snapshot (hold pairs and
/// Algorithm 2 constraints included), exactly as a session publishes them.
std::shared_ptr<AnalysisSnapshot> snapshot_of(Hummingbird& hum,
                                              std::uint64_t id = 1) {
  const Algorithm1Result res = hum.analyze();
  auto snap = take_snapshot(hum.engine(), res, id, 32,
                            build_name_index(hum.graph()));
  capture_hold_into(*snap, hum.engine());
  capture_constraints_into(*snap, hum);
  return snap;
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
  for (Workload& w : all_generator_networks()) {
    SCOPED_TRACE(w.name);
    Hummingbird hum(w.design, w.clocks);
    const auto snap = snapshot_of(hum, 42);
    const std::string image = serialize_snapshot(*snap);

    const SnapshotParse parsed = parse_snapshot(image);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.version, kSnapshotFormatVersion);
    EXPECT_EQ(parsed.sections.size(), kNumSnapshotSections);
    EXPECT_EQ(serialize_snapshot(*parsed.snapshot), image);

    // Spot-check the decode against the source snapshot.
    const AnalysisSnapshot& d = *parsed.snapshot;
    EXPECT_EQ(d.id, snap->id);
    EXPECT_EQ(d.design_name, snap->design_name);
    EXPECT_EQ(d.worst_slack, snap->worst_slack);
    EXPECT_EQ(d.nodes.size(), snap->nodes.size());
    EXPECT_EQ(d.paths.size(), snap->paths.size());
    EXPECT_EQ(d.capture_slacks, snap->capture_slacks);
    ASSERT_TRUE(d.has_hold);
    ASSERT_EQ(d.hold_pairs.size(), snap->hold_pairs.size());
    for (std::size_t i = 0; i < d.hold_pairs.size(); ++i) {
      EXPECT_EQ(d.hold_pairs[i].margin, snap->hold_pairs[i].margin);
      EXPECT_EQ(d.hold_pairs[i].launch_label, snap->hold_pairs[i].launch_label);
    }
    ASSERT_TRUE(d.has_constraints);
    EXPECT_EQ(d.constraint_nodes.size(), snap->constraint_nodes.size());
    // Derived name tables are rebuilt, not serialised.
    ASSERT_NE(d.names, nullptr);
    EXPECT_EQ(d.names->node_names, snap->names->node_names);
    EXPECT_EQ(d.names->node_by_name.size(), snap->names->node_by_name.size());
    EXPECT_EQ(d.names->inst_pins.size(), snap->names->inst_pins.size());
  }
}

TEST(SnapshotStoreTest, RejectsTruncationAtEverySectionBoundary) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  const std::string image = serialize_snapshot(*snap);
  const SnapshotParse whole = parse_snapshot(image);
  ASSERT_TRUE(whole.ok());

  std::vector<std::size_t> cuts = {0, 1, 11};  // inside the file header
  for (const SnapshotSectionInfo& s : whole.sections) {
    cuts.push_back(s.header_offset);           // before the section frame
    cuts.push_back(s.payload_offset);          // header kept, payload gone
    cuts.push_back(s.payload_offset + s.payload_size / 2);  // mid-payload
    cuts.push_back(s.payload_offset + s.payload_size - 1);  // one byte short
  }
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncate at " + std::to_string(cut));
    ASSERT_LT(cut, image.size());
    const SnapshotParse p = parse_snapshot(std::string_view(image).substr(0, cut));
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(SnapshotStoreTest, RejectsBitFlipInEverySection) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  const std::string image = serialize_snapshot(*snap);
  const SnapshotParse whole = parse_snapshot(image);
  ASSERT_TRUE(whole.ok());

  std::vector<std::size_t> targets = {0};  // magic byte
  for (const SnapshotSectionInfo& s : whole.sections) {
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
    const SnapshotParse p = parse_snapshot(bad);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);
  }
}

TEST(SnapshotStoreTest, RejectsVersionSkewWithDedicatedCode) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  std::string image = serialize_snapshot(*snapshot_of(hum));
  image[4] = static_cast<char>(kSnapshotFormatVersion + 1);
  const SnapshotParse p = parse_snapshot(image);
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
    const SnapshotParse p = parse_snapshot(bytes);
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
    const SnapshotParse p = parse_snapshot(bad);  // must not crash
    if (!p.ok()) EXPECT_FALSE(p.error.empty());
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

  const SnapshotStore::LoadResult loaded = store.load_newest();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.rejected, 0u);
  EXPECT_EQ(loaded.design, snap->design_name);
  EXPECT_EQ(serialize_snapshot(*loaded.snapshot), serialize_snapshot(*snap));
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
  TempDir dir;
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);

  SnapshotStore store({dir.path, 3});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.save(*snap).ok);
  EXPECT_EQ(store.generations(snap->design_name),
            (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(store.designs(), std::vector<std::string>{snap->design_name});
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

  const SnapshotStore::LoadResult loaded = store.load_newest();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.generation, 1u);  // healed by falling back
  EXPECT_EQ(loaded.rejected, 1u);
  EXPECT_EQ(store.snapshots_rejected(), 1u);
  EXPECT_EQ(store.self_heals(), 1u);
  EXPECT_TRUE(fs::exists(newest.path + ".quarantined"));
  EXPECT_FALSE(fs::exists(newest.path));

  // The quarantined file is never retried: the next load is clean.
  const SnapshotStore::LoadResult again = store.load_newest();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.rejected, 0u);
  EXPECT_EQ(store.self_heals(), 1u);
}

// A count whose byte size wraps: 2^61 capture slacks in an 8-byte payload,
// under a recomputed (valid) section checksum.  The decoder must reject the
// image instead of reserving 2^61 slots, and both loaders must quarantine it
// and serve the older generation.
TEST(SnapshotStoreTest, QuarantinesWrappingCaptureCountAndFallsBack) {
  RandomNetwork net = make_random_network(make_standard_library(), small_spec());
  Hummingbird hum(net.design, net.clocks);
  const auto snap = snapshot_of(hum);
  const std::string image = serialize_snapshot(*snap);
  const SnapshotParse whole = parse_snapshot(image);
  ASSERT_TRUE(whole.ok());

  std::string crafted = image.substr(0, 12);
  for (const SnapshotSectionInfo& s : whole.sections) {
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
  const SnapshotParse p = parse_snapshot(crafted);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.code, DiagCode::kSnapshotCorrupt);

  for (const bool as_source : {false, true}) {
    SCOPED_TRACE(as_source ? "load_newest_source" : "load_newest");
    TempDir dir;
    SnapshotStore store({dir.path, 4});
    ASSERT_TRUE(store.save(*snap).ok);
    const SnapshotStore::SaveResult newest = store.save(*snap);
    ASSERT_TRUE(newest.ok);
    write_file(newest.path, crafted);

    std::uint64_t generation = 0;
    std::size_t rejected = 0;
    if (as_source) {
      const SnapshotStore::SourceResult loaded = store.load_newest_source();
      ASSERT_TRUE(loaded.ok()) << loaded.error;
      generation = loaded.generation;
      rejected = loaded.rejected;
    } else {
      const SnapshotStore::LoadResult loaded = store.load_newest();
      ASSERT_TRUE(loaded.ok()) << loaded.error;
      generation = loaded.generation;
      rejected = loaded.rejected;
    }
    EXPECT_EQ(generation, 1u);
    EXPECT_EQ(rejected, 1u);
    EXPECT_EQ(store.snapshots_rejected(), 1u);
    EXPECT_TRUE(fs::exists(newest.path + ".quarantined"));
  }
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
    const SnapshotParse p = parse_snapshot(read_file(path));
    ASSERT_TRUE(p.ok()) << p.error;
    const NameIndex& want = *sessions[k]->snapshot()->names;
    EXPECT_EQ(p.snapshot->design_name, sessions[k]->snapshot()->design_name);
    EXPECT_EQ(p.snapshot->names->node_names, want.node_names);
    EXPECT_EQ(p.snapshot->names->inst_pins, want.inst_pins);
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

  const SnapshotStore::LoadResult loaded = store.load_newest();
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.rejected, 3u);
  EXPECT_EQ(loaded.code, DiagCode::kSnapshotCorrupt);
  EXPECT_EQ(store.snapshots_rejected(), 3u);
  EXPECT_EQ(store.self_heals(), 1u);

  // Cold start: the store is usable again immediately.
  ASSERT_TRUE(store.save(*snap).ok);
  EXPECT_TRUE(store.load_newest().ok());
}

TEST(SnapshotStoreTest, MissingStoreReportsStructuredCode) {
  TempDir dir;
  SnapshotStore store({dir.path, 4});
  const SnapshotStore::LoadResult r = store.load_newest();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, DiagCode::kSnapshotMissing);
  const SnapshotStore::LoadResult named = store.load_newest("nope");
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

    const SnapshotStore::LoadResult loaded = store.load_newest();
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
      const SnapshotStore::LoadResult skew = store2.load_newest();
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
