// Differential and fuzz tests for the zero-copy read path: the mmap
// SnapshotView and the binary protocol v2.
//
// Contracts under test:
//   1. View/copy byte-identity: evaluate_snapshot_read over a SnapshotView
//      of a serialised image answers byte-for-byte like the same evaluator
//      over the decoded AnalysisSnapshot, on every generator network, with
//      and without a multi-corner capture, across every snapshot-served
//      verb including the error replies.
//   2. Protocol identity: every proto-2 typed reply, rendered back to text
//      by proto2_render_payload, reproduces the proto-1 reply byte for
//      byte — also on extreme histogram spans; decode errors carry the same
//      structured messages as the text parser for the same out-of-range
//      values.
//   3. Version 1: a crafted version-1 image (no corners section) is served
//      by the view with no corners, through the store and through a
//      restarted host, with replies identical to the in-memory snapshot's.
//   4. Robustness: arbitrary and mutated bytes through SnapshotView::attach
//      and through the frame decoder/renderer never crash, random bytes are
//      always refused, and valid images with arbitrary values answer every
//      verb in both protocols (fixed seeds; re-run under ASan/UBSan in the
//      CI fuzz job).
//   5. Zero-allocation steady state: evaluated text reads, the first after
//      each publication included, and typed binary replies perform no heap
//      allocation once warm (global operator new hook, this binary only);
//      the typed-frame cache never replays a frame recorded for a replaced
//      session.
//   6. Replica mode: read-only semantics, re-mapping via `snapshot load`,
//      and the per-section `snapshot stat` report.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_network.hpp"
#include "netlist/stdcells.hpp"
#include "scenario/corner_set.hpp"
#include "service/proto2.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot_codec.hpp"
#include "service/snapshot_read.hpp"
#include "service/snapshot_source.hpp"
#include "service/snapshot_store.hpp"
#include "service/snapshot_view.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

// Allocation counting hook: every operator new in this process bumps the
// counter.  Defined here so only this test binary pays for it.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (sz + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "hbproto.XXXXXX").string();
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

CornerSet test_corners() {
  return parse_corner_spec_or_throw(
      "corner typical 1000\n"
      "corner slow 1250\nwire slow 1300\n"
      "corner fast 800\nwire fast 780\n");
}

/// Analyse one workload into a fully captured snapshot — hold pairs,
/// (optionally) a 3-corner capture and Algorithm 2 constraints — the way a
/// session publishes one.
std::shared_ptr<AnalysisSnapshot> captured_snapshot(Workload& w,
                                                    bool with_corners) {
  Hummingbird hum(w.design, w.clocks);
  const Algorithm1Result res = hum.analyze();
  return capture_snapshot(hum, res, 1, build_name_index(hum.graph()),
                          with_corners ? test_corners() : CornerSet{});
}

/// Every snapshot-served verb, ok and error paths both, against this
/// snapshot's real name tables.
std::vector<std::string> read_queries(const AnalysisSnapshot& snap,
                                      bool with_corners) {
  std::vector<std::string> qs = {
      "summary",        "worst_paths 5", "worst_paths 0", "worst_paths 1000",
      "histogram 1",    "histogram 4",   "histogram 64",  "check_hold",
      "check_hold 5ns", "check_hold -1ns", "gen_constraints",
      "slack no_such_node", "constraints no_such_inst", "corner list",
  };
  qs.push_back("slack " + snap.names->node_names.front());
  qs.push_back("slack " + snap.names->node_names.back());
  if (!snap.names->inst_pins.empty()) {
    qs.push_back("constraints " + snap.names->inst_pins.begin()->first);
  }
  if (with_corners) {
    qs.push_back("corner typical slack " + snap.names->node_names.front());
    qs.push_back("corner slow worst_paths 3");
    qs.push_back("corner 1 histogram 4");
    qs.push_back("corner fast summary");
    qs.push_back("corner slow check_hold");
    qs.push_back("corner 2 check_hold 5ns");
    qs.push_back("corner nope summary");
    qs.push_back("corner 9 summary");
  } else {
    qs.push_back("corner typical summary");
  }
  return qs;
}

std::string eval_text(const ParsedQuery& q, const SnapshotSource& src) {
  BudgetTimer timer{AnalysisBudget{}};
  return to_wire(evaluate_snapshot_read(q, src, timer));
}

/// Round-trip one parsed query through the typed binary protocol against
/// `src`: encode, decode, evaluate, render.  Returns false when the verb
/// has no typed opcode.
bool eval_proto2(const ParsedQuery& q, const SnapshotSource& src,
                 std::string& rendered) {
  std::string frame;
  if (!proto2_encode_request(q, frame)) return false;
  EXPECT_GE(frame.size(), 4u);
  const Proto2Request req =
      proto2_decode_request(std::string_view(frame).substr(4));
  EXPECT_TRUE(req.ok) << req.error;
  std::string reply;
  BudgetTimer timer{AnalysisBudget{}};
  proto2_evaluate(req, src, timer, reply);
  rendered.clear();
  EXPECT_TRUE(proto2_render_payload(std::string_view(reply).substr(4),
                                    rendered));
  return true;
}

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// -- View vs copy byte-identity ---------------------------------------------

TEST(ViewDiffTest, ViewMatchesCopyOnEveryGeneratorNetwork) {
  for (Workload& w : all_generator_networks()) {
    for (const bool corners : {false, true}) {
      SCOPED_TRACE(w.name + (corners ? "+corners" : ""));
      const auto snap = captured_snapshot(w, corners);
      const std::string image = serialize_snapshot(*snap);
      const SnapshotView::MapResult mr = SnapshotView::attach(image);
      ASSERT_TRUE(mr.ok()) << mr.error;
      EXPECT_FALSE(mr.view->mapped());  // borrowed bytes, not a mapping
      EXPECT_EQ(mr.view->image_bytes(), image.size());
      const SnapshotCopySource copy(*snap);
      for (const std::string& line : read_queries(*snap, corners)) {
        SCOPED_TRACE(line);
        const ParsedQuery q = parse_query(line);
        ASSERT_TRUE(q.ok) << to_wire(q.error);
        EXPECT_EQ(eval_text(q, *mr.view), eval_text(q, copy));
      }
    }
  }
}

TEST(ViewDiffTest, ViewHonoursReadDeadlines) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, false);
  const std::string image = serialize_snapshot(*snap);
  const SnapshotView::MapResult mr = SnapshotView::attach(image);
  ASSERT_TRUE(mr.ok()) << mr.error;
  const ParsedQuery q = parse_query("worst_paths 1000");
  ASSERT_TRUE(q.ok);
  AnalysisBudget spent;
  spent.wall_seconds = 1e-12;  // exhausted before the first line
  BudgetTimer timer{spent};
  while (!timer.exhausted()) timer.count_cycle();
  const QueryResult r = evaluate_snapshot_read(q, *mr.view, timer);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(to_wire(r).find("read deadline exceeded"), std::string::npos);
}

// -- Protocol identity ------------------------------------------------------

TEST(Proto2DiffTest, TypedRepliesRenderIdenticalToProto1) {
  for (Workload& w : all_generator_networks()) {
    for (const bool corners : {false, true}) {
      SCOPED_TRACE(w.name + (corners ? "+corners" : ""));
      const auto snap = captured_snapshot(w, corners);
      const std::string image = serialize_snapshot(*snap);
      const SnapshotView::MapResult mr = SnapshotView::attach(image);
      ASSERT_TRUE(mr.ok()) << mr.error;
      const SnapshotCopySource copy(*snap);
      std::size_t typed = 0;
      for (const std::string& line : read_queries(*snap, corners)) {
        SCOPED_TRACE(line);
        const ParsedQuery q = parse_query(line);
        ASSERT_TRUE(q.ok);
        std::string rendered;
        if (!eval_proto2(q, copy, rendered)) continue;
        ++typed;
        EXPECT_EQ(rendered, eval_text(q, copy));
        // And the view-backed typed reply matches the copy-backed one.
        std::string view_rendered;
        ASSERT_TRUE(eval_proto2(q, *mr.view, view_rendered));
        EXPECT_EQ(view_rendered, rendered);
      }
      EXPECT_GT(typed, 10u) << "typed coverage collapsed";
    }
  }
}

TEST(Proto2DiffTest, HistogramSafeOnExtremeSlacks) {
  // Capture slacks come from the image unchecked: a crafted image with
  // recomputed checksums may carry any i64 span.  Bins must stay in range
  // and both protocols must agree, in the base scope and in a corner.
  Workload w = std::move(all_generator_networks()[0]);
  const auto captured = captured_snapshot(w, true);
  constexpr TimePs kMin = std::numeric_limits<TimePs>::min();
  constexpr TimePs kMax = std::numeric_limits<TimePs>::max();
  const std::vector<std::vector<TimePs>> extremes = {
      {-(TimePs{1} << 62), TimePs{1} << 62}, {kMin, kMax}};
  for (const std::vector<TimePs>& slacks : extremes) {
    AnalysisSnapshot snap = *captured;
    snap.capture_slacks = slacks;
    snap.corners[0].capture_slacks = slacks;
    const std::string image = serialize_snapshot(snap);
    const SnapshotView::MapResult mr = SnapshotView::attach(image);
    ASSERT_TRUE(mr.ok()) << mr.error;
    const SnapshotCopySource copy(snap);
    for (const char* line : {"histogram 1", "histogram 2", "histogram 1000",
                             "corner 0 histogram 2"}) {
      SCOPED_TRACE(line);
      const ParsedQuery q = parse_query(line);
      ASSERT_TRUE(q.ok);
      for (const SnapshotSource* src :
           {static_cast<const SnapshotSource*>(&copy),
            static_cast<const SnapshotSource*>(mr.view.get())}) {
        const std::string text = eval_text(q, *src);
        // Well formed: the header, then one line per bin, whose counts
        // add up to the two slacks.
        std::istringstream is(text);
        std::string header;
        std::getline(is, header);
        EXPECT_EQ(header.rfind("ok ", 0), 0u) << header;
        EXPECT_NE(header.find("histogram " + std::to_string(q.number) +
                              " count 2 "),
                  std::string::npos)
            << header;
        std::int64_t bins = 0;
        std::uint64_t counted = 0;
        for (std::string l; std::getline(is, l); ++bins) {
          EXPECT_EQ(l.rfind("  bin " + std::to_string(bins) + " lo ", 0), 0u)
              << l;
          counted += std::stoull(l.substr(l.rfind(' ') + 1));
        }
        EXPECT_EQ(bins, q.number);
        EXPECT_EQ(counted, 2u);
        std::string rendered;
        ASSERT_TRUE(eval_proto2(q, *src, rendered));
        EXPECT_EQ(rendered, text);
      }
    }
  }
}

TEST(Proto2DiffTest, DecodeRangeErrorsMatchTextParser) {
  // A typed frame carrying an out-of-range value must produce the same
  // structured error the text parser emits for the same token.
  const struct {
    Proto2Op op;
    std::uint32_t value;
    const char* text;
  } cases[] = {
      {Proto2Op::kHistogram, 0, "histogram 0"},
      {Proto2Op::kHistogram, 1001, "histogram 1001"},
      {Proto2Op::kWorstPaths, 100001, "worst_paths 100001"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    std::string payload;
    put_u8(payload, static_cast<std::uint8_t>(c.op));
    put_u32(payload, c.value);
    const Proto2Request req = proto2_decode_request(payload);
    ASSERT_FALSE(req.ok);
    std::string frame;
    proto2_error_frame(req.code, req.error, frame);
    std::string rendered;
    ASSERT_TRUE(
        proto2_render_payload(std::string_view(frame).substr(4), rendered));
    const ParsedQuery q = parse_query(c.text);
    ASSERT_FALSE(q.ok);
    EXPECT_EQ(rendered, to_wire(q.error));
  }
}

TEST(Proto2DiffTest, PingAndTextFramesRoundTrip) {
  std::string frame;
  proto2_ping_frame(frame);
  std::string rendered;
  ASSERT_TRUE(
      proto2_render_payload(std::string_view(frame).substr(4), rendered));
  EXPECT_EQ(rendered, "ok pong\n");

  frame.clear();
  proto2_text_frame("ok bye\n", frame);
  rendered.clear();
  ASSERT_TRUE(
      proto2_render_payload(std::string_view(frame).substr(4), rendered));
  EXPECT_EQ(rendered, "ok bye\n");
}

// -- Version 1 ---------------------------------------------------------------

/// Craft a version-1 image: the seven pre-corner sections of a cornerless
/// snapshot's image under a version-1 header.
std::string make_v1_image(const AnalysisSnapshot& snap) {
  std::vector<SnapshotSectionInfo> sections;
  const std::string v2_image = serialize_snapshot(snap, &sections);
  EXPECT_EQ(sections.size(), kNumSnapshotSections);
  std::string v1 = v2_image.substr(0, 4);  // magic
  put_u32(v1, 1);                          // version
  put_u32(v1, kNumSnapshotSections - 1);   // section count, corners dropped
  for (const SnapshotSectionInfo& s : sections) {
    if (s.kind == static_cast<std::uint32_t>(SnapshotSection::kCorners)) {
      continue;
    }
    v1.append(v2_image, s.header_offset,
              (s.payload_offset - s.header_offset) + s.payload_size);
  }
  return v1;
}

/// A store directory holding only `snap`'s version-1 image, generation 1.
void write_v1_store(const std::string& dir, const AnalysisSnapshot& snap) {
  const std::string v1 = make_v1_image(snap);
  std::ofstream f(dir + "/" + snap.design_name + ".1.hbss", std::ios::binary);
  f.write(v1.data(), static_cast<std::streamsize>(v1.size()));
}

TEST(ViewDiffTest, StoreServesVersion1ImageThroughTheView) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, false);

  // The view reads the version-1 image itself, with no corners.
  const std::string v1 = make_v1_image(*snap);
  const SnapshotView::MapResult mr = SnapshotView::attach(v1);
  ASSERT_TRUE(mr.ok()) << mr.error;
  EXPECT_EQ(mr.version, 1u);
  EXPECT_EQ(mr.view->sections().size(), kNumSnapshotSections - 1);
  EXPECT_FALSE(mr.view->has_corners());
  EXPECT_EQ(mr.view->num_corners(), 0u);

  // A store holding only the version-1 file maps it, quarantines nothing,
  // and answers like the in-memory snapshot.
  TempDir dir;
  write_v1_store(dir.path, *snap);
  SnapshotStore store({dir.path, 4});
  SnapshotStore::SourceResult res = store.load_newest_source();
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.view->mapped());
  EXPECT_EQ(res.rejected, 0u);
  const SnapshotCopySource copy(*snap);
  for (const std::string& line : read_queries(*snap, false)) {
    SCOPED_TRACE(line);
    const ParsedQuery q = parse_query(line);
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(eval_text(q, *res.view), eval_text(q, copy));
  }
}

TEST(ViewDiffTest, HostRestartedOverVersion1StoreServesItMapped) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, false);
  TempDir dir;
  write_v1_store(dir.path, *snap);

  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  ServiceHost host(cfg);
  ASSERT_NE(host.warm_source(), nullptr);
  EXPECT_TRUE(host.warm_mapped());
  ProtocolHandler h(host);
  const std::string stat = h.handle_line("snapshot stat");
  EXPECT_NE(stat.find("store warm_mode mapped"), std::string::npos) << stat;
  EXPECT_NE(stat.find("store snapshots_rejected 0"), std::string::npos);
  const SnapshotCopySource copy(*snap);
  for (const std::string& line : read_queries(*snap, false)) {
    SCOPED_TRACE(line);
    const ParsedQuery q = parse_query(line);
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(h.handle_line(line), eval_text(q, copy));
  }
}

TEST(ViewDiffTest, StorePrefersMappedViewOnCurrentFormat) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, true);
  TempDir dir;
  SnapshotStore store({dir.path, 4});
  ASSERT_TRUE(store.save(*snap).ok);
  SnapshotStore::SourceResult res = store.load_newest_source();
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.view->mapped());
  EXPECT_EQ(res.view->sections().size(), kNumSnapshotSections);
  EXPECT_GT(res.view->image_bytes(), 0u);
  const SnapshotCopySource copy(*snap);
  for (const std::string& line : read_queries(*snap, true)) {
    SCOPED_TRACE(line);
    const ParsedQuery q = parse_query(line);
    ASSERT_TRUE(q.ok);
    EXPECT_EQ(eval_text(q, *res.view), eval_text(q, copy));
  }
}

// -- Fuzz -------------------------------------------------------------------

TEST(ViewFuzzTest, AttachSafeOnArbitraryBytes) {
  std::uint64_t rng = 0xABCDEF12;
  for (int round = 0; round < 300; ++round) {
    std::string blob(splitmix(rng) % 2048, '\0');
    for (char& c : blob) c = static_cast<char>(splitmix(rng));
    // Half the rounds get a valid magic/version prefix so the fuzz reaches
    // the section scanner, not just the header check.
    if (round % 2 == 0 && blob.size() >= 12) {
      std::string head;
      put_u32(head, kSnapshotMagic);
      put_u32(head, kSnapshotFormatVersion);
      std::memcpy(blob.data(), head.data(), head.size());
    }
    const SnapshotView::MapResult mr = SnapshotView::attach(blob);
    EXPECT_FALSE(mr.ok());  // random bytes never checksum-validate
    EXPECT_FALSE(mr.error.empty());
  }
}

TEST(ViewFuzzTest, AttachSafeOnMutatedValidImages) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, true);
  const std::string image = serialize_snapshot(*snap);
  std::vector<ParsedQuery> queries;
  for (const std::string& line : read_queries(*snap, true)) {
    queries.push_back(parse_query(line));
  }
  std::uint64_t rng = 0x5EED0001;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = image;
    const int kind = static_cast<int>(splitmix(rng) % 3);
    if (kind == 0) {
      mutated.resize(splitmix(rng) % (image.size() + 1));  // truncate
    } else {
      const int flips = 1 + static_cast<int>(splitmix(rng) % 8);
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = splitmix(rng) % mutated.size();
        mutated[at] = static_cast<char>(mutated[at] ^
                                        (1u << (splitmix(rng) % 8)));
      }
    }
    const SnapshotView::MapResult mr = SnapshotView::attach(mutated);
    if (!mr.ok()) continue;
    // Checksums make surviving mutations astronomically unlikely, but any
    // accepted view must answer every read safely, in both protocols.
    for (const ParsedQuery& q : queries) {
      std::string rendered;
      if (eval_proto2(q, *mr.view, rendered)) {
        EXPECT_EQ(rendered, eval_text(q, *mr.view));
      }
    }
  }
}

TEST(ViewFuzzTest, EveryVerbSafeOnArbitraryValues) {
  // Valid images (serialised, so every checksum holds) whose values are
  // arbitrary i64s: node timings, capture slacks, corner slacks and hold
  // margins.  Every read verb must answer in both protocols, over the view
  // and over the copy, with the typed reply rendering to the text reply.
  Workload w = std::move(all_generator_networks()[0]);
  const auto captured = captured_snapshot(w, true);
  std::uint64_t rng = 0xA5B1C2D3;
  const auto any = [&rng] { return static_cast<TimePs>(splitmix(rng)); };
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    AnalysisSnapshot snap = *captured;
    for (NodeTiming& t : snap.nodes) {
      t.slack = any();
      t.ready = {any(), any()};
      t.required = {any(), any()};
    }
    for (TimePs& s : snap.capture_slacks) s = any();
    for (SnapshotHoldPair& p : snap.hold_pairs) p.margin = any();
    for (SnapshotCorner& c : snap.corners) {
      for (TimePs& s : c.node_slacks) s = any();
      for (TimePs& s : c.capture_slacks) s = any();
      for (SnapshotHoldPair& p : c.hold_pairs) p.margin = any();
    }
    const std::string image = serialize_snapshot(snap);
    const SnapshotView::MapResult mr = SnapshotView::attach(image);
    ASSERT_TRUE(mr.ok()) << mr.error;
    const SnapshotCopySource copy(snap);
    std::size_t typed = 0;
    for (const std::string& line : read_queries(snap, true)) {
      SCOPED_TRACE(line);
      const ParsedQuery q = parse_query(line);
      ASSERT_TRUE(q.ok);
      const std::string text = eval_text(q, copy);
      EXPECT_EQ(eval_text(q, *mr.view), text);
      std::string rendered;
      if (!eval_proto2(q, copy, rendered)) continue;
      ++typed;
      EXPECT_EQ(rendered, text);
      ASSERT_TRUE(eval_proto2(q, *mr.view, rendered));
      EXPECT_EQ(rendered, text);
    }
    EXPECT_GT(typed, 10u);
  }
}

TEST(Proto2FuzzTest, DecoderSafeOnArbitraryFrames) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, true);
  const SnapshotCopySource copy(*snap);
  std::uint64_t rng = 0xF00DF00D;
  for (int round = 0; round < 2000; ++round) {
    std::string payload(splitmix(rng) % 96, '\0');
    for (char& c : payload) c = static_cast<char>(splitmix(rng));
    const Proto2Request req = proto2_decode_request(payload);
    if (!req.ok) {
      EXPECT_FALSE(req.error.empty());
      continue;
    }
    // Whatever decoded must evaluate into a frame the renderer accepts.
    std::string reply;
    BudgetTimer timer{AnalysisBudget{}};
    proto2_evaluate(req, copy, timer, reply);
    ASSERT_GE(reply.size(), 4u);
    std::string rendered;
    EXPECT_TRUE(proto2_render_payload(std::string_view(reply).substr(4),
                                      rendered));
  }
}

TEST(Proto2FuzzTest, DecoderSafeOnMutatedTypedFrames) {
  Workload w = std::move(all_generator_networks()[0]);
  const auto snap = captured_snapshot(w, true);
  const SnapshotCopySource copy(*snap);
  std::vector<std::string> seeds;
  for (const std::string& line : read_queries(*snap, true)) {
    const ParsedQuery q = parse_query(line);
    if (!q.ok) continue;
    std::string frame;
    if (proto2_encode_request(q, frame)) {
      seeds.push_back(std::string(std::string_view(frame).substr(4)));
    }
  }
  ASSERT_FALSE(seeds.empty());
  std::uint64_t rng = 0xC0FFEE11;
  for (int round = 0; round < 2000; ++round) {
    std::string payload = seeds[splitmix(rng) % seeds.size()];
    const int flips = 1 + static_cast<int>(splitmix(rng) % 4);
    for (int f = 0; f < flips && !payload.empty(); ++f) {
      const std::size_t at = splitmix(rng) % payload.size();
      payload[at] =
          static_cast<char>(payload[at] ^ (1u << (splitmix(rng) % 8)));
    }
    if (splitmix(rng) % 4 == 0) {
      payload.resize(splitmix(rng) % (payload.size() + 1));
    }
    const Proto2Request req = proto2_decode_request(payload);
    if (!req.ok) continue;
    std::string reply;
    BudgetTimer timer{AnalysisBudget{}};
    proto2_evaluate(req, copy, timer, reply);
    ASSERT_GE(reply.size(), 4u);
    std::string rendered;
    EXPECT_TRUE(proto2_render_payload(std::string_view(reply).substr(4),
                                      rendered));
  }
}

TEST(Proto2FuzzTest, RendererSafeOnArbitraryPayloads) {
  std::uint64_t rng = 0xDEAD10CC;
  for (int round = 0; round < 2000; ++round) {
    std::string payload(splitmix(rng) % 256, '\0');
    for (char& c : payload) c = static_cast<char>(splitmix(rng));
    std::string rendered;
    proto2_render_payload(payload, rendered);  // must not crash
  }
}

// -- Connection-level behaviour ---------------------------------------------

std::shared_ptr<Session> make_session(SessionOptions opt = {},
                                      std::uint64_t seed = 7) {
  RandomNetworkSpec spec;
  spec.seed = seed;
  spec.num_clocks = 2;
  spec.banks = 4;
  spec.bank_width = 4;
  spec.gates_per_stage = 40;
  RandomNetwork net = make_random_network(make_standard_library(), spec);
  return std::make_shared<Session>(std::move(net.design),
                                   std::move(net.clocks), HummingbirdOptions{},
                                   std::move(opt));
}

TEST(Proto2Test, NegotiationSwitchesTheStreamToBinaryFrames) {
  ServiceHost host;
  host.adopt(make_session());
  ProtocolHandler text(host);  // reference replies, line protocol
  const std::vector<std::string> lines = {"summary", "worst_paths 3",
                                          "histogram 4", "ping",
                                          "slack no_such_node", "stats"};

  std::string input = "# comment\nproto 2\n";
  for (const std::string& line : lines) {
    const ParsedQuery q = parse_query(line);
    ASSERT_TRUE(q.ok);
    if (!proto2_encode_request(q, input)) proto2_encode_text(line, input);
  }
  proto2_encode_text("quit", input);

  std::istringstream in(input);
  std::ostringstream out;
  const int errors = serve_stream(host, in, out);
  EXPECT_EQ(errors, 1);  // the unknown-node slack reply

  const std::string wire = out.str();
  ASSERT_EQ(wire.rfind("ok proto 2\n", 0), 0u) << wire.substr(0, 32);
  std::string_view frames(wire);
  frames.remove_prefix(std::strlen("ok proto 2\n"));
  std::vector<std::string> rendered;
  while (!frames.empty()) {
    ASSERT_GE(frames.size(), 4u);
    const std::uint32_t len = codec_read_le32(
        reinterpret_cast<const unsigned char*>(frames.data()));
    ASSERT_GE(frames.size(), 4u + len);
    std::string text_reply;
    ASSERT_TRUE(proto2_render_payload(frames.substr(4, len), text_reply));
    rendered.push_back(std::move(text_reply));
    frames.remove_prefix(4u + len);
  }
  ASSERT_EQ(rendered.size(), lines.size() + 1);  // + quit
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    if (lines[i] == "stats") {
      // Metrics move between the two connections; shape only.
      EXPECT_EQ(rendered[i].rfind("ok stats ", 0), 0u);
      continue;
    }
    EXPECT_EQ(rendered[i], text.handle_line(lines[i]));
  }
  EXPECT_EQ(rendered.back(), "ok bye\n");
}

TEST(Proto2Test, RejectsUnsupportedVersions) {
  ServiceHost host;
  host.adopt(make_session());
  ProtocolHandler h(host);
  const std::string r1 = h.handle_line("proto 3");
  EXPECT_EQ(r1.rfind("err service-rejected", 0), 0u) << r1;
  EXPECT_NE(r1.find("'3'"), std::string::npos);
  EXPECT_FALSE(h.binary());
  EXPECT_EQ(h.handle_line("proto 1").rfind("err service-rejected", 0), 0u);
  EXPECT_FALSE(h.binary());
  EXPECT_EQ(h.handle_line("proto 2"), "ok proto 2\n");
  EXPECT_TRUE(h.binary());
}

TEST(Proto2Test, OversizedFrameAnsweredWithStructuredError) {
  ServiceHost host;
  host.adopt(make_session());
  std::string input = "proto 2\n";
  put_u32(input, kProto2MaxFrame + 1);  // header only; loop must not wait
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_GE(serve_stream(host, in, out), 1);
  const std::string wire = out.str();
  std::string_view frames(wire);
  frames.remove_prefix(std::strlen("ok proto 2\n"));
  ASSERT_GE(frames.size(), 4u);
  std::string rendered;
  ASSERT_TRUE(proto2_render_payload(frames.substr(4), rendered));
  EXPECT_EQ(rendered.rfind("err service-rejected", 0), 0u) << rendered;
  EXPECT_NE(rendered.find("exceeds"), std::string::npos);
}

TEST(Proto2Test, HandleFrameRejectsMalformedPayloads) {
  ServiceHost host;
  host.adopt(make_session());
  ProtocolHandler h(host);
  const std::string& reply = h.handle_frame(std::string_view());
  ASSERT_GE(reply.size(), 4u);
  std::string rendered;
  ASSERT_TRUE(proto2_render_payload(std::string_view(reply).substr(4),
                                    rendered));
  EXPECT_EQ(rendered.rfind("err parse-syntax", 0), 0u) << rendered;
  EXPECT_EQ(h.frame_errors(), 1u);
  // Unknown opcode.
  std::string bad;
  put_u8(bad, 0x7E);
  std::string rendered2;
  ASSERT_TRUE(proto2_render_payload(
      std::string_view(h.handle_frame(bad)).substr(4), rendered2));
  EXPECT_EQ(rendered2.rfind("err parse-unknown-keyword", 0), 0u) << rendered2;
  EXPECT_EQ(h.frame_errors(), 2u);
}

TEST(Proto2Test, ZeroAllocSteadyStateOnTextAndTypedReads) {
  ServiceHost host;
  SessionOptions opt;
  opt.corners = test_corners();
  host.adopt(make_session(opt));
  const std::shared_ptr<Session> session = host.session();
  // Short names stay within SSO so the copy-source lookups stay heap-free.
  const std::string node = session->snapshot()->names->node_names.front();
  ASSERT_LE(node.size(), 15u) << "pick a shorter node for the SSO guarantee";
  const Design& design = session->design();
  std::string inst;  // the first combinational instance
  for (const Instance& i : design.top().insts()) {
    if (i.is_cell() && !design.lib().cell(i.cell).is_sequential()) {
      inst = i.name;
      break;
    }
  }
  ASSERT_FALSE(inst.empty());
  ProtocolHandler h(host);
  const std::vector<std::string> lines = {"summary",
                                          "worst_paths 3",
                                          "histogram 4",
                                          "slack " + node,
                                          "corner slow summary",
                                          "corner 1 worst_paths 2",
                                          "corner typical slack " + node};
  // Text path: every read is evaluated against the published snapshot
  // straight into the connection's reply buffer.  Rounds are separated by
  // absorbed edits and commits, so the first reads of each snapshot count
  // too; only the reads are counted.
  for (int warm = 0; warm < 3; ++warm) {
    for (const std::string& line : lines) h.handle_line(line);
  }
  std::uint64_t text_allocs = 0;
  for (int round = 0; round < 8; ++round) {
    ASSERT_NE(h.handle_line("set_delay " + inst + " 5ps").find(" absorbed "),
              std::string::npos);
    ASSERT_EQ(h.handle_line("commit").rfind("ok commit snapshot ", 0), 0u);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 8; ++rep) {
      for (const std::string& line : lines) h.handle_line(line);
    }
    text_allocs += g_allocs.load(std::memory_order_relaxed) - before;
  }
  EXPECT_EQ(text_allocs, 0u) << "evaluated text reads must not allocate";

  // Typed binary path: pre-encoded frames, replies written into the
  // connection arena.
  std::vector<std::string> payloads;
  for (const std::string& line : lines) {
    const ParsedQuery q = parse_query(line);
    ASSERT_TRUE(q.ok);
    std::string frame;
    ASSERT_TRUE(proto2_encode_request(q, frame));
    payloads.push_back(std::string(std::string_view(frame).substr(4)));
  }
  ASSERT_EQ(h.handle_line("proto 2"), "ok proto 2\n");
  for (int warm = 0; warm < 3; ++warm) {
    for (const std::string& p : payloads) h.handle_frame(p);
  }
  const std::uint64_t bin_before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 64; ++round) {
    for (const std::string& p : payloads) h.handle_frame(p);
  }
  const std::uint64_t bin_allocs =
      g_allocs.load(std::memory_order_relaxed) - bin_before;
  EXPECT_EQ(bin_allocs, 0u) << "typed binary replies must not allocate";
}

TEST(Proto2Test, TypedCacheNeverReplaysAReplacedSessionsFrame) {
  // Every session numbers its snapshots from 1, and a destroyed session's
  // snapshot address can be reused by the next one: the connection's typed
  // cache must never answer for design C with design A's frame.  The same
  // holds for warm sources: a view remapped by `snapshot load` after one
  // that was dropped unserved often lands at the dropped view's address
  // with the same snapshot id.
  SessionOptions opt;
  opt.pool_threads = 1;
  std::string frame;
  ASSERT_TRUE(proto2_encode_request(parse_query("summary"), frame));
  const std::string_view payload = std::string_view(frame).substr(4);
  std::string remap;
  proto2_encode_text("snapshot load", remap);
  const auto fresh_reply = [payload](ServiceHost& host) {
    ProtocolHandler fresh(host);
    EXPECT_EQ(fresh.handle_line("proto 2"), "ok proto 2\n");
    return fresh.handle_frame(payload);
  };
  {
    ServiceHost host;
    ProtocolHandler h(host);
    ASSERT_EQ(h.handle_line("proto 2"), "ok proto 2\n");
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(round);
      host.adopt(make_session(opt, 11));
      h.handle_frame(payload);
      host.adopt(make_session(opt, 12));
      host.adopt(make_session(opt, 13));
      EXPECT_EQ(h.handle_frame(payload), fresh_reply(host));
    }
  }
  TempDir dir;
  SnapshotStore store({dir.path, 4});
  const std::shared_ptr<Session> designs[] = {
      make_session(opt, 11), make_session(opt, 12), make_session(opt, 13)};
  ASSERT_TRUE(store.save(*designs[0]->snapshot()).ok);
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  cfg.replica = true;
  ServiceHost replica(cfg);
  ProtocolHandler h(replica);
  ASSERT_EQ(h.handle_line("proto 2"), "ok proto 2\n");
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    for (int d = 0; d < 3; ++d) {
      ASSERT_TRUE(store.save(*designs[d]->snapshot()).ok);
      h.handle_frame(std::string_view(remap).substr(4));
      if (d == 1) continue;  // B is mapped and dropped, never served
      EXPECT_EQ(h.handle_frame(payload), fresh_reply(replica));
    }
  }
}

// -- Replica mode -----------------------------------------------------------

TEST(Proto2Test, ReplicaRequiresSnapshotDir) {
  ServiceConfig cfg;
  cfg.replica = true;
  EXPECT_THROW(ServiceHost{cfg}, Error);
}

TEST(Proto2Test, ReplicaHostServesTheMappedViewReadOnly) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  std::vector<std::string> queries = {"summary", "worst_paths 3",
                                      "histogram 4", "check_hold",
                                      "gen_constraints"};
  std::vector<std::string> before;
  {
    ServiceHost writer(cfg);
    auto session = make_session();
    queries.push_back("slack " +
                      session->snapshot()->names->node_names.front());
    writer.adopt(std::move(session));  // persists snapshot 1
    ProtocolHandler h(writer);
    for (const std::string& q : queries) before.push_back(h.handle_line(q));
  }

  ServiceConfig rcfg;
  rcfg.snapshot_dir = dir.path;
  rcfg.replica = true;
  ServiceHost replica(rcfg);
  ASSERT_NE(replica.warm_source(), nullptr);
  EXPECT_TRUE(replica.warm_mapped());
  ProtocolHandler h(replica);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    EXPECT_EQ(h.handle_line(queries[i]), before[i]);
  }
  // Writes and loads answer structured rejections.
  const std::string write = h.handle_line("set_delay x 10ps");
  EXPECT_EQ(write.rfind("err service-rejected", 0), 0u) << write;
  EXPECT_NE(write.find("read-only"), std::string::npos);
  const std::string load = h.handle_line("load a.net a.spec");
  EXPECT_EQ(load.rfind("err service-rejected", 0), 0u) << load;
  EXPECT_NE(load.find("replica"), std::string::npos);
  // `snapshot load` re-maps in place.
  const std::string remap = h.handle_line("snapshot load");
  EXPECT_EQ(remap.rfind("ok snapshot load", 0), 0u) << remap;
  EXPECT_TRUE(replica.warm_mapped());
  // The binary protocol works against the replica too.
  ASSERT_EQ(h.handle_line("proto 2"), "ok proto 2\n");
  const ParsedQuery q = parse_query("summary");
  std::string frame;
  ASSERT_TRUE(proto2_encode_request(q, frame));
  std::string rendered;
  ASSERT_TRUE(proto2_render_payload(
      std::string_view(h.handle_frame(std::string_view(frame).substr(4)))
          .substr(4),
      rendered));
  EXPECT_EQ(rendered, before[0]);
}

TEST(Proto2Test, SnapshotStatReportsSectionsAndMode) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.snapshot_dir = dir.path;
  {
    ServiceHost writer(cfg);
    writer.adopt(make_session());
  }
  ServiceHost host(cfg);
  ASSERT_NE(host.warm_source(), nullptr);
  ProtocolHandler h(host);
  const std::string stat = h.handle_line("snapshot stat");
  EXPECT_NE(stat.find("store warm_mode mapped"), std::string::npos) << stat;
  EXPECT_NE(stat.find("store image_bytes "), std::string::npos);
  for (std::uint32_t k = 0; k < kNumSnapshotSections; ++k) {
    const std::string line =
        std::string("store section_") +
        snapshot_section_name(static_cast<SnapshotSection>(k)) + " ";
    EXPECT_NE(stat.find(line), std::string::npos) << "missing " << line;
  }
  // The header count matches the emitted line count.
  std::istringstream is(stat);
  std::string first;
  std::getline(is, first);
  std::size_t n = 0;
  for (std::string l; std::getline(is, l);) ++n;
  EXPECT_EQ(first, "ok snapshot stat " + std::to_string(n));
}

}  // namespace
}  // namespace hb
