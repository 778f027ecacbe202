// Snapshot-format drift detector (ci `snapshot-drift` job).
//
// Serialises a fully captured snapshot of every generator network and
// compares each section's checksum against tests/snapshots/checksums.golden.
// A mismatch means either the binary format changed (bump
// kSnapshotFormatVersion and regenerate) or the analysis results silently
// drifted (investigate — the timing contract broke).  A second table,
// tests/snapshots/corner_reports.golden, checksums every corner's full text
// report — derated path traces included, which the snapshot keeps only as
// endpoints and step counts.  Regenerate after intended changes with
// HB_UPDATE_GOLDENS=1.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/corner_analysis.hpp"
#include "service/snapshot_store.hpp"
#include "sta/hummingbird.hpp"
#include "test_util.hpp"
#include "util/xxhash.hpp"

#ifndef HB_SNAPSHOT_GOLDEN
#define HB_SNAPSHOT_GOLDEN "tests/snapshots/checksums.golden"
#endif
#ifndef HB_CORNER_REPORT_GOLDEN
#define HB_CORNER_REPORT_GOLDEN "tests/snapshots/corner_reports.golden"
#endif

namespace hb {
namespace {

// Deterministic three-corner set exercised by the golden so the `corners`
// section checksum guards per-corner slacks, paths and hold pairs too.
CornerSet golden_corners() {
  CornerSet cs;
  cs.add(Corner{"typical", kIdentityPm, kIdentityPm, {}});
  cs.add(Corner{"slow", 1250, 1300, {{"NAND2X1", 1400}}});
  cs.add(Corner{"fast", 800, 780, {}});
  return cs;
}

// Derates steep enough that most networks violate under them, so the
// corner-report golden pins long derated path traces.
CornerSet harsh_corners() {
  CornerSet cs;
  cs.add(Corner{"typical", kIdentityPm, kIdentityPm, {}});
  cs.add(Corner{"slow3x", 3000, 3000, {{"NAND2X1", 3500}}});
  cs.add(Corner{"slow16", 1600, 1500, {}});
  return cs;
}

std::string current_checksum_table() {
  std::ostringstream out;
  for (Workload& w : all_generator_networks()) {
    Hummingbird hum(w.design, w.clocks);
    const Algorithm1Result res = hum.analyze();
    const auto snap = capture_snapshot(hum, res, /*id=*/1,
                                       build_name_index(hum.graph()),
                                       golden_corners());
    std::vector<SnapshotSectionInfo> sections;
    serialize_snapshot(*snap, &sections);
    for (const SnapshotSectionInfo& s : sections) {
      char line[160];
      std::snprintf(line, sizeof line, "%s %s %016llx %zu\n", w.name.c_str(),
                    snapshot_section_name(static_cast<SnapshotSection>(s.kind)),
                    static_cast<unsigned long long>(s.checksum),
                    s.payload_size);
      out << line;
    }
  }
  return out.str();
}

/// One line per (network, corner set, corner): the XXH64 and byte size of
/// CornerAnalysis::report(k, 32).
std::string current_corner_report_table() {
  std::ostringstream out;
  for (Workload& w : all_generator_networks()) {
    Hummingbird hum(w.design, w.clocks);
    hum.analyze();
    const std::pair<const char*, CornerSet> sets[] = {
        {"golden", golden_corners()}, {"harsh", harsh_corners()}};
    for (const auto& [set_name, corners] : sets) {
      CornerAnalysis ca(hum.engine(), corners);
      ca.compute();
      for (std::size_t k = 0; k < ca.num_corners(); ++k) {
        const std::string report = ca.report(k, /*max_paths=*/32);
        char line[200];
        std::snprintf(line, sizeof line, "%s %s %s %016llx %zu\n",
                      w.name.c_str(), set_name, corners.corner(k).name.c_str(),
                      static_cast<unsigned long long>(
                          xxhash64(report.data(), report.size(), 0)),
                      report.size());
        out << line;
      }
    }
  }
  return out.str();
}

/// Compare `current` with the golden file at `path`, or rewrite the file
/// (and skip) under HB_UPDATE_GOLDENS.
void expect_matches_golden(const std::string& current, const std::string& path,
                           const char* what) {
  if (std::getenv("HB_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path
                  << "; run with HB_UPDATE_GOLDENS=1 to generate";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(current, golden)
      << what << " drifted; if the format or analysis changed "
      << "intentionally, run with HB_UPDATE_GOLDENS=1 to regenerate";
}

TEST(SnapshotGoldenTest, SectionChecksumsMatchGolden) {
  expect_matches_golden(current_checksum_table(), HB_SNAPSHOT_GOLDEN,
                        "snapshot section checksums");
}

TEST(SnapshotGoldenTest, CornerReportsMatchGolden) {
  expect_matches_golden(current_corner_report_table(), HB_CORNER_REPORT_GOLDEN,
                        "corner report checksums");
}

}  // namespace
}  // namespace hb
