#include <gtest/gtest.h>

#include "gen/des.hpp"
#include "netlist/builder.hpp"
#include "netlist/flatten.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stdcells.hpp"
#include "netlist/validate.hpp"

namespace hb {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  std::shared_ptr<const Library> lib_ = make_standard_library();

  /// PI -> INV -> DFF -> PO with a clock port.
  Design make_tiny() {
    TopBuilder b("tiny", lib_);
    const NetId clk = b.port_in("clk", true);
    const NetId d = b.port_in("d");
    const NetId inv = b.gate("INVX1", {d}, "u1");
    const NetId q = b.latch("DFFT", inv, clk, "ff");
    b.port_out_net("q", q);
    return b.finish();
  }
};

TEST_F(NetlistTest, BuilderProducesConnectedDesign) {
  const Design d = make_tiny();
  const Module& top = d.top();
  EXPECT_EQ(top.insts().size(), 2u);
  EXPECT_EQ(d.total_cell_count(), 2u);
  EXPECT_TRUE(top.find_inst("u1").valid());
  EXPECT_TRUE(top.find_inst("ff").valid());
  EXPECT_FALSE(top.find_inst("nope").valid());
  EXPECT_TRUE(validate(d).ok());
}

TEST_F(NetlistTest, DuplicateNamesRejected) {
  TopBuilder b("x", lib_);
  b.net("n1");
  Module& m = b.module();
  EXPECT_THROW(m.add_net("n1"), Error);
  m.add_cell_inst("i1", lib_->require("INVX1"), 2);
  EXPECT_THROW(m.add_cell_inst("i1", lib_->require("INVX1"), 2), Error);
  m.add_port("p", PortDirection::kInput);
  EXPECT_THROW(m.add_port("p", PortDirection::kOutput), Error);
}

TEST_F(NetlistTest, DoubleConnectRejected) {
  TopBuilder b("x", lib_);
  Module& m = b.module();
  const NetId n1 = b.net();
  const NetId n2 = b.net();
  const InstId i = m.add_cell_inst("i", lib_->require("INVX1"), 2);
  m.connect(i, 0, n1);
  EXPECT_THROW(m.connect(i, 0, n2), Error);
}

TEST_F(NetlistTest, RoundTripThroughText) {
  const Design d = make_tiny();
  const std::string text = netlist_to_string(d);
  const Design d2 = netlist_from_string(text, lib_);
  EXPECT_EQ(netlist_to_string(d2), text);
  EXPECT_EQ(d2.name(), "tiny");
  EXPECT_EQ(d2.total_cell_count(), 2u);
  EXPECT_TRUE(validate(d2).ok());
}

TEST_F(NetlistTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(netlist_from_string("", lib_), Error);
  EXPECT_THROW(netlist_from_string("module m\n", lib_), Error);
  EXPECT_THROW(netlist_from_string("design d\nmodule m\n", lib_), Error);  // unterminated
  EXPECT_THROW(netlist_from_string("design d\ninst a INVX1\n", lib_), Error);
  EXPECT_THROW(netlist_from_string("design d\nmodule m\ninst a NOPE\nendmodule\n", lib_),
               Error);
  EXPECT_THROW(
      netlist_from_string("design d\nmodule m\nnet n\nconn n a.Y\nendmodule\n", lib_),
      Error);
  EXPECT_THROW(netlist_from_string("design d\nmodule m\nendmodule\ntop other\n", lib_),
               Error);
}

TEST_F(NetlistTest, ParserAcceptsCommentsAndBlanks) {
  const Design d = netlist_from_string(
      "# header comment\n"
      "design d\n"
      "\n"
      "module m\n"
      "  port clk input clock   # the clock\n"
      "  net n\n"
      "endmodule\n"
      "top m\n",
      lib_);
  EXPECT_EQ(d.top().ports().size(), 1u);
  EXPECT_TRUE(d.top().port(0).is_clock);
}

TEST_F(NetlistTest, HierarchicalRoundTripAndFlatten) {
  TopBuilder b("hier", lib_);
  // Submodule: two-inverter buffer chain.
  const ModuleId sub_id = b.design().add_module("buf2");
  {
    Module& sub = b.design().module_mut(sub_id);
    const NetId a = sub.add_net("a");
    const NetId mid = sub.add_net("mid");
    const NetId y = sub.add_net("y");
    sub.bind_port(sub.add_port("A", PortDirection::kInput), a);
    sub.bind_port(sub.add_port("Y", PortDirection::kOutput), y);
    const CellId inv = lib_->require("INVX1");
    const InstId i1 = sub.add_cell_inst("i1", inv, 2);
    const InstId i2 = sub.add_cell_inst("i2", inv, 2);
    sub.connect(i1, 0, a);
    sub.connect(i1, 1, mid);
    sub.connect(i2, 0, mid);
    sub.connect(i2, 1, y);
  }
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  const NetId mid = b.net("mid");
  b.submodule(sub_id, {d, mid}, "m0");
  const NetId q = b.latch("DFFT", mid, clk, "ff");
  b.port_out_net("q", q);
  const Design design = b.finish();

  EXPECT_EQ(design.total_cell_count(), 3u);
  EXPECT_TRUE(validate(design).ok());

  // Text round trip with hierarchy (children emitted before parents).
  const std::string text = netlist_to_string(design);
  const Design re = netlist_from_string(text, lib_);
  EXPECT_EQ(re.total_cell_count(), 3u);
  EXPECT_TRUE(validate(re).ok());

  // Flatten: one module, prefixed names, same cell count.
  const Design flat = flatten(design);
  EXPECT_EQ(flat.num_modules(), 1u);
  EXPECT_EQ(flat.total_cell_count(), 3u);
  EXPECT_TRUE(flat.top().find_inst("m0/i1").valid());
  EXPECT_TRUE(flat.top().find_inst("ff").valid());
  EXPECT_TRUE(validate(flat).ok());
}

TEST_F(NetlistTest, ValidateCatchesUnconnectedPort) {
  TopBuilder b("bad", lib_);
  Module& m = b.module();
  m.add_cell_inst("i", lib_->require("INVX1"), 2);
  const Design d = b.finish();
  const auto report = validate(d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("unconnected"), std::string::npos);
}

TEST_F(NetlistTest, ValidateCatchesMultipleDrivers) {
  TopBuilder b("bad", lib_);
  const NetId a = b.port_in("a");
  const NetId shared = b.net("sh");
  Module& m = b.module();
  const CellId inv = lib_->require("INVX1");
  const InstId i1 = m.add_cell_inst("i1", inv, 2);
  const InstId i2 = m.add_cell_inst("i2", inv, 2);
  m.connect(i1, 0, a);
  m.connect(i1, 1, shared);
  m.connect(i2, 0, a);
  m.connect(i2, 1, shared);
  const Design d = b.finish();
  const auto report = validate(d);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("drivers"), std::string::npos);
}

TEST_F(NetlistTest, ValidateAllowsTristateBus) {
  TopBuilder b("bus", lib_);
  const NetId clk = b.port_in("clk", true);
  const NetId a = b.port_in("a");
  const NetId bn = b.port_in("b");
  const NetId bus = b.net("bus");
  Module& m = b.module();
  const CellId tb = lib_->require("TRIBUF");
  const SyncSpec& sync = lib_->cell(tb).sync();
  for (int i = 0; i < 2; ++i) {
    const InstId inst = m.add_cell_inst("t" + std::to_string(i), tb, 3);
    m.connect(inst, sync.data_in, i == 0 ? a : bn);
    m.connect(inst, sync.control, clk);
    m.connect(inst, sync.data_out, bus);
  }
  b.port_out_net("y", bus);
  EXPECT_TRUE(validate(b.finish()).ok());
}

TEST_F(NetlistTest, ValidateCatchesCombinationalCycle) {
  TopBuilder b("cyc", lib_);
  const NetId a = b.port_in("a");
  Module& m = b.module();
  const CellId nand = lib_->require("NAND2X1");
  const NetId n1 = b.net("n1");
  const NetId n2 = b.net("n2");
  const InstId g1 = m.add_cell_inst("g1", nand, 3);
  const InstId g2 = m.add_cell_inst("g2", nand, 3);
  m.connect(g1, 0, a);
  m.connect(g1, 1, n2);
  m.connect(g1, 2, n1);
  m.connect(g2, 0, a);
  m.connect(g2, 1, n1);
  m.connect(g2, 2, n2);
  const auto report = validate(b.finish());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("cycle"), std::string::npos);
}

TEST_F(NetlistTest, ValidateCatchesNonMonotonicControl) {
  // Control = XOR(clk, clk) is not a monotonic function of the clock.
  TopBuilder b("badctl", lib_);
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  const NetId ctl = b.gate("XOR2X1", {clk, clk});
  const NetId q = b.latch("TLATCH", d, ctl, "lat");
  b.port_out_net("q", q);
  const auto report = validate(b.finish());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("monotonic"), std::string::npos);
}

TEST_F(NetlistTest, ValidateCatchesLatchWithoutClock) {
  TopBuilder b("noclk", lib_);
  const NetId d = b.port_in("d");
  const NetId en = b.port_in("en");  // plain data port, not a clock
  const NetId q = b.latch("TLATCH", d, en, "lat");
  b.port_out_net("q", q);
  const auto report = validate(b.finish());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("clock"), std::string::npos);
}

TEST_F(NetlistTest, ValidateReportsEveryElementOnASharedBadControlNet) {
  // Both latches hang off one non-monotonic control net: its cone is walked
  // once, and each latch still gets its own finding, in instance order.
  TopBuilder b("sharedctl", lib_);
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  const NetId ctl = b.gate("XOR2X1", {clk, clk});
  const NetId q1 = b.latch("TLATCH", d, ctl, "lat1");
  const NetId q2 = b.latch("TLATCH", q1, ctl, "lat2");
  b.port_out_net("q", q2);
  const auto report = validate(b.finish());
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].diag.message,
            "control input of 'lat1' is not a monotonic function of one clock "
            "signal");
  EXPECT_EQ(report.findings[1].diag.message,
            "control input of 'lat2' is not a monotonic function of one clock "
            "signal");
  for (const ValidationFinding& f : report.findings) {
    EXPECT_EQ(f.diag.code, DiagCode::kDesignControlCone);
    ASSERT_EQ(f.insts.size(), 1u);
  }
  EXPECT_NE(report.findings[0].insts[0], report.findings[1].insts[0]);
}

// Counted work, not time: every latch of the DES datapath sits on one clock
// net, so a walk per latch scanned that net once per latch (quadratic in the
// design).  Walking each control net once keeps the check linear.
TEST_F(NetlistTest, ValidateControlConeWorkIsLinearOnDes) {
  DesSpec spec;
  spec.rounds = 56;
  spec.half_width = 128;  // 51.6k cells
  const Design des = make_des(lib_, spec);
  ASSERT_GT(des.total_cell_count(), 50000u);
  std::size_t pins = 0;
  for (std::uint32_t n = 0; n < des.top().num_nets(); ++n) {
    pins += des.top().net(NetId(n)).pins.size();
  }
  const auto report = validate(des);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.control_cone_pins_visited, 0u);
  EXPECT_LE(report.control_cone_pins_visited, 4 * pins)
      << report.control_cone_pins_visited << " pins visited of " << pins;
}

TEST_F(NetlistTest, ValidateRejectsSequentialSubmodule) {
  TopBuilder b("seq_sub", lib_);
  const ModuleId sub_id = b.design().add_module("inner");
  {
    Module& sub = b.design().module_mut(sub_id);
    const NetId d = sub.add_net("d");
    const NetId ck = sub.add_net("ck");
    const NetId q = sub.add_net("q");
    sub.bind_port(sub.add_port("D", PortDirection::kInput), d);
    sub.bind_port(sub.add_port("CK", PortDirection::kInput), ck);
    sub.bind_port(sub.add_port("Q", PortDirection::kOutput), q);
    const CellId dff = lib_->require("DFFT");
    const SyncSpec& sync = lib_->cell(dff).sync();
    const InstId i = sub.add_cell_inst("ff", dff, 3);
    sub.connect(i, sync.data_in, d);
    sub.connect(i, sync.control, ck);
    sub.connect(i, sync.data_out, q);
  }
  const NetId clk = b.port_in("clk", true);
  const NetId d = b.port_in("d");
  const NetId q = b.net("q");
  b.submodule(sub_id, {d, clk, q}, "m0");
  b.port_out_net("out", q);
  const auto report = validate(b.finish());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("synchronising"), std::string::npos);
}

TEST_F(NetlistTest, SlowNetFlags) {
  Design d = make_tiny();
  EXPECT_EQ(d.num_slow_nets(), 0u);
  d.flag_slow_net(NetId(0));
  EXPECT_TRUE(d.is_slow_net(NetId(0)));
  EXPECT_FALSE(d.is_slow_net(NetId(1)));
  d.clear_slow_flags();
  EXPECT_EQ(d.num_slow_nets(), 0u);
}

}  // namespace
}  // namespace hb
