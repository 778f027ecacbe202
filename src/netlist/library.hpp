// Standard-cell library model.
//
// The paper separates component propagation-delay estimation from system
// timing analysis; the library carries the data the delay estimator needs
// (per-arc intrinsic delay and load slope, pin capacitances) together with
// the structural facts the analyser needs (which cells are synchronising
// elements, which port is the control input, setup times).
//
// Cells come in drive-strength families (e.g. NAND2X1/X2/X4) linked through
// a family name so the re-synthesis loop (Algorithm 3) can swap variants.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hb {

enum class PortDirection { kInput, kOutput };

/// Functional role of a cell port.  Synchronising elements (paper Section 3)
/// expose exactly a data input, a control input and a data output; extra
/// terminals (output-bar) are representable as further kData outputs.
enum class PortRole {
  kData,     // ordinary logic data
  kControl,  // synchronising element control (clock) input
};

/// Cell categories recognised by the analyser.  Tristate drivers are modelled
/// exactly like transparent latches (paper Section 5, last sentence).
enum class CellKind {
  kCombinational,
  kEdgeTriggeredLatch,
  kTransparentLatch,
  kTristateDriver,
};

/// Which control-pulse edge triggers an edge-triggered latch.  "Leading" and
/// "trailing" refer to the pulse of the *clock signal* controlling the
/// element (after monotonic control logic), as in the paper.
enum class TriggerEdge { kLeading, kTrailing };

/// Arc unateness: a positive-unate arc propagates rise->rise/fall->fall, a
/// negative-unate arc inverts, a non-unate arc (XOR, MUX select) can produce
/// either output transition from either input transition.
enum class Unate { kPositive, kNegative, kNone };

struct Port {
  std::string name;
  PortDirection direction = PortDirection::kInput;
  PortRole role = PortRole::kData;
  /// Input pin capacitance in femtofarads; 0 for outputs.
  double cap_ff = 0.0;
};

/// One input->output propagation arc with a linear delay model:
///   delay = intrinsic + slope * C_load   (separately for rise and fall,
/// where rise/fall refer to the *output* transition direction).
struct TimingArc {
  std::uint32_t from_port = 0;
  std::uint32_t to_port = 0;
  Unate unate = Unate::kPositive;
  TimePs intrinsic_rise = 0;
  TimePs intrinsic_fall = 0;
  /// Picoseconds per femtofarad of load on the output net.
  double slope_rise = 0.0;
  double slope_fall = 0.0;
};

/// Extra data for synchronising elements.
struct SyncSpec {
  /// Index of the data input / control input / data output ports.
  std::uint32_t data_in = 0;
  std::uint32_t control = 0;
  std::uint32_t data_out = 0;
  /// Required data set-up time before input closure (D_setup >= 0).
  TimePs setup = 0;
  /// For edge-triggered elements: the triggering control-pulse edge.
  TriggerEdge trigger = TriggerEdge::kTrailing;
  /// For transparent latches / tristate drivers: true if data flows while
  /// the control signal is high (the usual case); the leading edge of the
  /// *enabling* pulse asserts the output, the trailing edge closes the input.
  bool active_high = true;
};

class Cell {
 public:
  Cell(std::string name, CellKind kind) : name_(std::move(name)), kind_(kind) {}

  const std::string& name() const { return name_; }
  CellKind kind() const { return kind_; }
  bool is_sequential() const { return kind_ != CellKind::kCombinational; }

  std::uint32_t add_port(Port p);
  const std::vector<Port>& ports() const { return ports_; }
  const Port& port(std::uint32_t i) const { return ports_.at(i); }
  /// Port index by name; throws hb::Error if absent.
  std::uint32_t port_index(const std::string& name) const;
  std::optional<std::uint32_t> find_port(const std::string& name) const;

  void add_arc(TimingArc arc);
  const std::vector<TimingArc>& arcs() const { return arcs_; }

  void set_sync(SyncSpec s) { sync_ = s; }
  const SyncSpec& sync() const;
  bool has_sync() const { return sync_.has_value(); }

  /// Drive family support: cells with the same family string are functional
  /// equivalents ordered by drive index (higher = stronger/faster drive).
  void set_family(std::string family, int drive) {
    family_ = std::move(family);
    drive_ = drive;
  }
  const std::string& family() const { return family_; }
  int drive() const { return drive_; }

  /// Estimated layout area in square micrometres (used by Algorithm 3's
  /// area/speed trade-off reporting).
  void set_area(double a) { area_um2_ = a; }
  double area_um2() const { return area_um2_; }

 private:
  std::string name_;
  CellKind kind_;
  std::vector<Port> ports_;
  std::vector<TimingArc> arcs_;
  std::optional<SyncSpec> sync_;
  std::string family_;
  int drive_ = 1;
  double area_um2_ = 1.0;
};

class Library {
 public:
  explicit Library(std::string name = "default") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  CellId add_cell(Cell cell);
  const Cell& cell(CellId id) const { return cells_.at(id.index()); }
  std::size_t num_cells() const { return cells_.size(); }

  /// Lookup by name; invalid id if absent.
  CellId find(const std::string& name) const;
  /// Lookup by name; throws hb::Error if absent.
  CellId require(const std::string& name) const;

  /// Lookup tolerating liberty-style spellings that don't match the
  /// library's own names: case-insensitive, an optional underscore before
  /// the drive suffix ("nand2_x1" -> "NAND2X1"), and a bare family name
  /// resolving to its weakest drive ("NAND2" -> "NAND2X1").  Exact matches
  /// win; invalid id if nothing resolves.  The BLIF `.gate` frontend uses
  /// this so netlists written against a real liberty library load against
  /// an equivalent loadable library (netlist/blif_builder).
  CellId find_liberty(const std::string& name) const;

  /// All cells of a drive family, sorted by ascending drive index.
  std::vector<CellId> family_members(const std::string& family) const;
  /// The next stronger / weaker variant of a cell, or invalid if none.
  CellId stronger_variant(CellId id) const;
  CellId weaker_variant(CellId id) const;

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, CellId> by_name_;
};

}  // namespace hb
