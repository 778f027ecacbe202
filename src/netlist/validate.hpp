// Structural validation of designs against the paper's Section 3
// assumptions:
//   * data flows from input terminals to output terminals (single driver
//     per net, all terminals bound);
//   * no directed cycles within any portion of combinational logic;
//   * every synchronising-element control input is a *monotonic*
//     combinational function of exactly one clock signal (arbitrary enable
//     paths from synchronising element outputs are allowed, but the
//     clock-to-control polarity must be unambiguous);
//   * submodules are purely combinational (this library's hierarchy rule).
#pragma once

#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "util/diagnostics.hpp"

namespace hb {

/// One structural problem, with the design objects it implicates so that
/// degraded-mode analysis (compute_quarantine) can excise exactly the
/// affected logic.  `insts` and `nets` refer to the *flat* design that was
/// checked: the design itself when it is flat, the internally flattened
/// copy otherwise.
struct ValidationFinding {
  Diagnostic diag;
  std::vector<InstId> insts;  // implicated top-level instances
  std::vector<NetId> nets;    // implicated (undrivable) top-level nets
};

struct ValidationReport {
  /// Every finding, in the order the checks found them.
  std::vector<ValidationFinding> findings;
  /// Work counter: net pins the control-cone check scanned (each distinct
  /// control net's cone is walked once).
  std::size_t control_cone_pins_visited = 0;
  bool ok() const { return findings.empty(); }
  /// Every finding's message, each followed by a newline (empty when ok()).
  std::string to_string() const;
};

/// Validate a design (hierarchical designs are flattened internally for the
/// connectivity and cycle checks).  Never throws on *design* problems; all
/// findings are returned in the report.
ValidationReport validate(const Design& design);

/// Degraded-mode support: from a *flat* design and its validation report,
/// mark every instance that cannot be analysed.  Seeds are the implicated
/// instances/nets of the findings; the closure then propagates forward:
/// an instance reading a dead net is quarantined, and a net whose drivers
/// are all quarantined is dead (nets driven by top-level input ports stay
/// alive).  The indices of `report`'s findings must refer to `flat_design`
/// (i.e. call validate() on the same flat design).
std::vector<bool> compute_quarantine(const Design& flat_design,
                                     const ValidationReport& report);

}  // namespace hb
