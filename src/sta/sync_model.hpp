// Generic synchronising-element model (paper Sections 4 and 5).
//
// Every sequential cell instance is expanded into one *generic instance* per
// control pulse within the overall period ("A synchronising element that is
// clocked at a frequency that is a multiple, n, of the overall clock
// frequency is represented by n such elements connected in parallel").
//
// Each generic instance carries the terminal offsets of the simplified model
// of Figure 2(b):
//   O_cc = 0 (constant lower bound on the closure control time),
//   O_dc = -D_setup (constant), so min(O_dc, O_dz) lower-bounds input
//          closure;
//   O_ac = the assertion control arrival = the control path delay (control
//          paths have ideal path constraint exactly zero);
//   O_zc = O_ac + D_cz (constant once control delays are known);
//   O_dz, O_zd = the adjustable data-side pair, coupled for transparent
//          latches by O_zd = W + O_dz + D_dz with O_zd in [0, W'] — these
//          are the degrees of freedom Algorithms 1 and 2 move.
//
// Effective times relative to the ideal ones:
//   input closure offset  = min(O_dc, O_dz)
//   output assertion offset = max(O_zc, O_zd)
//
// Edge-triggered latches pin O_dz = O_zd = 0 (no slack transfer possible);
// transparent latches and clocked tristate drivers may shift the pair within
// the control pulse (cycle stealing).
//
// The model also covers three kinds of *virtual* terminals:
//   * primary-input launches and primary-output captures (arrival/required
//     specifications relative to the overall period), rigid;
//   * enable-path capture points: a synchronising-element control pin that
//     is (partly) driven from synchronising-element outputs must have its
//     enable logic settled before the leading edge of each control pulse
//     (paper Section 4, "enable path"); rigid, with a configurable margin.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "clocks/clock_io.hpp"  // PortTimingSpec
#include "clocks/waveform.hpp"
#include "sta/timing_graph.hpp"

namespace hb {

struct SyncInstance {
  InstId inst;                 // owning sequential instance (invalid if virtual)
  std::uint32_t pulse = 0;     // which control pulse within the overall period
  bool transparent = false;    // may transfer slack (transparent/tristate)
  bool is_virtual = false;     // PI/PO/enable endpoint
  std::string label;           // for reports

  TNodeId data_in;             // capture node (invalid for launch-only)
  TNodeId data_out;            // launch node (invalid for capture-only)

  TimePs ideal_assert = 0;     // ideal output assertion time, in [0, T)
  TimePs ideal_close = 0;      // ideal input closure time, in [0, T)
  TimePs width = 0;            // control pulse width W (transparent only)

  TimePs setup = 0;            // D_setup
  TimePs ddz = 0;              // D_dz (data -> output, transparent only)
  TimePs dcz = 0;              // D_cz (control -> output)
  TimePs oac = 0;              // assertion control arrival (control path delay)

  TimePs odz = 0;              // adjustable pair (see header comment)
  TimePs ozd = 0;
  TimePs v_offset = 0;         // offset for virtual terminals

  /// Offset of the actual output assertion w.r.t. ideal_assert.
  TimePs assert_offset() const {
    if (is_virtual) return v_offset;
    return std::max(oac + dcz, ozd);
  }
  /// Offset of the actual input closure w.r.t. ideal_close.
  TimePs close_offset() const {
    if (is_virtual) return v_offset;
    return std::min(-setup, odz);
  }

  /// Maximum decrease of the (O_dz, O_zd) pair allowed by the element
  /// constraints (forward transfer / snatching headroom).
  TimePs max_decrease() const { return transparent ? ozd : 0; }
  /// Maximum increase allowed (backward headroom): O_dz <= -D_dz.
  TimePs max_increase() const { return transparent ? (-ddz) - odz : 0; }

  /// Shift the adjustable pair; delta < 0 is a forward transfer.
  void shift(TimePs delta) {
    odz += delta;
    ozd += delta;
  }
};

struct SyncModelOptions {
  std::vector<PortTimingSpec> input_arrivals;
  std::vector<PortTimingSpec> output_requireds;
  /// When true, unspecified data ports get default specs: inputs asserted at
  /// time 0, outputs required by the end of the overall period.
  bool constrain_ports = true;
  /// Settling margin required of enable logic before the leading control
  /// edge.
  TimePs enable_margin = 0;
};

class SyncModel {
 public:
  SyncModel(const TimingGraph& graph, const ClockSet& clocks,
            const DelayCalculator& calc, SyncModelOptions options = {});

  const TimingGraph& graph() const { return *graph_; }
  const ClockSet& clocks() const { return *clocks_; }
  TimePs overall_period() const { return period_; }

  std::size_t num_instances() const { return instances_.size(); }
  const SyncInstance& at(SyncId id) const { return instances_.at(id.index()); }
  /// Mutable access conservatively records `id` in the changed-offsets log,
  /// so incremental re-analysis (SlackEngine::update) stays exact no matter
  /// which offsets the caller moves.  Each recorded id costs a dirty cone
  /// at the next update(), so read through at() and take at_mut() only for
  /// an element that changes (as Algorithms 1 and 2 do).
  SyncInstance& at_mut(SyncId id) {
    record_changed(id);
    return instances_.at(id.index());
  }

  /// Instances whose offsets may have changed since the last drain
  /// (deduplicated, in first-touch order).  Feed into
  /// SlackEngine::invalidate_offsets and clear with drain_changed_offsets().
  const std::vector<SyncId>& changed_offsets() const { return changed_; }
  std::vector<SyncId> drain_changed_offsets();

  /// Launch instances whose data_out is this node (empty vector if none).
  const std::vector<SyncId>& launches_at(TNodeId node) const;
  /// Capture instances whose data_in is this node.
  const std::vector<SyncId>& captures_at(TNodeId node) const;

  /// Control-path facts for a sequential instance.
  struct ControlInfo {
    ClockId clock;
    int polarity = +1;   // +1: control follows the clock; -1: inverted
    TimePs delay = 0;    // worst clock-source-to-control-pin delay
  };
  const ControlInfo& control_of(InstId inst) const;

  /// True if `node` is reachable from any data launch node (used to decide
  /// which control pins are enable-path endpoints).
  bool has_data_cone(TNodeId node) const { return has_data_cone_.at(node.index()); }

  /// Restore all adjustable offsets to the end-of-pulse initial state
  /// (O_zd = W', i.e. input closure at the trailing edge).  Only instances
  /// whose offsets actually move are recorded as changed, so a reset right
  /// after construction (or a previous reset) invalidates nothing.
  void reset_offsets();

  /// Re-derive the load-dependent element delays (D_cz, and D_dz for
  /// transparent elements) of every generic instance of sequential instance
  /// `inst` after the load on its output net changed (e.g. a fanout cell was
  /// resized).  The O_zd = W + O_dz + D_dz coupling is preserved by keeping
  /// O_dz and re-deriving O_zd.  Changed instances land in the
  /// changed-offsets log.  The cell itself must be unchanged (setup, ideal
  /// times and control tracing stay valid).
  void refresh_element_delays(InstId inst, const DelayCalculator& calc);

 private:
  void record_changed(SyncId id);
  void trace_controls();
  void build_element_instances(const DelayCalculator& calc);
  void build_port_instances();
  void build_enable_sinks();
  void compute_data_cones();
  void index_instances();
  SyncId add_instance(SyncInstance si);

  const TimingGraph* graph_;
  const ClockSet* clocks_;
  SyncModelOptions options_;
  TimePs period_ = 0;

  std::vector<SyncInstance> instances_;
  std::unordered_map<std::uint32_t, ControlInfo> control_;  // by InstId
  std::vector<std::vector<SyncId>> launches_by_node_;
  std::vector<std::vector<SyncId>> captures_by_node_;
  std::vector<bool> has_data_cone_;
  std::vector<SyncId> changed_;       // offsets touched since the last drain
  std::vector<char> changed_flag_;    // by SyncId, dedups changed_
};

}  // namespace hb
