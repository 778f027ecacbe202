#include "service/snapshot.hpp"

#include "scenario/corner_analysis.hpp"

namespace hb {

std::shared_ptr<const NameIndex> build_name_index(const TimingGraph& graph) {
  auto idx = std::make_shared<NameIndex>();
  const std::size_t n = graph.num_nodes();
  idx->node_names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TNodeId id(static_cast<std::uint32_t>(i));
    idx->node_names.push_back(graph.node_name(id));
    idx->node_by_name.emplace(idx->node_names.back(),
                              static_cast<std::uint32_t>(i));
  }
  const Design& design = graph.design();
  const Module& top = design.top();
  for (std::size_t ii = 0; ii < top.num_insts(); ++ii) {
    const InstId inst(static_cast<std::uint32_t>(ii));
    const Instance& rec = top.inst(inst);
    auto& pins = idx->inst_pins[rec.name];
    const std::size_t ports = design.target_num_ports(rec);
    pins.reserve(ports);
    for (std::size_t p = 0; p < ports; ++p) {
      const TNodeId node = graph.pin_node(inst, static_cast<std::uint32_t>(p));
      if (!node.valid()) continue;
      pins.emplace_back(design.target_port_name(rec, static_cast<std::uint32_t>(p)),
                        static_cast<std::uint32_t>(node.index()));
    }
  }
  return idx;
}

namespace {

/// Append the finite capture-terminal slacks, in SyncId order, that
/// `slack_of(sid)` reports; returns how many of them are negative.
template <class SlackOf>
std::size_t collect_capture_slacks(std::vector<TimePs>& out,
                                   const SyncModel& sync, SlackOf slack_of) {
  std::size_t violations = 0;
  out.reserve(sync.num_instances());
  for (std::size_t i = 0; i < sync.num_instances(); ++i) {
    const SyncId sid(static_cast<std::uint32_t>(i));
    if (!sync.at(sid).data_in.valid()) continue;
    const TimePs s = slack_of(sid);
    if (s >= kInfinitePs) continue;
    out.push_back(s);
    if (s < 0) ++violations;
  }
  return violations;
}

/// Slow paths reduced to what replies print: labels and end node names.
std::vector<SnapshotPath> snapshot_paths(const std::vector<SlowPath>& paths,
                                         const SlackEngine& engine) {
  const SyncModel& sync = engine.sync();
  std::vector<SnapshotPath> out;
  out.reserve(paths.size());
  for (const SlowPath& p : paths) {
    SnapshotPath sp;
    sp.slack = p.slack;
    sp.launch = sync.at(p.launch).label;
    sp.capture = sync.at(p.capture).label;
    if (!p.steps.empty()) {
      sp.from = engine.graph().node_name(p.steps.front().node);
      sp.to = engine.graph().node_name(p.steps.back().node);
    }
    sp.steps = p.steps.size();
    out.push_back(std::move(sp));
  }
  return out;
}

/// Hold-sweep results with their terminal labels.
std::vector<SnapshotHoldPair> snapshot_hold_pairs(
    const std::vector<HoldViolation>& all, const SyncModel& sync) {
  std::vector<SnapshotHoldPair> out;
  out.reserve(all.size());
  for (const HoldViolation& v : all) {
    SnapshotHoldPair p;
    p.launch = v.launch.value();
    p.capture = v.capture.value();
    p.margin = v.margin;
    p.launch_label = sync.at(v.launch).label;
    p.capture_label = sync.at(v.capture).label;
    out.push_back(std::move(p));
  }
  return out;
}

/// Every corner of a computed CornerAnalysis, each with its full hold-pair
/// sweep under its derated delays (the infinite-threshold trick of
/// capture_hold_into); sets has_corners and worst_corner.
void capture_corners_into(AnalysisSnapshot& snap, const CornerAnalysis& ca) {
  const SlackEngine& engine = ca.engine();
  const SyncModel& sync = engine.sync();
  snap.corners.reserve(ca.num_corners());
  for (std::size_t k = 0; k < ca.num_corners(); ++k) {
    SnapshotCorner sc;
    const Corner& corner = ca.corner_set().corner(k);
    sc.name = corner.name;
    sc.derate_pm = corner.derate_pm;
    sc.wire_pm = corner.wire_pm;
    sc.worst_slack = ca.worst_terminal_slack(k);

    const std::vector<NodeTiming>& nts = ca.node_timings(k);
    sc.node_slacks.reserve(nts.size());
    for (const NodeTiming& nt : nts) sc.node_slacks.push_back(nt.slack);

    sc.num_violations = collect_capture_slacks(
        sc.capture_slacks, sync,
        [&ca, k](SyncId sid) { return ca.capture_slack(k, sid); });
    sc.paths = snapshot_paths(ca.slow_paths(k, kSnapshotPaths), engine);
    sc.hold_pairs =
        snapshot_hold_pairs(ca.check_hold_times(k, kInfinitePs), sync);
    sc.has_hold = true;
    snap.corners.push_back(std::move(sc));
  }
  snap.worst_corner = ca.merged_worst_slack().corner;
  snap.has_corners = true;
}

}  // namespace

std::shared_ptr<AnalysisSnapshot> take_snapshot(
    const SlackEngine& engine, const Algorithm1Result& result,
    std::uint64_t id, std::size_t max_paths,
    std::shared_ptr<const NameIndex> names) {
  auto snap = std::make_shared<AnalysisSnapshot>();
  snap->id = id;
  snap->design_name = engine.graph().design().name();
  snap->status = result.status;
  snap->works_as_intended = result.works_as_intended;
  snap->worst_slack = result.worst_slack;
  snap->names = std::move(names);

  snap->num_terminals = engine.sync().num_instances();
  snap->num_violations = collect_capture_slacks(
      snap->capture_slacks, engine.sync(),
      [&engine](SyncId sid) { return engine.capture_slack(sid); });
  snap->paths = snapshot_paths(enumerate_slow_paths(engine, max_paths), engine);

  // Bulk copy straight from the engine's flat per-node timing array (one
  // allocation, no per-node accessor calls).
  snap->nodes = engine.node_timings();
  return snap;
}

void capture_hold_into(AnalysisSnapshot& snap, const SlackEngine& engine,
                       ThreadPool*) {
  // An infinite threshold keeps every connected pair, each once, so
  // filtering this list by `margin < m` yields exactly check_hold(m).
  snap.hold_pairs =
      snapshot_hold_pairs(check_hold(engine, kInfinitePs), engine.sync());
  snap.has_hold = true;
}

std::shared_ptr<AnalysisSnapshot> capture_snapshot(
    Hummingbird& hb, const Algorithm1Result& result, std::uint64_t id,
    std::shared_ptr<const NameIndex> names, const CornerSet& corners,
    ThreadPool* pool) {
  auto snap = take_snapshot(hb.engine(), result, id, kSnapshotPaths,
                            std::move(names));
  // The hold check and the corner sweep read the settled Algorithm 1
  // schedule.
  capture_hold_into(*snap, hb.engine());
  if (!corners.empty()) {
    CornerAnalysis ca(hb.engine(), corners);
    ca.compute(pool);
    capture_corners_into(*snap, ca);
  }
  // Algorithm 2 last: it moves the offsets away from that schedule.
  ConstraintSet cs = hb.generate_constraints();
  snap->has_constraints = true;
  snap->constraints_status = cs.status;
  snap->backward_snatch_cycles = cs.backward_snatch_cycles;
  snap->forward_snatch_cycles = cs.forward_snatch_cycles;
  snap->constraint_nodes = std::move(cs.nodes);
  return snap;
}

}  // namespace hb
