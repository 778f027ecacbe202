// One block-oriented cluster analysis pass (paper Section 7, equations (1)
// and (2)) in the linearised coordinates of a chosen break of the clock
// period.
//
// Ready times are traced forward from the cluster's launch terminals
// (synchronising element outputs and primary inputs); required times are
// traced backward from the capture terminals *assigned to this pass*.
// Unassigned captures contribute no constraint ("we set the node slack to a
// large number"), so each output's slack is meaningful only in its assigned
// pass — the one where its ideal closure time falls closest to the end of
// the broken-open period.
//
// Results are stored as packed arrays of rise/fall value pairs with absence
// encoded as a fold-identity sentinel, instead of std::optional<RiseFall>
// records (which pad each entry to 24 bytes and force a presence branch on
// every merge).
// Values stay integer picoseconds so every kernel here is bit-reproducible
// (the acceptance oracle for the incremental layer).  All kernels sweep the
// cluster's local CSR adjacency in level order — see docs/PERFORMANCE.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "clocks/edge_graph.hpp"
#include "sta/cluster.hpp"

namespace hb {

/// Name of the sweep kernels, as benchmarks report it: always "scalar".
const char* active_kernel_name();

/// One side (ready or required) of a pass result: a packed array of rise/
/// fall value pairs indexed like Cluster::nodes.  Absence is encoded in the
/// values themselves: an absent ready slot holds -kInfinitePs (the identity
/// of the max-fold), an absent required slot +kInfinitePs (identity of the
/// min-fold), so the propagation kernels fold unconditionally — no per-arc
/// presence branch.  Folding *through* an absent slot leaves the result on
/// the absent side of kInfinitePs/2 (real schedule times are far smaller,
/// and 2^50 ∓ any delay sum never crosses the midpoint), so has() is a
/// threshold compare.  Buffers grow to the largest size seen and are never
/// shrunk, so reset() in steady state performs no heap allocation.
///
/// Multi-corner analysis (src/scenario) widens the array to K lanes per
/// node in lane-major order — slot (node, corner) lives at
/// data()[node * lanes() + corner] — so one kernel iteration processes the
/// whole corner vector of a node from one contiguous cache line run.  With
/// lanes() == 1 (the default) the layout is bit-identical to the
/// single-corner array, which is what the K=1 differential guarantee in
/// tests/corner_test.cpp pins down.
class PassSide {
 public:
  /// `absent`: the fold identity, -kInfinitePs (ready) or +kInfinitePs
  /// (required).  `lanes`: corner lanes per node (K; 1 = single-corner).
  explicit PassSide(TimePs absent, std::size_t lanes = 1)
      : absent_(absent), lanes_(lanes == 0 ? 1 : lanes) {}

  /// Size to `n` locals with every slot of every lane absent.
  void reset(std::size_t n) {
    size_ = n;
    const std::size_t total = n * lanes_;
    if (val_.size() < total) val_.resize(total);
    std::fill(val_.begin(), val_.begin() + static_cast<std::ptrdiff_t>(total),
              RiseFall{absent_, absent_});
  }
  std::size_t size() const { return size_; }
  std::size_t lanes() const { return lanes_; }
  /// Total slot count (size() * lanes()) — the byte span of data().
  std::size_t flat_size() const { return size_ * lanes_; }
  bool has(std::size_t i) const {
    return absent_ < 0 ? val_[i * lanes_].rise > absent_ / 2
                       : val_[i * lanes_].rise < absent_ / 2;
  }
  RiseFall at(std::size_t i) const { return val_[i * lanes_]; }
  /// Lane accessors (corner-sliced results; lane < lanes()).
  RiseFall at(std::size_t i, std::size_t lane) const {
    return val_[i * lanes_ + lane];
  }
  void set(std::size_t i, RiseFall v) { val_[i * lanes_] = v; }
  void set(std::size_t i, std::size_t lane, RiseFall v) {
    val_[i * lanes_ + lane] = v;
  }
  void clear(std::size_t i) { val_[i * lanes_] = RiseFall{absent_, absent_}; }
  /// The fold identity, as a full slot value.
  RiseFall absent() const { return RiseFall{absent_, absent_}; }
  /// Raw slot access for the propagation kernels (lane-major).
  RiseFall* data() { return val_.data(); }
  const RiseFall* data() const { return val_.data(); }

 private:
  std::vector<RiseFall> val_;
  TimePs absent_;
  std::size_t lanes_ = 1;
  std::size_t size_ = 0;
};

struct PassResult {
  /// Indexed like Cluster::nodes, `lanes` corner lanes per node.  Absent =
  /// the node is not reached by any launch (ready) / does not feed any
  /// assigned capture (required); presence is structural, so a slot is
  /// absent in every lane or in none.
  PassSide ready;
  PassSide required;

  explicit PassResult(std::size_t lanes = 1)
      : ready(-kInfinitePs, lanes), required(kInfinitePs, lanes) {}
};

/// Runs eq. (1) forward and eq. (2) backward over `cluster`, writing into
/// `res` (buffers are reused; steady-state re-evaluation allocates nothing).
///
/// `local_index[node]` maps global node ids to positions in Cluster::nodes.
/// `assigned[k]` is true when capture instance `capture_insts[k]` reads its
/// slack from this pass; `capture_insts` lists all capture instances on the
/// cluster's sink nodes in a fixed order chosen by the caller.
///
/// Arc delays: by default each arc's own TArcRec::delay, one lane.  With
/// `arc_delay`, a lane-major table instead — lane c of arc a at
/// arc_delay[a * stride + c] — swept in all `stride` lanes at once, and
/// `res` must have been constructed with `stride` lanes.  Launch and capture
/// seeds are schedule times, the same in every lane.
///
/// One serial sweep per direction: a forward scatter over fanout in
/// ascending local index, then a backward gather over fanout in descending
/// local index.  Callers parallelise across passes, never within one.
void run_analysis_pass_into(const TimingGraph& graph, const SyncModel& sync,
                            const Cluster& cluster,
                            const std::vector<std::uint32_t>& local_index,
                            const ClockEdgeGraph& edges, std::size_t break_node,
                            const std::vector<SyncId>& capture_insts,
                            const std::vector<bool>& assigned, PassResult& res,
                            const RiseFall* arc_delay = nullptr,
                            std::size_t stride = 1);

/// Reusable per-task arena for incremental pass updates (one per concurrent
/// evaluation; never shared between threads).  Holds the dirty bitmap the
/// fused cone sweeps mark and consume; it grows to the largest cluster seen
/// and is never shrunk, so steady-state updates perform no heap allocation.
struct PassWorkspace {
  std::vector<std::uint64_t> marks;  // by local index, one bit per node

  void ensure(std::size_t num_locals) {
    const std::size_t words = (num_locals + 63) / 64;
    if (marks.size() < words) marks.resize(words, 0);
  }
};

// -- Cone-sweep primitives ---------------------------------------------------
// Shared by update_analysis_pass, pass_cone_size, SlackEngine's terminal
// table and the hold check: fused mark-and-visit sweeps over the forward/
// backward reachability cone of a seed set, using the PassWorkspace bitmap.
// Mark words are consumed (zeroed) as the sweep passes, so the workspace is
// clean on return; each returns the number of nodes visited.

namespace passdetail {

constexpr std::uint64_t bit_of(std::uint32_t li) {
  return std::uint64_t{1} << (li & 63);
}

/// Forward cone: processes marked locals in ascending order (= topological
/// order, every internal arc goes from a lower local index to a higher one)
/// and marks the successors of each processed non-blocked node.  Stops once
/// more than `limit` nodes were visited, clearing the marks left pending,
/// and returns limit + 1.
template <class Visit>
std::size_t sweep_forward(const Cluster& cluster,
                          const std::vector<std::uint32_t>& seeds,
                          PassWorkspace& ws, Visit visit,
                          std::size_t limit = SIZE_MAX) {
  if (seeds.empty()) return 0;
  std::vector<std::uint64_t>& m = ws.marks;
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::uint32_t li : seeds) {
    const std::size_t w = li >> 6;
    m[w] |= bit_of(li);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  std::size_t count = 0;
  for (std::size_t w = lo; w <= hi; ++w) {
    std::uint64_t done = 0;
    for (;;) {
      const std::uint64_t pend = m[w] & ~done;
      if (pend == 0) break;
      const unsigned b = static_cast<unsigned>(std::countr_zero(pend));
      done |= std::uint64_t{1} << b;
      const std::uint32_t li = static_cast<std::uint32_t>(w * 64 + b);
      visit(li);
      if (++count > limit) {
        std::fill(m.begin() + static_cast<std::ptrdiff_t>(w),
                  m.begin() + static_cast<std::ptrdiff_t>(hi) + 1, 0);
        return count;
      }
      if (!cluster.blocked[li]) {
        const std::uint32_t end = cluster.out_offsets[li + 1];
        for (std::uint32_t k = cluster.out_offsets[li]; k < end; ++k) {
          const std::uint32_t to = cluster.out_local[k];
          m[to >> 6] |= bit_of(to);
          hi = std::max(hi, static_cast<std::size_t>(to >> 6));
        }
      }
    }
    m[w] = 0;
  }
  return count;
}

/// Mirror sweep over the backward cone: descending local index (= reverse
/// topological order), marking each processed node's non-blocked
/// predecessors.  `limit` as for sweep_forward.
template <class Visit>
std::size_t sweep_backward(const Cluster& cluster,
                           const std::vector<std::uint32_t>& seeds,
                           PassWorkspace& ws, Visit visit,
                           std::size_t limit = SIZE_MAX) {
  if (seeds.empty()) return 0;
  std::vector<std::uint64_t>& m = ws.marks;
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::uint32_t li : seeds) {
    const std::size_t w = li >> 6;
    m[w] |= bit_of(li);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  std::size_t count = 0;
  std::size_t w = hi;
  for (;;) {
    std::uint64_t done = 0;
    for (;;) {
      const std::uint64_t pend = m[w] & ~done;
      if (pend == 0) break;
      const unsigned b = 63u - static_cast<unsigned>(std::countl_zero(pend));
      done |= std::uint64_t{1} << b;
      const std::uint32_t li = static_cast<std::uint32_t>(w * 64 + b);
      visit(li);
      if (++count > limit) {
        std::fill(m.begin() + static_cast<std::ptrdiff_t>(lo),
                  m.begin() + static_cast<std::ptrdiff_t>(w) + 1, 0);
        return count;
      }
      const std::uint32_t end = cluster.in_offsets[li + 1];
      for (std::uint32_t k = cluster.in_offsets[li]; k < end; ++k) {
        const std::uint32_t fl = cluster.in_local[k];
        if (cluster.blocked[fl]) continue;
        m[fl >> 6] |= bit_of(fl);
        lo = std::min(lo, static_cast<std::size_t>(fl >> 6));
      }
    }
    m[w] = 0;
    if (w == lo) break;
    --w;
  }
  return count;
}

/// Scratch of sweep_cone, grown to the largest cluster walked.  Every slot
/// and mark is absent again after a walk, so one scratch serves walk after
/// walk, and its mark bitmap serves the other cone sweeps in between.
struct ConeScratch {
  std::vector<RiseFall> val;           // by local; -kInfinitePs when absent
  std::vector<TimePs> min;             // by local; +kInfinitePs when absent
  PassWorkspace ws;                    // a mark bit per local
  std::vector<std::uint64_t> summary;  // a bit per word of ws.marks

  void ensure(std::size_t num_locals) {
    if (val.size() >= num_locals) return;
    val.resize(num_locals, RiseFall{-kInfinitePs, -kInfinitePs});
    min.resize(num_locals, kInfinitePs);
    ws.ensure(num_locals);
    summary.resize((num_locals + 4095) / 4096, 0);
  }
};

/// One source's reachable cone, walked from a (0, 0) seed at local `src`
/// under forward_scatter's rules: ascending local index settles each node
/// before it scatters (every arc climbs), and nothing leaves a blocked node.
/// Calls visit(li, max, min) for every reached local in ascending order:
/// `max` is its ready time from the seed, `min` the least delay over its
/// paths, each arc adding min(rise, fall) of its delay.  `delay(arc, ai)`
/// is arc ai's delay — the graph's own or a corner lane's.  Pending nodes
/// are marked in a two-level bitmap (a bit per local, a summary bit per word
/// of marks), so a walk costs its cone, not the cluster's width.  Returns
/// the number of nodes visited.
template <class Delay, class Visit>
std::size_t sweep_cone(const Cluster& cl, const TArcRec* arcs,
                       std::uint32_t src, Delay delay, ConeScratch& s,
                       Visit visit) {
  RiseFall* val = s.val.data();
  TimePs* mn = s.min.data();
  std::uint64_t* marks = s.ws.marks.data();
  std::uint64_t* summary = s.summary.data();
  val[src] = RiseFall{0, 0};
  mn[src] = 0;
  marks[src >> 6] |= bit_of(src);
  summary[src >> 12] |= bit_of(src >> 6);
  std::size_t hi = src >> 12;
  std::size_t visited = 0;
  for (std::size_t sw = src >> 12; sw <= hi; ++sw) {
    while (const std::uint64_t words = summary[sw]) {
      const std::size_t w =
          sw * 64 + static_cast<unsigned>(std::countr_zero(words));
      while (const std::uint64_t pend = marks[w]) {
        marks[w] = pend & (pend - 1);
        const auto li = static_cast<std::uint32_t>(
            w * 64 + static_cast<unsigned>(std::countr_zero(pend)));
        const RiseFall v = val[li];
        const TimePs m = mn[li];
        val[li] = RiseFall{-kInfinitePs, -kInfinitePs};
        mn[li] = kInfinitePs;
        ++visited;
        visit(li, v, m);
        if (cl.blocked[li]) continue;
        const std::uint32_t end = cl.out_offsets[li + 1];
        for (std::uint32_t e = cl.out_offsets[li]; e < end; ++e) {
          const std::uint32_t ai = cl.out_arc[e];
          const TArcRec& arc = arcs[ai];
          const RiseFall d = delay(arc, ai);
          const std::uint32_t to = cl.out_local[e];
          val[to] = rf_max(val[to], propagate_forward(v, arc, d));
          mn[to] = std::min(mn[to], m + d.min());
          marks[to >> 6] |= bit_of(to);
          summary[to >> 12] |= bit_of(to >> 6);
          hi = std::max(hi, static_cast<std::size_t>(to >> 12));
        }
      }
      summary[sw] &= ~bit_of(static_cast<std::uint32_t>(w));
    }
  }
  return visited;
}

}  // namespace passdetail

/// Incrementally patches `res` (a previous single-lane result of
/// run_analysis_pass_into over the same pass) after local changes:
///   * `fwd_seeds`: local indices whose *ready* must be re-derived — launch
///     nodes with changed assertion offsets, or heads of arcs with changed
///     delays.  The forward cone of the seeds is re-propagated (eq. 1).
///   * `bwd_seeds`: local indices whose *required* must be re-derived —
///     capture nodes with changed closure offsets, or tails of arcs with
///     changed delays.  The backward cone is re-propagated (eq. 2).
/// Both ready and required are pure min/max fixpoints over integer times, so
/// re-deriving exactly the cone reproduces run_analysis_pass_into bit for bit
/// (tests/incremental_test.cpp holds the two against each other).
///
/// Cone collection and re-derivation are fused into one bitmap sweep per
/// direction: ascending local index for the forward cone, descending for the
/// backward cone (ascending local index is topological order, so a marked
/// node's predecessors are always re-derived before it).
///
/// Returns the number of nodes re-traced (forward plus backward cones).
std::size_t update_analysis_pass(const TimingGraph& graph, const SyncModel& sync,
                                 const Cluster& cluster,
                                 const std::vector<std::uint32_t>& local_index,
                                 const ClockEdgeGraph& edges, std::size_t break_node,
                                 const std::vector<SyncId>& capture_insts,
                                 const std::vector<bool>& assigned,
                                 const std::vector<std::uint32_t>& fwd_seeds,
                                 const std::vector<std::uint32_t>& bwd_seeds,
                                 PassResult& res, PassWorkspace& ws);

/// Number of nodes the two cone sweeps of update_analysis_pass would
/// re-derive for these seeds, without touching any result — the probe behind
/// SlackEngine's incremental/full cost model (docs/ALGORITHMS.md §7).  The
/// walk stops as soon as the count exceeds `limit`, so the result is
/// min(cone, limit + 1): a caller comparing `> limit` gets the exact answer
/// without walking the rest of a cone it will not patch.  With `visited`,
/// every local the walk reaches is appended to it (forward cone, then
/// backward cone; a node in both appears twice), so a caller that patches
/// knows which nodes can change.
std::size_t pass_cone_size(const Cluster& cluster,
                           const std::vector<std::uint32_t>& fwd_seeds,
                           const std::vector<std::uint32_t>& bwd_seeds,
                           PassWorkspace& ws, std::size_t limit = SIZE_MAX,
                           std::vector<std::uint32_t>* visited = nullptr);

}  // namespace hb
