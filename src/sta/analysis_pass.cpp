#include "sta/analysis_pass.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define HB_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace hb {
namespace {

/// PassSide presence threshold for the ready side (absent_ = -kInfinitePs):
/// a slot is present iff rise > absent_/2.  The kernels read raw arrays, so
/// they test against the same constant PassSide::has uses.
constexpr TimePs kFwdAbsentHalf = -(kInfinitePs / 2);

// ---------------------------------------------------------------------------
// Kernel-variant and tuning state
// ---------------------------------------------------------------------------

std::atomic<int> g_kernel_mode{static_cast<int>(KernelMode::kAuto)};

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  const long long v = std::atoll(e);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::atomic<std::size_t>& min_parallel_nodes_atomic() {
  static std::atomic<std::size_t> v{
      env_size_t("HB_PAR_MIN_NODES", SweepTuning{}.min_parallel_nodes)};
  return v;
}

std::atomic<std::size_t>& min_grain_atomic() {
  static std::atomic<std::size_t> v{
      env_size_t("HB_PAR_GRAIN", SweepTuning{}.min_grain)};
  return v;
}

bool use_simd_kernels() {
  return kernel_mode() == KernelMode::kAuto && simd_kernels_available();
}

// ---------------------------------------------------------------------------
// Scalar sweep kernels
// ---------------------------------------------------------------------------

/// Forward wavefront, eq. (1), scatter form: R_z = max_i (R_i + P_iz).
/// Ascending local index is level order, so one linear sweep settles every
/// node, and the sweep-order arc numbering makes cluster.out_arc reads
/// monotone through the arc array.  Absent tails are skipped (their slots
/// hold the exact -kInfinitePs sentinel and nothing downstream of only
/// absent tails is touched), so untouched heads keep the exact sentinel too.
void forward_scatter_scalar(const Cluster& cl, const TArcRec* arcs,
                            RiseFall* ready) {
  const std::size_t n = cl.nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) {
    if (ready[li].rise <= kFwdAbsentHalf || cl.blocked[li]) continue;
    const RiseFall in = ready[li];
    const std::uint32_t end = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < end; ++k) {
      const TArcRec& arc = arcs[cl.out_arc[k]];
      const std::uint32_t to = cl.out_local[k];
      ready[to] = rf_max(ready[to], propagate_forward(in, arc, arc.delay));
    }
  }
}

/// Forward wavefront, gather form, over locals [begin, end) of one level:
/// each node max-folds over its own fanin and writes only its own slot, so
/// any partition of a level into chunks computes the same bytes — the fold
/// is commutative and associative over int64.  Contributions from blocked
/// tails are masked to the fold identity (branchless), mirroring the
/// scatter kernel's skip; contributions *through* absent tails land near
/// -2^50 and lose every max against real times, and a slot that stays on
/// the absent side of the threshold is canonicalised back to the exact
/// sentinel, so gather and scatter results are byte-identical.
void forward_gather_scalar(const Cluster& cl, const TArcRec* arcs,
                           RiseFall* ready, std::uint32_t begin,
                           std::uint32_t end) {
  for (std::uint32_t li = begin; li < end; ++li) {
    RiseFall v = ready[li];  // launch seed or the exact absence sentinel
    const std::uint32_t ke = cl.in_offsets[li + 1];
    for (std::uint32_t k = cl.in_offsets[li]; k < ke; ++k) {
      const std::uint32_t fl = cl.in_local[k];
      const TArcRec& arc = arcs[cl.in_arc[k]];
      RiseFall c = propagate_forward(ready[fl], arc, arc.delay);
      const bool blk = cl.blocked[fl] != 0;
      c.rise = blk ? -kInfinitePs : c.rise;
      c.fall = blk ? -kInfinitePs : c.fall;
      v = rf_max(v, c);
    }
    const bool absent = v.rise <= kFwdAbsentHalf;
    v.rise = absent ? -kInfinitePs : v.rise;
    v.fall = absent ? -kInfinitePs : v.fall;
    ready[li] = v;
  }
}

/// Backward wavefront, eq. (2) in required-time form, over locals
/// [begin, end): Q_i = min_z (Q_z - P_iz).  Already a gather — each node
/// min-folds over its fanout (all at strictly higher locals) and writes
/// only its own slot.  Iterates descending so one call over [0, n) is the
/// full serial sweep; within a single level the order is immaterial (levels
/// contain no arcs), so per-level chunks produce the same bytes.  Folding
/// through an absent successor leaves the slot on the absent side of the
/// has() threshold (see PassSide).
void backward_gather_scalar(const Cluster& cl, const TArcRec* arcs,
                            RiseFall* required, std::uint32_t begin,
                            std::uint32_t end) {
  for (std::uint32_t li = end; li-- > begin;) {
    if (cl.blocked[li]) continue;
    RiseFall acc = required[li];
    const std::uint32_t ke = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < ke; ++k) {
      const TArcRec& arc = arcs[cl.out_arc[k]];
      acc = rf_min(acc, propagate_backward(required[cl.out_local[k]], arc,
                                           arc.delay));
    }
    required[li] = acc;
  }
}

// ---------------------------------------------------------------------------
// Vectorised sweep kernels (AVX2, runtime-dispatched)
//
// A RiseFall pair is one 128-bit vector: [rise | fall] as two int64 lanes.
// The ∓kInfinitePs sentinel representation makes every fold an unconditional
// two-lane max/min chain, and the unate select becomes a branchless mask
// blend: kPositive passes [rise|fall] through, kNegative swaps the halves,
// kNone takes the worst lane in both.  Same fold sets, same fold order,
// same integer arithmetic as the scalar kernels — byte-identical results.
// ---------------------------------------------------------------------------

#ifdef HB_X86_KERNELS

__attribute__((target("avx2"), always_inline)) inline __m128i
load_rf(const RiseFall* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("avx2"), always_inline)) inline void store_rf(
    RiseFall* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// Lanewise 64-bit max/min: SSE/AVX2 have no vpmaxsq, so select through a
/// signed compare (the floating-point vmaxpd shape of the fold, on the
/// integer units).
__attribute__((target("avx2"), always_inline)) inline __m128i max64(
    __m128i a, __m128i b) {
  return _mm_blendv_epi8(b, a, _mm_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"), always_inline)) inline __m128i min64(
    __m128i a, __m128i b) {
  return _mm_blendv_epi8(a, b, _mm_cmpgt_epi64(a, b));
}

/// [rise | fall] -> [fall | rise].
__attribute__((target("avx2"), always_inline)) inline __m128i swap_rf(
    __m128i v) {
  return _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
}

/// Branchless unate select: in for kPositive, swapped for kNegative, the
/// lanewise worst (max forward / min backward) for kNone.
__attribute__((target("avx2"), always_inline)) inline __m128i unate_select(
    __m128i in, __m128i swapped, __m128i worst, Unate unate) {
  const __m128i mpos =
      _mm_set1_epi64x(-static_cast<std::int64_t>(unate == Unate::kPositive));
  const __m128i mneg =
      _mm_set1_epi64x(-static_cast<std::int64_t>(unate == Unate::kNegative));
  const __m128i picked =
      _mm_or_si128(_mm_and_si128(in, mpos), _mm_and_si128(swapped, mneg));
  return _mm_or_si128(picked,
                      _mm_andnot_si128(_mm_or_si128(mpos, mneg), worst));
}

__attribute__((target("avx2"))) void forward_scatter_avx2(const Cluster& cl,
                                                          const TArcRec* arcs,
                                                          RiseFall* ready) {
  const std::size_t n = cl.nodes.size();
  for (std::uint32_t li = 0; li < n; ++li) {
    if (ready[li].rise <= kFwdAbsentHalf || cl.blocked[li]) continue;
    const __m128i in = load_rf(&ready[li]);
    const __m128i swapped = swap_rf(in);
    const __m128i worst = max64(in, swapped);  // hoisted: constant per tail
    const std::uint32_t end = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < end; ++k) {
      const TArcRec& arc = arcs[cl.out_arc[k]];
      const std::uint32_t to = cl.out_local[k];
      const __m128i sel = unate_select(in, swapped, worst, arc.unate);
      const __m128i out = _mm_add_epi64(sel, load_rf(&arc.delay));
      store_rf(&ready[to], max64(load_rf(&ready[to]), out));
    }
  }
}

__attribute__((target("avx2"))) void forward_gather_avx2(const Cluster& cl,
                                                         const TArcRec* arcs,
                                                         RiseFall* ready,
                                                         std::uint32_t begin,
                                                         std::uint32_t end) {
  const __m128i absent = _mm_set1_epi64x(-kInfinitePs);
  const __m128i half = _mm_set1_epi64x(kFwdAbsentHalf);
  for (std::uint32_t li = begin; li < end; ++li) {
    __m128i v = load_rf(&ready[li]);
    const std::uint32_t ke = cl.in_offsets[li + 1];
    for (std::uint32_t k = cl.in_offsets[li]; k < ke; ++k) {
      const std::uint32_t fl = cl.in_local[k];
      const TArcRec& arc = arcs[cl.in_arc[k]];
      const __m128i in = load_rf(&ready[fl]);
      const __m128i swapped = swap_rf(in);
      const __m128i sel = unate_select(in, swapped, max64(in, swapped),
                                       arc.unate);
      __m128i c = _mm_add_epi64(sel, load_rf(&arc.delay));
      const __m128i mblk =
          _mm_set1_epi64x(-static_cast<std::int64_t>(cl.blocked[fl] != 0));
      c = _mm_blendv_epi8(c, absent, mblk);
      v = max64(v, c);
    }
    // Canonicalise still-absent slots (rise lane <= threshold) back to the
    // exact sentinel; broadcast the rise lane so both lanes blend together.
    const __m128i rise2 = _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 1, 0));
    const __m128i is_absent = _mm_cmpgt_epi64(half, rise2);
    v = _mm_blendv_epi8(v, absent, is_absent);
    store_rf(&ready[li], v);
  }
}

__attribute__((target("avx2"))) void backward_gather_avx2(const Cluster& cl,
                                                          const TArcRec* arcs,
                                                          RiseFall* required,
                                                          std::uint32_t begin,
                                                          std::uint32_t end) {
  for (std::uint32_t li = end; li-- > begin;) {
    if (cl.blocked[li]) continue;
    __m128i acc = load_rf(&required[li]);
    const std::uint32_t ke = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < ke; ++k) {
      const TArcRec& arc = arcs[cl.out_arc[k]];
      const __m128i p = _mm_sub_epi64(load_rf(&required[cl.out_local[k]]),
                                      load_rf(&arc.delay));
      const __m128i swapped = swap_rf(p);
      acc = min64(acc, unate_select(p, swapped, min64(p, swapped), arc.unate));
    }
    store_rf(&required[li], acc);
  }
}

#endif  // HB_X86_KERNELS

// ---------------------------------------------------------------------------

using ForwardFullFn = void (*)(const Cluster&, const TArcRec*, RiseFall*);
using RangeFn = void (*)(const Cluster&, const TArcRec*, RiseFall*,
                         std::uint32_t, std::uint32_t);

ForwardFullFn select_forward_scatter() {
#ifdef HB_X86_KERNELS
  if (use_simd_kernels()) return forward_scatter_avx2;
#endif
  return forward_scatter_scalar;
}

RangeFn select_forward_gather() {
#ifdef HB_X86_KERNELS
  if (use_simd_kernels()) return forward_gather_avx2;
#endif
  return forward_gather_scalar;
}

RangeFn select_backward_gather() {
#ifdef HB_X86_KERNELS
  if (use_simd_kernels()) return backward_gather_avx2;
#endif
  return backward_gather_scalar;
}

/// Chunk grain for one level: never below the tuned floor, and no finer
/// than 1/64th of the level, so chunk dispatch stays a vanishing fraction
/// of the fold work.  A pure function of the level size — chunk boundaries
/// are identical at every thread count.
std::size_t level_grain(std::size_t level_size, const SweepTuning& tuning) {
  return std::max(tuning.min_grain, level_size / 64);
}

/// Latest actual assertion over the launch instances at `node`, in linear
/// coordinates; false when the node launches nothing.
bool launch_seed(const SyncModel& sync, const ClockEdgeGraph& edges,
                 std::size_t break_node, TNodeId node, RiseFall& out) {
  const std::vector<SyncId>& launches = sync.launches_at(node);
  if (launches.empty()) return false;
  TimePs latest = -kInfinitePs;
  for (SyncId id : launches) {
    const SyncInstance& si = sync.at(id);
    const TimePs a =
        edges.linear_assert(si.ideal_assert, break_node) + si.assert_offset();
    latest = std::max(latest, a);
  }
  out = RiseFall{latest, latest};
  return true;
}

using passdetail::sweep_backward;
using passdetail::sweep_forward;

}  // namespace

void set_kernel_mode(KernelMode mode) {
  g_kernel_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

KernelMode kernel_mode() {
  return static_cast<KernelMode>(g_kernel_mode.load(std::memory_order_relaxed));
}

bool simd_kernels_available() {
#ifdef HB_X86_KERNELS
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

const char* active_kernel_name() {
  return simd_kernels_available() ? "avx2" : "scalar";
}

void set_sweep_tuning(const SweepTuning& tuning) {
  min_parallel_nodes_atomic().store(tuning.min_parallel_nodes,
                                    std::memory_order_relaxed);
  min_grain_atomic().store(std::max<std::size_t>(1, tuning.min_grain),
                           std::memory_order_relaxed);
}

SweepTuning sweep_tuning() {
  SweepTuning t;
  t.min_parallel_nodes =
      min_parallel_nodes_atomic().load(std::memory_order_relaxed);
  t.min_grain = min_grain_atomic().load(std::memory_order_relaxed);
  return t;
}

void run_analysis_pass_into(const TimingGraph& graph, const SyncModel& sync,
                            const Cluster& cluster,
                            const std::vector<std::uint32_t>& local_index,
                            const ClockEdgeGraph& edges, std::size_t break_node,
                            const std::vector<SyncId>& capture_insts,
                            const std::vector<bool>& assigned, PassResult& res,
                            ThreadPool* pool) {
  const std::size_t n = cluster.nodes.size();
  const TArcRec* arcs = graph.arcs_data();
  res.ready.reset(n);
  res.required.reset(n);
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();

  const SweepTuning tuning = sweep_tuning();
  const bool parallel = pool != nullptr && pool->size() > 1 &&
                        n >= tuning.min_parallel_nodes;
  const std::vector<std::uint32_t>& levels = cluster.level_offsets;

  // Seed launch terminals: the latest actual assertion over the node's
  // launch instances, in linear coordinates.  Launch nodes (latch outputs,
  // input ports) have no fanin arcs, so the gather kernel preserves seeds.
  for (TNodeId node : cluster.source_nodes) {
    RiseFall seed;
    if (launch_seed(sync, edges, break_node, node, seed)) {
      ready[local_index[node.index()]] = seed;
    }
  }

  // Forward wavefront, eq. (1).  Serial: one scatter sweep in ascending
  // local (= level) order.  Parallel: per level in ascending order, chunk
  // the level's contiguous local range across the pool and gather each node
  // from its fanin — byte-identical to the scatter sweep (see kernels).
  if (!parallel) {
    select_forward_scatter()(cluster, arcs, ready);
  } else {
    const RangeFn fwd = select_forward_gather();
    for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
      const std::uint32_t base = levels[l];
      const std::size_t count = levels[l + 1] - base;
      pool->parallel_for(count, level_grain(count, tuning),
                         [&](std::size_t b, std::size_t e, int) {
                           fwd(cluster, arcs, ready,
                               base + static_cast<std::uint32_t>(b),
                               base + static_cast<std::uint32_t>(e));
                         });
    }
  }

  // Seed capture terminals assigned to this pass with their closure times.
  for (std::size_t k = 0; k < capture_insts.size(); ++k) {
    if (!assigned[k]) continue;
    const SyncInstance& si = sync.at(capture_insts[k]);
    const TimePs c =
        edges.linear_close(si.ideal_close, break_node) + si.close_offset();
    RiseFall& slot = required[local_index[si.data_in.index()]];
    slot = rf_min(slot, RiseFall{c, c});
  }

  // Backward wavefront, eq. (2) in required-time form.  Already a gather:
  // every successor lives at a strictly higher level, final before it is
  // read, whether the sweep is one descending range or descending levels
  // with chunked wavefronts.
  if (!parallel) {
    select_backward_gather()(cluster, arcs, required, 0,
                             static_cast<std::uint32_t>(n));
  } else {
    const RangeFn bwd = select_backward_gather();
    for (std::size_t l = levels.size() - 1; l-- > 0;) {
      const std::uint32_t base = levels[l];
      const std::size_t count = levels[l + 1] - base;
      pool->parallel_for(count, level_grain(count, tuning),
                         [&](std::size_t b, std::size_t e, int) {
                           bwd(cluster, arcs, required,
                               base + static_cast<std::uint32_t>(b),
                               base + static_cast<std::uint32_t>(e));
                         });
    }
  }
}

PassResult run_analysis_pass(const TimingGraph& graph, const SyncModel& sync,
                             const Cluster& cluster,
                             const std::vector<std::uint32_t>& local_index,
                             const ClockEdgeGraph& edges, std::size_t break_node,
                             const std::vector<SyncId>& capture_insts,
                             const std::vector<bool>& assigned) {
  PassResult res;
  run_analysis_pass_into(graph, sync, cluster, local_index, edges, break_node,
                         capture_insts, assigned, res);
  return res;
}

std::size_t update_analysis_pass(const TimingGraph& graph, const SyncModel& sync,
                                 const Cluster& cluster,
                                 const std::vector<std::uint32_t>& /*local_index*/,
                                 const ClockEdgeGraph& edges, std::size_t break_node,
                                 const std::vector<SyncId>& capture_insts,
                                 const std::vector<bool>& assigned,
                                 const std::vector<std::uint32_t>& fwd_seeds,
                                 const std::vector<std::uint32_t>& bwd_seeds,
                                 PassResult& res, PassWorkspace& ws) {
  ws.ensure(cluster.nodes.size());
  const TArcRec* arcs = graph.arcs_data();
  RiseFall* ready = res.ready.data();
  RiseFall* required = res.required.data();
  std::size_t retraced = 0;

  // Forward: re-derive ready over the forward cone of the seeds.  The sweep
  // visits the cone in ascending local index (= topological) order, so every
  // changed predecessor is settled before its readers; values outside the
  // cone cannot change.  Each cone node is re-derived from scratch by
  // max-folding over its fanin (absent tails fold as the identity); blocked
  // tails never propagate their ready onward.
  retraced += sweep_forward(cluster, fwd_seeds, ws, [&](std::uint32_t li) {
    RiseFall v = res.ready.absent();
    launch_seed(sync, edges, break_node, cluster.nodes[li], v);
    const std::uint32_t end = cluster.in_offsets[li + 1];
    for (std::uint32_t k = cluster.in_offsets[li]; k < end; ++k) {
      const std::uint32_t fl = cluster.in_local[k];
      if (cluster.blocked[fl]) continue;
      const TArcRec& arc = arcs[cluster.in_arc[k]];
      v = rf_max(v, propagate_forward(ready[fl], arc, arc.delay));
    }
    ready[li] = v;
  });

  // Backward: the mirror image over the backward cone, in reverse
  // topological order.  A predecessor reads required through its own fanout
  // regardless of the seed node's role, but blocked predecessors never
  // propagate further back.
  retraced += sweep_backward(cluster, bwd_seeds, ws, [&](std::uint32_t li) {
    RiseFall v = res.required.absent();
    const TNodeId node = cluster.nodes[li];
    if (!sync.captures_at(node).empty()) {
      for (std::size_t k = 0; k < capture_insts.size(); ++k) {
        if (!assigned[k]) continue;
        const SyncInstance& si = sync.at(capture_insts[k]);
        if (si.data_in != node) continue;
        const TimePs c =
            edges.linear_close(si.ideal_close, break_node) + si.close_offset();
        v = rf_min(v, RiseFall{c, c});
      }
    }
    if (!cluster.blocked[li]) {
      const std::uint32_t end = cluster.out_offsets[li + 1];
      for (std::uint32_t k = cluster.out_offsets[li]; k < end; ++k) {
        const TArcRec& arc = arcs[cluster.out_arc[k]];
        v = rf_min(v, propagate_backward(required[cluster.out_local[k]], arc,
                                         arc.delay));
      }
    }
    required[li] = v;
  });

  return retraced;
}

std::size_t pass_cone_size(const Cluster& cluster,
                           const std::vector<std::uint32_t>& fwd_seeds,
                           const std::vector<std::uint32_t>& bwd_seeds,
                           PassWorkspace& ws, std::size_t limit,
                           std::vector<std::uint32_t>* visited) {
  ws.ensure(cluster.nodes.size());
  auto record = [visited](std::uint32_t li) {
    if (visited != nullptr) visited->push_back(li);
  };
  const std::size_t fwd = sweep_forward(cluster, fwd_seeds, ws, record, limit);
  if (fwd > limit) return fwd;
  return fwd + sweep_backward(cluster, bwd_seeds, ws, record, limit - fwd);
}

}  // namespace hb
