#include "sta/hold_check.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "util/thread_pool.hpp"

namespace hb {
namespace {

/// One worker's state for the source sweeps: the min-delay array (flat
/// TimePs with a +kInfinitePs absence sentinel — unconditional min fold, no
/// optional unwrapping) and the worker's violation bucket.
struct HoldScratch {
  std::vector<TimePs> dmin;
  std::vector<HoldViolation> found;
};

/// One launch source of one cluster: its min-delay sweep, then every
/// (launch, capture) pair it reaches, appending violations to `s.found`.
/// Sources are independent, so any partition across workers finds the same
/// violation set; the final sort+dedup makes the output order a function of
/// that set alone.
void check_source(const SlackEngine& engine, const Cluster& cl, TNodeId src,
                  TimePs hold_margin, TimePs T, const RiseFall* arc_delay,
                  std::size_t stride, std::size_t lane, HoldScratch& s) {
  const TimingGraph& graph = engine.graph();
  const SyncModel& sync = engine.sync();

  // Minimum propagation delay from the source node to every node of the
  // cluster (scalar: min over transitions), swept over the cluster's local
  // CSR in level order.
  s.dmin.assign(cl.nodes.size(), kInfinitePs);
  s.dmin[engine.local_index(src)] = 0;
  for (std::uint32_t li = 0; li < cl.nodes.size(); ++li) {
    const TimePs dn = s.dmin[li];
    if (dn == kInfinitePs || cl.blocked[li]) continue;
    const std::uint32_t ke = cl.out_offsets[li + 1];
    for (std::uint32_t k = cl.out_offsets[li]; k < ke; ++k) {
      const std::uint32_t ai = cl.out_arc[k];
      const RiseFall d = arc_delay != nullptr ? arc_delay[ai * stride + lane]
                                              : graph.arc(ai).delay;
      TimePs& slot = s.dmin[cl.out_local[k]];
      slot = std::min(slot, dn + d.min());
    }
  }

  for (TNodeId sink : cl.sink_nodes) {
    const TimePs d = s.dmin[engine.local_index(sink)];
    if (d == kInfinitePs) continue;
    for (SyncId li : sync.launches_at(src)) {
      const SyncInstance& launch = sync.at(li);
      for (SyncId cj : sync.captures_at(sink)) {
        const SyncInstance& cap = sync.at(cj);
        if (!cap.inst.valid() && cap.is_virtual) continue;  // PO: no race
        // Previous closure of the capture element relative to the launch's
        // assertion: the closure instance (of the same physical element) at
        // the smallest cyclic distance at-or-before the launch edge.
        TimePs gap = kInfinitePs;
        TimePs prev_offset = 0;
        for (SyncId ck : sync.captures_at(sink)) {
          const SyncInstance& other = sync.at(ck);
          if (other.inst != cap.inst || other.is_virtual != cap.is_virtual) {
            continue;
          }
          const TimePs g = mod_period(launch.ideal_assert - other.ideal_close, T);
          if (g < gap) {
            gap = g;
            prev_offset = other.close_offset();
          }
        }
        if (gap == kInfinitePs) continue;
        // Earliest arrival vs. previous closure, both in actual time.
        const TimePs margin = launch.assert_offset() + d + gap - prev_offset;
        if (margin < hold_margin) s.found.push_back({li, cj, margin});
      }
    }
  }
}

}  // namespace

std::vector<HoldViolation> check_hold(const SlackEngine& engine,
                                      TimePs hold_margin, ThreadPool* pool,
                                      const RiseFall* arc_delay,
                                      std::size_t stride,
                                      std::size_t lane) {
  const ClusterSet& clusters = engine.clusters();
  const TimePs T = engine.sync().overall_period();

  // Every (cluster, source) pair is one independent sweep.
  struct Item {
    const Cluster* cl;
    TNodeId src;
  };
  std::vector<Item> items;
  for (std::uint32_t c = 0; c < clusters.num_clusters(); ++c) {
    const Cluster& cl = clusters.cluster(ClusterId(c));
    if (cl.sink_nodes.empty()) continue;
    for (TNodeId src : cl.source_nodes) items.push_back(Item{&cl, src});
  }
  if (items.empty()) return {};

  // One task per worker, each pulling items into its own scratch.
  const std::size_t workers =
      pool != nullptr
          ? std::min(static_cast<std::size_t>(pool->size()), items.size())
          : 1;
  std::vector<HoldScratch> scratch(workers);
  std::atomic<std::size_t> next{0};
  const auto drain = [&](HoldScratch& s) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < items.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      check_source(engine, *items[i].cl, items[i].src, hold_margin, T,
                   arc_delay, stride, lane, s);
    }
  };
  if (workers == 1) {
    drain(scratch[0]);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(workers);
    for (HoldScratch& s : scratch) tasks.push_back([&drain, &s] { drain(s); });
    pool->run_batch(tasks);
  }

  std::vector<HoldViolation> out = std::move(scratch[0].found);
  for (std::size_t w = 1; w < scratch.size(); ++w) {
    out.insert(out.end(), scratch[w].found.begin(), scratch[w].found.end());
  }

  // Deduplicate identical (launch, capture) pairs keeping the worst margin.
  // Sorting on the full (launch, capture, margin) key also makes the output
  // independent of which worker found what.
  std::sort(out.begin(), out.end(), [](const HoldViolation& a, const HoldViolation& b) {
    if (a.launch != b.launch) return a.launch < b.launch;
    if (a.capture != b.capture) return a.capture < b.capture;
    return a.margin < b.margin;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const HoldViolation& a, const HoldViolation& b) {
                          return a.launch == b.launch && a.capture == b.capture;
                        }),
            out.end());
  return out;
}

}  // namespace hb
