// Snapshot read evaluation, text replies — one pure function from (query,
// snapshot) to reply text, shared by every serving surface.  It runs the one
// read evaluator (read_eval.hpp) that proto2_evaluate runs for typed
// replies, with the text sink; a live Session, a warm-restarted host and a
// read-only replica serving an mmap'd SnapshotView all evaluate through the
// SnapshotSource interface, so every surface and both protocols answer
// byte-identically (tests/snapshot_store_test.cpp, tests/proto2_test.cpp).
//
// check_hold and gen_constraints are read queries here: they evaluate the
// hold-pair and constraint captures embedded in the snapshot, never the
// analyser.  Snapshots taken without those captures answer with a
// structured service-rejected error instead of stale or partial data.
#pragma once

#include <string>

#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_source.hpp"
#include "util/cancel.hpp"

namespace hb {

/// Evaluate one read query (is_read_query(q.verb)) against any snapshot
/// source, appending the reply's wire text to `wire`.  Pure: same query +
/// same source data -> same reply bytes, on any thread.  Writes straight
/// into `wire`, so a reply allocates nothing once `wire` has grown.
ReplyStatus render_snapshot_read(const ParsedQuery& q, const SnapshotSource& src,
                                 BudgetTimer& timer, std::string& wire);

/// As render_snapshot_read, returning the reply as a QueryResult.
QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const SnapshotSource& src,
                                   BudgetTimer& timer);

/// Convenience overload for a decoded snapshot (adapts it on the stack).
QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const AnalysisSnapshot& snap,
                                   BudgetTimer& timer);

}  // namespace hb
