#include "service/snapshot_read.hpp"

#include "service/read_eval.hpp"

namespace hb {

QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const SnapshotSource& src,
                                   BudgetTimer& timer) {
  Proto2Request req = proto2_request_of(q);
  if (!is_read_query(q.verb)) req.op = Proto2Op::kText;  // ping: control verb
  QueryResult r;
  TextSink sink(r);
  evaluate_read(req, src, timer, sink);
  return r;
}

QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const AnalysisSnapshot& snap,
                                   BudgetTimer& timer) {
  const SnapshotCopySource src(snap);
  return evaluate_snapshot_read(q, src, timer);
}

}  // namespace hb
