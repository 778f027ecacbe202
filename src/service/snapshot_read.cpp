#include "service/snapshot_read.hpp"

#include "service/read_eval.hpp"

namespace hb {

ReplyStatus render_snapshot_read(const ParsedQuery& q, const SnapshotSource& src,
                                 BudgetTimer& timer, std::string& wire) {
  Proto2Request req = proto2_request_of(q);
  if (!is_read_query(q.verb)) req.op = Proto2Op::kText;  // ping: control verb
  TextSink sink(wire);
  evaluate_read(req, src, timer, sink);
  return sink.status();
}

QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const SnapshotSource& src,
                                   BudgetTimer& timer) {
  std::string wire;
  const ReplyStatus status = render_snapshot_read(q, src, timer, wire);
  return from_wire(wire, status);
}

QueryResult evaluate_snapshot_read(const ParsedQuery& q,
                                   const AnalysisSnapshot& snap,
                                   BudgetTimer& timer) {
  const SnapshotCopySource src(snap);
  return evaluate_snapshot_read(q, src, timer);
}

}  // namespace hb
