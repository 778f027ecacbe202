// Protocol frontends of the query service: the line protocol (default) and
// the negotiated binary protocol v2 (service/proto2.hpp).
//
// A ServiceHost owns the active Session (the `load` verb replaces it); a
// ProtocolHandler holds the per-connection state: the batch collector, the
// protocol mode (text until `proto 2` is acknowledged), the grow-only
// reply arenas, and the reusable CancelToken/BudgetTimer pair that is
// reset and re-armed for every request (util/cancel reuse semantics).
// serve_stream() runs the blocking stdio loop; the TCP frontend
// (tcp_server) runs one handler per connection against the same host.
//
// Warm restart: when ServiceConfig::snapshot_dir is set the host opens a
// SnapshotStore, loads the newest valid persisted snapshot at construction
// and serves read queries (slack, worst_paths, check_hold, summary, ...)
// from that warm replica before any design is loaded — byte-identical to
// the session that persisted it, because both sides answer through the one
// read evaluator (service/read_eval.hpp).  The warm replica is an mmap'd
// zero-copy SnapshotView (snapshot_store.hpp load_newest_source).  Invalid
// files found on the way are quarantined and counted; the host degrades to
// a cold start when nothing valid remains.
// Once a session is installed it saves every published snapshot back into
// the same store.
//
// Replica mode (ServiceConfig::replica): a read-only host over the
// snapshot store — `load` is disabled, every read answers from the warm
// source, and `snapshot load` re-maps to a newer generation in place.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "netlist/library.hpp"
#include "service/proto2.hpp"
#include "service/session.hpp"
#include "service/snapshot_store.hpp"
#include "service/snapshot_view.hpp"

namespace hb {

struct ServiceConfig {
  HummingbirdOptions analysis;
  SessionOptions session;
  /// Cell library used by `load`; the built-in standard library when null.
  std::shared_ptr<const Library> lib;
  /// Directory of the persistent snapshot store; empty disables
  /// persistence (no store, no warm restart, `snapshot` verbs rejected).
  std::string snapshot_dir;
  /// Snapshot generations retained per design (snapshot_store.hpp).
  std::size_t snapshot_retain = 4;
  /// Read-only replica over the snapshot store: `load` is disabled and the
  /// host only ever serves its warm source.  Requires snapshot_dir.
  bool replica = false;
};

class ServiceHost {
 public:
  explicit ServiceHost(ServiceConfig config = {});
  ~ServiceHost();

  /// Install a ready-made session (embedded use and tests).
  void adopt(std::shared_ptr<Session> session);

  /// Load a netlist and timing-spec file and start a fresh session,
  /// replacing any current one.  Returns the reply to send.
  QueryResult load(const std::string& netlist_path,
                   const std::string& spec_path,
                   const std::string& lib_path = "");

  /// The active session; null until load()/adopt().  Connections fetch it
  /// per request, so a concurrent `load` swaps sessions between requests,
  /// never mid-request.
  std::shared_ptr<Session> session() const;

  /// The warm replica loaded from the snapshot store: set at construction
  /// (newest valid persisted snapshot) and by `snapshot load`.  Read
  /// queries are served from it while no session is active; null when the
  /// store is absent, empty, or fully corrupt (cold start).
  std::shared_ptr<const SnapshotSource> warm_source() const;
  /// True when a warm source exists: it is always an mmap'd SnapshotView.
  bool warm_mapped() const;

  /// Execute a `snapshot save|load|stat` query (null store → structured
  /// rejection, never a crash).
  QueryResult snapshot_command(const ParsedQuery& q);

  /// The persistent store; null when snapshot_dir was empty.
  SnapshotStore* store() const { return store_.get(); }

  const ServiceConfig& config() const { return config_; }

 private:
  ServiceConfig config_;
  std::unique_ptr<SnapshotStore> store_;
  mutable std::mutex mutex_;
  std::shared_ptr<Session> session_;
  // Warm source; its image facts are read from the view (mutex_).
  std::shared_ptr<const SnapshotView> warm_view_;
  // Warm-load outcome held until the first session exists to carry the
  // recovery counters in its ServiceMetrics (mutex_).
  bool warm_loaded_ = false;
  std::uint64_t warm_rejected_ = 0;
};

/// Per-connection request loop state.
class ProtocolHandler {
 public:
  explicit ProtocolHandler(ServiceHost& host);

  /// Handle one request line and return the wire-format reply text
  /// (newline-terminated; empty for blank/comment lines and while a batch
  /// is collecting).  The returned reference points into a
  /// connection-owned arena reused by the next handle_line call.  Sets
  /// quit() once a `quit` line is seen.
  const std::string& handle_line(const std::string& line);

  /// As handle_line, appending the reply text to `wire` (which is not
  /// cleared first).
  void handle_line_into(const std::string& line, std::string& wire);

  /// Handle one binary protocol-v2 request frame payload (without its
  /// 4-byte length prefix) and return the complete reply frame — length
  /// prefix included — in a connection-owned arena reused by the next
  /// call.  Safe on arbitrary payload bytes.
  const std::string& handle_frame(std::string_view payload);

  bool quit() const { return quit_; }

  /// True once `proto 2` was acknowledged: the connection's subsequent
  /// input is length-prefixed binary frames for handle_frame.
  bool binary() const { return binary_; }

  /// Error replies emitted by handle_frame since construction.
  std::uint64_t frame_errors() const { return frame_errors_; }

  /// True while `batch N` is still collecting its N lines.
  bool collecting() const { return batch_pending_ > 0; }

 private:
  // Per-connection cache of successful typed reply frames, keyed by the raw
  // request payload bytes.  Valid for exactly one served source: the map
  // clears whenever the owner of the served snapshot or warm source
  // changes.  Heterogeneous lookup keeps cache hits allocation-free.
  struct FrameKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  static constexpr std::size_t kTypedCacheCap = 4096;

  void dispatch_into(const ParsedQuery& q, std::string& wire);
  /// Reset the connection's token and re-arm its timer for one request
  /// (0 ms: no deadline); the pair is reused across requests.
  BudgetTimer& arm(double deadline_ms);
  QueryResult run_batch();
  static void append_result(const QueryResult& r, std::string& wire);

  ServiceHost* host_;
  CancelToken token_;
  BudgetTimer timer_;
  bool quit_ = false;
  bool binary_ = false;
  std::size_t batch_pending_ = 0;
  std::vector<std::string> batch_lines_;
  ParsedQuery parsed_;      // reused across handle_line calls
  std::string wire_;        // text reply arena (handle_line)
  std::string frame_wire_;  // frame reply arena (handle_frame)
  std::string text_scratch_;  // kText unwrap buffer
  std::uint64_t frame_errors_ = 0;
  std::unordered_map<std::string, std::string, FrameKeyHash, std::equal_to<>>
      typed_cache_;
  // Owner of the source the cache was filled from, compared by owner
  // identity.  Snapshot ids restart at 1 in every session and a freed
  // snapshot's address can be reused, but the weak reference keeps the
  // owner's control block alive, so no later snapshot or source can
  // compare equal to it.
  std::weak_ptr<const void> typed_cache_owner_;
};

/// The `help` payload (two-space-indented continuation lines).
std::vector<std::string> protocol_help_lines();

/// Blocking request loop: one line in, one reply out, until EOF or `quit`.
/// After `proto 2` is negotiated the loop switches to binary frames.
/// Returns the number of error replies emitted.
int serve_stream(ServiceHost& host, std::istream& in, std::ostream& out);

}  // namespace hb
