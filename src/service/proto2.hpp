// Binary query protocol v2 (docs/SERVICE.md "Binary protocol v2").
//
// Negotiated in-band: a connection starts in the line protocol and switches
// after `proto 2` is acknowledged.  From then on both directions carry
// length-prefixed frames: a u32 little-endian payload length followed by
// the payload.  Request payloads are one opcode byte plus a fixed-width
// body; response payloads are one status byte followed by either a typed
// body (status 0, opcode echoed), a structured error (status 1, u16
// DiagCode + message), or a verbatim text reply (status 2 — the escape
// hatch that keeps every line-protocol verb reachable from v2).
//
// Typed replies carry raw values (little-endian integers, u32-prefixed
// strings, picoseconds as i64), not formatted text.  proto2_evaluate and
// evaluate_snapshot_read run one evaluation (read_eval.hpp) into a frame
// and into text, and proto2_render_payload drives the same text formatter
// from a frame, so a typed reply renders to the proto-1 bytes by
// construction (tests/proto2_test.cpp keeps the differentials).  The
// request decoder and the renderer are bounds-checked end to end and safe
// on arbitrary bytes (the fixed-seed fuzz CI job).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/query.hpp"
#include "service/snapshot_source.hpp"
#include "util/cancel.hpp"

namespace hb {

/// Upper bound on a request frame's payload length; oversized frames are
/// answered with a structured error and the connection closes.  Replies
/// are not bounded (a worst_paths reply can be large).
inline constexpr std::uint32_t kProto2MaxFrame = 1u << 20;

/// Request opcodes (first payload byte).  kText wraps one line-protocol
/// request verbatim; all other opcodes are typed read verbs.
enum class Proto2Op : std::uint8_t {
  kText = 0x00,
  kPing = 0x01,
  kSummary = 0x02,
  kSlack = 0x03,           // body: node name (rest of frame)
  kWorstPaths = 0x04,      // body: u32 K
  kHistogram = 0x05,       // body: u32 bins
  kConstraints = 0x06,     // body: instance name (rest of frame)
  kCheckHold = 0x07,       // body: i64 margin (ps)
  kGenConstraints = 0x08,  // body: empty
  kCorner = 0x09,          // body: u8 sub, str selector, sub body
};

/// First byte of every response payload.
enum class Proto2Status : std::uint8_t {
  kTyped = 0,  // u8 opcode echo + typed body
  kError = 1,  // u16 DiagCode + message bytes
  kText = 2,   // verbatim proto-1 reply text
};

/// The `sub` byte of a kCorner request/reply meaning `corner list`; any
/// other value is the Proto2Op of the scoped read verb.
inline constexpr std::uint8_t kProto2CornerList = 0xFF;

/// One read request: a decoded frame payload, or a parsed text query
/// (read_eval.hpp).  String fields view into those bytes — keep them alive
/// until evaluation finishes.
struct Proto2Request {
  Proto2Op op = Proto2Op::kText;
  bool ok = false;
  DiagCode code = DiagCode::kParseSyntax;  // when !ok
  std::string error;                       // when !ok
  std::string_view text;      // kText: the wrapped request line
  std::string_view name;      // kSlack node / kConstraints instance
  std::uint32_t count = 0;    // kWorstPaths K / kHistogram bins
  TimePs margin = 0;          // kCheckHold
  bool corner_list = false;   // kCorner: `corner list`
  Proto2Op sub = Proto2Op::kText;  // kCorner: scoped verb
  std::string_view selector;  // kCorner: corner name or index
};

/// Decode and validate one request payload (without the length prefix).
/// Never throws on arbitrary bytes; malformed input yields ok == false
/// with the structured error to send back.
Proto2Request proto2_decode_request(std::string_view payload);

struct Proto2Eval {
  bool ok = true;
  bool timed_out = false;
};

/// Evaluate one typed read request against a snapshot source, appending a
/// complete response frame (length prefix included) to `out`; an error or
/// deadline mid-reply replaces the half-written frame with an error frame.
/// proto2_render_payload(reply) reproduces evaluate_snapshot_read's text.
Proto2Eval proto2_evaluate(const Proto2Request& req, const SnapshotSource& src,
                           BudgetTimer& timer, std::string& out);

/// Append an error / verbatim-text / ping response frame to `out`.
void proto2_error_frame(DiagCode code, std::string_view message,
                        std::string& out);
void proto2_text_frame(std::string_view text, std::string& out);
void proto2_ping_frame(std::string& out);

/// Client side: encode a parsed query as a typed request frame.  Returns
/// false (appending nothing) when the verb has no typed opcode — wrap the
/// original line with proto2_encode_text instead.
bool proto2_encode_request(const ParsedQuery& q, std::string& out);
void proto2_encode_text(std::string_view line, std::string& out);

/// Client side: render one response payload (without the length prefix)
/// back into proto-1 reply text, appended to `text`.  Returns false on a
/// malformed payload, appending nothing.  Safe on arbitrary bytes.
bool proto2_render_payload(std::string_view payload, std::string& text);

}  // namespace hb
