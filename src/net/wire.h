#ifndef LEDGERDB_NET_WIRE_H_
#define LEDGERDB_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/transport.h"

namespace ledgerdb::wire {

/// Socket framing over the canonical encodings the proof fuzzer locks
/// down. A connection opens with an 8-byte hello (magic + version); after
/// that both directions exchange frames:
///
///   frame    := [u32 len][payload]          len = payload size, 1..max
///   request  := [u8 op][u64 request_id][body]
///             | [u8 op|0x80][u64 request_id][u64 trace_id]
///               [u64 parent_span][body]
///   response := [u8 op][u64 request_id][u8 code][lp message][body]
///
/// The high bit of the op byte (kOpTraceFlag) is a trace-context marker:
/// when set, a 16-byte trace header (trace_id, parent span id) sits
/// between the request id and the body. Valid ops use only the low 7 bits,
/// so clients that predate tracing emit byte-identical frames (flag clear,
/// no header) and are served unchanged — the flag is the whole
/// backward-compatibility story, no version bump needed.
/// Request/response bodies reuse the existing Serialize()/Deserialize()
/// formats (a ClueRangeResult response body IS Ledger::ProveClueRangeWire
/// output). Every decoder is strict: trailing bytes, truncated fields,
/// unknown ops and unknown status codes all fail, and a framing failure
/// closes the connection — lengths from the peer are never trusted past
/// `max_frame_bytes`.

inline constexpr uint8_t kHelloMagic[4] = {'L', 'D', 'B', 'W'};
inline constexpr uint32_t kWireVersion = 1;
inline constexpr size_t kHelloSize = 8;

/// Request op-byte flag: an optional [u64 trace_id][u64 parent_span]
/// header follows the request id. Decode strips it before op validation.
inline constexpr uint8_t kOpTraceFlag = 0x80;

/// Hard ceiling on a single frame payload. Anything larger is a protocol
/// violation (or an attack on the server's memory) and closes the
/// connection before any allocation happens.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// 8-byte connection preamble: magic + u32 version.
Bytes EncodeHello();

/// Validates an 8-byte preamble. Junk magic or a version mismatch is a
/// handshake failure (connection close), never a crash.
bool DecodeHello(const uint8_t* data, size_t size);

/// Appends [u32 len][payload] to `dst`. Payload must be non-empty and
/// within `max_frame_bytes` (callers build payloads, so this only guards
/// programming errors).
void AppendFrame(Bytes* dst, const Bytes& payload);

/// Incremental frame extraction from a connection read buffer. Returns:
///   +1  a complete frame: *payload receives the bytes, *consumed the
///       total size (4 + len) to erase from the buffer front
///    0  incomplete — need more bytes
///   -1  protocol violation (len == 0 or len > max_frame_bytes): close
int ExtractFrame(const uint8_t* data, size_t size, uint32_t max_frame_bytes,
                 Bytes* payload, size_t* consumed);

struct RequestFrame {
  RpcOp op = RpcOp::kAppendTx;
  uint64_t request_id = 0;
  /// Cross-process trace context (obs/trace.h). 0 = untraced: Encode emits
  /// the legacy layout with the flag bit clear.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  Bytes body;

  /// Frame payload (no length prefix — AppendFrame adds it).
  Bytes Encode() const;
  /// Strict decode; false on truncation, unknown op, a set trace flag with
  /// a truncated trace header, or trailing bytes beyond the op-specific
  /// body (bodies are validated by Dispatch).
  static bool Decode(Slice payload, RequestFrame* out);
};

struct ResponseFrame {
  RpcOp op = RpcOp::kAppendTx;
  uint64_t request_id = 0;
  uint8_t code = 0;  ///< Status::Code as u8
  std::string message;
  Bytes body;

  Bytes Encode() const;
  static bool Decode(Slice payload, ResponseFrame* out);

  /// Builds the error/OK envelope for `status` (body left empty).
  static ResponseFrame From(RpcOp op, uint64_t request_id,
                            const Status& status);
  /// Reconstructs the Status carried by this response.
  Status ToStatus() const;
};

/// True if `op` is one of the kNumRpcOps valid operations.
bool ValidOp(uint8_t op);

/// True if `code` round-trips through Status::Code.
bool ValidStatusCode(uint8_t code);

// ---------------------------------------------------------------------------
// Per-op body codecs (strict: truncation AND trailing bytes both fail)
// ---------------------------------------------------------------------------
//
// Shared by WireTransport (encode request / decode response) and Dispatch
// (decode request / encode response) so the two sides can never drift. Response bodies for proof/journal/receipt/commitment ops
// are the canonical Serialize() bytes and need no helpers here.

Bytes EncodeJsnRequest(uint64_t jsn);
bool DecodeJsnRequest(Slice body, uint64_t* jsn);

/// GetClueProof(begin, end) and ProveClueRange(from, to) — same shape,
/// [lp clue][u64][u64]; Timestamps travel as u64 two's complement.
Bytes EncodeClueWindowRequest(const std::string& clue, uint64_t begin,
                              uint64_t end);
bool DecodeClueWindowRequest(Slice body, std::string* clue, uint64_t* begin,
                             uint64_t* end);

Bytes EncodeClueRequest(const std::string& clue);
bool DecodeClueRequest(Slice body, std::string* clue);

Bytes EncodeRangeRequest(uint64_t from, uint64_t to);
bool DecodeRangeRequest(Slice body, uint64_t* from, uint64_t* to);

/// GetProofBatch request and ListTx/AppendTx-adjacent responses:
/// [u32 count][u64 jsn]*.
Bytes EncodeJsnList(const std::vector<uint64_t>& jsns);
bool DecodeJsnList(Slice body, std::vector<uint64_t>* jsns);

/// GetDelta response: [u32 count][lp delta]*.
Bytes EncodeDeltas(const std::vector<JournalDelta>& deltas);
bool DecodeDeltas(Slice body, std::vector<JournalDelta>* deltas);

// ---------------------------------------------------------------------------
// Server-side dispatch
// ---------------------------------------------------------------------------

/// Executes one decoded request against `ledger`: the one place an RpcOp
/// becomes a Ledger call. LedgerServer workers call it under their ledger
/// mutex; LocalTransport calls it after looping the request through the
/// frame codec. A body that fails its strict decode is answered
/// InvalidArgument without touching the ledger; ledger errors pass
/// through with their code and message.
ResponseFrame Dispatch(Ledger* ledger, const RequestFrame& frame);

}  // namespace ledgerdb::wire

#endif  // LEDGERDB_NET_WIRE_H_
