#include "net/wire.h"

#include <cstring>

namespace ledgerdb::wire {

bool ValidOp(uint8_t op) { return op < static_cast<uint8_t>(kNumRpcOps); }

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(Status::Code::kDeadlineExceeded);
}

Bytes EncodeHello() {
  Bytes out;
  out.reserve(kHelloSize);
  out.insert(out.end(), kHelloMagic, kHelloMagic + 4);
  PutU32(&out, kWireVersion);
  return out;
}

bool DecodeHello(const uint8_t* data, size_t size) {
  if (size < kHelloSize) return false;
  if (std::memcmp(data, kHelloMagic, 4) != 0) return false;
  uint32_t version = 0;
  std::memcpy(&version, data + 4, 4);
  return version == kWireVersion;
}

void AppendFrame(Bytes* dst, const Bytes& payload) {
  PutU32(dst, static_cast<uint32_t>(payload.size()));
  dst->insert(dst->end(), payload.begin(), payload.end());
}

int ExtractFrame(const uint8_t* data, size_t size, uint32_t max_frame_bytes,
                 Bytes* payload, size_t* consumed) {
  if (size < 4) return 0;
  uint32_t len = 0;
  std::memcpy(&len, data, 4);
  if (len == 0 || len > max_frame_bytes) return -1;
  if (size < 4 + static_cast<size_t>(len)) return 0;
  payload->assign(data + 4, data + 4 + len);
  *consumed = 4 + static_cast<size_t>(len);
  return 1;
}

Bytes RequestFrame::Encode() const {
  Bytes out;
  out.reserve(25 + body.size());
  uint8_t op_byte = static_cast<uint8_t>(op);
  if (trace_id != 0) op_byte |= kOpTraceFlag;
  out.push_back(op_byte);
  PutU64(&out, request_id);
  if (trace_id != 0) {
    PutU64(&out, trace_id);
    PutU64(&out, parent_span);
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool RequestFrame::Decode(const Bytes& payload, RequestFrame* out) {
  if (payload.size() < 9) return false;
  const bool traced = (payload[0] & kOpTraceFlag) != 0;
  const uint8_t op_byte = payload[0] & static_cast<uint8_t>(~kOpTraceFlag);
  if (!ValidOp(op_byte)) return false;
  out->op = static_cast<RpcOp>(op_byte);
  size_t pos = 1;
  if (!GetU64(payload, &pos, &out->request_id)) return false;
  out->trace_id = 0;
  out->parent_span = 0;
  if (traced) {
    // Flag set but header truncated (or trace_id zero, which Encode never
    // produces flagged) is a protocol violation, same as an unknown op.
    if (!GetU64(payload, &pos, &out->trace_id)) return false;
    if (!GetU64(payload, &pos, &out->parent_span)) return false;
    if (out->trace_id == 0) return false;
  }
  out->body.assign(payload.begin() + static_cast<ptrdiff_t>(pos),
                   payload.end());
  return true;
}

Bytes ResponseFrame::Encode() const {
  Bytes out;
  out.reserve(14 + message.size() + body.size());
  out.push_back(static_cast<uint8_t>(op));
  PutU64(&out, request_id);
  out.push_back(code);
  PutLengthPrefixed(&out, Slice(std::string_view(message)));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool ResponseFrame::Decode(const Bytes& payload, ResponseFrame* out) {
  if (payload.size() < 10) return false;
  if (!ValidOp(payload[0])) return false;
  out->op = static_cast<RpcOp>(payload[0]);
  size_t pos = 1;
  if (!GetU64(payload, &pos, &out->request_id)) return false;
  if (pos >= payload.size()) return false;
  uint8_t code = payload[pos++];
  if (!ValidStatusCode(code)) return false;
  out->code = code;
  Bytes msg;
  if (!GetLengthPrefixed(payload, &pos, &msg)) return false;
  out->message.assign(msg.begin(), msg.end());
  out->body.assign(payload.begin() + static_cast<ptrdiff_t>(pos),
                   payload.end());
  return true;
}

ResponseFrame ResponseFrame::From(RpcOp op, uint64_t request_id,
                                  const Status& status) {
  ResponseFrame r;
  r.op = op;
  r.request_id = request_id;
  r.code = static_cast<uint8_t>(status.code());
  r.message = status.message();
  return r;
}

Status ResponseFrame::ToStatus() const {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kVerificationFailed:
      return Status::VerificationFailed(message);
    case Status::Code::kPermissionDenied:
      return Status::PermissionDenied(message);
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kTimestampRejected:
      return Status::TimestampRejected(message);
    case Status::Code::kTransientIO:
      return Status::TransientIO(message);
    case Status::Code::kUnavailable:
      return Status::Unavailable(message);
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
  }
  return Status::Corruption("unknown status code on wire");
}

Bytes EncodeJsnRequest(uint64_t jsn) {
  Bytes out;
  PutU64(&out, jsn);
  return out;
}

bool DecodeJsnRequest(const Bytes& body, uint64_t* jsn) {
  size_t pos = 0;
  return GetU64(body, &pos, jsn) && pos == body.size();
}

Bytes EncodeClueWindowRequest(const std::string& clue, uint64_t begin,
                              uint64_t end) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(std::string_view(clue)));
  PutU64(&out, begin);
  PutU64(&out, end);
  return out;
}

bool DecodeClueWindowRequest(const Bytes& body, std::string* clue,
                             uint64_t* begin, uint64_t* end) {
  size_t pos = 0;
  Bytes raw;
  if (!GetLengthPrefixed(body, &pos, &raw)) return false;
  clue->assign(raw.begin(), raw.end());
  return GetU64(body, &pos, begin) && GetU64(body, &pos, end) &&
         pos == body.size();
}

Bytes EncodeClueRequest(const std::string& clue) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(std::string_view(clue)));
  return out;
}

bool DecodeClueRequest(const Bytes& body, std::string* clue) {
  size_t pos = 0;
  Bytes raw;
  if (!GetLengthPrefixed(body, &pos, &raw) || pos != body.size()) {
    return false;
  }
  clue->assign(raw.begin(), raw.end());
  return true;
}

Bytes EncodeRangeRequest(uint64_t from, uint64_t to) {
  Bytes out;
  PutU64(&out, from);
  PutU64(&out, to);
  return out;
}

bool DecodeRangeRequest(const Bytes& body, uint64_t* from, uint64_t* to) {
  size_t pos = 0;
  return GetU64(body, &pos, from) && GetU64(body, &pos, to) &&
         pos == body.size();
}

Bytes EncodeJsnList(const std::vector<uint64_t>& jsns) {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(jsns.size()));
  for (uint64_t jsn : jsns) PutU64(&out, jsn);
  return out;
}

bool DecodeJsnList(const Bytes& body, std::vector<uint64_t>* jsns) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetU32(body, &pos, &count)) return false;
  // Count must agree with the remaining bytes exactly — a lying count can
  // neither over-allocate nor leave trailing garbage.
  if (body.size() - pos != static_cast<size_t>(count) * 8) return false;
  jsns->assign(count, 0);
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetU64(body, &pos, &(*jsns)[i])) return false;
  }
  return true;
}

Bytes EncodeDeltas(const std::vector<JournalDelta>& deltas) {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(deltas.size()));
  for (const JournalDelta& d : deltas) PutLengthPrefixed(&out, d.Serialize());
  return out;
}

bool DecodeDeltas(const Bytes& body, std::vector<JournalDelta>* deltas) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetU32(body, &pos, &count)) return false;
  deltas->clear();
  deltas->reserve(count < 4096 ? count : 4096);
  for (uint32_t i = 0; i < count; ++i) {
    Bytes raw;
    if (!GetLengthPrefixed(body, &pos, &raw)) return false;
    JournalDelta d;
    if (!JournalDelta::Deserialize(raw, &d)) return false;
    deltas->push_back(std::move(d));
  }
  return pos == body.size();
}

// ---------------------------------------------------------------------------
// Server-side dispatch
// ---------------------------------------------------------------------------

ResponseFrame Dispatch(Ledger* ledger, const RequestFrame& frame) {
  const RpcOp op = frame.op;
  const uint64_t id = frame.request_id;
  const Bytes& body = frame.body;
  auto fail = [&](Status status) {
    return ResponseFrame::From(op, id, std::move(status));
  };
  auto bad_body = [&] {
    return fail(Status::InvalidArgument(std::string("malformed ") +
                                        RpcOpName(op) + " request body"));
  };
  ResponseFrame resp;

  switch (op) {
    case RpcOp::kAppendTx: {
      ClientTransaction tx;
      if (!ClientTransaction::Deserialize(body, &tx)) return bad_body();
      uint64_t jsn = 0;
      Status st = ledger->Append(tx, &jsn);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      PutU64(&resp.body, jsn);
      return resp;
    }
    case RpcOp::kGetReceipt: {
      uint64_t jsn = 0;
      if (!DecodeJsnRequest(body, &jsn)) return bad_body();
      Receipt r;
      Status st = ledger->GetReceipt(jsn, &r);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = r.Serialize();
      return resp;
    }
    case RpcOp::kGetJournal: {
      uint64_t jsn = 0;
      if (!DecodeJsnRequest(body, &jsn)) return bad_body();
      Journal j;
      Status st = ledger->GetJournal(jsn, &j);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = j.Serialize();
      return resp;
    }
    case RpcOp::kGetProof: {
      uint64_t jsn = 0;
      if (!DecodeJsnRequest(body, &jsn)) return bad_body();
      FamProof proof;
      Status st = ledger->GetProof(jsn, &proof);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = proof.Serialize();
      return resp;
    }
    case RpcOp::kGetClueProof: {
      std::string clue;
      uint64_t begin = 0, end = 0;
      if (!DecodeClueWindowRequest(body, &clue, &begin, &end)) {
        return bad_body();
      }
      ClueProof proof;
      Status st = ledger->GetClueProof(clue, begin, end, &proof);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = proof.Serialize();
      return resp;
    }
    case RpcOp::kListTx: {
      std::string clue;
      if (!DecodeClueRequest(body, &clue)) return bad_body();
      std::vector<uint64_t> jsns;
      Status st = ledger->ListTx(clue, &jsns);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = EncodeJsnList(jsns);
      return resp;
    }
    case RpcOp::kGetCommitment: {
      if (!body.empty()) return bad_body();
      SignedCommitment c;
      Status st = ledger->GetCommitment(&c);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = c.Serialize();
      return resp;
    }
    case RpcOp::kGetDelta: {
      uint64_t from = 0, to = 0;
      if (!DecodeRangeRequest(body, &from, &to)) return bad_body();
      std::vector<JournalDelta> deltas;
      Status st = ledger->GetDelta(from, to, &deltas);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = EncodeDeltas(deltas);
      return resp;
    }
    case RpcOp::kGetProofBatch: {
      std::vector<uint64_t> jsns;
      if (!DecodeJsnList(body, &jsns)) return bad_body();
      FamBatchProof proof;
      Status st = ledger->GetProofBatch(jsns, &proof);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = proof.Serialize();
      return resp;
    }
    case RpcOp::kProveClueRange: {
      std::string clue;
      uint64_t from = 0, to = 0;
      if (!DecodeClueWindowRequest(body, &clue, &from, &to)) {
        return bad_body();
      }
      Bytes range_wire;
      Status st = ledger->ProveClueRangeWire(
          clue, static_cast<Timestamp>(from), static_cast<Timestamp>(to),
          &range_wire);
      if (!st.ok()) return fail(std::move(st));
      resp = ResponseFrame::From(op, id, Status::OK());
      resp.body = std::move(range_wire);
      return resp;
    }
  }
  return fail(Status::InvalidArgument("unknown rpc op"));
}

}  // namespace ledgerdb::wire
