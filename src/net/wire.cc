#include "net/wire.h"

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
  ByteReader r(Slice(data, size));
  return r.Fixed(4) == Slice(kHelloMagic, 4) && r.U32() == kWireVersion &&
         r.ok();
}

void AppendFrame(Bytes* dst, const Bytes& payload) {
  PutU32(dst, static_cast<uint32_t>(payload.size()));
  dst->insert(dst->end(), payload.begin(), payload.end());
}

int ExtractFrame(const uint8_t* data, size_t size, uint32_t max_frame_bytes,
                 Bytes* payload, size_t* consumed) {
  ByteReader r(Slice(data, size));
  const uint32_t len = r.U32();
  if (!r.ok()) return 0;
  if (len == 0 || len > max_frame_bytes) return -1;
  const Slice frame = r.Fixed(len);
  if (!r.ok()) return 0;
  payload->assign(frame.data(), frame.data() + frame.size());
  *consumed = size - r.remaining();
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

bool RequestFrame::Decode(Slice payload, RequestFrame* out) {
  ByteReader r(payload);
  const uint8_t first = r.U8();
  const bool traced = (first & kOpTraceFlag) != 0;
  const uint8_t op_byte = first & static_cast<uint8_t>(~kOpTraceFlag);
  if (!ValidOp(op_byte)) return false;
  out->op = static_cast<RpcOp>(op_byte);
  out->request_id = r.U64();
  out->trace_id = 0;
  out->parent_span = 0;
  if (traced) {
    // Flag set but header truncated (or trace_id zero, which Encode never
    // produces flagged) is a protocol violation, same as an unknown op.
    out->trace_id = r.U64();
    out->parent_span = r.U64();
    if (out->trace_id == 0) return false;
  }
  const Slice body = r.Fixed(r.remaining());
  out->body.assign(body.data(), body.data() + body.size());
  return r.ok();
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

bool ResponseFrame::Decode(Slice payload, ResponseFrame* out) {
  ByteReader r(payload);
  const uint8_t op = r.U8();
  out->request_id = r.U64();
  out->code = r.U8();
  if (!r.ok() || !ValidOp(op) || !ValidStatusCode(out->code)) return false;
  out->op = static_cast<RpcOp>(op);
  out->message = r.LengthPrefixed().ToString();
  const Slice body = r.Fixed(r.remaining());
  out->body.assign(body.data(), body.data() + body.size());
  return r.ok();
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

bool DecodeJsnRequest(Slice body, uint64_t* jsn) {
  ByteReader r(body);
  *jsn = r.U64();
  return r.AtEnd();
}

Bytes EncodeClueWindowRequest(const std::string& clue, uint64_t begin,
                              uint64_t end) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(std::string_view(clue)));
  PutU64(&out, begin);
  PutU64(&out, end);
  return out;
}

bool DecodeClueWindowRequest(Slice body, std::string* clue, uint64_t* begin,
                             uint64_t* end) {
  ByteReader r(body);
  *clue = r.LengthPrefixed().ToString();
  *begin = r.U64();
  *end = r.U64();
  return r.AtEnd();
}

Bytes EncodeClueRequest(const std::string& clue) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(std::string_view(clue)));
  return out;
}

bool DecodeClueRequest(Slice body, std::string* clue) {
  ByteReader r(body);
  *clue = r.LengthPrefixed().ToString();
  return r.AtEnd();
}

Bytes EncodeRangeRequest(uint64_t from, uint64_t to) {
  Bytes out;
  PutU64(&out, from);
  PutU64(&out, to);
  return out;
}

bool DecodeRangeRequest(Slice body, uint64_t* from, uint64_t* to) {
  ByteReader r(body);
  *from = r.U64();
  *to = r.U64();
  return r.AtEnd();
}

Bytes EncodeJsnList(const std::vector<uint64_t>& jsns) {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(jsns.size()));
  for (uint64_t jsn : jsns) PutU64(&out, jsn);
  return out;
}

bool DecodeJsnList(Slice body, std::vector<uint64_t>* jsns) {
  ByteReader r(body);
  const uint32_t count = r.U32();
  // Count must agree with the remaining bytes exactly — a lying count can
  // neither over-allocate nor leave trailing garbage.
  if (!r.ok() || r.remaining() != static_cast<size_t>(count) * 8) return false;
  jsns->assign(count, 0);
  for (uint64_t& jsn : *jsns) jsn = r.U64();
  return r.AtEnd();
}

Bytes EncodeDeltas(const std::vector<JournalDelta>& deltas) {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(deltas.size()));
  for (const JournalDelta& d : deltas) PutLengthPrefixed(&out, d.Serialize());
  return out;
}

bool DecodeDeltas(Slice body, std::vector<JournalDelta>* deltas) {
  ByteReader r(body);
  const uint32_t count = r.Count(UINT32_MAX);
  deltas->clear();
  deltas->reserve(count < 4096 ? count : 4096);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.Nested(&deltas->emplace_back())) return false;
  }
  return r.AtEnd();
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
