#include "net/transport.h"

#include <algorithm>
#include <iterator>

#include "net/wire.h"

namespace ledgerdb {

namespace {

/// Deserializes a canonical wire response body, mapping decode failure
/// to non-retriable Corruption (the bytes, not the transport, are bad).
template <typename T>
Status DecodeBody(const Bytes& body, T* out, const char* what) {
  if (!T::Deserialize(body, out)) {
    return Status::Corruption(std::string(what) +
                              " response body undecodable");
  }
  return Status::OK();
}

/// One hop through the socket framing: length prefix on, frame extracted
/// under the default frame cap. False when `payload` does not fit a frame.
bool Reframe(const Bytes& payload, Bytes* out) {
  Bytes frame;
  wire::AppendFrame(&frame, payload);
  size_t consumed = 0;
  return wire::ExtractFrame(frame.data(), frame.size(),
                            wire::kDefaultMaxFrameBytes, out, &consumed) > 0;
}

}  // namespace

Status ReadDeltas(LedgerTransport* transport, const RetryPolicy& retry,
                  uint64_t from, uint64_t to, std::vector<JournalDelta>* out) {
  out->clear();
  uint64_t span = wire::kMaxDeltasPerReply;
  while (from < to) {
    const uint64_t end = std::min(to, from + span);
    std::vector<JournalDelta> page;
    Status st = RetryTransient(
        retry, [&] { return transport->GetDelta(from, end, &page); });
    if (st.IsOutOfRange() && end - from > 1) {
      span = (end - from) / 2;
      continue;
    }
    LEDGERDB_RETURN_IF_ERROR(st);
    if (page.size() != end - from) {
      return Status::VerificationFailed(
          "journal delta does not cover the committed range");
    }
    std::move(page.begin(), page.end(), std::back_inserter(*out));
    from = end;
  }
  return Status::OK();
}

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kAppendTx:
      return "AppendTx";
    case RpcOp::kGetReceipt:
      return "GetReceipt";
    case RpcOp::kGetJournal:
      return "GetJournal";
    case RpcOp::kGetProof:
      return "GetProof";
    case RpcOp::kGetClueProof:
      return "GetClueProof";
    case RpcOp::kListTx:
      return "ListTx";
    case RpcOp::kGetCommitment:
      return "GetCommitment";
    case RpcOp::kGetDelta:
      return "GetDelta";
    case RpcOp::kGetProofBatch:
      return "GetProofBatch";
    case RpcOp::kProveClueRange:
      return "ProveClueRange";
    case RpcOp::kGetHeaders:
      return "GetHeaders";
  }
  return "Unknown";
}

Status WireTransport::AppendTx(const ClientTransaction& tx, uint64_t* jsn) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(Call(RpcOp::kAppendTx, tx.Serialize(), &resp));
  if (!wire::DecodeJsnRequest(resp, jsn)) {
    return Status::Corruption("append response body undecodable");
  }
  return Status::OK();
}

Status WireTransport::GetReceipt(uint64_t jsn, Receipt* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetReceipt, wire::EncodeJsnRequest(jsn), &resp));
  return DecodeBody(resp, out, "receipt");
}

Status WireTransport::GetJournal(uint64_t jsn, Journal* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetJournal, wire::EncodeJsnRequest(jsn), &resp));
  return DecodeBody(resp, out, "journal");
}

Status WireTransport::GetProof(uint64_t jsn, FamProof* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetProof, wire::EncodeJsnRequest(jsn), &resp));
  return DecodeBody(resp, out, "fam proof");
}

Status WireTransport::GetClueProof(const std::string& clue, uint64_t begin,
                                   uint64_t end, ClueProof* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetClueProof,
           wire::EncodeClueWindowRequest(clue, begin, end), &resp));
  return DecodeBody(resp, out, "clue proof");
}

Status WireTransport::ListTx(const std::string& clue,
                             std::vector<uint64_t>* jsns) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kListTx, wire::EncodeClueRequest(clue), &resp));
  if (!wire::DecodeJsnList(resp, jsns)) {
    return Status::Corruption("jsn list response body undecodable");
  }
  return Status::OK();
}

Status WireTransport::GetCommitment(SignedCommitment* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(Call(RpcOp::kGetCommitment, Bytes(), &resp));
  return DecodeBody(resp, out, "commitment");
}

Status WireTransport::GetDelta(uint64_t from, uint64_t to,
                               std::vector<JournalDelta>* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetDelta, wire::EncodeRangeRequest(from, to), &resp));
  if (!wire::DecodeDeltas(resp, out)) {
    return Status::Corruption("delta response body undecodable");
  }
  return Status::OK();
}

Status WireTransport::GetProofBatch(const std::vector<uint64_t>& jsns,
                                    FamBatchProof* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kGetProofBatch, wire::EncodeJsnList(jsns), &resp));
  return DecodeBody(resp, out, "batch proof");
}

Status WireTransport::ProveClueRange(const std::string& clue, Timestamp from,
                                     Timestamp to, ClueRangeResult* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(
      Call(RpcOp::kProveClueRange,
           wire::EncodeClueWindowRequest(clue, static_cast<uint64_t>(from),
                                         static_cast<uint64_t>(to)),
           &resp));
  return DecodeBody(resp, out, "clue range");
}

Status WireTransport::GetHeaders(uint64_t first_height, uint64_t end_height,
                                 std::vector<BlockHeader>* out) {
  Bytes resp;
  LEDGERDB_RETURN_IF_ERROR(Call(
      RpcOp::kGetHeaders, wire::EncodeRangeRequest(first_height, end_height),
      &resp));
  return wire::DecodeHeaders(resp, out)
             ? Status::OK()
             : Status::Corruption("header list response body undecodable");
}

LocalTransport::LocalTransport(Ledger* ledger)
    : ledger_(ledger), uri_(ledger->uri()) {}

Status LocalTransport::CheckDeadline() const {
  if (request_deadline_us_ > 0 &&
      simulated_latency_us_ >= request_deadline_us_) {
    return Status::DeadlineExceeded(
        "request deadline exceeded (" +
        std::to_string(simulated_latency_us_) + " us simulated >= " +
        std::to_string(request_deadline_us_) + " us budget)");
  }
  return Status::OK();
}

Status LocalTransport::Call(RpcOp op, const Bytes& body, Bytes* resp_body) {
  LEDGERDB_RETURN_IF_ERROR(CheckDeadline());
  wire::RequestFrame req;
  req.op = op;
  req.request_id = ++next_request_id_;
  req.body = body;
  Bytes payload;
  wire::RequestFrame served;
  if (!Reframe(req.Encode(), &payload) ||
      !wire::RequestFrame::Decode(payload, &served)) {
    return Status::InvalidArgument(std::string(RpcOpName(op)) +
                                   " request does not fit one frame");
  }
  wire::ResponseFrame resp;
  if (!Reframe(wire::Dispatch(ledger_, served).Encode(), &payload) ||
      !wire::ResponseFrame::Decode(payload, &resp)) {
    return Status::Corruption(std::string(RpcOpName(op)) +
                              " response does not fit one frame");
  }
  Status st = resp.ToStatus();
  if (st.ok() && resp_body != nullptr) *resp_body = std::move(resp.body);
  return st;
}

}  // namespace ledgerdb
