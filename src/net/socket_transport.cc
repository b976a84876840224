#include "net/socket_transport.h"

#include <unistd.h>

#include <atomic>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

namespace {

/// Process-unique nonzero trace ids. A plain counter (not a clock) keeps
/// traced runs deterministic enough to diff; uniqueness only needs to hold
/// within the ring-buffer horizon of one process.
uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SocketTransport::SocketTransport(std::string address, std::string uri)
    : SocketTransport(std::move(address), std::move(uri), Options()) {}

SocketTransport::SocketTransport(std::string address, std::string uri,
                                 Options options)
    : address_(std::move(address)),
      uri_(std::move(uri)),
      options_(options) {
  address_ok_ = net::ParseAddress(address_, &parsed_);
}

SocketTransport::~SocketTransport() { CloseConn(); }

void SocketTransport::CloseConn() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status SocketTransport::EnsureConnected(uint64_t deadline_us) {
  if (fd_ >= 0) return Status::OK();
  if (!address_ok_) {
    return Status::InvalidArgument("unparseable transport address: " +
                                   address_);
  }
  uint64_t budget = options_.connect_timeout_us;
  if (deadline_us != 0) {
    uint64_t now = obs::NowUs();
    if (now >= deadline_us) {
      return Status::DeadlineExceeded("deadline before connect");
    }
    if (budget == 0 || deadline_us - now < budget) {
      budget = deadline_us - now;
    }
  }
  LEDGERDB_RETURN_IF_ERROR(net::ConnectWithTimeout(parsed_, budget, &fd_));
  Bytes hello = wire::EncodeHello();
  Status st = net::SendAll(fd_, hello.data(), hello.size(), deadline_us);
  if (!st.ok()) {
    CloseConn();
    return st;
  }
  if (connects_ > 0) {
    LEDGERDB_OBS_COUNT(obs::names::kNetReconnectsTotal);
  }
  ++connects_;
  return Status::OK();
}

Status SocketTransport::Call(RpcOp op, const Bytes& body, Bytes* resp_body) {
  uint64_t budget = request_deadline_us_ != 0 ? request_deadline_us_
                                              : options_.request_deadline_us;
  uint64_t deadline_us = budget != 0 ? obs::NowUs() + budget : 0;
  uint64_t trace_id = 0;
  if (options_.trace_sample_every != 0 &&
      ++calls_since_trace_ >= options_.trace_sample_every) {
    calls_since_trace_ = 0;
    trace_id = NextTraceId();
  }
  last_trace_id_ = trace_id;
  uint64_t t0 = obs::NowUs();
  Status st = CallOnce(op, body, resp_body, deadline_us, trace_id);
  uint64_t dur = obs::NowUs() - t0;
  LEDGERDB_OBS_OBSERVE(obs::names::kNetRpcUs, dur);
  LEDGERDB_OBS_COUNT_LABEL(obs::names::kNetRpcsTotal, "op", RpcOpName(op));
  if (trace_id != 0) {
    // Root span of the cross-process trace: the server's queue/execute/
    // flush spans carry the same trace_id with this span as their parent.
    obs::SpanTracer::Default().RecordTraced(obs::stages::kClientRpc.name,
                                            trace_id, /*parent_span=*/0, t0,
                                            dur);
  }
  if (!st.ok() && (st.IsTransientIO() || st.IsDeadlineExceeded())) {
    // The exchange died mid-flight: the stream position is unknown, so a
    // retry on this connection could pair with a stale response. Close;
    // the next attempt reconnects.
    CloseConn();
  }
  return st;
}

Status SocketTransport::CallOnce(RpcOp op, const Bytes& body,
                                 Bytes* resp_body, uint64_t deadline_us,
                                 uint64_t trace_id) {
  LEDGERDB_RETURN_IF_ERROR(EnsureConnected(deadline_us));

  wire::RequestFrame req;
  req.op = op;
  req.request_id = ++next_request_id_;
  req.trace_id = trace_id;
  // The client rpc span is the trace root; its id doubles as the trace id.
  req.parent_span = trace_id;
  req.body = body;
  Bytes frame;
  wire::AppendFrame(&frame, req.Encode());
  LEDGERDB_RETURN_IF_ERROR(
      net::SendAll(fd_, frame.data(), frame.size(), deadline_us));

  uint8_t buf[64 * 1024];
  while (true) {
    Bytes payload;
    size_t consumed = 0;
    int rc = wire::ExtractFrame(inbuf_.data(), inbuf_.size(),
                                wire::kDefaultMaxFrameBytes, &payload,
                                &consumed);
    if (rc < 0) {
      return Status::TransientIO("malformed response frame from server");
    }
    if (rc > 0) {
      inbuf_.erase(inbuf_.begin(),
                   inbuf_.begin() + static_cast<ptrdiff_t>(consumed));
      wire::ResponseFrame resp;
      if (!wire::ResponseFrame::Decode(payload, &resp)) {
        return Status::TransientIO("undecodable response frame from server");
      }
      if (resp.op != op || resp.request_id != req.request_id) {
        return Status::TransientIO("response does not match request");
      }
      Status st = resp.ToStatus();
      if (st.ok() && resp_body != nullptr) *resp_body = std::move(resp.body);
      return st;
    }
    size_t got = 0;
    LEDGERDB_RETURN_IF_ERROR(
        net::RecvSome(fd_, buf, sizeof(buf), deadline_us, &got));
    if (got == 0) {
      return Status::TransientIO("connection closed by server");
    }
    inbuf_.insert(inbuf_.end(), buf, buf + got);
  }
}

}  // namespace ledgerdb
