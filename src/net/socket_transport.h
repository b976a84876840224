#ifndef LEDGERDB_NET_SOCKET_TRANSPORT_H_
#define LEDGERDB_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "net/socket_util.h"
#include "net/transport.h"
#include "net/wire.h"

namespace ledgerdb {

/// LedgerTransport over a socket (see net/wire.h for the frame format and
/// net/server.h for the host). The typed RPCs come from WireTransport;
/// this class connects and moves frames. One transport = one connection =
/// one outstanding request; not thread-safe — give each client thread its
/// own transport, exactly like LocalTransport.
///
/// Error surface, tuned for RetryTransient:
///   - connect/send/recv failures and peer resets → TransientIO
///     (retriable; the next attempt reconnects);
///   - a request that outlives its deadline → DeadlineExceeded
///     (retriable; the connection is closed first, because a late
///     response would desynchronize request/response matching);
///   - malformed or mismatched response frames → TransientIO after
///     closing (reconnect re-synchronizes);
///   - server-reported statuses (Unavailable shed, NotFound, …) pass
///     through verbatim — a shed fails fast and is NOT retriable.
///
/// The per-request deadline comes from the LedgerTransport base option
/// (set_request_deadline_us), falling back to Options::request_deadline_us.
class SocketTransport : public WireTransport {
 public:
  struct Options {
    uint64_t request_deadline_us = 5'000'000;
    uint64_t connect_timeout_us = 2'000'000;
    /// Cross-process tracing: every Nth Call carries a fresh trace_id in
    /// its request frame and records a client_rpc span (obs/trace.h); the
    /// server stitches its queue/execute/flush spans onto the same id.
    /// 0 disables tracing (legacy frames, no span records).
    uint32_t trace_sample_every = 0;
  };

  /// `address` is "unix:<path>" or "tcp:<ipv4>:<port>"; `uri` names the
  /// ledger for client-side bookkeeping (the server hosts one ledger).
  SocketTransport(std::string address, std::string uri);
  SocketTransport(std::string address, std::string uri, Options options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  const std::string& uri() const override { return uri_; }

  bool connected() const { return fd_ >= 0; }
  /// Successful connection establishments (1 = never had to reconnect).
  uint64_t connects() const { return connects_; }

  /// Trace id stamped on the most recent traced Call (0 = the last Call
  /// was not sampled). Lets tests and harnesses correlate a client-side
  /// request with the server-side span records it produced.
  uint64_t last_trace_id() const { return last_trace_id_; }

 protected:
  /// One request/response exchange; closes the connection on any
  /// transport-level failure so the next call starts clean. The
  /// ledgerdb_net_* rpc metrics and client_rpc spans are recorded here.
  Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) override;

 private:
  Status CallOnce(RpcOp op, const Bytes& body, Bytes* resp_body,
                  uint64_t deadline_us, uint64_t trace_id);
  Status EnsureConnected(uint64_t deadline_us);
  void CloseConn();

  std::string address_;
  std::string uri_;
  Options options_;
  net::Address parsed_;
  bool address_ok_ = false;

  int fd_ = -1;
  uint64_t next_request_id_ = 0;
  uint64_t connects_ = 0;
  uint64_t calls_since_trace_ = 0;
  uint64_t last_trace_id_ = 0;
  Bytes inbuf_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_SOCKET_TRANSPORT_H_
