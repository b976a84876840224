#ifndef LEDGERDB_NET_SERVER_H_
#define LEDGERDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ledger/ledger.h"
#include "net/socket_util.h"
#include "net/wire.h"

namespace ledgerdb {

/// Socket server hosting one Ledger behind the LedgerTransport wire
/// protocol (see net/wire.h). Architecture:
///
///   - one poll(2) event-loop thread owns every fd: it accepts, reads,
///     parses frames, admits requests, and flushes response bytes. It
///     never executes a request and never blocks on a queue — overload
///     surfaces as an immediate Unavailable response (shed), not as
///     accept backpressure;
///   - N worker threads drain bounded per-worker admission queues and
///     execute requests through wire::Dispatch under a single mutex (the
///     Ledger is single-threaded by design — one shard per server);
///   - workers hand encoded responses back to the event loop through
///     per-connection outboxes and a wakeup pipe.
///
/// Robustness contract:
///   - frames are length-prefixed; a zero/oversized length, junk hello or
///     undecodable request closes the connection (frame_errors);
///   - a connection stalled mid-frame past `read_timeout_us`, or with
///     unflushable output past `write_timeout_us`, is closed;
///   - each admitted request carries a deadline (`request_timeout_us`);
///     if it expires before a worker picks it up the worker answers
///     DeadlineExceeded without executing (deadline_expired);
///   - a full admission queue sheds with Unavailable — shed requests
///     never execute and never wait (shed);
///   - Stop() drains gracefully: stop accepting, answer new requests
///     with Unavailable("draining"), let workers finish what was admitted
///     until `drain_deadline_us`, then fail the still-queued remainder
///     explicitly with Unavailable, flush outboxes, hard-close.
class LedgerServer {
 public:
  struct Options {
    /// Listen endpoint: set `unix_path` for AF_UNIX, else TCP on
    /// 127.0.0.1:`tcp_port` (0 = kernel-assigned, see address()).
    std::string unix_path;
    uint16_t tcp_port = 0;

    int num_workers = 2;
    /// Bounded admission depth per worker; the (num_workers * depth + 1)th
    /// concurrent request is shed.
    size_t queue_depth = 64;
    uint32_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
    uint64_t read_timeout_us = 5'000'000;
    uint64_t write_timeout_us = 5'000'000;
    uint64_t request_timeout_us = 5'000'000;
    uint64_t drain_deadline_us = 2'000'000;
    /// Test/bench knob: every request holds the ledger for at least this
    /// long, making overload and drain scenarios deterministic.
    uint64_t debug_service_delay_us = 0;
    /// Completed requests with queue_us + exec_us at or above this are
    /// flagged slow in the per-request event log (obs::RequestLog). 0
    /// keeps the log but never flags. Applied to the process-wide log at
    /// Start().
    uint64_t slow_request_us = 100'000;
  };

  /// Plain-atomic counters independent of the obs registry (tests must
  /// not depend on obs: it compiles out under LEDGERDB_OBS_OFF).
  struct Stats {
    std::atomic<uint64_t> accepted{0};
    std::atomic<int64_t> open_connections{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> frame_errors{0};
    std::atomic<uint64_t> io_timeouts{0};
    std::atomic<uint64_t> deadline_expired{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> drain_failed{0};
  };

  LedgerServer(Ledger* ledger, Options options);
  ~LedgerServer();

  LedgerServer(const LedgerServer&) = delete;
  LedgerServer& operator=(const LedgerServer&) = delete;

  Status Start();

  /// Graceful drain then hard stop. Idempotent; also run by ~LedgerServer.
  void Stop();

  /// Canonical client address ("unix:<path>" or "tcp:127.0.0.1:<port>").
  /// Valid after Start().
  const std::string& address() const { return address_; }

  const Stats& stats() const { return stats_; }

  /// Admin escape hatch: runs `fn` against the hosted ledger under the
  /// same mutex the workers execute behind. For maintenance operations
  /// that are deliberately NOT wire ops (occult, purge, anchoring) —
  /// blocks request execution for its duration, exactly like a request.
  void WithLedger(const std::function<void(Ledger*)>& fn);

 private:
  struct Conn;
  using ConnPtr = std::shared_ptr<Conn>;

  struct Request {
    ConnPtr conn;
    wire::RequestFrame frame;
    uint64_t deadline_us = 0;  ///< absolute; 0 = none
    uint64_t admit_us = 0;     ///< obs::NowUs() at admission (queue-wait t0)
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Request> queue;
    std::thread thread;
  };

  void EventLoop();
  void WorkerLoop(Worker* worker);
  void AcceptPending();
  /// Reads + parses one connection; returns false if it must be closed.
  bool ServiceReadable(const ConnPtr& conn);
  /// Parses buffered bytes into hello/frames; false closes the connection.
  bool ParseBuffered(const ConnPtr& conn);
  void Admit(const ConnPtr& conn, wire::RequestFrame frame);
  /// Encodes `resp` into the connection outbox and wakes the event loop.
  /// A nonzero `trace_id` arms a server_flush span that fires when the
  /// last byte of this response clears the kernel send buffer.
  void Respond(const ConnPtr& conn, const wire::ResponseFrame& resp,
               uint64_t trace_id = 0, uint64_t parent_span = 0);
  bool FlushWritable(const ConnPtr& conn);
  void CloseConn(const ConnPtr& conn);
  void WakeLoop();
  /// True when no worker holds or has queued work.
  bool Idle();

  Ledger* ledger_;
  Options options_;
  Stats stats_;

  std::mutex ledger_mu_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::string address_;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_fail_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stop_loop_{false};
  std::atomic<int> inflight_{0};
  /// Response bytes queued but not yet on the wire; lets Stop() wait for
  /// the final flush without touching the loop-owned connection map.
  std::atomic<uint64_t> pending_out_bytes_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
  std::thread loop_thread_;

  /// Owned by the event loop thread exclusively.
  std::map<int, ConnPtr> conns_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_SERVER_H_
