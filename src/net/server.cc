#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ledgerdb {

namespace {

/// Event-loop tick: the granularity of read/write stall detection. Short
/// enough that a stalled peer is evicted promptly; long enough that an
/// idle server burns no CPU.
constexpr int kPollTickMs = 10;

/// How long Stop() keeps the event loop alive after the workers exit, so
/// final responses (including explicit drain failures) reach their peers.
constexpr uint64_t kDrainFlushUs = 500'000;

}  // namespace

struct LedgerServer::Conn {
  int fd = -1;
  bool hello_done = false;
  Bytes inbuf;
  uint64_t last_read_us = 0;

  /// A traced response waiting to clear the outbox: when out_off passes
  /// `target_off` the response is fully on the wire and the server_flush
  /// span closes. Guarded by out_mu, like the outbox it mirrors.
  struct PendingFlush {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    uint64_t enqueue_us = 0;
    size_t target_off = 0;
  };

  std::mutex out_mu;
  bool closed = false;       ///< guarded by out_mu; set once, never cleared
  Bytes outbuf;              ///< pending response bytes
  size_t out_off = 0;        ///< flushed prefix of outbuf
  uint64_t last_write_us = 0;
  std::vector<PendingFlush> pending_flush;
};

LedgerServer::LedgerServer(Ledger* ledger, Options options)
    : ledger_(ledger), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.queue_depth < 1) options_.queue_depth = 1;
}

LedgerServer::~LedgerServer() {
  Stop();
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
}

Status LedgerServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  int pipefd[2];
  if (pipe(pipefd) != 0) {
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  LEDGERDB_RETURN_IF_ERROR(net::SetNonBlocking(wake_rd_));
  LEDGERDB_RETURN_IF_ERROR(net::SetNonBlocking(wake_wr_));

  net::Address addr;
  if (!options_.unix_path.empty()) {
    addr.is_unix = true;
    addr.unix_path = options_.unix_path;
  } else {
    addr.is_unix = false;
    addr.host = "127.0.0.1";
    addr.port = options_.tcp_port;
  }
  uint16_t bound_port = 0;
  LEDGERDB_RETURN_IF_ERROR(
      net::ListenOn(addr, /*backlog=*/128, &listen_fd_, &bound_port));
  addr.port = bound_port;
  address_ = net::FormatAddress(addr);

  started_ = true;
  obs::RequestLog::Default().SetSlowThresholdUs(options_.slow_request_us);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->thread = std::thread(&LedgerServer::WorkerLoop, this,
                                 worker.get());
    workers_.push_back(std::move(worker));
  }
  loop_thread_ = std::thread(&LedgerServer::EventLoop, this);
  return Status::OK();
}

void LedgerServer::WakeLoop() {
  uint8_t one = 1;
  // EAGAIN means the pipe already holds a pending wakeup — good enough.
  [[maybe_unused]] ssize_t n = write(wake_wr_, &one, 1);
}

bool LedgerServer::Idle() {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    if (!worker->queue.empty()) return false;
  }
  return true;
}

void LedgerServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // Phase 1: stop accepting; new requests are answered Unavailable.
  draining_.store(true, std::memory_order_release);
  WakeLoop();

  // Phase 2: let admitted work finish until the drain deadline.
  uint64_t drain_deadline = obs::NowUs() + options_.drain_deadline_us;
  while (obs::NowUs() < drain_deadline && !Idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!Idle()) drain_fail_.store(true, std::memory_order_release);

  // Phase 3: workers drain what remains (executing, or failing explicitly
  // when the deadline already passed) and exit.
  stop_workers_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker->cv.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }

  // Phase 4: keep flushing outboxes briefly so final responses land.
  uint64_t flush_deadline = obs::NowUs() + kDrainFlushUs;
  while (obs::NowUs() < flush_deadline &&
         pending_out_bytes_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop_loop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void LedgerServer::EventLoop() {
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> polled;
  bool listen_closed = false;

  while (!stop_loop_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire) && !listen_closed) {
      close(listen_fd_);
      listen_fd_ = -1;
      listen_closed = true;
    }

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    if (!listen_closed) pfds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->out_off < conn->outbuf.size()) events |= POLLOUT;
      }
      pfds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollTickMs);
    if (rc < 0 && errno != EINTR) break;

    size_t base = 1;
    if (pfds[0].revents & POLLIN) {
      uint8_t buf[64];
      while (read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (!listen_closed) {
      if (pfds[base].revents & POLLIN) AcceptPending();
      ++base;
    }

    uint64_t now = obs::NowUs();
    for (size_t i = 0; i < polled.size(); ++i) {
      const ConnPtr& conn = polled[i];
      if (conn->fd < 0) continue;  // closed earlier this iteration
      short revents = pfds[base + i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConn(conn);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !ServiceReadable(conn)) {
        CloseConn(conn);
        continue;
      }
      if ((revents & POLLOUT) && !FlushWritable(conn)) {
        CloseConn(conn);
        continue;
      }
      // Stall eviction. A read deadline applies while the peer owes us
      // bytes (no hello yet, or a partial frame); a write deadline while
      // we owe the peer bytes it will not take. `now` was captured before
      // servicing, so a timestamp freshened this tick (by ServiceReadable
      // above, or by a worker's Respond) can sit AFTER it — compare with
      // addition, never `now - last` (which would wrap and evict a
      // perfectly healthy connection).
      bool mid_read = !conn->hello_done || !conn->inbuf.empty();
      if (options_.read_timeout_us > 0 && mid_read &&
          conn->last_read_us + options_.read_timeout_us < now) {
        stats_.io_timeouts.fetch_add(1, std::memory_order_relaxed);
        CloseConn(conn);
        continue;
      }
      bool pending_write;
      uint64_t last_write;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        pending_write = conn->out_off < conn->outbuf.size();
        last_write = conn->last_write_us;
      }
      if (options_.write_timeout_us > 0 && pending_write &&
          last_write + options_.write_timeout_us < now) {
        stats_.io_timeouts.fetch_add(1, std::memory_order_relaxed);
        CloseConn(conn);
      }
    }
  }

  if (!listen_closed && listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<ConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (const ConnPtr& conn : remaining) CloseConn(conn);
}

void LedgerServer::AcceptPending() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient accept error: next tick
    if (!net::SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_read_us = obs::NowUs();
    conn->last_write_us = conn->last_read_us;
    conns_[fd] = conn;
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.open_connections.fetch_add(1, std::memory_order_relaxed);
    LEDGERDB_OBS_GAUGE_ADD(obs::names::kServerConnectionsCount, 1);
  }
}

bool LedgerServer::ServiceReadable(const ConnPtr& conn) {
  uint8_t buf[64 * 1024];
  while (true) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      // Cap buffered-but-unparsed bytes: a peer streaming garbage faster
      // than one frame's worth is violating the protocol.
      if (conn->inbuf.size() + static_cast<size_t>(n) >
          static_cast<size_t>(options_.max_frame_bytes) + 4 + wire::kHelloSize) {
        stats_.frame_errors.fetch_add(1, std::memory_order_relaxed);
        LEDGERDB_OBS_COUNT(obs::names::kServerFrameErrorsTotal);
        return false;
      }
      conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
      conn->last_read_us = obs::NowUs();
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return ParseBuffered(conn);
}

bool LedgerServer::ParseBuffered(const ConnPtr& conn) {
  if (!conn->hello_done) {
    if (conn->inbuf.size() < wire::kHelloSize) return true;
    if (!wire::DecodeHello(conn->inbuf.data(), wire::kHelloSize)) {
      stats_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      LEDGERDB_OBS_COUNT(obs::names::kServerFrameErrorsTotal);
      return false;
    }
    conn->hello_done = true;
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + wire::kHelloSize);
  }
  while (true) {
    Bytes payload;
    size_t consumed = 0;
    int rc = wire::ExtractFrame(conn->inbuf.data(), conn->inbuf.size(),
                                options_.max_frame_bytes, &payload, &consumed);
    if (rc == 0) return true;
    if (rc < 0) {
      stats_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      LEDGERDB_OBS_COUNT(obs::names::kServerFrameErrorsTotal);
      return false;
    }
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<ptrdiff_t>(consumed));
    wire::RequestFrame frame;
    if (!wire::RequestFrame::Decode(payload, &frame)) {
      stats_.frame_errors.fetch_add(1, std::memory_order_relaxed);
      LEDGERDB_OBS_COUNT(obs::names::kServerFrameErrorsTotal);
      return false;
    }
    Admit(conn, std::move(frame));
  }
}

void LedgerServer::Admit(const ConnPtr& conn, wire::RequestFrame frame) {
  auto record_shed = [&](const wire::RequestFrame& f) {
    obs::RequestRecord rec;
    rec.op = RpcOpName(f.op);
    rec.trace_id = f.trace_id;
    rec.start_us = obs::NowUs();
    rec.status = static_cast<uint8_t>(Status::Code::kUnavailable);
    rec.shed = true;
    obs::RequestLog::Default().Record(rec);
  };
  if (draining_.load(std::memory_order_acquire)) {
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    LEDGERDB_OBS_COUNT(obs::names::kServerShedTotal);
    record_shed(frame);
    Respond(conn, wire::ResponseFrame::From(
                      frame.op, frame.request_id,
                      Status::Unavailable("draining: server shutting down")));
    return;
  }
  Worker* worker = workers_[next_worker_++ % workers_.size()].get();
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    if (worker->queue.size() >= options_.queue_depth) {
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      LEDGERDB_OBS_COUNT(obs::names::kServerShedTotal);
      record_shed(frame);
      Respond(conn, wire::ResponseFrame::From(
                        frame.op, frame.request_id,
                        Status::Unavailable("admission queue full")));
      return;
    }
    Request req;
    req.conn = conn;
    req.frame = std::move(frame);
    req.admit_us = obs::NowUs();
    if (options_.request_timeout_us > 0) {
      req.deadline_us = req.admit_us + options_.request_timeout_us;
    }
    worker->queue.push_back(std::move(req));
  }
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  LEDGERDB_OBS_GAUGE_ADD(obs::names::kServerQueueDepthCount, 1);
  worker->cv.notify_one();
}

void LedgerServer::WorkerLoop(Worker* worker) {
  while (true) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&] {
        return !worker->queue.empty() ||
               stop_workers_.load(std::memory_order_acquire);
      });
      if (worker->queue.empty()) {
        if (stop_workers_.load(std::memory_order_acquire)) return;
        continue;
      }
      req = std::move(worker->queue.front());
      worker->queue.pop_front();
      inflight_.fetch_add(1, std::memory_order_acq_rel);
    }
    LEDGERDB_OBS_GAUGE_ADD(obs::names::kServerQueueDepthCount, -1);

    const RpcOp op = req.frame.op;
    const uint64_t id = req.frame.request_id;
    const uint64_t trace_id = req.frame.trace_id;
    const uint64_t parent_span = req.frame.parent_span;
    wire::ResponseFrame resp;
    uint64_t now = obs::NowUs();
    const uint64_t queue_us = now > req.admit_us ? now - req.admit_us : 0;

    obs::RequestRecord rec;
    rec.op = RpcOpName(op);
    rec.trace_id = trace_id;
    rec.start_us = req.admit_us;
    rec.queue_us = queue_us;

    if (drain_fail_.load(std::memory_order_acquire)) {
      // Drain deadline passed with this request still queued: fail it
      // explicitly rather than racing the shutdown.
      stats_.drain_failed.fetch_add(1, std::memory_order_relaxed);
      resp = wire::ResponseFrame::From(
          op, id, Status::Unavailable("drain deadline exceeded"));
    } else if (req.deadline_us != 0 && now > req.deadline_us) {
      stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      LEDGERDB_OBS_COUNT(obs::names::kServerDeadlineExpiredTotal);
      rec.deadline_expired = true;
      resp = wire::ResponseFrame::From(
          op, id,
          Status::DeadlineExceeded("request expired in admission queue"));
    } else {
      uint64_t t0 = obs::NowUs();
      {
        std::lock_guard<std::mutex> ledger_lock(ledger_mu_);
        if (options_.debug_service_delay_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(options_.debug_service_delay_us));
        }
        resp = wire::Dispatch(ledger_, req.frame);
      }
      uint64_t exec_us = obs::NowUs() - t0;
      rec.exec_us = exec_us;
      LEDGERDB_OBS_COUNT_LABEL(obs::names::kServerRequestsTotal, "op",
                               RpcOpName(op));
      LEDGERDB_OBS_OBSERVE_LABEL(obs::names::kServerRequestUs, "op",
                                 RpcOpName(op), exec_us);
      LEDGERDB_OBS_OBSERVE(obs::names::kServerQueueWaitUs, queue_us);
      LEDGERDB_OBS_OBSERVE(obs::names::kServerExecuteUs, exec_us);
      if (trace_id != 0) {
        obs::SpanTracer& tracer = obs::SpanTracer::Default();
        tracer.RecordTraced(obs::stages::kServerQueue.name, trace_id,
                            parent_span, req.admit_us, queue_us);
        tracer.RecordTraced(obs::stages::kServerExecute.name, trace_id,
                            parent_span, t0, exec_us);
      }
      stats_.completed.fetch_add(1, std::memory_order_relaxed);
    }
    rec.status = resp.code;
    if (options_.slow_request_us != 0 &&
        rec.queue_us + rec.exec_us >= options_.slow_request_us) {
      LEDGERDB_OBS_COUNT(obs::names::kServerSlowRequestsTotal);
    }
    obs::RequestLog::Default().Record(rec);
    Respond(req.conn, resp, trace_id, parent_span);
    req.conn.reset();
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void LedgerServer::Respond(const ConnPtr& conn,
                           const wire::ResponseFrame& resp, uint64_t trace_id,
                           uint64_t parent_span) {
  Bytes payload = resp.Encode();
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    wire::AppendFrame(&conn->outbuf, payload);
    conn->last_write_us = obs::NowUs();
    if (trace_id != 0) {
      conn->pending_flush.push_back(Conn::PendingFlush{
          trace_id, parent_span, conn->last_write_us, conn->outbuf.size()});
    }
    pending_out_bytes_.fetch_add(payload.size() + 4,
                                 std::memory_order_acq_rel);
  }
  WakeLoop();
}

bool LedgerServer::FlushWritable(const ConnPtr& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  while (conn->out_off < conn->outbuf.size()) {
    ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_off,
                     conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      conn->last_write_us = obs::NowUs();
      pending_out_bytes_.fetch_sub(static_cast<uint64_t>(n),
                                   std::memory_order_acq_rel);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (!conn->pending_flush.empty()) {
    // Close the server_flush span of every traced response now fully on
    // the wire. The histogram observation stays a macro (compiled out
    // under LEDGERDB_OBS_OFF); the span record is direct API like the
    // worker's queue/execute spans.
    uint64_t now = obs::NowUs();
    size_t kept = 0;
    for (const Conn::PendingFlush& pf : conn->pending_flush) {
      if (pf.target_off <= conn->out_off) {
        uint64_t dur = now > pf.enqueue_us ? now - pf.enqueue_us : 0;
        LEDGERDB_OBS_OBSERVE(obs::names::kServerFlushUs, dur);
        obs::SpanTracer::Default().RecordTraced(obs::stages::kServerFlush.name,
                                                pf.trace_id, pf.parent_span,
                                                pf.enqueue_us, dur);
      } else {
        conn->pending_flush[kept++] = pf;
      }
    }
    conn->pending_flush.resize(kept);
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
  }
  return true;
}

void LedgerServer::WithLedger(const std::function<void(Ledger*)>& fn) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  fn(ledger_);
}

void LedgerServer::CloseConn(const ConnPtr& conn) {
  size_t unsent = 0;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    conn->closed = true;
    unsent = conn->outbuf.size() - conn->out_off;
    // Responses that never reached the wire get no server_flush span.
    conn->pending_flush.clear();
  }
  if (unsent > 0) {
    pending_out_bytes_.fetch_sub(unsent, std::memory_order_acq_rel);
  }
  conns_.erase(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  stats_.open_connections.fetch_sub(1, std::memory_order_relaxed);
  LEDGERDB_OBS_GAUGE_ADD(obs::names::kServerConnectionsCount, -1);
}

}  // namespace ledgerdb
