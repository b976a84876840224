#include "net/socket_fault.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/wire.h"
#include "obs/metrics.h"

namespace ledgerdb {

const char* SocketFaultKindName(SocketFaultKind kind) {
  switch (kind) {
    case SocketFaultKind::kNone:
      return "None";
    case SocketFaultKind::kReset:
      return "Reset";
    case SocketFaultKind::kStall:
      return "Stall";
    case SocketFaultKind::kShortChunks:
      return "ShortChunks";
    case SocketFaultKind::kMidFrameClose:
      return "MidFrameClose";
    case SocketFaultKind::kOversizedFrame:
      return "OversizedFrame";
  }
  return "Unknown";
}

struct SocketFaultProxy::Relay {
  int client_fd = -1;
  int server_fd = -1;
  SocketFaultKind fault = SocketFaultKind::kNone;
  uint64_t seed = 0;
  std::thread thread;
};

SocketFaultProxy::SocketFaultProxy(std::string listen_path,
                                   std::string backend_address,
                                   uint64_t seed)
    : listen_path_(std::move(listen_path)),
      address_("unix:" + listen_path_),
      seed_(seed) {
  if (!net::ParseAddress(backend_address, &backend_)) {
    backend_.is_unix = true;  // Start() will fail to connect loudly
    backend_.unix_path.clear();
  }
}

SocketFaultProxy::~SocketFaultProxy() { Stop(); }

Status SocketFaultProxy::Start() {
  if (started_) return Status::InvalidArgument("proxy already started");
  net::Address addr;
  addr.is_unix = true;
  addr.unix_path = listen_path_;
  LEDGERDB_RETURN_IF_ERROR(
      net::ListenOn(addr, /*backlog=*/16, &listen_fd_, nullptr));
  started_ = true;
  accept_thread_ = std::thread(&SocketFaultProxy::AcceptLoop, this);
  return Status::OK();
}

void SocketFaultProxy::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Relay>> relays;
  {
    std::lock_guard<std::mutex> lock(mu_);
    relays.swap(relays_);
  }
  for (auto& relay : relays) {
    // Unblock the relay thread's poll by shutting both streams down. The
    // fds are immutable after creation and only closed here, post-join,
    // so there is no close/reuse race with the relay thread.
    shutdown(relay->client_fd, SHUT_RDWR);
    shutdown(relay->server_fd, SHUT_RDWR);
    if (relay->thread.joinable()) relay->thread.join();
    close(relay->client_fd);
    close(relay->server_fd);
  }
  started_ = false;
}

void SocketFaultProxy::ScheduleFault(uint64_t conn_index,
                                     SocketFaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_[conn_index] = kind;
}

uint64_t SocketFaultProxy::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

void SocketFaultProxy::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = poll(&pfd, 1, 20);
    if (rc <= 0) continue;
    int cfd = accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;

    int sfd = -1;
    Status st = net::ConnectWithTimeout(backend_, 2'000'000, &sfd);
    if (!st.ok()) {
      close(cfd);
      continue;
    }

    auto relay = std::make_unique<Relay>();
    relay->client_fd = cfd;
    relay->server_fd = sfd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t index = accepted_++;
      auto it = schedule_.find(index);
      if (it != schedule_.end()) relay->fault = it->second;
      relay->seed = seed_ ^ (index * 0x9e3779b97f4a7c15ULL);
    }
    Relay* raw = relay.get();
    relay->thread = std::thread(&SocketFaultProxy::RelayLoop, this, raw);
    std::lock_guard<std::mutex> lock(mu_);
    relays_.push_back(std::move(relay));
  }
}

namespace {

/// Forwards everything, blocking briefly on the destination; the proxy is
/// a test harness, so a 2 s forward deadline doubles as its hang guard.
bool Forward(int dst, const uint8_t* data, size_t size) {
  return net::SendAll(dst, data, size, obs::NowUs() + 2'000'000).ok();
}

}  // namespace

void SocketFaultProxy::RelayLoop(Relay* relay) {
  const SocketFaultKind fault = relay->fault;
  Random rng(relay->seed);

  // Per-fault state.
  const bool short_chunks = fault == SocketFaultKind::kShortChunks;
  // kReset: cut the server->client stream after this many bytes.
  uint64_t reset_after = 1 + rng.Uniform(48);
  uint64_t s2c_forwarded = 0;
  // kMidFrameClose: forward the frame header plus half the body of the
  // first response frame, then vanish.
  Bytes s2c_header;
  uint64_t midframe_target = 0;
  // kOversizedFrame: rewrite the length prefix of the first request frame
  // (right after the 8-byte hello) to a value the server must reject.
  Bytes c2s_buffered;
  bool c2s_rewritten = false;

  uint8_t buf[16 * 1024];
  const size_t chunk = short_chunks ? 1 : sizeof(buf);

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2];
    pfds[0] = {relay->client_fd, POLLIN, 0};
    // kStall: stop draining the server entirely — from the client's view
    // the response never arrives and its deadline must fire.
    bool watch_server = fault != SocketFaultKind::kStall;
    pfds[1] = {watch_server ? relay->server_fd : -1, POLLIN, 0};
    int rc = poll(pfds, 2, 20);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      ssize_t n = recv(relay->client_fd, buf, chunk, 0);
      if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) {
        break;
      }
      if (n > 0) {
        if (fault == SocketFaultKind::kOversizedFrame && !c2s_rewritten) {
          c2s_buffered.insert(c2s_buffered.end(), buf, buf + n);
          if (c2s_buffered.size() >= wire::kHelloSize + 4) {
            uint32_t evil = 0xFFFFFFFFu;
            std::memcpy(c2s_buffered.data() + wire::kHelloSize, &evil, 4);
            c2s_rewritten = true;
            if (!Forward(relay->server_fd, c2s_buffered.data(),
                         c2s_buffered.size())) {
              break;
            }
            c2s_buffered.clear();
          }
          continue;
        }
        if (!Forward(relay->server_fd, buf, static_cast<size_t>(n))) break;
      }
    }

    if (watch_server && (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      ssize_t n = recv(relay->server_fd, buf, chunk, 0);
      if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) {
        break;
      }
      if (n > 0) {
        size_t len = static_cast<size_t>(n);
        if (fault == SocketFaultKind::kReset) {
          uint64_t left = reset_after - s2c_forwarded;
          if (len >= left) {
            (void)Forward(relay->client_fd, buf, left);
            break;  // abrupt close mid-stream
          }
          s2c_forwarded += len;
        } else if (fault == SocketFaultKind::kMidFrameClose) {
          if (midframe_target == 0) {
            s2c_header.insert(s2c_header.end(), buf, buf + len);
            if (s2c_header.size() < 4) continue;
            const uint32_t frame_len = ByteReader(s2c_header).U32();
            midframe_target = 4 + (frame_len > 1 ? frame_len / 2 : 1);
            size_t send_now = s2c_header.size() < midframe_target
                                  ? s2c_header.size()
                                  : midframe_target;
            (void)Forward(relay->client_fd, s2c_header.data(), send_now);
            s2c_forwarded = send_now;
            if (s2c_forwarded >= midframe_target) break;
            continue;
          }
          uint64_t left = midframe_target - s2c_forwarded;
          size_t send_now = len < left ? len : static_cast<size_t>(left);
          (void)Forward(relay->client_fd, buf, send_now);
          s2c_forwarded += send_now;
          if (s2c_forwarded >= midframe_target) break;
          continue;
        }
        if (!Forward(relay->client_fd, buf, len)) break;
      }
    }
  }

  // Sever both streams (the peers see EOF immediately) but leave the fds
  // open: Stop() owns close(), after joining this thread, so a racing
  // Stop() can never shutdown() a recycled descriptor.
  shutdown(relay->client_fd, SHUT_RDWR);
  shutdown(relay->server_fd, SHUT_RDWR);
}

}  // namespace ledgerdb
