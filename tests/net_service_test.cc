// Networked service plane tests: the socket wire protocol, LedgerServer
// admission control / deadlines / graceful drain, SocketTransport error
// mapping, per-request deadlines across every transport, frame fuzzing,
// and the seeded socket-fault matrix.
//
// Labeled `tsan`: the server is the first genuinely multi-threaded
// component with cross-thread handoff (event loop -> workers -> outboxes),
// so it runs under ThreadSanitizer in CI alongside the other tsan suites.
//
// Fuzz volume is bounded for tier-1 and overridable like the proof fuzzer:
// LEDGERDB_PROOF_FUZZ_ROUNDS / LEDGERDB_PROOF_FUZZ_SEED.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/ledger_client.h"
#include "common/random.h"
#include "common/retry.h"
#include "ledger/ledger.h"
#include "net/byzantine_transport.h"
#include "net/server.h"
#include "net/socket_fault.h"
#include "net/socket_transport.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/checkpoint.h"

namespace ledgerdb {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

uint64_t FuzzSeed() { return EnvU64("LEDGERDB_PROOF_FUZZ_SEED", 20260809); }
uint64_t FuzzRounds() { return EnvU64("LEDGERDB_PROOF_FUZZ_ROUNDS", 200); }

class NetServiceTest : public ::testing::Test {
 protected:
  NetServiceTest()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("net-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("net-lsp")),
        alice_(KeyPair::FromSeedString("net-alice")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    options_.fractal_height = 4;
    options_.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://net", options_, &clock_, lsp_,
                                       &registry_);
  }

  /// Short unique socket path (sun_path is ~108 bytes; TempDir + long test
  /// names do not fit).
  std::string SockPath(const std::string& tag) {
    return ::testing::TempDir() + "/lds_" + tag + ".sock";
  }

  KeyPair RegisterUser(const std::string& name) {
    KeyPair key = KeyPair::FromSeedString("net-" + name);
    registry_.Register(ca_.Certify(name, key.public_key(), Role::kUser));
    return key;
  }

  uint64_t AppendDirect(const std::string& payload,
                        const std::vector<std::string>& clues) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://net";
    tx.clues = clues;
    tx.payload = StringToBytes(payload);
    tx.nonce = next_nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    uint64_t jsn = 0;
    EXPECT_TRUE(ledger_->Append(tx, &jsn).ok());
    return jsn;
  }

  LedgerClient::Options ClientOptions() const {
    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = options_.fractal_height;
    return copts;
  }

  /// Raw connected fd (hello NOT sent) for protocol-violation tests.
  int RawConnect(const std::string& address) {
    net::Address parsed;
    EXPECT_TRUE(net::ParseAddress(address, &parsed));
    int fd = -1;
    EXPECT_TRUE(net::ConnectWithTimeout(parsed, 2'000'000, &fd).ok());
    return fd;
  }

  /// Reads until the peer closes or `timeout_us` passes; true iff closed.
  bool DrainUntilClosed(int fd, uint64_t timeout_us) {
    uint64_t deadline = obs::NowUs() + timeout_us;
    uint8_t buf[4096];
    while (true) {
      size_t got = 0;
      Status s = net::RecvSome(fd, buf, sizeof(buf), deadline, &got);
      if (!s.ok()) return s.IsTransientIO();  // reset counts as closed
      if (got == 0) return true;              // EOF
    }
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_;
  LedgerOptions options_;
  std::unique_ptr<Ledger> ledger_;
  uint64_t next_nonce_ = 0;
};

// ---------------------------------------------------------------------------
// Wire codec round trips and strictness
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, RequestFrameRoundTrip) {
  wire::RequestFrame req;
  req.op = RpcOp::kGetClueProof;
  req.request_id = 0x0123456789abcdefULL;
  req.body = StringToBytes("payload");
  wire::RequestFrame out;
  ASSERT_TRUE(wire::RequestFrame::Decode(req.Encode(), &out));
  EXPECT_EQ(out.op, req.op);
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.body, req.body);

  // Truncation below the header fails; unknown op fails.
  Bytes enc = req.Encode();
  for (size_t len = 0; len < 9; ++len) {
    EXPECT_FALSE(wire::RequestFrame::Decode(
        Bytes(enc.begin(), enc.begin() + static_cast<ptrdiff_t>(len)), &out));
  }
  Bytes bad_op = enc;
  bad_op[0] = static_cast<uint8_t>(kNumRpcOps);
  EXPECT_FALSE(wire::RequestFrame::Decode(bad_op, &out));
}

TEST_F(NetServiceTest, ResponseFrameCarriesEveryStatusCode) {
  const Status statuses[] = {
      Status::OK(),
      Status::NotFound("x"),
      Status::InvalidArgument("x"),
      Status::VerificationFailed("x"),
      Status::PermissionDenied("x"),
      Status::Corruption("x"),
      Status::IOError("x"),
      Status::TransientIO("x"),
      Status::Unavailable("x"),
      Status::DeadlineExceeded("x"),
  };
  for (const Status& s : statuses) {
    wire::ResponseFrame resp =
        wire::ResponseFrame::From(RpcOp::kGetCommitment, 7, s);
    wire::ResponseFrame out;
    ASSERT_TRUE(wire::ResponseFrame::Decode(resp.Encode(), &out));
    Status back = out.ToStatus();
    EXPECT_EQ(back.code(), s.code()) << s.ToString();
    EXPECT_EQ(back.IsRetriable(), s.IsRetriable());
  }
  // An invalid status code byte must not decode.
  wire::ResponseFrame resp =
      wire::ResponseFrame::From(RpcOp::kGetCommitment, 7, Status::OK());
  Bytes enc = resp.Encode();
  enc[9] = 0xee;
  wire::ResponseFrame out;
  EXPECT_FALSE(wire::ResponseFrame::Decode(enc, &out));
}

TEST_F(NetServiceTest, BodyCodecsAreStrict) {
  uint64_t jsn = 0;
  Bytes enc = wire::EncodeJsnRequest(42);
  ASSERT_TRUE(wire::DecodeJsnRequest(enc, &jsn));
  EXPECT_EQ(jsn, 42u);
  enc.push_back(0);  // trailing byte
  EXPECT_FALSE(wire::DecodeJsnRequest(enc, &jsn));

  std::string clue;
  uint64_t a = 0, b = 0;
  enc = wire::EncodeClueWindowRequest("acct:1", 3, 9);
  ASSERT_TRUE(wire::DecodeClueWindowRequest(enc, &clue, &a, &b));
  EXPECT_EQ(clue, "acct:1");
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 9u);
  enc.pop_back();  // truncated
  EXPECT_FALSE(wire::DecodeClueWindowRequest(enc, &clue, &a, &b));

  std::vector<uint64_t> jsns = {1, 5, 9};
  std::vector<uint64_t> out;
  enc = wire::EncodeJsnList(jsns);
  ASSERT_TRUE(wire::DecodeJsnList(enc, &out));
  EXPECT_EQ(out, jsns);
  enc.push_back(0);
  EXPECT_FALSE(wire::DecodeJsnList(enc, &out));
}

TEST_F(NetServiceTest, ExtractFrameHandlesPartialAndOversized) {
  Bytes framed;
  wire::AppendFrame(&framed, StringToBytes("hello"));
  Bytes payload;
  size_t consumed = 0;
  // Every strict prefix is "incomplete", never an error.
  for (size_t len = 0; len < framed.size(); ++len) {
    EXPECT_EQ(wire::ExtractFrame(framed.data(), len, 1024, &payload,
                                 &consumed),
              0);
  }
  ASSERT_EQ(wire::ExtractFrame(framed.data(), framed.size(), 1024, &payload,
                               &consumed),
            1);
  EXPECT_EQ(payload, StringToBytes("hello"));
  EXPECT_EQ(consumed, framed.size());

  // Zero and oversized lengths are protocol violations.
  Bytes zero;
  PutU32(&zero, 0);
  EXPECT_EQ(wire::ExtractFrame(zero.data(), zero.size(), 1024, &payload,
                               &consumed),
            -1);
  Bytes big;
  PutU32(&big, 0xffffffffu);
  EXPECT_EQ(wire::ExtractFrame(big.data(), big.size(), 1024, &payload,
                               &consumed),
            -1);
}

// ---------------------------------------------------------------------------
// Socket round trips: every RPC matches LocalTransport bit-for-bit
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, AllRpcsMatchLocalTransport) {
  for (int i = 0; i < 6; ++i) {
    AppendDirect("doc-" + std::to_string(i), {"trail"});
  }
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("rpc")});
  ASSERT_TRUE(server.Start().ok());

  LocalTransport local(ledger_.get());
  SocketTransport remote(server.address(), "lg://net");

  SignedCommitment ca, cb;
  ASSERT_TRUE(local.GetCommitment(&ca).ok());
  ASSERT_TRUE(remote.GetCommitment(&cb).ok());
  EXPECT_EQ(ca.Serialize(), cb.Serialize());

  uint64_t last = ledger_->NumJournals() - 1;
  Journal ja, jb;
  ASSERT_TRUE(local.GetJournal(last, &ja).ok());
  ASSERT_TRUE(remote.GetJournal(last, &jb).ok());
  EXPECT_EQ(ja.Serialize(), jb.Serialize());

  Receipt ra, rb;
  ASSERT_TRUE(local.GetReceipt(last, &ra).ok());
  ASSERT_TRUE(remote.GetReceipt(last, &rb).ok());
  EXPECT_EQ(ra.Serialize(), rb.Serialize());

  FamProof pa, pb;
  ASSERT_TRUE(local.GetProof(last, &pa).ok());
  ASSERT_TRUE(remote.GetProof(last, &pb).ok());
  EXPECT_EQ(pa.Serialize(), pb.Serialize());

  ClueProof cpa, cpb;
  ASSERT_TRUE(local.GetClueProof("trail", 0, 0, &cpa).ok());
  ASSERT_TRUE(remote.GetClueProof("trail", 0, 0, &cpb).ok());
  EXPECT_EQ(cpa.Serialize(), cpb.Serialize());

  std::vector<uint64_t> la, lb;
  ASSERT_TRUE(local.ListTx("trail", &la).ok());
  ASSERT_TRUE(remote.ListTx("trail", &lb).ok());
  EXPECT_EQ(la, lb);

  std::vector<JournalDelta> da, db;
  ASSERT_TRUE(local.GetDelta(0, ledger_->NumJournals(), &da).ok());
  ASSERT_TRUE(remote.GetDelta(0, ledger_->NumJournals(), &db).ok());
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].Serialize(), db[i].Serialize());
  }

  FamBatchProof ba, bb;
  ASSERT_TRUE(local.GetProofBatch(la, &ba).ok());
  ASSERT_TRUE(remote.GetProofBatch(la, &bb).ok());
  EXPECT_EQ(ba.Serialize(), bb.Serialize());

  ClueRangeResult cra, crb;
  ASSERT_TRUE(local.ProveClueRange("trail", 0, clock_.Now() + 1, &cra).ok());
  ASSERT_TRUE(remote.ProveClueRange("trail", 0, clock_.Now() + 1, &crb).ok());
  EXPECT_EQ(cra.Serialize(), crb.Serialize());

  // Errors pass through with their real codes (not transport errors), and
  // both transports report the same code and message for each.
  const uint64_t missing = 10'000;
  Status s = remote.GetJournal(missing, &jb);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  auto expect_same_error = [](const Status& a, const Status& b) {
    EXPECT_FALSE(a.ok());
    EXPECT_EQ(a.code(), b.code()) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.message(), b.message());
  };
  expect_same_error(local.GetJournal(missing, &ja), s);
  expect_same_error(local.GetReceipt(missing, &ra),
                    remote.GetReceipt(missing, &rb));
  expect_same_error(local.GetProof(missing, &pa), remote.GetProof(missing, &pb));
  expect_same_error(local.GetDelta(3, 1, &da), remote.GetDelta(3, 1, &db));
  expect_same_error(local.ListTx("no-such-clue", &la),
                    remote.ListTx("no-such-clue", &lb));
  EXPECT_TRUE(remote.connected());  // an error response is not a failure
  EXPECT_EQ(remote.connects(), 1u);
}

TEST_F(NetServiceTest, AppendOverSocketDedupsOnRetry) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("dedup")});
  ASSERT_TRUE(server.Start().ok());
  SocketTransport remote(server.address(), "lg://net");

  ClientTransaction tx;
  tx.ledger_uri = "lg://net";
  tx.payload = StringToBytes("exactly-once");
  tx.nonce = 777;
  tx.client_ts = clock_.Now();
  tx.Sign(alice_);

  uint64_t before = ledger_->NumJournals();
  uint64_t jsn1 = 0, jsn2 = 0;
  ASSERT_TRUE(remote.AppendTx(tx, &jsn1).ok());
  ASSERT_TRUE(remote.AppendTx(tx, &jsn2).ok());  // replay: same journal
  EXPECT_EQ(jsn1, jsn2);
  EXPECT_EQ(ledger_->NumJournals(), before + 1);
}

TEST_F(NetServiceTest, VerifiedClientWorksOverSocket) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("cli")});
  ASSERT_TRUE(server.Start().ok());
  SocketTransport remote(server.address(), "lg://net");

  LedgerClient client(&remote, alice_, ClientOptions());
  uint64_t jsn = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client
                    .AppendVerified(StringToBytes("v" + std::to_string(i)),
                                    {"vt"}, &jsn)
                    .ok());
  }
  ASSERT_TRUE(client.RefreshTrustedRoots().ok());
  EXPECT_EQ(client.trusted_fam_root(), ledger_->FamRoot());

  Journal journal;
  ASSERT_TRUE(client.FetchAndVerifyJournal(jsn, &journal).ok());
  std::vector<Journal> lineage;
  ASSERT_TRUE(client.FetchAndVerifyLineage("vt", &lineage).ok());
  EXPECT_EQ(lineage.size(), 5u);
  std::vector<Journal> audited;
  ASSERT_TRUE(
      client.BatchAuditRange("vt", 0, clock_.Now() + 1, &audited).ok());
  EXPECT_EQ(audited.size(), 5u);
}

TEST_F(NetServiceTest, ConcurrentClientsAllSucceed) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("conc");
  opts.num_workers = 2;
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kAppends = 5;
  std::vector<KeyPair> keys;
  for (int t = 0; t < kThreads; ++t) {
    keys.push_back(RegisterUser("conc-" + std::to_string(t)));
  }
  uint64_t before = ledger_->NumJournals();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SocketTransport remote(server.address(), "lg://net");
      LedgerClient client(&remote, keys[t], ClientOptions());
      for (int i = 0; i < kAppends; ++i) {
        uint64_t jsn = 0;
        if (!client
                 .AppendVerified(StringToBytes(std::to_string(t) + "-" +
                                               std::to_string(i)),
                                 {"conc"}, &jsn)
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ledger_->NumJournals(), before + kThreads * kAppends);
  EXPECT_EQ(server.stats().shed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control: overload sheds fast with Unavailable
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, OverloadShedsFastWithUnavailable) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("shed");
  opts.num_workers = 1;
  opts.queue_depth = 1;
  opts.debug_service_delay_us = 100'000;
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 6;
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  std::atomic<uint64_t> max_shed_latency_us{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SocketTransport remote(server.address(), "lg://net");
      SignedCommitment commitment;
      uint64_t t0 = obs::NowUs();
      Status s = remote.GetCommitment(&commitment);
      uint64_t dt = obs::NowUs() - t0;
      if (s.ok()) {
        ++ok;
      } else if (s.IsUnavailable()) {
        ++unavailable;
        uint64_t prev = max_shed_latency_us.load();
        while (dt > prev &&
               !max_shed_latency_us.compare_exchange_weak(prev, dt)) {
        }
      } else {
        ++other;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(unavailable.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(server.stats().shed.load(),
            static_cast<uint64_t>(unavailable.load()));
  // A shed never waits for the ledger: it must return well under one
  // service time (100 ms), not after queueing behind it.
  EXPECT_LT(max_shed_latency_us.load(), 90'000u);
  // Shed is deliberate load-shedding, not a transient blip: NOT retriable.
  EXPECT_FALSE(Status::Unavailable("shed").IsRetriable());
}

TEST_F(NetServiceTest, StopRemovesTheSocketFileStartBound) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("unlink");
  {
    LedgerServer server(ledger_.get(), opts);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_EQ(access(opts.unix_path.c_str(), F_OK), 0);
    server.Stop();
    EXPECT_NE(access(opts.unix_path.c_str(), F_OK), 0);
  }
  // A server that never started bound nothing, so it removes nothing.
  std::FILE* f = std::fopen(opts.unix_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  {
    LedgerServer idle(ledger_.get(), opts);
    idle.Stop();
  }
  EXPECT_EQ(access(opts.unix_path.c_str(), F_OK), 0);
  std::remove(opts.unix_path.c_str());
}

TEST_F(NetServiceTest, QueuedRequestPastDeadlineAnsweredDeadlineExceeded) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("dl");
  opts.num_workers = 1;
  opts.queue_depth = 8;
  opts.debug_service_delay_us = 80'000;
  opts.request_timeout_us = 40'000;  // expires while queued behind the first
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  std::atomic<int> ok{0}, deadline{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SocketTransport remote(server.address(), "lg://net");
      SignedCommitment commitment;
      Status s = remote.GetCommitment(&commitment);
      if (s.ok()) {
        ++ok;
      } else if (s.IsDeadlineExceeded()) {
        ++deadline;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(deadline.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(server.stats().deadline_expired.load(),
            static_cast<uint64_t>(deadline.load()));
  // Server-side expiry IS retriable — the client may try again.
  EXPECT_TRUE(Status::DeadlineExceeded("queued").IsRetriable());
}

// ---------------------------------------------------------------------------
// Frame errors: malformed input closes the connection, never the server
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, JunkHelloClosesConnection) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("hello")});
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(server.address());
  Bytes junk = StringToBytes("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(net::SendAll(fd, junk.data(), junk.size(), 0).ok());
  EXPECT_TRUE(DrainUntilClosed(fd, 2'000'000));
  close(fd);
  EXPECT_GE(server.stats().frame_errors.load(), 1u);

  // The server survives: a healthy client is still served.
  SocketTransport remote(server.address(), "lg://net");
  SignedCommitment commitment;
  EXPECT_TRUE(remote.GetCommitment(&commitment).ok());
}

TEST_F(NetServiceTest, OversizedFrameLengthClosesConnection) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("big");
  opts.max_frame_bytes = 4096;
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(server.address());
  Bytes hello = wire::EncodeHello();
  ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size(), 0).ok());
  Bytes huge;
  PutU32(&huge, 0xffffffffu);  // 4 GiB frame announcement
  ASSERT_TRUE(net::SendAll(fd, huge.data(), huge.size(), 0).ok());
  EXPECT_TRUE(DrainUntilClosed(fd, 2'000'000));
  close(fd);
  EXPECT_GE(server.stats().frame_errors.load(), 1u);

  SocketTransport remote(server.address(), "lg://net");
  SignedCommitment commitment;
  EXPECT_TRUE(remote.GetCommitment(&commitment).ok());
}

TEST_F(NetServiceTest, MalformedBodyGetsInvalidArgumentNotClose) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("body")});
  ASSERT_TRUE(server.Start().ok());
  SocketTransport remote(server.address(), "lg://net");

  // A valid frame whose op-specific body is junk must produce an explicit
  // InvalidArgument response on a connection that stays usable.
  SignedCommitment commitment;
  ASSERT_TRUE(remote.GetCommitment(&commitment).ok());

  int fd = RawConnect(server.address());
  Bytes hello = wire::EncodeHello();
  ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size(), 0).ok());
  wire::RequestFrame req;
  req.op = RpcOp::kGetJournal;
  req.request_id = 1;
  req.body = StringToBytes("bad");  // not a u64
  Bytes framed;
  wire::AppendFrame(&framed, req.Encode());
  ASSERT_TRUE(net::SendAll(fd, framed.data(), framed.size(), 0).ok());

  Bytes inbuf;
  uint8_t buf[4096];
  uint64_t deadline = obs::NowUs() + 2'000'000;
  wire::ResponseFrame resp;
  while (true) {
    Bytes payload;
    size_t consumed = 0;
    int rc = wire::ExtractFrame(inbuf.data(), inbuf.size(),
                                wire::kDefaultMaxFrameBytes, &payload,
                                &consumed);
    ASSERT_GE(rc, 0);
    if (rc > 0) {
      ASSERT_TRUE(wire::ResponseFrame::Decode(payload, &resp));
      break;
    }
    size_t got = 0;
    ASSERT_TRUE(net::RecvSome(fd, buf, sizeof(buf), deadline, &got).ok());
    ASSERT_GT(got, 0u) << "server closed instead of answering";
    inbuf.insert(inbuf.end(), buf, buf + got);
  }
  EXPECT_TRUE(resp.ToStatus().IsInvalidArgument());
  close(fd);
}

TEST_F(NetServiceTest, DispatchRejectsMalformedBodyOfEveryOp) {
  for (int i = 0; i < 3; ++i) {
    AppendDirect("doc-" + std::to_string(i), {"trail"});
  }
  const uint64_t last = ledger_->NumJournals() - 1;
  ClientTransaction tx;
  tx.ledger_uri = "lg://net";
  tx.clues = {"trail"};
  tx.payload = StringToBytes("table");
  tx.nonce = next_nonce_++;
  tx.client_ts = clock_.Now();
  tx.Sign(alice_);
  const std::pair<RpcOp, Bytes> valid[] = {
      {RpcOp::kAppendTx, tx.Serialize()},
      {RpcOp::kGetReceipt, wire::EncodeJsnRequest(last)},
      {RpcOp::kGetJournal, wire::EncodeJsnRequest(last)},
      {RpcOp::kGetProof, wire::EncodeJsnRequest(last)},
      {RpcOp::kGetClueProof, wire::EncodeClueWindowRequest("trail", 0, 0)},
      {RpcOp::kListTx, wire::EncodeClueRequest("trail")},
      {RpcOp::kGetCommitment, Bytes()},
      {RpcOp::kGetDelta, wire::EncodeRangeRequest(0, last + 1)},
      {RpcOp::kGetProofBatch, wire::EncodeJsnList({last})},
      {RpcOp::kProveClueRange,
       wire::EncodeClueWindowRequest(
           "trail", 0, static_cast<uint64_t>(clock_.Now() + 1))},
  };
  ASSERT_EQ(std::size(valid), static_cast<size_t>(kNumRpcOps));

  uint64_t request_id = 0;
  auto dispatch = [&](RpcOp op, Bytes body) {
    wire::RequestFrame req;
    req.op = op;
    req.request_id = ++request_id;
    req.body = std::move(body);
    return wire::Dispatch(ledger_.get(), req);
  };

  const uint64_t journals = ledger_->NumJournals();
  const Digest fam_root = ledger_->FamRoot();
  for (const auto& [op, body] : valid) {
    SCOPED_TRACE(RpcOpName(op));
    // Truncated by one byte (GetCommitment's body is empty: nothing to
    // cut), and one trailing byte past a well-formed body.
    std::vector<Bytes> malformed;
    if (!body.empty()) malformed.emplace_back(body.begin(), body.end() - 1);
    malformed.push_back(body);
    malformed.back().push_back(0);
    for (const Bytes& bad : malformed) {
      wire::ResponseFrame resp = dispatch(op, bad);
      EXPECT_EQ(resp.op, op);
      EXPECT_EQ(resp.request_id, request_id);
      EXPECT_TRUE(resp.ToStatus().IsInvalidArgument()) << resp.message;
      EXPECT_TRUE(resp.body.empty());
    }
    EXPECT_EQ(ledger_->NumJournals(), journals);
    EXPECT_EQ(ledger_->FamRoot(), fam_root);
  }
  // The same bodies unmodified are served, so each rejection above is the
  // malformation's doing.
  for (const auto& [op, body] : valid) {
    EXPECT_EQ(dispatch(op, body).code,
              static_cast<uint8_t>(Status::Code::kOk))
        << RpcOpName(op);
  }
  EXPECT_EQ(ledger_->NumJournals(), journals + 1);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, GracefulDrainUnderLoadAndBitIdenticalRecovery) {
  // File-backed ledger so we can prove the post-drain state replays
  // bit-identically — acknowledged writes survive, nothing half-applied.
  std::string dir = ::testing::TempDir();
  std::string jpath = dir + "/drain_journals.log";
  std::string bpath = dir + "/drain_blocks.log";
  for (const std::string& p : {jpath, bpath}) {
    std::remove(p.c_str());
    std::remove((p + ".wm").c_str());
    std::remove((p + ".quarantine").c_str());
  }

  Digest fam_root, clue_root, state_root;
  uint64_t journal_count = 0;
  std::vector<uint64_t> acked_jsns;
  std::mutex acked_mu;
  {
    std::unique_ptr<FileStreamStore> jfile, bfile;
    ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
    ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
    Ledger ledger("lg://drain", options_, &clock_, lsp_, &registry_,
                  {jfile.get(), bfile.get()});

    LedgerServer::Options opts;
    opts.unix_path = SockPath("drain");
    opts.num_workers = 2;
    opts.debug_service_delay_us = 5'000;  // keep requests in flight at Stop
    LedgerServer server(&ledger, opts);
    ASSERT_TRUE(server.Start().ok());

    constexpr int kThreads = 3;
    std::vector<KeyPair> keys;
    for (int t = 0; t < kThreads; ++t) {
      keys.push_back(RegisterUser("drain-" + std::to_string(t)));
    }
    std::atomic<int> unexplained{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        SocketTransport::Options topts;
        topts.request_deadline_us = 2'000'000;
        SocketTransport remote(server.address(), "lg://drain", topts);
        for (int i = 0; i < 50; ++i) {
          ClientTransaction tx;
          tx.ledger_uri = "lg://drain";
          tx.payload = StringToBytes(std::to_string(t) + ":" +
                                     std::to_string(i));
          tx.nonce = static_cast<uint64_t>(i);
          tx.client_ts = clock_.Now();
          tx.Sign(keys[t]);
          uint64_t jsn = 0;
          Status s = remote.AppendTx(tx, &jsn);
          if (s.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked_jsns.push_back(jsn);
          } else if (!s.IsUnavailable() && !s.IsTransientIO() &&
                     !s.IsDeadlineExceeded()) {
            ++unexplained;  // silent corruption or a weird code: fail below
          }
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    uint64_t t0 = obs::NowUs();
    server.Stop();  // drains while the append threads are still firing
    uint64_t stop_us = obs::NowUs() - t0;
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(unexplained.load(), 0);
    EXPECT_GT(acked_jsns.size(), 0u);
    // Admitted work completed (or failed explicitly) within the drain
    // budget plus the flush allowance — Stop() never hangs on stragglers.
    EXPECT_LT(stop_us, opts.drain_deadline_us + 1'500'000);
    EXPECT_EQ(server.stats().drain_failed.load(), 0u);

    // Every acknowledged append is actually in the ledger.
    for (uint64_t jsn : acked_jsns) {
      Journal journal;
      EXPECT_TRUE(ledger.GetJournal(jsn, &journal).ok()) << "jsn " << jsn;
    }
    ledger.SealBlock();
    fam_root = ledger.FamRoot();
    clue_root = ledger.ClueRoot();
    state_root = ledger.StateRoot();
    journal_count = ledger.NumJournals();
  }  // server, ledger and files all torn down

  std::unique_ptr<FileStreamStore> jfile, bfile;
  ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
  ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(Ledger::Recover("lg://drain", options_, &clock_, lsp_,
                              &registry_, {jfile.get(), bfile.get()},
                              &recovered)
                  .ok());
  EXPECT_EQ(recovered->NumJournals(), journal_count);
  EXPECT_EQ(recovered->FamRoot(), fam_root);
  EXPECT_EQ(recovered->ClueRoot(), clue_root);
  EXPECT_EQ(recovered->StateRoot(), state_root);
  for (uint64_t jsn : acked_jsns) {
    Journal journal;
    EXPECT_TRUE(recovered->GetJournal(jsn, &journal).ok()) << "jsn " << jsn;
  }
}

TEST_F(NetServiceTest, DrainThenCheckpointedRestartRecoversBitIdentically) {
  // Full service lifecycle: serve over a socket, drain gracefully, write a
  // verified checkpoint, restart — the restarted server must come back via
  // the checkpoint (not full replay), bit-identical, and keep serving.
  std::string dir = ::testing::TempDir();
  std::string jpath = dir + "/ckre_journals.log";
  std::string bpath = dir + "/ckre_blocks.log";
  std::string cbase = dir + "/ckre_ckpt";
  for (const std::string& p : {jpath, bpath}) {
    std::remove(p.c_str());
    std::remove((p + ".wm").c_str());
    std::remove((p + ".quarantine").c_str());
  }
  for (const std::string& p : {cbase + ".ckpt.0", cbase + ".snap.0",
                               cbase + ".ckpt.1", cbase + ".snap.1"}) {
    std::remove(p.c_str());
  }

  Digest fam_root, clue_root, state_root;
  uint64_t journal_count = 0, watermark = 0;
  Bytes last_receipt;
  {
    std::unique_ptr<FileStreamStore> jfile, bfile;
    ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
    ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
    CheckpointStore ckpt(Env::Default(), cbase);
    Ledger ledger("lg://ckre", options_, &clock_, lsp_, &registry_,
                  {jfile.get(), bfile.get(), &ckpt});

    LedgerServer server(&ledger, {.unix_path = SockPath("ckre")});
    ASSERT_TRUE(server.Start().ok());
    SocketTransport remote(server.address(), "lg://ckre");
    KeyPair user = RegisterUser("ckre-user");
    for (int i = 0; i < 9; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://ckre";
      tx.clues = {"trail-" + std::to_string(i % 2)};
      tx.payload = StringToBytes("ckre-" + std::to_string(i));
      tx.nonce = static_cast<uint64_t>(i);
      tx.client_ts = clock_.Now();
      tx.Sign(user);
      uint64_t jsn = 0;
      ASSERT_TRUE(remote.AppendTx(tx, &jsn).ok());
    }
    server.Stop();  // graceful drain: no requests in flight afterwards
    ASSERT_TRUE(ledger.WriteCheckpoint(nullptr).ok());
    ledger.SealBlock();
    fam_root = ledger.FamRoot();
    clue_root = ledger.ClueRoot();
    state_root = ledger.StateRoot();
    journal_count = ledger.NumJournals();
    Receipt receipt;
    ASSERT_TRUE(ledger.GetReceipt(journal_count - 1, &receipt).ok());
    last_receipt = receipt.Serialize();
  }

  // Restart: recovery must ride the checkpoint and land bit-identical.
  std::unique_ptr<FileStreamStore> jfile, bfile;
  ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
  ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
  CheckpointStore ckpt(Env::Default(), cbase);
  std::unique_ptr<Ledger> recovered;
  RecoveryInfo info;
  ASSERT_TRUE(Ledger::Recover("lg://ckre", options_, &clock_, lsp_,
                              &registry_, {jfile.get(), bfile.get(), &ckpt},
                              &recovered, &info)
                  .ok());
  EXPECT_TRUE(info.used_checkpoint);
  watermark = info.checkpoint_watermark;
  EXPECT_GT(watermark, 0u);
  EXPECT_EQ(recovered->NumJournals(), journal_count);
  EXPECT_EQ(recovered->FamRoot(), fam_root);
  EXPECT_EQ(recovered->ClueRoot(), clue_root);
  EXPECT_EQ(recovered->StateRoot(), state_root);

  // The restarted server answers from the recovered state: same receipt
  // for pre-restart journals, and new appends still commit.
  LedgerServer server2(recovered.get(), {.unix_path = SockPath("ckre2")});
  ASSERT_TRUE(server2.Start().ok());
  SocketTransport remote2(server2.address(), "lg://ckre");
  Receipt receipt;
  ASSERT_TRUE(remote2.GetReceipt(journal_count - 1, &receipt).ok());
  EXPECT_EQ(receipt.Serialize(), last_receipt);
  FamProof proof;
  Journal journal;
  ASSERT_TRUE(remote2.GetProof(1, &proof).ok());
  ASSERT_TRUE(remote2.GetJournal(1, &journal).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, recovered->FamRoot()));
  KeyPair user = KeyPair::FromSeedString("net-ckre-user");
  ClientTransaction tx;
  tx.ledger_uri = "lg://ckre";
  tx.clues = {"trail-0"};
  tx.payload = StringToBytes("post-restart");
  tx.nonce = 100;
  tx.client_ts = clock_.Now();
  tx.Sign(user);
  uint64_t jsn = 0;
  ASSERT_TRUE(remote2.AppendTx(tx, &jsn).ok());
  EXPECT_EQ(jsn, journal_count);
  server2.Stop();
}

TEST_F(NetServiceTest, RequestsDuringDrainAreShedNotHung) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("drsh");
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  SocketTransport remote(server.address(), "lg://net");
  SignedCommitment commitment;
  ASSERT_TRUE(remote.GetCommitment(&commitment).ok());

  server.Stop();
  // The connection was closed by the drain; a request now fails fast with
  // a transport error (connect refused / EOF), never a hang.
  uint64_t t0 = obs::NowUs();
  Status s = remote.GetCommitment(&commitment);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTransientIO() || s.IsUnavailable() ||
              s.IsDeadlineExceeded())
      << s.ToString();
  EXPECT_LT(obs::NowUs() - t0, 3'000'000u);
}

// ---------------------------------------------------------------------------
// Per-request deadlines across every transport
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, LocalTransportHonorsRequestDeadline) {
  LocalTransport local(ledger_.get());
  local.SetSimulatedLatencyUs(10'000);

  SignedCommitment commitment;
  local.set_request_deadline_us(5'000);
  Status s = local.GetCommitment(&commitment);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_TRUE(s.IsRetriable());

  local.set_request_deadline_us(20'000);
  EXPECT_TRUE(local.GetCommitment(&commitment).ok());
  local.set_request_deadline_us(0);  // 0 = no deadline
  EXPECT_TRUE(local.GetCommitment(&commitment).ok());
}

TEST_F(NetServiceTest, ByzantineTransportPropagatesDeadlineToInner) {
  LocalTransport local(ledger_.get());
  local.SetSimulatedLatencyUs(10'000);
  ByzantineTransport byz(&local, /*seed=*/3);

  // The decorator forwards the deadline option to the wrapped transport.
  byz.set_request_deadline_us(5'000);
  SignedCommitment commitment;
  Status s = byz.GetCommitment(&commitment);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();

  byz.set_request_deadline_us(0);
  EXPECT_TRUE(byz.GetCommitment(&commitment).ok());
}

TEST_F(NetServiceTest, SocketTransportHonorsRequestDeadline) {
  LedgerServer::Options opts;
  opts.unix_path = SockPath("sdl");
  opts.num_workers = 1;
  opts.debug_service_delay_us = 200'000;
  LedgerServer server(ledger_.get(), opts);
  ASSERT_TRUE(server.Start().ok());

  SocketTransport remote(server.address(), "lg://net");
  remote.set_request_deadline_us(50'000);
  SignedCommitment commitment;
  uint64_t t0 = obs::NowUs();
  Status s = remote.GetCommitment(&commitment);
  uint64_t dt = obs::NowUs() - t0;
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_LT(dt, 150'000u);  // gave up at its own deadline, not the server's
  EXPECT_FALSE(remote.connected());  // late responses must not desync

  remote.set_request_deadline_us(0);
  EXPECT_TRUE(remote.GetCommitment(&commitment).ok());
}

// ---------------------------------------------------------------------------
// Frame fuzz: decoders and the live server survive arbitrary bytes
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, FrameDecodersSurviveBitFlips) {
  wire::RequestFrame req;
  req.op = RpcOp::kProveClueRange;
  req.request_id = 99;
  req.body = wire::EncodeClueWindowRequest("clue", 1, 2);
  Bytes renc = req.Encode();

  wire::ResponseFrame resp =
      wire::ResponseFrame::From(RpcOp::kGetProof, 5, Status::NotFound("n"));
  resp.body = StringToBytes("whatever");
  Bytes senc = resp.Encode();

  for (size_t i = 0; i < renc.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = renc;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      wire::RequestFrame out;
      wire::RequestFrame::Decode(mutated, &out);  // must not crash
    }
  }
  for (size_t i = 0; i < senc.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = senc;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      wire::ResponseFrame out;
      if (wire::ResponseFrame::Decode(mutated, &out)) {
        out.ToStatus();  // decoded frames must yield a valid Status
      }
    }
  }
}

TEST_F(NetServiceTest, DecodersSurviveSeededJunk) {
  Random rng(FuzzSeed());
  uint64_t rounds = FuzzRounds();
  for (uint64_t i = 0; i < rounds; ++i) {
    Bytes junk = rng.NextBytes(1 + rng.Uniform(256));
    wire::RequestFrame req;
    wire::RequestFrame::Decode(junk, &req);
    wire::ResponseFrame resp;
    wire::ResponseFrame::Decode(junk, &resp);
    Bytes payload;
    size_t consumed = 0;
    wire::ExtractFrame(junk.data(), junk.size(), 4096, &payload, &consumed);
    uint64_t jsn;
    wire::DecodeJsnRequest(junk, &jsn);
    std::string clue;
    uint64_t a, b;
    wire::DecodeClueWindowRequest(junk, &clue, &a, &b);
    std::vector<uint64_t> jsns;
    wire::DecodeJsnList(junk, &jsns);
    std::vector<JournalDelta> deltas;
    wire::DecodeDeltas(junk, &deltas);
  }
}

TEST_F(NetServiceTest, LiveServerSurvivesJunkStreams) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("fuzz")});
  ASSERT_TRUE(server.Start().ok());

  Random rng(FuzzSeed() ^ 0xf00d);
  uint64_t rounds = std::min<uint64_t>(FuzzRounds(), 64);
  for (uint64_t i = 0; i < rounds; ++i) {
    int fd = RawConnect(server.address());
    ASSERT_GE(fd, 0);
    // Half the rounds speak a valid hello first so the junk lands in the
    // frame parser rather than the handshake check.
    if (rng.Uniform(2) == 0) {
      Bytes hello = wire::EncodeHello();
      if (!net::SendAll(fd, hello.data(), hello.size(), 0).ok()) {
        close(fd);
        continue;
      }
    }
    Bytes junk = rng.NextBytes(1 + rng.Uniform(512));
    (void)net::SendAll(fd, junk.data(), junk.size(), 0);
    shutdown(fd, SHUT_WR);
    // The server must close (or answer) promptly — never hang the fuzzer.
    EXPECT_TRUE(DrainUntilClosed(fd, 3'000'000)) << "round " << i;
    close(fd);
  }

  // After the whole barrage, the server still serves a healthy client.
  SocketTransport remote(server.address(), "lg://net");
  SignedCommitment commitment;
  ASSERT_TRUE(remote.GetCommitment(&commitment).ok());
  EXPECT_TRUE(commitment.Verify(lsp_.public_key()));
}

// ---------------------------------------------------------------------------
// Socket fault matrix: every fault ends in a clean retriable error or a
// verified-correct response — no hangs, no silent corruption
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, SocketFaultMatrix) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("fmsrv")});
  ASSERT_TRUE(server.Start().ok());
  AppendDirect("matrix-doc", {"fm"});

  const SocketFaultKind kinds[] = {
      SocketFaultKind::kNone,          SocketFaultKind::kReset,
      SocketFaultKind::kStall,         SocketFaultKind::kShortChunks,
      SocketFaultKind::kMidFrameClose, SocketFaultKind::kOversizedFrame,
  };
  int cell = 0;
  for (SocketFaultKind kind : kinds) {
    SCOPED_TRACE(SocketFaultKindName(kind));
    SocketFaultProxy proxy(SockPath("fmp" + std::to_string(cell)),
                           server.address(), /*seed=*/FuzzSeed() + cell);
    ++cell;
    ASSERT_TRUE(proxy.Start().ok());
    proxy.ScheduleFault(0, kind);  // first connection faulted; retries clean

    SocketTransport::Options topts;
    topts.request_deadline_us = 300'000;  // bounds kStall deterministically
    SocketTransport remote(proxy.address(), "lg://net", topts);

    // First attempt: either success (kNone, kShortChunks) or a clean
    // retriable transport error. Anything else is a matrix failure.
    SignedCommitment commitment;
    uint64_t t0 = obs::NowUs();
    Status first = remote.GetCommitment(&commitment);
    uint64_t dt = obs::NowUs() - t0;
    EXPECT_LT(dt, 2'000'000u) << "fault hung the client";
    if (!first.ok()) {
      EXPECT_TRUE(first.IsRetriable()) << first.ToString();
    }

    // Through the retry loop the cell must converge to a verified-correct
    // response: the faulted connection is abandoned, the reconnect is
    // honest (only conn 0 is scheduled).
    RetryPolicy policy;
    policy.max_attempts = 4;
    Status final = RetryTransient(policy, [&] {
      SignedCommitment c;
      Status s = remote.GetCommitment(&c);
      if (s.ok()) commitment = c;
      return s;
    });
    ASSERT_TRUE(final.ok()) << final.ToString();
    EXPECT_TRUE(commitment.Verify(lsp_.public_key()));
    EXPECT_EQ(commitment.journal_count, ledger_->NumJournals());
    proxy.Stop();
  }
}

TEST_F(NetServiceTest, FaultedAppendCommitsExactlyOnce) {
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("fa")});
  ASSERT_TRUE(server.Start().ok());
  SocketFaultProxy proxy(SockPath("fap"), server.address(),
                         /*seed=*/FuzzSeed());
  ASSERT_TRUE(proxy.Start().ok());
  // The response (not the request) is cut: the server HAS committed, the
  // client cannot know — the retry must converge via (signer, nonce) dedup.
  proxy.ScheduleFault(0, SocketFaultKind::kMidFrameClose);

  SocketTransport remote(proxy.address(), "lg://net");
  ClientTransaction tx;
  tx.ledger_uri = "lg://net";
  tx.payload = StringToBytes("cut-response");
  tx.nonce = 4242;
  tx.client_ts = clock_.Now();
  tx.Sign(alice_);

  uint64_t before = ledger_->NumJournals();
  RetryPolicy policy;
  policy.max_attempts = 4;
  uint64_t jsn = 0;
  RetryStats stats;
  Status s = RetryTransient(policy, [&] { return remote.AppendTx(tx, &jsn); },
                            &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(stats.attempts, 2);  // the fault really fired
  EXPECT_EQ(ledger_->NumJournals(), before + 1);  // exactly once
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("cut-response"));
  proxy.Stop();
}

// ---------------------------------------------------------------------------
// Cross-process tracing and the per-request event log
// ---------------------------------------------------------------------------

TEST_F(NetServiceTest, TracedRequestFrameRoundTripAndStrictness) {
  wire::RequestFrame req;
  req.op = RpcOp::kAppendTx;
  req.request_id = 77;
  req.trace_id = 0xdeadbeefULL;
  req.parent_span = 0xdeadbeefULL;
  req.body = StringToBytes("traced");
  Bytes enc = req.Encode();
  EXPECT_EQ(enc[0] & wire::kOpTraceFlag, wire::kOpTraceFlag);

  wire::RequestFrame out;
  ASSERT_TRUE(wire::RequestFrame::Decode(enc, &out));
  EXPECT_EQ(out.op, req.op);
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.trace_id, req.trace_id);
  EXPECT_EQ(out.parent_span, req.parent_span);
  EXPECT_EQ(out.body, req.body);

  // trace_id = 0 encodes the legacy layout, byte for byte: old servers
  // and new servers parse the same frame identically.
  wire::RequestFrame legacy = req;
  legacy.trace_id = 0;
  legacy.parent_span = 0;
  Bytes legacy_enc = legacy.Encode();
  EXPECT_EQ(legacy_enc.size(), 9 + req.body.size());
  EXPECT_EQ(legacy_enc[0], static_cast<uint8_t>(RpcOp::kAppendTx));
  ASSERT_TRUE(wire::RequestFrame::Decode(legacy_enc, &out));
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.parent_span, 0u);
  EXPECT_EQ(out.body, req.body);

  // Flag set but header truncated: rejected, never read as body bytes.
  for (size_t len = 9; len < 25; ++len) {
    EXPECT_FALSE(wire::RequestFrame::Decode(
        Bytes(enc.begin(), enc.begin() + static_cast<ptrdiff_t>(len)), &out))
        << len;
  }
  // Flagged frame carrying trace_id 0 is a protocol violation (Encode
  // never produces it).
  Bytes zero_trace = enc;
  for (size_t i = 9; i < 17; ++i) zero_trace[i] = 0;
  EXPECT_FALSE(wire::RequestFrame::Decode(zero_trace, &out));
}

TEST_F(NetServiceTest, TraceStitchesClientAndServerSpans) {
  AppendDirect("traced-target", {"trace"});
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("tr")});
  ASSERT_TRUE(server.Start().ok());

  obs::SpanTracer::Default().Clear();
  SocketTransport::Options topts;
  topts.trace_sample_every = 1;  // every call is a trace root
  SocketTransport remote(server.address(), "lg://net", topts);

  uint64_t t0 = obs::NowUs();
  SignedCommitment commitment;
  ASSERT_TRUE(remote.GetCommitment(&commitment).ok());
  uint64_t client_observed_us = obs::NowUs() - t0;
  uint64_t trace_id = remote.last_trace_id();
  ASSERT_NE(trace_id, 0u);

  // The client span exists immediately; the server records queue/execute
  // before responding, so they are also visible. The flush span fires when
  // the event loop sees the response bytes leave — poll briefly.
  bool saw_client = false, saw_queue = false, saw_execute = false,
       saw_flush = false;
  uint64_t queue_us = 0, exec_us = 0;
  uint64_t deadline = obs::NowUs() + 2'000'000;
  do {
    saw_client = saw_queue = saw_execute = saw_flush = false;
    for (const obs::SpanRecord& span :
         obs::SpanTracer::Default().Snapshot()) {
      if (span.trace_id != trace_id) continue;
      std::string stage = span.stage;
      if (stage == "client_rpc") {
        saw_client = true;
        EXPECT_EQ(span.parent_span, 0u);  // trace root
      } else if (stage == "server_queue") {
        saw_queue = true;
        queue_us = span.dur_us;
        EXPECT_EQ(span.parent_span, trace_id);
      } else if (stage == "server_execute") {
        saw_execute = true;
        exec_us = span.dur_us;
        EXPECT_EQ(span.parent_span, trace_id);
      } else if (stage == "server_flush") {
        saw_flush = true;
        EXPECT_EQ(span.parent_span, trace_id);
      }
    }
    if (saw_client && saw_queue && saw_execute && saw_flush) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (obs::NowUs() < deadline);
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_flush);

  // Server-side accounting nests inside what the client observed: both
  // sides read the same monotonic clock, and queue-wait + execution are a
  // strict subset of the client's round trip.
  EXPECT_LE(queue_us + exec_us, client_observed_us);

  // The exporter carries the trace fields.
  std::string json =
      obs::SpanRecordsToJson(obs::SpanTracer::Default().Snapshot());
  EXPECT_NE(json.find("\"trace_id\": " + std::to_string(trace_id)),
            std::string::npos);
  server.Stop();
}

TEST_F(NetServiceTest, UntracedClientsAreServedUnchanged) {
  AppendDirect("legacy-target", {"legacy"});
  LedgerServer server(ledger_.get(), {.unix_path = SockPath("lg")});
  ASSERT_TRUE(server.Start().ok());

  // Default transport options: tracing off, frames in the legacy layout.
  SocketTransport remote(server.address(), "lg://net");
  SignedCommitment commitment;
  ASSERT_TRUE(remote.GetCommitment(&commitment).ok());
  EXPECT_EQ(remote.last_trace_id(), 0u);

  // A hand-built legacy frame (no trace flag) over a raw socket is served
  // exactly like before the trace header existed.
  int fd = RawConnect(server.address());
  Bytes hello = wire::EncodeHello();
  ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size(),
                           obs::NowUs() + 2'000'000)
                  .ok());
  wire::RequestFrame req;
  req.op = RpcOp::kGetCommitment;
  req.request_id = 1;
  Bytes frame;
  wire::AppendFrame(&frame, req.Encode());
  ASSERT_TRUE(net::SendAll(fd, frame.data(), frame.size(),
                           obs::NowUs() + 2'000'000)
                  .ok());
  Bytes inbuf;
  uint8_t buf[4096];
  wire::ResponseFrame resp;
  uint64_t deadline = obs::NowUs() + 2'000'000;
  while (true) {
    Bytes payload;
    size_t consumed = 0;
    int rc = wire::ExtractFrame(inbuf.data(), inbuf.size(),
                                wire::kDefaultMaxFrameBytes, &payload,
                                &consumed);
    ASSERT_GE(rc, 0);
    if (rc > 0) {
      ASSERT_TRUE(wire::ResponseFrame::Decode(payload, &resp));
      break;
    }
    size_t got = 0;
    ASSERT_TRUE(net::RecvSome(fd, buf, sizeof(buf), deadline, &got).ok());
    ASSERT_GT(got, 0u);
    inbuf.insert(inbuf.end(), buf, buf + got);
  }
  EXPECT_EQ(resp.code, static_cast<uint8_t>(Status::Code::kOk));
  EXPECT_EQ(resp.request_id, 1u);
  close(fd);
  server.Stop();
}

TEST_F(NetServiceTest, RequestLogRecordsCompletionsAndSheds) {
  obs::RequestLog::Default().Clear();
  LedgerServer::Options sopts;
  sopts.unix_path = SockPath("rl");
  sopts.num_workers = 1;
  sopts.queue_depth = 1;
  sopts.debug_service_delay_us = 20'000;
  sopts.request_timeout_us = 30'000'000;
  sopts.slow_request_us = 1;  // everything executed is flagged slow
  LedgerServer server(ledger_.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  // Overload a 1-deep queue so at least one request sheds.
  std::atomic<int> ok{0}, shed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&] {
      SocketTransport remote(server.address(), "lg://net");
      SignedCommitment commitment;
      Status s = remote.GetCommitment(&commitment);
      if (s.ok()) ++ok;
      if (s.IsUnavailable()) ++shed;
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();
  ASSERT_GT(ok.load(), 0);
  ASSERT_GT(shed.load(), 0);

  std::vector<obs::RequestRecord> records =
      obs::RequestLog::Default().Snapshot();
  int logged_ok = 0, logged_shed = 0, logged_slow = 0;
  for (const obs::RequestRecord& rec : records) {
    ASSERT_NE(rec.op, nullptr);
    EXPECT_STREQ(rec.op, "GetCommitment");
    if (rec.shed) {
      ++logged_shed;
      EXPECT_EQ(rec.status, static_cast<uint8_t>(Status::Code::kUnavailable));
      EXPECT_EQ(rec.exec_us, 0u);
    } else {
      ++logged_ok;
      EXPECT_GE(rec.exec_us, sopts.debug_service_delay_us);
    }
    if (rec.slow) ++logged_slow;
  }
  EXPECT_EQ(logged_ok, ok.load());
  EXPECT_EQ(logged_shed, shed.load());
  EXPECT_GE(logged_slow, ok.load());  // 1 us threshold: every executed one

  // The slow view and the JSON exporter agree with the flags.
  EXPECT_EQ(obs::RequestLog::Default().SlowSnapshot().size(),
            static_cast<size_t>(logged_slow));
  std::string json = obs::RequestRecordsToJson(records);
  EXPECT_NE(json.find("\"shed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"GetCommitment\""), std::string::npos);
}

}  // namespace
}  // namespace ledgerdb
