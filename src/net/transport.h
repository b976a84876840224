#ifndef LEDGERDB_NET_TRANSPORT_H_
#define LEDGERDB_NET_TRANSPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ledger/ledger.h"

namespace ledgerdb {

/// The RPC operations a ledger client can issue. Fault injection schedules
/// against these (ByzantineTransport), so the enum is part of the net
/// plane's public surface.
enum class RpcOp : uint8_t {
  kAppendTx = 0,
  kGetReceipt,
  kGetJournal,
  kGetProof,
  kGetClueProof,
  kListTx,
  kGetCommitment,
  kGetDelta,
  kGetProofBatch,
  kProveClueRange,
};

constexpr int kNumRpcOps = 10;

const char* RpcOpName(RpcOp op);

/// Transport seam between LedgerClient / auditors and the LSP (§II-B: the
/// LSP is *distrusted*, so everything a client learns arrives through this
/// interface and must be independently verified). Implementations:
/// WireTransport (the one typed stub; SocketTransport and the in-process
/// LocalTransport only move its frames, and wire::Dispatch serves both)
/// and ByzantineTransport (adversarial decorator over any transport).
class LedgerTransport {
 public:
  virtual ~LedgerTransport() = default;

  /// Submits a signed transaction; `jsn` receives the assigned sequence
  /// number. Safe to retry: the server deduplicates on (signer, nonce).
  virtual Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) = 0;

  virtual Status GetReceipt(uint64_t jsn, Receipt* out) = 0;
  virtual Status GetJournal(uint64_t jsn, Journal* out) = 0;
  virtual Status GetProof(uint64_t jsn, FamProof* out) = 0;
  virtual Status GetClueProof(const std::string& clue, uint64_t begin,
                              uint64_t end, ClueProof* out) = 0;
  virtual Status ListTx(const std::string& clue,
                        std::vector<uint64_t>* jsns) = 0;
  virtual Status GetCommitment(SignedCommitment* out) = 0;
  virtual Status GetDelta(uint64_t from, uint64_t to,
                          std::vector<JournalDelta>* out) = 0;

  /// Batched fam existence proof for a journal set (one shared node set
  /// per epoch + one link chain; see FamBatchProof).
  virtual Status GetProofBatch(const std::vector<uint64_t>& jsns,
                               FamBatchProof* out) = 0;

  /// Batched range read: journals + clue proof + fam batch proof for every
  /// entry of `clue` with server_ts in [from, to). One round-trip replaces
  /// N GetJournal calls plus N GetProof calls.
  virtual Status ProveClueRange(const std::string& clue, Timestamp from,
                                Timestamp to, ClueRangeResult* out) = 0;

  virtual const std::string& uri() const = 0;

  /// Per-request deadline budget in microseconds (0 = unbounded). Every
  /// transport maps deadline expiry to Status::DeadlineExceeded — the
  /// distinct *retriable* timeout status — so retry loops and the
  /// byzantine matrix exercise timeout paths uniformly across local,
  /// adversarial and socket transports.
  void set_request_deadline_us(uint64_t us) { request_deadline_us_ = us; }
  uint64_t request_deadline_us() const { return request_deadline_us_; }

 protected:
  uint64_t request_deadline_us_ = 0;
};

/// The typed client stub: each RPC encodes its request body and decodes
/// its response body with the net/wire.h codecs, once, over one Call()
/// seam. A response body that does not decode is non-retriable Corruption
/// (the bytes, not the transport, are bad).
class WireTransport : public LedgerTransport {
 public:
  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) final;
  Status GetReceipt(uint64_t jsn, Receipt* out) final;
  Status GetJournal(uint64_t jsn, Journal* out) final;
  Status GetProof(uint64_t jsn, FamProof* out) final;
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) final;
  Status ListTx(const std::string& clue, std::vector<uint64_t>* jsns) final;
  Status GetCommitment(SignedCommitment* out) final;
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) final;
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) final;
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) final;

 protected:
  /// One request/response exchange. On an OK response `*resp_body`
  /// receives its body; server-reported statuses come back verbatim.
  virtual Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) = 0;
};

/// Honest in-process transport: a frame loopback. Each request is encoded,
/// framed and decoded as a LedgerServer would receive it, served by
/// wire::Dispatch, and answered back through the same codec — so a proof
/// that survives LocalTransport has survived, byte for byte, the codec a
/// remote client sees.
class LocalTransport : public WireTransport {
 public:
  explicit LocalTransport(Ledger* ledger);

  const std::string& uri() const override { return uri_; }

  /// Test hook: pretend every op takes this long. In-process calls are
  /// effectively instant, so this is how the deadline path gets exercised
  /// without real sleeps — an op whose simulated latency reaches the
  /// request deadline returns DeadlineExceeded without touching the ledger.
  void SetSimulatedLatencyUs(uint64_t us) { simulated_latency_us_ = us; }

 protected:
  Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) override;

 private:
  /// DeadlineExceeded if the simulated latency eats the request budget.
  Status CheckDeadline() const;

  uint64_t simulated_latency_us_ = 0;
  uint64_t next_request_id_ = 0;

  Ledger* ledger_ = nullptr;
  std::string uri_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_TRANSPORT_H_
