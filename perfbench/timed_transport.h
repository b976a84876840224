// LedgerTransport decorator used by the traced run. It forwards every call
// to the wrapped transport unchanged and records one span per RPC: the op,
// its wall time, the cross-process trace id the socket stamped on it, and
// the client operation it belongs to, how many journal deltas a GetDelta
// carried, and (sampled) the response's serialized size. It can also hand
// the client operation a copy of the fam proof it just verified, so the
// verifiers can be replayed after the timed window.

#ifndef LEDGERDB_PERFBENCH_TIMED_TRANSPORT_H_
#define LEDGERDB_PERFBENCH_TIMED_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/socket_transport.h"
#include "net/transport.h"

namespace ledgerdb::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedTransport : public LedgerTransport {
 public:
  struct RpcSpan {
    RpcOp op;
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t trace_id;  ///< joins the server's queue/execute/flush spans
    uint64_t parent;    ///< client operation span id (0 = outside any op)
    uint64_t deltas;    ///< journal deltas in a GetDelta response
    uint64_t bytes;     ///< serialized response size; 0 = not sampled
  };

  /// Responses of every `kBytesSampleEvery`-th call per op are
  /// re-serialized to measure their size.
  static constexpr uint64_t kBytesSampleEvery = 8;

  explicit TimedTransport(SocketTransport* inner) : inner_(inner) {}

  /// Child spans recorded from now on belong to client operation `id`.
  void set_parent(uint64_t id) { parent_ = id; }
  /// When non-null, the next successful GetProof response is copied here.
  void CaptureNextProof(FamProof* slot) { proof_slot_ = slot; }

  const std::vector<RpcSpan>& spans() const { return spans_; }

  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) override {
    return Timed(RpcOp::kAppendTx, [&] { return inner_->AppendTx(tx, jsn); },
                 [] { return size_t{8}; });
  }
  Status GetReceipt(uint64_t jsn, Receipt* out) override {
    return Timed(RpcOp::kGetReceipt,
                 [&] { return inner_->GetReceipt(jsn, out); },
                 [&] { return out->Serialize().size(); });
  }
  Status GetJournal(uint64_t jsn, Journal* out) override {
    return Timed(RpcOp::kGetJournal,
                 [&] { return inner_->GetJournal(jsn, out); },
                 [&] { return out->Serialize().size(); });
  }
  Status GetProof(uint64_t jsn, FamProof* out) override {
    Status st = Timed(RpcOp::kGetProof,
                      [&] { return inner_->GetProof(jsn, out); },
                      [&] { return out->Serialize().size(); });
    if (st.ok() && proof_slot_ != nullptr) {
      *proof_slot_ = *out;
      proof_slot_ = nullptr;
    }
    return st;
  }
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) override {
    return Timed(RpcOp::kGetClueProof,
                 [&] { return inner_->GetClueProof(clue, begin, end, out); },
                 [&] { return out->Serialize().size(); });
  }
  Status ListTx(const std::string& clue,
                std::vector<uint64_t>* jsns) override {
    return Timed(RpcOp::kListTx, [&] { return inner_->ListTx(clue, jsns); },
                 [&] { return 8 * jsns->size(); });
  }
  Status GetCommitment(SignedCommitment* out) override {
    return Timed(RpcOp::kGetCommitment,
                 [&] { return inner_->GetCommitment(out); },
                 [&] { return out->Serialize().size(); });
  }
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) override {
    Status st = Timed(RpcOp::kGetDelta,
                      [&] { return inner_->GetDelta(from, to, out); },
                      [&] {
                        size_t n = 0;
                        for (const JournalDelta& d : *out) {
                          n += d.Serialize().size();
                        }
                        return n;
                      });
    if (st.ok()) spans_.back().deltas = out->size();
    return st;
  }
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) override {
    return Timed(RpcOp::kGetProofBatch,
                 [&] { return inner_->GetProofBatch(jsns, out); },
                 [] { return size_t{0}; });
  }
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) override {
    return Timed(RpcOp::kProveClueRange,
                 [&] { return inner_->ProveClueRange(clue, from, to, out); },
                 [&] { return out->Serialize().size(); });
  }

  const std::string& uri() const override { return inner_->uri(); }

 private:
  template <typename Call, typename Size>
  Status Timed(RpcOp op, Call&& call, Size&& size) {
    inner_->set_request_deadline_us(request_deadline_us_);
    const uint64_t t0 = NowNs();
    Status st = call();
    spans_.push_back(
        {op, t0, NowNs() - t0, inner_->last_trace_id(), parent_, 0, 0});
    if (st.ok() && calls_[static_cast<int>(op)]++ % kBytesSampleEvery == 0) {
      spans_.back().bytes = size();
    }
    return st;
  }

  SocketTransport* inner_;
  uint64_t parent_ = 0;
  FamProof* proof_slot_ = nullptr;
  std::vector<RpcSpan> spans_;
  uint64_t calls_[kNumRpcOps] = {};
};

}  // namespace ledgerdb::perfbench

#endif  // LEDGERDB_PERFBENCH_TIMED_TRANSPORT_H_
