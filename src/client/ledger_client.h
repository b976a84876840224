#ifndef LEDGERDB_CLIENT_LEDGER_CLIENT_H_
#define LEDGERDB_CLIENT_LEDGER_CLIENT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "ledger/ledger.h"
#include "net/commitment_log.h"
#include "net/mirror.h"
#include "net/transport.h"

namespace ledgerdb {

/// Client-side verification SDK — the "verified at client side when LSP
/// is distrusted" mode of §II-C. The client holds its own identity key,
/// signs every transaction (π_c), retains every receipt (π_s) externally,
/// and re-verifies everything it fetches. It talks to the LSP only through
/// a LedgerTransport, which may drop, delay, duplicate, reorder or
/// adversarially mutate any exchange:
///
///  - transient failures (TransientIO, DeadlineExceeded) are retried; the
///    retries are safe because the server deduplicates appends on
///    (signer, nonce);
///  - the pinned verification datum advances only through an *audited*
///    RefreshTrustedRoots: the LSP's signed commitment is checked against
///    a local mirror replaying the claimed journal delta, so a forged or
///    rolled-back root is rejected instead of pinned;
///  - every accepted commitment lands in an append-only CommitmentLog, and
///    CrossCheckCommitments gossips logs between clients to expose an LSP
///    that equivocates — shows different signed histories to different
///    clients — which no single-client check can see.
class LedgerClient {
 public:
  struct Options {
    /// LSP public key receipts and commitments are verified against.
    PublicKey lsp_key;
    /// Must match the server's fam fractal height — the client derives
    /// each proof's expected (epoch, leaf) position from the jsn.
    int fractal_height = 15;
    int mpt_cache_depth = 6;
    RetryPolicy retry;
    /// First nonce this client instance uses. The server deduplicates on
    /// (signer, nonce), so a fresh process resuming an identity over a
    /// remote transport must start past its previously consumed nonces
    /// (e.g. ledgerdb_cli --remote counts its prior appends).
    uint64_t start_nonce = 0;
  };

  LedgerClient(LedgerTransport* transport, KeyPair identity, Options options);

  const PublicKey& public_key() const { return identity_.public_key(); }

  /// Signs and submits a transaction, retrying transient transport
  /// failures (idempotent on the server), then performs the client-side
  /// commitment checks: the receipt's LSP signature verifies, it names the
  /// jsn the append returned, and it commits to the request-hash this
  /// client actually signed. The receipt is retained as external evidence.
  Status AppendVerified(const Bytes& payload,
                        const std::vector<std::string>& clues, uint64_t* jsn,
                        Receipt* receipt = nullptr);

  /// Audited root advance: fetches the LSP's signed commitment, verifies
  /// the signature, then fetches the journal delta from the last accepted
  /// count and replays it into the local mirror. The roots are pinned only
  /// if the mirror reproduces them bit-for-bit; otherwise the mirror is
  /// rolled back and VerificationFailed is returned. Rollbacks and
  /// same-count conflicts are rejected by the commitment log (with
  /// equivocation evidence in `ev` when applicable). `advanced` (optional)
  /// reports whether the pinned count moved.
  Status RefreshTrustedRoots(bool* advanced = nullptr,
                             EquivocationEvidence* ev = nullptr);

  /// Blind pin of whatever roots the transport claims, with no delta
  /// audit, no signature check, and no commitment-log entry. This is the
  /// pre-hardening behavior, kept only so tests can demonstrate what it
  /// fails to detect. Never call this in production code.
  Status RefreshTrustedRootsUnaudited();

  const Digest& trusted_fam_root() const { return trusted_fam_root_; }
  const Digest& trusted_clue_root() const { return trusted_clue_root_; }
  const Digest& trusted_state_root() const { return trusted_state_root_; }

  /// Fetches journal `jsn` and its fam proof, then accepts them only
  /// through VerifyJournalAt against the pinned fam root.
  Status FetchAndVerifyJournal(uint64_t jsn, Journal* journal) const;

  /// Fetches a clue's journals and verifies the full lineage — every
  /// record, the record count, and the clue binding — against the pinned
  /// clue root.
  Status FetchAndVerifyLineage(const std::string& clue,
                               std::vector<Journal>* journals) const;

  /// Batch-audit mode for range reads: ONE ProveClueRange round-trip
  /// replaces the per-journal GetJournal + GetProof loop. The reply is
  /// accepted only through VerifyClueRange against the roots pinned by a
  /// single (amortized) RefreshTrustedRoots. `raw` (optional) receives the
  /// server response for callers that want the proofs too.
  Status BatchAuditRange(const std::string& clue, Timestamp from, Timestamp to,
                         std::vector<Journal>* journals,
                         ClueRangeResult* raw = nullptr) const;

  /// The acceptance rule for one journal, with no I/O: `journal` is the
  /// record at `jsn`, its payload matches the retained digest (an occulted
  /// journal with its payload erased is exempt, Protocol 2), π_c verifies,
  /// and `proof` binds it to `fam_root` at the (epoch, leaf) position the
  /// jsn *must* occupy — the proof's own labels are never trusted.
  static Status VerifyJournalAt(const Journal& journal, uint64_t jsn,
                                const FamProof& proof, int fractal_height,
                                const Digest& fam_root);

  /// The acceptance rule for a ProveClueRange reply, with no I/O: it is
  /// for `clue` and covers a non-empty entry range [begin, end) exactly
  /// (an honest server answers an empty window with NotFound); every
  /// journal's content verifies (payload digest + π_c) and its server_ts
  /// falls in [from, to); the clue proof binds each entry at lineage
  /// position `begin + i` against `clue_root`; and the fam batch proof
  /// binds every journal's tx-hash at its jsn-derived (epoch, leaf)
  /// against `fam_root`.
  static Status VerifyClueRange(const ClueRangeResult& result,
                                const std::string& clue, Timestamp from,
                                Timestamp to, int fractal_height,
                                const Digest& clue_root,
                                const Digest& fam_root);

  /// Receipts retained by AppendVerified, in submission order.
  const std::vector<Receipt>& receipts() const { return receipts_; }

  /// Re-validates a retained receipt against the live ledger: the receipt
  /// verifies under the LSP key, and the journal served at its jsn carries
  /// the request-hash and tx-hash it commits to (detects post-hoc rewrites
  /// of this client's own journals: threat-C). The journal is not bound to
  /// a pinned root; VerifyReceipt does that.
  Status CheckReceiptStillHolds(const Receipt& receipt) const;

  /// CheckReceiptStillHolds against the pinned roots: the journal at the
  /// receipt's jsn is fetched once through FetchAndVerifyJournal, and that
  /// same journal must carry the receipt's request-hash and tx-hash. A
  /// ledger rewritten under a re-signed root fails here even if the server
  /// answers some fetches with the original journal.
  Status VerifyReceipt(const Receipt& receipt) const;

  /// Gossip: checks every commitment the other client accepted against
  /// this client's independently built mirror, and vice versa. Two validly
  /// signed commitments that disagree about the same journal count are
  /// proof of a forked view; the offending commitment and the locally
  /// derived root land in `ev`. This is the only check that catches an LSP
  /// that equivocates consistently per client.
  Status CrossCheckCommitments(const LedgerClient& other,
                               EquivocationEvidence* ev = nullptr) const;

  const CommitmentLog& commitment_log() const { return log_; }
  const LedgerMirror& mirror() const { return *mirror_; }

 private:
  /// Discards the mirror and replays every accepted delta (rollback after
  /// a speculative apply that failed the root comparison).
  void RebuildMirror();

  /// Per-journal local checks shared by journal, range and lineage
  /// verification.
  static Status CheckJournalContent(const Journal& journal);

  /// The post-fetch receipt checks shared by CheckReceiptStillHolds and
  /// VerifyReceipt: `journal` is the record at the receipt's jsn and
  /// carries the request-hash and tx-hash the receipt commits to.
  static Status CheckReceiptNamesJournal(const Receipt& receipt,
                                         const Journal& journal);

  LedgerTransport* transport_;
  KeyPair identity_;
  Options options_;
  uint64_t nonce_ = 0;
  Digest trusted_fam_root_;
  Digest trusted_clue_root_;
  Digest trusted_state_root_;
  std::vector<Receipt> receipts_;

  std::unique_ptr<LedgerMirror> mirror_;
  std::vector<JournalDelta> accepted_deltas_;
  CommitmentLog log_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_CLIENT_LEDGER_CLIENT_H_
