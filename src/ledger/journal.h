#ifndef LEDGERDB_LEDGER_JOURNAL_H_
#define LEDGERDB_LEDGER_JOURNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/ecdsa.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// Journal kinds. Purge, occult and time journals are first-class entries
/// on the ledger so the audit procedure (§V) can locate and validate them.
enum class JournalType : uint8_t {
  kGenesis = 0,
  kNormal = 1,
  kPurge = 2,
  kOccult = 3,
  kTime = 4,
  kPseudoGenesis = 5,
};

/// A client-side transaction: payload plus metadata, signed with the
/// client's secret key before submission (π_c in Figure 1).
struct ClientTransaction {
  std::string ledger_uri;
  JournalType type = JournalType::kNormal;
  std::vector<std::string> clues;
  Bytes payload;
  uint64_t nonce = 0;
  Timestamp client_ts = 0;
  PublicKey client_key;
  Signature client_sig;

  /// The request-hash: digest over the entire transaction minus the
  /// signature itself. This is what the client signs.
  Digest RequestHash() const;

  /// Signs the request-hash with `key` and attaches the public key.
  void Sign(const KeyPair& key);

  /// Checks π_c against the embedded public key.
  bool VerifyClientSignature() const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, ClientTransaction* out);
};

/// An additional endorsement on a journal (multi-signature prerequisite
/// for purge/occult, or extra co-signers on a normal journal).
struct Endorsement {
  PublicKey key;
  Signature signature;
};

/// A committed journal entry. `payload_digest` is always retained; the
/// payload itself may be erased by an occult operation, in which case
/// Protocol 2 applies: verification uses the retained digest.
struct Journal {
  uint64_t jsn = 0;
  /// Client-chosen sequence number; (client_key, nonce) keys server-side
  /// append deduplication so retried submissions are idempotent.
  uint64_t nonce = 0;
  JournalType type = JournalType::kNormal;
  Timestamp server_ts = 0;
  std::vector<std::string> clues;
  Bytes payload;
  Digest payload_digest;
  bool occulted = false;
  Digest request_hash;
  PublicKey client_key;
  Signature client_sig;
  std::vector<Endorsement> endorsements;

  /// The tx-hash: server-side digest of the journal. Deliberately excludes
  /// the raw payload (only `payload_digest` enters), so occulting a journal
  /// does not change its hash and the ledger stays verifiable.
  Digest TxHash() const;

  /// Signed-message digest for endorsements over this journal.
  Digest EndorsementHash() const;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, Journal* out);
};

/// The per-journal effect an audited client needs to mirror the server's
/// commitment state: the tx-hash feeds the fam accumulator, and each clue
/// maps to a (CM-Tree append, world-state put) pair keyed by the payload
/// digest. Serving deltas instead of raw journals lets clients audit a
/// root advance without downloading payloads.
struct JournalDelta {
  Digest tx_hash;
  Digest payload_digest;
  std::vector<std::string> clues;

  Bytes Serialize() const;
  static bool Deserialize(Slice raw, JournalDelta* out);
};

/// The payload of a purge or occult journal, in one of three forms:
///   purge        "purge"       [u64 jsn][u64 pseudo_genesis_jsn]
///   occult       "occult"      [u64 jsn]
///   occult-clue  "occult-clue" [lp clue][u64 occulted_count]
/// Decode requires the exact tag and rejects trailing bytes.
struct MutationPayload {
  enum class Form : uint8_t { kPurge, kOccult, kOccultClue };

  Form form = Form::kPurge;
  uint64_t jsn = 0;  ///< purge: the purge point; occult: the hidden journal
  uint64_t pseudo_genesis_jsn = 0;  ///< purge only
  std::string clue;                 ///< occult-clue only
  uint64_t occulted_count = 0;      ///< occult-clue only

  Bytes Encode() const;
  static bool Decode(Slice raw, MutationPayload* out);
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_JOURNAL_H_
