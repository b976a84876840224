#ifndef LEDGERDB_LEDGER_WORLD_STATE_H_
#define LEDGERDB_LEDGER_WORLD_STATE_H_

#include <string>
#include <unordered_map>

#include "accum/shrubs.h"
#include "common/status.h"
#include "crypto/hash.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {

/// World-state (Figure 2): the latest value per state key, authenticated
/// two ways —
///  * a single-layer **state accumulator** records every (key, version,
///    value) transition append-only, so any historical transition stays
///    provable (GetUpdateProof / VerifyUpdate);
///  * a **state MPT** maps each key to its latest (version, value digest),
///    so the *current* state of any key is provable against the state MPT
///    root without replaying history (GetCurrentProof / VerifyCurrent),
///    the account-model check Ethereum popularized.
class WorldState {
 public:
  WorldState() : mpt_(&mpt_store_), mpt_root_(Mpt::EmptyRoot()) {}

  /// Applies `key -> value`; records the transition in the accumulator
  /// and refreshes the key's MPT leaf. `update_index` (optional) receives
  /// the accumulator position.
  Status Put(const std::string& key, const Bytes& value,
             uint64_t* update_index = nullptr);

  /// Latest value for `key`.
  Status Get(const std::string& key, Bytes* value) const;

  /// Version count for `key` (0 if absent).
  uint64_t Version(const std::string& key) const;

  /// Accumulator commitment over all state transitions.
  Digest Root() const { return accum_.Root(); }

  /// Current-state commitment (MPT over latest values).
  Digest CurrentRoot() const { return mpt_root_; }

  /// Proof that update `update_index` recorded the transition
  /// (key, version, value).
  Status GetUpdateProof(uint64_t update_index, MembershipProof* proof) const;

  /// Proof that `key`'s *latest* state is (version, value), against
  /// CurrentRoot().
  Status GetCurrentProof(const std::string& key, MptProof* proof) const;

  /// Digest of one state transition record.
  static Digest UpdateDigest(const std::string& key, uint64_t version,
                             const Bytes& value);

  /// Verifies an update proof against a trusted state root.
  static bool VerifyUpdate(const std::string& key, uint64_t version,
                           const Bytes& value, const MembershipProof& proof,
                           const Digest& trusted_root);

  /// Verifies a current-state proof against a trusted current root.
  /// `version` is the key's latest version number (count - 1).
  static bool VerifyCurrent(const std::string& key, uint64_t version,
                            const Bytes& value, const MptProof& proof,
                            const Digest& trusted_current_root);

  /// Checkpoint serialization: the transition accumulator, the latest-value
  /// map, and the state MPT root with its reachable node set (historical
  /// copy-on-write garbage is not carried).
  Status SerializeTo(Bytes* out) const;

  /// Restores from SerializeTo output. Re-derives node content addresses
  /// and verifies the restored MPT maps every key to exactly its restored
  /// (version, value) entry, so only a coherent image can load. The caller
  /// must still cross-check Root()/CurrentRoot() against an authenticated
  /// commitment.
  Status RestoreFrom(Slice raw);

 private:
  struct Entry {
    Bytes value;
    uint64_t version = 0;
  };

  /// MPT leaf payload for a key: [u64 latest-version][32B value digest].
  static Bytes EncodeCurrent(uint64_t version, const Bytes& value);

  ShrubsAccumulator accum_;
  std::unordered_map<std::string, Entry> state_;
  MemoryNodeStore mpt_store_;
  Mpt mpt_;
  Digest mpt_root_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_WORLD_STATE_H_
