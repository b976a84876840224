#ifndef LEDGERDB_LEDGER_WORLD_STATE_H_
#define LEDGERDB_LEDGER_WORLD_STATE_H_

#include <string>
#include <unordered_map>

#include "accum/shrubs.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace ledgerdb {

/// World-state (Figure 2): the latest value per state key, authenticated
/// by a single-layer **state transition accumulator** that records every
/// (key, version, value) transition append-only. Its root (Root()) is the
/// `state_root` of every signed commitment and block header, and any
/// historical transition stays provable against it (GetUpdateProof /
/// VerifyUpdate). The latest-value map serves reads; it is under no
/// digest of its own.
class WorldState {
 public:
  /// Applies `key -> value` and records the transition in the accumulator.
  void Put(const std::string& key, const Bytes& value);

  /// Latest value for `key`.
  Status Get(const std::string& key, Bytes* value) const;

  /// Version count for `key` (0 if absent).
  uint64_t Version(const std::string& key) const;

  /// Accumulator commitment over all state transitions.
  Digest Root() const { return accum_.Root(); }

  /// Proof that update `update_index` (the accumulator position, counting
  /// every Put from 0) recorded the transition (key, version, value).
  Status GetUpdateProof(uint64_t update_index, MembershipProof* proof) const;

  /// Digest of one state transition record.
  static Digest UpdateDigest(const std::string& key, uint64_t version,
                             const Bytes& value);

  /// Verifies an update proof against a trusted state root.
  static bool VerifyUpdate(const std::string& key, uint64_t version,
                           const Bytes& value, const MembershipProof& proof,
                           const Digest& trusted_root);

  /// Checkpoint serialization: the transition accumulator and the
  /// latest-value map.
  void SerializeTo(Bytes* out) const;

  /// Restores from SerializeTo output, rejecting duplicate or zero-version
  /// keys, versions that do not sum to the accumulator size and trailing
  /// bytes. The caller must still cross-check Root() against an
  /// authenticated commitment.
  Status RestoreFrom(Slice raw);

 private:
  struct Entry {
    Bytes value;
    uint64_t version = 0;
  };

  ShrubsAccumulator accum_;
  std::unordered_map<std::string, Entry> state_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_LEDGER_WORLD_STATE_H_
