#ifndef LEDGERDB_CRYPTO_HASH_H_
#define LEDGERDB_CRYPTO_HASH_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace ledgerdb {

/// Hash functor so Digest can key unordered containers.
struct DigestHasher {
  size_t operator()(const Digest& d) const {
    size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | d.bytes[i];
    return h;
  }
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `size` bytes.
  void Update(const uint8_t* data, size_t size);
  void Update(Slice data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(Slice data);
  static Digest Hash(std::string_view data) { return Hash(Slice(data)); }

 private:
  void ProcessBlock(const uint8_t* block);
  /// Compresses `blocks` consecutive 64-byte blocks, dispatching to the
  /// SHA-NI implementation when the CPU has it (bit-identical output).
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t length_ = 0;  // total bytes absorbed
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

/// SHA3-256 (Keccak-f[1600], FIPS 202). Used to scatter clue keys before MPT
/// insertion (§IV-B2) so the trie stays balanced.
class Sha3_256 {
 public:
  static Digest Hash(Slice data);
  static Digest Hash(std::string_view data) { return Hash(Slice(data)); }
};

/// HMAC-SHA256 (RFC 2104); used by the RFC-6979 deterministic ECDSA nonce.
Digest HmacSha256(Slice key, Slice message);

/// Domain-separated Merkle hashing. Leaves and internal nodes use distinct
/// prefixes to rule out second-preimage splicing attacks.
Digest HashMerkleLeaf(const Digest& payload_digest);
Digest HashMerkleNode(const Digest& left, const Digest& right);

/// Hash of two digests with a generic chain prefix (block links, peak
/// bagging).
Digest HashChain(const Digest& prev, const Digest& next);

}  // namespace ledgerdb

#endif  // LEDGERDB_CRYPTO_HASH_H_
