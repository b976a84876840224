#ifndef LEDGERDB_COMMON_BYTES_H_
#define LEDGERDB_COMMON_BYTES_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ledgerdb {

/// Raw byte buffer used throughout the codebase for payloads, digests and
/// serialized structures.
using Bytes = std::vector<uint8_t>;

/// Non-owning read-only view over a byte range (RocksDB Slice idiom).
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Slice(const Bytes& bytes) : data_(bytes.data()), size_(bytes.size()) {}
  explicit Slice(std::string_view sv)
      : data_(reinterpret_cast<const uint8_t*>(sv.data())), size_(sv.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  bool operator==(const Slice& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

/// Converts an ASCII string to its byte representation.
Bytes StringToBytes(std::string_view s);

/// Lower-case hexadecimal encoding of a byte range.
std::string ToHex(const Bytes& bytes);
std::string ToHex(const uint8_t* data, size_t size);

/// Parses a hexadecimal string (case-insensitive). Returns false on
/// malformed input (odd length or non-hex characters).
bool FromHex(std::string_view hex, Bytes* out);

/// 32-byte cryptographic digest. Used for journal hashes, Merkle nodes,
/// MPT node references and signature message hashes.
struct Digest {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Digest& other) const { return bytes == other.bytes; }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  bool operator<(const Digest& other) const { return bytes < other.bytes; }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  std::string ToHex() const { return ledgerdb::ToHex(bytes.data(), bytes.size()); }

  Bytes ToBytes() const { return Bytes(bytes.begin(), bytes.end()); }
};

/// Appends fixed-width little-endian integers; used by serializers.
void PutU32(Bytes* dst, uint32_t v);
void PutU64(Bytes* dst, uint64_t v);

/// Appends a digest's 32 raw bytes.
inline void PutDigest(Bytes* dst, const Digest& d) {
  dst->insert(dst->end(), d.bytes.begin(), d.bytes.end());
}

/// Appends a length-prefixed (u32) byte block.
void PutLengthPrefixed(Bytes* dst, Slice block);

/// Bounds-checked cursor over an encoding built by the Put* writers: the
/// one read side every decoder uses. Failure is sticky: a read past the
/// end or a non-canonical value fails the reader, and every later read
/// then yields zero / empty without touching memory. A decoder can
/// therefore read a whole record and check once, with AtEnd() for an
/// exact-size record or ok() for a prefix.
class ByteReader {
 public:
  explicit ByteReader(Slice src) : data_(src.data()), size_(src.size()) {}

  bool ok() const { return ok_; }
  /// True iff every read succeeded and the input is fully consumed.
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  /// Marks the input malformed; returns false for use in expressions.
  bool Fail() {
    ok_ = false;
    pos_ = size_;
    return false;
  }

  uint8_t U8() { return Take(1) ? data_[pos_ - 1] : 0; }

  /// A canonical boolean: 0 or 1. Any other byte fails the reader.
  bool Bool() {
    uint8_t v = U8();
    return v <= 1 ? v == 1 : Fail();
  }

  uint32_t U32() {
    if (!Take(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Take(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }

  ledgerdb::Digest Digest() {
    ledgerdb::Digest d;
    if (Take(32)) std::memcpy(d.bytes.data(), data_ + pos_ - 32, 32);
    return d;
  }

  /// The next `n` raw bytes (a key, a signature, a tag).
  Slice Fixed(size_t n) {
    return Take(n) ? Slice(data_ + pos_ - n, n) : Slice();
  }

  /// A u32 length followed by that many bytes, as a view into the input.
  Slice LengthPrefixed() { return Fixed(U32()); }

  /// An element count: a u32 no larger than `max`, nor than the bytes
  /// that remain (every element takes at least one), so a lying count
  /// can never drive an allocation past the input's own size.
  uint32_t Count(uint32_t max) {
    uint32_t n = U32();
    if (n > max || n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }

  /// Decodes a length-prefixed nested record with T::Deserialize, straight
  /// from the sub-slice.
  template <typename T>
  bool Nested(T* out) {
    Slice block = LengthPrefixed();
    return ok_ && (T::Deserialize(block, out) || Fail());
  }

 private:
  bool Take(size_t n) {
    if (!ok_ || n > size_ - pos_) return Fail();
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_COMMON_BYTES_H_
