#include "common/bytes.h"

namespace ledgerdb {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Bytes StringToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToHex(const uint8_t* data, size_t size) {
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xf]);
  }
  return out;
}

std::string ToHex(const Bytes& bytes) { return ToHex(bytes.data(), bytes.size()); }

bool FromHex(std::string_view hex, Bytes* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

void PutU32(Bytes* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(Bytes* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutLengthPrefixed(Bytes* dst, Slice block) {
  PutU32(dst, static_cast<uint32_t>(block.size()));
  dst->insert(dst->end(), block.data(), block.data() + block.size());
}

}  // namespace ledgerdb
