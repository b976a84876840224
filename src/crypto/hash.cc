#include "crypto/hash.h"

#include <cstring>

// Runtime-dispatched SHA-NI compression: recovery replay, proof building
// and checkpoint verification are all SHA-256-bound, and the x86 SHA
// extensions compress a block roughly 4× faster than the scalar rounds.
// Detection happens once (cpuid); output is bit-identical either way.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(LEDGERDB_NO_SHA_NI)
#define LEDGERDB_SHA256_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ledgerdb {

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef LEDGERDB_SHA256_NI

bool ShaNiAvailable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 19)) == 0) return false;  // SSE4.1 (blend, alignr)
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 29)) != 0;  // SHA extensions
}

// One scheduled 4-round group for rounds 12..51: consume M0, fold the
// cross-lane carry into M1 (msg2) and start M3's schedule (msg1).
#define LEDGERDB_SHA_ROUNDS4(M0, M1, M3, K)                                  \
  do {                                                                       \
    MSG = _mm_add_epi32(                                                     \
        M0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[K]))); \
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);                     \
    TMP = _mm_alignr_epi8(M0, M3, 4);                                        \
    M1 = _mm_add_epi32(M1, TMP);                                             \
    M1 = _mm_sha256msg2_epu32(M1, M0);                                       \
    MSG = _mm_shuffle_epi32(MSG, 0x0E);                                      \
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);                     \
    M3 = _mm_sha256msg1_epu32(M3, M0);                                       \
  } while (0)

// Same, minus the msg1 kick — rounds 52..59 no longer feed the schedule.
#define LEDGERDB_SHA_ROUNDS4_TAIL(M0, M1, M3, K)                             \
  do {                                                                       \
    MSG = _mm_add_epi32(                                                     \
        M0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[K]))); \
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);                     \
    TMP = _mm_alignr_epi8(M0, M3, 4);                                        \
    M1 = _mm_add_epi32(M1, TMP);                                             \
    M1 = _mm_sha256msg2_epu32(M1, M0);                                       \
    MSG = _mm_shuffle_epi32(MSG, 0x0E);                                      \
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);                     \
  } while (0)

__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t* state, const uint8_t* data, size_t blocks) {
  __m128i STATE0, STATE1, MSG, TMP;
  __m128i MSG0, MSG1, MSG2, MSG3;

  // Repack {a..h} into the ABEF/CDGH lane order sha256rnds2 expects.
  TMP = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  STATE1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  TMP = _mm_shuffle_epi32(TMP, 0xB1);
  STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);
  STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);     // ABEF
  STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0);  // CDGH

  const __m128i MASK =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  while (blocks > 0) {
    const __m128i ABEF_SAVE = STATE0;
    const __m128i CDGH_SAVE = STATE1;

    // Rounds 0-3.
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    MSG0 = _mm_shuffle_epi8(MSG, MASK);
    MSG = _mm_add_epi32(
        MSG0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[0])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 4-7.
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    MSG1 = _mm_shuffle_epi8(MSG, MASK);
    MSG = _mm_add_epi32(
        MSG1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 8-11.
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    MSG2 = _mm_shuffle_epi8(MSG, MASK);
    MSG = _mm_add_epi32(
        MSG2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[8])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 12-15 enter the steady-state schedule.
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    MSG3 = _mm_shuffle_epi8(MSG, MASK);
    LEDGERDB_SHA_ROUNDS4(MSG3, MSG0, MSG2, 12);
    LEDGERDB_SHA_ROUNDS4(MSG0, MSG1, MSG3, 16);
    LEDGERDB_SHA_ROUNDS4(MSG1, MSG2, MSG0, 20);
    LEDGERDB_SHA_ROUNDS4(MSG2, MSG3, MSG1, 24);
    LEDGERDB_SHA_ROUNDS4(MSG3, MSG0, MSG2, 28);
    LEDGERDB_SHA_ROUNDS4(MSG0, MSG1, MSG3, 32);
    LEDGERDB_SHA_ROUNDS4(MSG1, MSG2, MSG0, 36);
    LEDGERDB_SHA_ROUNDS4(MSG2, MSG3, MSG1, 40);
    LEDGERDB_SHA_ROUNDS4(MSG3, MSG0, MSG2, 44);
    LEDGERDB_SHA_ROUNDS4(MSG0, MSG1, MSG3, 48);
    LEDGERDB_SHA_ROUNDS4_TAIL(MSG1, MSG2, MSG0, 52);
    LEDGERDB_SHA_ROUNDS4_TAIL(MSG2, MSG3, MSG1, 56);

    // Rounds 60-63.
    MSG = _mm_add_epi32(
        MSG3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[60])));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
    STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);
    data += 64;
    --blocks;
  }

  TMP = _mm_shuffle_epi32(STATE0, 0x1B);
  STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);
  STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0);  // DCBA
  STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), STATE0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), STATE1);
}

#undef LEDGERDB_SHA_ROUNDS4
#undef LEDGERDB_SHA_ROUNDS4_TAIL

#endif  // LEDGERDB_SHA256_NI

}  // namespace

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t blocks) {
#ifdef LEDGERDB_SHA256_NI
  static const bool have_sha_ni = ShaNiAvailable();
  if (have_sha_ni) {
    Sha256CompressShaNi(state_, data, blocks);
    return;
  }
#endif
  for (size_t i = 0; i < blocks; ++i) ProcessBlock(data + 64 * i);
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(const uint8_t* data, size_t size) {
  length_ += size;
  if (buffered_ > 0) {
    size_t take = std::min(size, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    size -= take;
    if (buffered_ == sizeof(buffer_)) {
      ProcessBlocks(buffer_, 1);
      buffered_ = 0;
    }
  }
  if (size >= 64) {
    size_t blocks = size / 64;
    ProcessBlocks(data, blocks);
    data += blocks * 64;
    size -= blocks * 64;
  }
  if (size > 0) {
    std::memcpy(buffer_, data, size);
    buffered_ = size;
  }
}

Digest Sha256::Finish() {
  uint64_t bit_length = length_ * 8;
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffered_ != 56) Update(&zero, 1);
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  Update(len_bytes, 8);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(Slice data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

// ---------------------------------------------------------------------------
// SHA3-256 (Keccak)
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kKeccakRC[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

constexpr int kKeccakRho[24] = {1,  3,  6,  10, 15, 21, 28, 36,
                                45, 55, 2,  14, 27, 41, 56, 8,
                                25, 43, 62, 18, 39, 61, 20, 44};

constexpr int kKeccakPi[24] = {10, 7,  11, 17, 18, 3,  5,  16,
                               8,  21, 24, 4,  15, 23, 19, 13,
                               12, 2,  20, 14, 22, 9,  6,  1};

inline uint64_t Rotl64(uint64_t x, int n) { return (x << n) | (x >> (64 - n)); }

void KeccakF1600(uint64_t state[25]) {
  for (int round = 0; round < 24; ++round) {
    // Theta.
    uint64_t bc[5];
    for (int i = 0; i < 5; ++i) {
      bc[i] = state[i] ^ state[i + 5] ^ state[i + 10] ^ state[i + 15] ^
              state[i + 20];
    }
    for (int i = 0; i < 5; ++i) {
      uint64_t t = bc[(i + 4) % 5] ^ Rotl64(bc[(i + 1) % 5], 1);
      for (int j = 0; j < 25; j += 5) state[j + i] ^= t;
    }
    // Rho and Pi.
    uint64_t t = state[1];
    for (int i = 0; i < 24; ++i) {
      int j = kKeccakPi[i];
      uint64_t tmp = state[j];
      state[j] = Rotl64(t, kKeccakRho[i]);
      t = tmp;
    }
    // Chi.
    for (int j = 0; j < 25; j += 5) {
      uint64_t row[5];
      for (int i = 0; i < 5; ++i) row[i] = state[j + i];
      for (int i = 0; i < 5; ++i) {
        state[j + i] = row[i] ^ (~row[(i + 1) % 5] & row[(i + 2) % 5]);
      }
    }
    // Iota.
    state[0] ^= kKeccakRC[round];
  }
}

}  // namespace

Digest Sha3_256::Hash(Slice data) {
  constexpr size_t kRate = 136;  // 1088-bit rate for SHA3-256.
  uint64_t state[25] = {0};
  uint8_t block[kRate];

  const uint8_t* p = data.data();
  size_t remaining = data.size();
  while (remaining >= kRate) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane = 0;
      for (int b = 7; b >= 0; --b) lane = (lane << 8) | p[8 * i + b];
      state[i] ^= lane;
    }
    KeccakF1600(state);
    p += kRate;
    remaining -= kRate;
  }

  std::memset(block, 0, kRate);
  if (remaining > 0) std::memcpy(block, p, remaining);
  block[remaining] = 0x06;  // SHA-3 domain padding.
  block[kRate - 1] |= 0x80;
  for (size_t i = 0; i < kRate / 8; ++i) {
    uint64_t lane = 0;
    for (int b = 7; b >= 0; --b) lane = (lane << 8) | block[8 * i + b];
    state[i] ^= lane;
  }
  KeccakF1600(state);

  Digest out;
  for (int i = 0; i < 4; ++i) {
    uint64_t lane = state[i];
    for (int b = 0; b < 8; ++b) {
      out.bytes[8 * i + b] = static_cast<uint8_t>(lane >> (8 * b));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 and Merkle helpers
// ---------------------------------------------------------------------------

Digest HmacSha256(Slice key, Slice message) {
  uint8_t key_block[64] = {0};
  if (key.size() > 64) {
    Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.bytes.data(), 32);
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad, 64);
  inner.Update(message);
  Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad, 64);
  outer.Update(inner_digest.bytes.data(), 32);
  return outer.Finish();
}

namespace {
constexpr uint8_t kLeafPrefix = 0x00;
constexpr uint8_t kNodePrefix = 0x01;
constexpr uint8_t kChainPrefix = 0x02;

// The accumulator hot path: every fam/Shrubs append and every proof
// verification funnels through these. A fixed stack frame (1 prefix byte +
// two digests) feeds the compression function directly — no heap Bytes, no
// per-fragment buffering in the streaming state.
Digest HashTwoDigests(uint8_t prefix, const Digest& a, const Digest& b) {
  uint8_t buf[65];
  buf[0] = prefix;
  std::memcpy(buf + 1, a.bytes.data(), 32);
  std::memcpy(buf + 33, b.bytes.data(), 32);
  Sha256 h;
  h.Update(buf, sizeof(buf));
  return h.Finish();
}

}  // namespace

Digest HashMerkleLeaf(const Digest& payload_digest) {
  uint8_t buf[33];
  buf[0] = kLeafPrefix;
  std::memcpy(buf + 1, payload_digest.bytes.data(), 32);
  Sha256 h;
  h.Update(buf, sizeof(buf));
  return h.Finish();
}

Digest HashMerkleNode(const Digest& left, const Digest& right) {
  return HashTwoDigests(kNodePrefix, left, right);
}

Digest HashChain(const Digest& prev, const Digest& next) {
  return HashTwoDigests(kChainPrefix, prev, next);
}

}  // namespace ledgerdb
