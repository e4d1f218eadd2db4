#include "src/crypto/sha256.h"

#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sbt {
namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// SHA-NI: each sha256rnds2 runs two rounds on the state held as two halves, ABEF and CDGH
// (register names list 32-bit lanes from high to low); sha256msg1/msg2 extend the message
// schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(uint32_t state[8],
                                                               const uint8_t* data,
                                                               size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4]: message words 4g .. 4g+3
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]: groups g-4, g-3 (msg1), the
        // words t-7 straddling groups g-2 and g-1, and g-1 again (msg2).
        m = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) & 3]);
      }
      w[g & 3] = m;
      __m128i wk =
          _mm_add_epi32(m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      // Two rounds each; the halves trade places, so after the pair abef/cdgh hold their names.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

bool HardwareShaSupported() {
#if defined(__x86_64__)
  // CPUID read directly (leaf 7 EBX.SHA, leaf 1 ECX.SSE4.1): __builtin_cpu_supports does not
  // take the "sha" name on every compiler this builds with.
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 || (ebx & bit_SHA) == 0) {
      return false;
    }
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_SSE4_1) != 0;
  }();
  return supported;
#else
  return false;
#endif
}

void Sha256::Compress(const uint8_t* data, size_t blocks) {
#if defined(__x86_64__)
  if (HardwareShaSupported()) {
    Sha256CompressShaNi(state_, data, blocks);
    return;
  }
#endif
  Sha256CompressPortable(state_, data, blocks);
}

void Sha256::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t pos = 0;
  if (buffered_ > 0) {
    const size_t need = kSha256BlockSize - buffered_;
    const size_t take = std::min(need, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == kSha256BlockSize) {
      Compress(buffer_, 1);
      buffered_ = 0;
    }
  }
  const size_t blocks = (data.size() - pos) / kSha256BlockSize;
  if (blocks > 0) {
    Compress(data.data() + pos, blocks);
    pos += blocks * kSha256BlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Sha256Digest Sha256::Finalize() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  const uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[kSha256BlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  while ((buffered_ + pad_len) % kSha256BlockSize != 56) {
    pad[pad_len++] = 0;
  }
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (i * 8));
  }
  Update(std::span<const uint8_t>(pad, pad_len));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

IncrementalHmacSha256::IncrementalHmacSha256(std::span<const uint8_t> key) {
  uint8_t key_block[kSha256BlockSize] = {0};
  if (key.size() > kSha256BlockSize) {
    const Sha256Digest kh = Sha256::Hash(key);
    std::memcpy(key_block, kh.data(), kh.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kSha256BlockSize];
  uint8_t opad[kSha256BlockSize];
  for (size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(std::span<const uint8_t>(ipad, sizeof(ipad)));
  outer_.Update(std::span<const uint8_t>(opad, sizeof(opad)));
}

Sha256Digest IncrementalHmacSha256::Finalize() {
  const Sha256Digest inner_digest = inner_.Finalize();
  outer_.Update(std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer_.Finalize();
}

Sha256Digest HmacSha256(std::span<const uint8_t> key, std::span<const uint8_t> message) {
  IncrementalHmacSha256 hmac(key);
  hmac.Update(message);
  return hmac.Finalize();
}

Sha256Digest DeriveTagged(std::span<const uint8_t> key, std::string_view label,
                          uint64_t counter) {
  std::vector<uint8_t> message(label.size() + sizeof(counter));
  std::memcpy(message.data(), label.data(), label.size());
  std::memcpy(message.data() + label.size(), &counter, sizeof(counter));
  return HmacSha256(key, std::span<const uint8_t>(message.data(), message.size()));
}

bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < kSha256DigestSize; ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(kSha256DigestSize * 2);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace sbt
