// SHA-256 and HMAC-SHA256, implemented from scratch (FIPS 180-4 / RFC 2104).
//
// Used to sign egress results and compressed audit-record uploads so the cloud consumer can
// verify both came from the attested data plane, and to MAC sealed checkpoints and session
// handshakes. The compression function runs on the SHA extensions (SHA-NI) where CPUID
// reports them, chosen once per process; the portable loop serves every other host.

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace sbt {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

// The SHA-256 compression function: folds `blocks` consecutive 64-byte blocks into `state`.
// Sha256 calls the SHA-NI form when HardwareShaSupported(), else the portable loop; both are
// declared here so tests can hold each against the FIPS vectors and the other on any host.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);
#if defined(__x86_64__)
// Requires HardwareShaSupported().
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
#endif
bool HardwareShaSupported();

// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(std::span<const uint8_t> data);
  Sha256Digest Finalize();

  // One-shot convenience.
  static Sha256Digest Hash(std::span<const uint8_t> data);

 private:
  void Compress(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[kSha256BlockSize];
  size_t buffered_ = 0;
};

// HMAC-SHA256 (RFC 2104). Keys longer than the block size are hashed first.
Sha256Digest HmacSha256(std::span<const uint8_t> key, std::span<const uint8_t> message);

// Incremental HMAC-SHA256: the MAC of the concatenation of every Update, without building
// that concatenation. Equals HmacSha256(key, part1 || part2 || ...).
class IncrementalHmacSha256 {
 public:
  explicit IncrementalHmacSha256(std::span<const uint8_t> key);

  void Update(std::span<const uint8_t> data) { inner_.Update(data); }
  Sha256Digest Finalize();

 private:
  Sha256 inner_;  // keyed with ipad
  Sha256 outer_;  // keyed with opad
};

// Labeled single-block derivation (HKDF-expand style): HMAC(key, label || counter_le).
// Derives per-use material — e.g. the sealed-checkpoint CTR nonce per chain position — from a
// long-lived key, so distinct (label, counter) pairs never share a keystream.
Sha256Digest DeriveTagged(std::span<const uint8_t> key, std::string_view label,
                          uint64_t counter);

// Constant-time digest comparison (avoids a trivially exploitable timing oracle on the
// verification path).
bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b);

// Lowercase hex rendering, for logs and golden tests.
std::string DigestToHex(const Sha256Digest& digest);

}  // namespace sbt

#endif  // SRC_CRYPTO_SHA256_H_
