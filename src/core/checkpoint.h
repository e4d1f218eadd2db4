// Sealed engine checkpoints (stand-in for TEE secure storage / RPMB; see DESIGN.md
// substitutions).
//
// A checkpoint is the quiesced secure-world state of one engine — live uArray contents, the
// opaque-reference table, allocator and egress-cipher positions, plus an opaque control-plane
// annex — serialized *inside* the data plane, AES-128-CTR encrypted with the tenant's key and
// HMAC-SHA256 authenticated, so plaintext never crosses the emulated TEE boundary. The clear
// header carries the audit-stream hash-chain position at seal time; the cloud verifier's resume
// rule (attest/verifier.h, AuditChainVerifier) accepts a restored engine's audit stream as a
// continuation of the original chain only when that embedded position matches its own head —
// a stale or forked checkpoint is rejected, which is what makes recovery tamper-evident.
//
// The CTR nonce is derived from the MAC key and the chain position, so every seal uses a fresh
// keystream and never overlaps the egress cipher's (different nonce).

#ifndef SRC_CORE_CHECKPOINT_H_
#define SRC_CORE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/aes128.h"
#include "src/crypto/sha256.h"

namespace sbt {

// v2: the 0x51e7-tagged slot-ref range (src/core/opaque_ref.h) is reserved — a v1 seal could
// contain a random ref in that range (p = 2^-16 per ref) that RegisterExisting now rejects, so
// v1 seals are refused deterministically at the version gate instead of failing one-in-65536
// restores with a corruption-shaped error.
// v3: the clear header carries the full engine identity (tenant / engine / shard) plus the seal
// mode and, for delta seals, the base chain position the delta applies on top of — all bound
// under the MAC. v2 seals are refused at the version gate.
// v4: one payload layout for both modes. A full seal is written as a delta from the empty base
// (an empty tombstone list, then every live entry as an addition), so its payload changed; the
// delta payload keeps its fields. v3 seals are refused at the version gate.
inline constexpr uint32_t kCheckpointVersion = 4;

// Full seal = complete quiesced engine state: the delta from the empty base. Delta seal = only
// uArrays created (and a tombstone list for uArrays retired) since the engine's previous seal;
// it applies only on top of a plane whose audit chain sits exactly at the delta's base position.
// DataPlane::ApplySeal applies either; the mode selects only that precondition.
enum class SealMode : uint8_t {
  kFull = 0,
  kDelta = 1,
};

inline const char* SealModeName(SealMode m) { return m == SealMode::kFull ? "full" : "delta"; }

// One identity for one engine, shared by seals, shard reports, and replication frames. The
// chain position names *when* in the engine's audit stream the identity was stamped: for a
// sealed checkpoint it is the sequence the NEXT audit upload will carry and the MAC of the
// last upload (the one flushed by the seal itself); for a shard report it is the live head.
struct EngineIdentity {
  uint32_t tenant = 0;
  uint64_t engine_id = 0;
  // Home shard at stamp time. Advisory: failover legitimately re-homes an engine, so restore
  // paths must not reject on shard mismatch.
  uint32_t shard = 0;
  uint64_t chain_seq = 0;
  Sha256Digest chain_head{};
};

// The sealed artifact. Everything here is safe to hand to the untrusted host: the payload is
// ciphertext and the MAC covers header fields and ciphertext alike. Identity being clear-text
// is what lets a standby route an incoming seal to the right per-engine replica slot without
// decrypting anything.
struct SealedCheckpoint {
  uint32_t version = kCheckpointVersion;
  SealMode mode = SealMode::kFull;
  // Who sealed, and the audit hash-chain position at seal time.
  EngineIdentity identity;
  // For kDelta: the chain position of the predecessor seal this delta applies on top of.
  // Zero / all-zero for kFull.
  uint64_t base_chain_seq = 0;
  Sha256Digest base_chain_head{};
  // Random per-seal salt feeding the CTR nonce derivation. Chain position alone is not unique
  // across engines: two engines of one tenant share keys and count their chains independently,
  // and a repeated (key, nonce) pair would be a two-time pad. Bound under the MAC.
  uint64_t seal_salt = 0;
  std::vector<uint8_t> ciphertext;
  Sha256Digest mac{};
};

// Little-endian byte-stream writer for checkpoint payloads.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  // Length-prefixed byte block.
  void Blob(std::span<const uint8_t> bytes) {
    U64(bytes.size());
    if (!bytes.empty()) {
      const size_t off = out_.size();
      out_.resize(off + bytes.size());
      std::memcpy(out_.data() + off, bytes.data(), bytes.size());
    }
  }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<uint8_t> out_;
};

// Bounds-checked reader: every read either fills its output or reports exhaustion. Corrupt or
// truncated input can never read out of bounds — restore paths turn a false return into
// kDataLoss.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Blob(std::vector<uint8_t>* out) {
    uint64_t n = 0;
    if (!U64(&n) || n > remaining()) {
      return false;
    }
    out->resize(n);
    if (n != 0) {
      std::memcpy(out->data(), data_.data() + pos_, n);
    }
    pos_ += n;
    return true;
  }
  // Zero-copy view of the next `n` bytes.
  bool View(size_t n, std::span<const uint8_t>* out) {
    if (n > remaining()) {
      return false;
    }
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool Raw(void* p, size_t n) {
    if (n > remaining()) {
      return false;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Encrypts `plaintext` and binds the header fields — identity, mode, base position — under the
// MAC. `identity.chain_seq` / `identity.chain_head` carry the seal-time chain position; for
// kDelta the base position names the predecessor seal.
SealedCheckpoint SealCheckpoint(std::span<const uint8_t> plaintext, const AesKey& enc_key,
                                const AesKey& mac_key, SealMode mode,
                                const EngineIdentity& identity, uint64_t base_chain_seq,
                                const Sha256Digest& base_chain_head);

// Verifies the MAC (constant-time) and decrypts. Any mismatch — flipped bit, truncation,
// altered header — returns kDataLoss; the plaintext is only produced from an authentic seal.
Result<std::vector<uint8_t>> UnsealCheckpoint(const SealedCheckpoint& sealed,
                                              const AesKey& enc_key, const AesKey& mac_key);

}  // namespace sbt

#endif  // SRC_CORE_CHECKPOINT_H_
