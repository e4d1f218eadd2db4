#include "src/core/checkpoint.h"

#include "src/common/rng.h"

namespace sbt {
namespace {

// The authenticated header image: version | mode | identity | base position | salt | payload
// length. Feeding these through the MAC binds the seal's identity, mode, chain position, and
// nonce salt to the ciphertext, so a checkpoint cannot be re-labeled — different engine,
// different chain position, full-relabeled-as-delta, re-based, or re-noncéd — without
// detection.
std::vector<uint8_t> HeaderImage(const SealedCheckpoint& sealed) {
  ByteWriter w;
  w.U32(sealed.version);
  w.U8(static_cast<uint8_t>(sealed.mode));
  w.U32(sealed.identity.tenant);
  w.U64(sealed.identity.engine_id);
  w.U32(sealed.identity.shard);
  w.U64(sealed.identity.chain_seq);
  w.Blob(std::span<const uint8_t>(sealed.identity.chain_head.data(),
                                  sealed.identity.chain_head.size()));
  w.U64(sealed.base_chain_seq);
  w.Blob(std::span<const uint8_t>(sealed.base_chain_head.data(), sealed.base_chain_head.size()));
  w.U64(sealed.seal_salt);
  w.U64(sealed.ciphertext.size());
  return w.Take();
}

// HMAC(header image || ciphertext), fed in two parts so the ciphertext is never copied.
Sha256Digest SealMac(const AesKey& mac_key, const SealedCheckpoint& sealed) {
  const std::vector<uint8_t> header = HeaderImage(sealed);
  IncrementalHmacSha256 hmac(std::span<const uint8_t>(mac_key.data(), mac_key.size()));
  hmac.Update(std::span<const uint8_t>(header.data(), header.size()));
  hmac.Update(std::span<const uint8_t>(sealed.ciphertext.data(), sealed.ciphertext.size()));
  return hmac.Finalize();
}

// Fresh 12-byte CTR nonce per seal, derived from the MAC key and the random per-seal salt.
// The salt — not the chain position — carries uniqueness: engines of one tenant share keys but
// count their chains independently, so equal positions do occur across engines. Distinct from
// the egress nonce, so seal and egress keystreams never overlap either.
std::array<uint8_t, 12> SealNonce(const AesKey& mac_key, uint64_t seal_salt) {
  const Sha256Digest d = DeriveTagged(
      std::span<const uint8_t>(mac_key.data(), mac_key.size()), "sbt-seal-nonce", seal_salt);
  std::array<uint8_t, 12> nonce{};
  std::memcpy(nonce.data(), d.data(), nonce.size());
  return nonce;
}

}  // namespace

SealedCheckpoint SealCheckpoint(std::span<const uint8_t> plaintext, const AesKey& enc_key,
                                const AesKey& mac_key, SealMode mode,
                                const EngineIdentity& identity, uint64_t base_chain_seq,
                                const Sha256Digest& base_chain_head) {
  SealedCheckpoint sealed;
  sealed.mode = mode;
  sealed.identity = identity;
  sealed.base_chain_seq = base_chain_seq;
  sealed.base_chain_head = base_chain_head;
  // Unpredictable per-seal salt (a deployment would draw it from the TEE TRNG; see the RNG
  // row of DESIGN.md's substitutions).
  sealed.seal_salt = UnpredictableSeed();
  sealed.ciphertext.resize(plaintext.size());
  const auto nonce = SealNonce(mac_key, sealed.seal_salt);
  const Aes128Ctr cipher(enc_key, std::span<const uint8_t>(nonce.data(), nonce.size()));
  cipher.Crypt(plaintext, std::span<uint8_t>(sealed.ciphertext.data(), sealed.ciphertext.size()));
  sealed.mac = SealMac(mac_key, sealed);
  return sealed;
}

Result<std::vector<uint8_t>> UnsealCheckpoint(const SealedCheckpoint& sealed,
                                              const AesKey& enc_key, const AesKey& mac_key) {
  if (sealed.version != kCheckpointVersion) {
    return DataLoss("sealed checkpoint version mismatch");
  }
  if (!DigestEqual(SealMac(mac_key, sealed), sealed.mac)) {
    return DataLoss("sealed checkpoint MAC mismatch (corrupt or tampered)");
  }
  std::vector<uint8_t> plaintext(sealed.ciphertext.size());
  const auto nonce = SealNonce(mac_key, sealed.seal_salt);
  const Aes128Ctr cipher(enc_key, std::span<const uint8_t>(nonce.data(), nonce.size()));
  cipher.Crypt(std::span<const uint8_t>(sealed.ciphertext.data(), sealed.ciphertext.size()),
               std::span<uint8_t>(plaintext.data(), plaintext.size()));
  return plaintext;
}

}  // namespace sbt
