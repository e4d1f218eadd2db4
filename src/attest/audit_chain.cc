#include "src/attest/audit_chain.h"

#include <cstring>

namespace sbt {

Sha256Digest AuditUploadMac(const AesKey& mac_key, const AuditUpload& upload) {
  // HMAC(chain_prev || chain_seq_le || compressed).
  IncrementalHmacSha256 hmac(std::span<const uint8_t>(mac_key.data(), mac_key.size()));
  hmac.Update(std::span<const uint8_t>(upload.chain_prev.data(), upload.chain_prev.size()));
  uint8_t seq_le[sizeof(uint64_t)];
  std::memcpy(seq_le, &upload.chain_seq, sizeof(seq_le));
  hmac.Update(std::span<const uint8_t>(seq_le, sizeof(seq_le)));
  hmac.Update(std::span<const uint8_t>(upload.compressed.data(), upload.compressed.size()));
  return hmac.Finalize();
}

Status AuditChainVerifier::Accept(const AuditUpload& upload) {
  if (upload.chain_seq != next_seq_) {
    return DataLoss("audit upload out of sequence (dropped or replayed upload)");
  }
  if (!DigestEqual(upload.chain_prev, head_)) {
    return DataLoss("audit upload does not chain from the verified head (forked stream)");
  }
  if (!DigestEqual(AuditUploadMac(mac_key_, upload), upload.mac)) {
    return DataLoss("audit upload MAC mismatch (corrupt or forged upload)");
  }
  head_ = upload.mac;
  ++next_seq_;
  return OkStatus();
}

Status AuditChainVerifier::AcceptResume(uint64_t chain_seq,
                                        const Sha256Digest& chain_head) const {
  if (chain_seq != next_seq_ || !DigestEqual(chain_head, head_)) {
    return DataLoss("restored engine's checkpoint does not continue the verified audit chain "
                    "(stale or forked checkpoint)");
  }
  return OkStatus();
}

}  // namespace sbt
