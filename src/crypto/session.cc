#include "src/crypto/session.h"

#include <cstring>

namespace sbt {
namespace {

void AppendLe32(std::array<uint8_t, 32>& buf, size_t* off, uint32_t v) {
  std::memcpy(buf.data() + *off, &v, sizeof(v));
  *off += sizeof(v);
}

void AppendLe64(std::array<uint8_t, 32>& buf, size_t* off, uint64_t v) {
  std::memcpy(buf.data() + *off, &v, sizeof(v));
  *off += sizeof(v);
}

}  // namespace

SessionKey DeriveSessionKey(const AesKey& mac_key, uint32_t tenant, uint32_t source,
                            uint64_t client_nonce, uint64_t server_nonce) {
  // HMAC(mac_key, "sbt-ingress-session" || tenant || source || client_nonce || server_nonce).
  // The label keeps this derivation disjoint from every other use of the tenant MAC key (audit
  // uploads, egress signatures, checkpoint seals).
  static constexpr std::string_view kLabel = "sbt-ingress-session";
  std::array<uint8_t, 32> binding{};
  size_t off = 0;
  AppendLe32(binding, &off, tenant);
  AppendLe32(binding, &off, source);
  AppendLe64(binding, &off, client_nonce);
  AppendLe64(binding, &off, server_nonce);

  std::array<uint8_t, 64> msg{};  // label || binding, fed through HMAC in one buffer
  const size_t label_len = kLabel.size();
  std::memcpy(msg.data(), kLabel.data(), label_len);
  std::memcpy(msg.data() + label_len, binding.data(), off);
  return HmacSha256(std::span<const uint8_t>(mac_key.data(), mac_key.size()),
                    std::span<const uint8_t>(msg.data(), label_len + off));
}

SessionTag SessionMac(const SessionKey& key, std::string_view label,
                      std::span<const uint8_t> message) {
  // HMAC over label || 0x00 || message; the explicit separator keeps (label, message)
  // pairings unambiguous even for labels that are prefixes of each other.
  IncrementalHmacSha256 hmac(std::span<const uint8_t>(key.data(), key.size()));
  hmac.Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(label.data()),
                                       label.size()));
  const uint8_t separator = 0;
  hmac.Update(std::span<const uint8_t>(&separator, 1));
  hmac.Update(message);
  const Sha256Digest full = hmac.Finalize();
  SessionTag tag;
  std::memcpy(tag.data(), full.data(), tag.size());
  return tag;
}

bool SessionTagEqual(const SessionTag& a, const SessionTag& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace sbt
