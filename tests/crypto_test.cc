// Crypto tests against published vectors: FIPS-197 AES, NIST SP 800-38A CTR, FIPS 180-4 SHA-256,
// RFC 4231 HMAC-SHA256. Plus round-trip properties used by the ingress/egress paths.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/aes128.h"
#include "src/crypto/sha256.h"

namespace sbt {
namespace {

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Aes128Test, Fips197AppendixB) {
  // FIPS-197 Appendix B: key 2b7e..., plaintext 3243..., ciphertext 3925841d02dc09fbdc118597196a0b32.
  AesKey key{};
  const auto key_bytes = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  std::memcpy(key.data(), key_bytes.data(), 16);
  Aes128 aes(key);

  auto block_vec = FromHex("3243f6a8885a308d313198a2e0370734");
  uint8_t block[16];
  std::memcpy(block, block_vec.data(), 16);
  aes.EncryptBlock(block);

  const auto expected = FromHex("3925841d02dc09fbdc118597196a0b32");
  EXPECT_EQ(0, std::memcmp(block, expected.data(), 16));
}

TEST(Aes128Test, Fips197AppendixC1) {
  // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233445566778899aabbccddeeff.
  AesKey key{};
  const auto key_bytes = FromHex("000102030405060708090a0b0c0d0e0f");
  std::memcpy(key.data(), key_bytes.data(), 16);
  Aes128 aes(key);

  auto pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t block[16];
  std::memcpy(block, pt.data(), 16);
  aes.EncryptBlock(block);

  const auto expected = FromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(0, std::memcmp(block, expected.data(), 16));
}

TEST(Aes128CtrTest, Sp80038aF51FirstBlock) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, block #1.
  // Key 2b7e151628aed2a6abf7158809cf4f3c, counter block f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff.
  AesKey key{};
  const auto key_bytes = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  std::memcpy(key.data(), key_bytes.data(), 16);

  // Our CTR layout is nonce(12) || counter(4). The SP 800-38A vector's initial counter block
  // f0..fb | fcfdfeff maps to nonce=f0..fb and counter start 0xfcfdfeff.
  const auto nonce = FromHex("f0f1f2f3f4f5f6f7f8f9fafb");
  Aes128Ctr ctr(key, nonce);

  auto pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  std::vector<uint8_t> buf = pt;
  // Stream offset = counter_start * 16.
  const uint64_t offset = 0xfcfdfeffULL * 16;
  ctr.Crypt(std::span<uint8_t>(buf.data(), buf.size()), offset);

  const auto expected = FromHex("874d6191b620e3261bef6864990db6ce");
  EXPECT_EQ(buf, expected);
}

TEST(Aes128CtrTest, RoundTripIdentity) {
  AesKey key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  std::vector<uint8_t> nonce(12, 0xab);
  Aes128Ctr ctr(key, nonce);

  Xoshiro256 rng(42);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 1000u, 4096u}) {
    std::vector<uint8_t> plain(len);
    for (auto& b : plain) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> buf = plain;
    ctr.Crypt(std::span<uint8_t>(buf.data(), buf.size()));
    if (len > 16) {
      EXPECT_NE(buf, plain) << "ciphertext must differ for len=" << len;
    }
    ctr.Crypt(std::span<uint8_t>(buf.data(), buf.size()));
    EXPECT_EQ(buf, plain) << "CTR must be an involution for len=" << len;
  }
}

TEST(Aes128CtrTest, OffsetCryptMatchesWholeStream) {
  // Decrypting [off, off+n) with the offset API must equal decrypting the whole stream.
  AesKey key{};
  key[0] = 1;
  std::vector<uint8_t> nonce(12, 0x55);
  Aes128Ctr ctr(key, nonce);

  std::vector<uint8_t> whole(257);
  for (size_t i = 0; i < whole.size(); ++i) {
    whole[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> expected = whole;
  ctr.Crypt(std::span<uint8_t>(expected.data(), expected.size()));

  for (size_t off : {0u, 1u, 15u, 16u, 31u, 100u}) {
    std::vector<uint8_t> part(whole.begin() + off, whole.end());
    ctr.Crypt(std::span<uint8_t>(part.data(), part.size()), off);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), expected.begin() + off)) << off;
  }
}

TEST(Aes128CtrTest, OutOfPlaceMatchesInPlace) {
  AesKey key{};
  key[5] = 9;
  std::vector<uint8_t> nonce(12, 1);
  Aes128Ctr ctr(key, nonce);
  std::vector<uint8_t> in(100, 0x42);
  std::vector<uint8_t> out(100);
  ctr.Crypt(std::span<const uint8_t>(in.data(), in.size()),
            std::span<uint8_t>(out.data(), out.size()));
  std::vector<uint8_t> in2 = in;
  ctr.Crypt(std::span<uint8_t>(in2.data(), in2.size()));
  EXPECT_EQ(out, in2);
}

TEST(Sha256Test, EmptyString) {
  const auto digest = Sha256::Hash({});
  EXPECT_EQ(DigestToHex(digest),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const std::string msg = "abc";
  const auto digest =
      Sha256::Hash(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), 3));
  EXPECT_EQ(DigestToHex(digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const auto digest = Sha256::Hash(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(digest),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(std::span<const uint8_t>(chunk.data(), chunk.size()));
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  Xoshiro256 rng(5);
  std::vector<uint8_t> data(5000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const auto oneshot = Sha256::Hash(std::span<const uint8_t>(data.data(), data.size()));
  // Feed in awkward chunk sizes crossing block boundaries.
  Sha256 h;
  size_t pos = 0;
  size_t step = 1;
  while (pos < data.size()) {
    const size_t n = std::min(step, data.size() - pos);
    h.Update(std::span<const uint8_t>(data.data() + pos, n));
    pos += n;
    step = (step * 3 + 1) % 130 + 1;
  }
  EXPECT_EQ(DigestToHex(h.Finalize()), DigestToHex(oneshot));
}

// --- the two compression functions ---------------------------------------------------------

namespace {

using CompressFn = void (*)(uint32_t state[8], const uint8_t* data, size_t blocks);

// SHA-256 of `msg` through one compression function alone: FIPS 180-4 padding and initial
// hash value spelled out here, so the Sha256 class's buffering is not under test.
std::string DigestThrough(CompressFn compress, const std::vector<uint8_t>& msg) {
  std::vector<uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (i * 8)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / kSha256BlockSize);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return DigestToHex(digest);
}

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

// FIPS 180-4 example messages (one block, two blocks, the 896-bit two-block message, and
// 10^6 'a': 15,625 blocks in one call).
void ExpectFipsVectors(CompressFn compress) {
  EXPECT_EQ(DigestThrough(compress, {}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestThrough(compress, Bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestThrough(compress,
                          Bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestThrough(compress, Bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijkl"
                                          "mnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopq"
                                          "rstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(DigestThrough(compress, std::vector<uint8_t>(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

}  // namespace

TEST(Sha256CompressTest, PortableMatchesFipsVectors) {
  ExpectFipsVectors(&Sha256CompressPortable);
}

TEST(Sha256CompressTest, ShaNiMatchesFipsVectors) {
#if defined(__x86_64__)
  if (!HardwareShaSupported()) {
    GTEST_SKIP() << "CPUID reports no SHA extensions on this host";
  }
  ExpectFipsVectors(&Sha256CompressShaNi);
#else
  GTEST_SKIP() << "SHA-NI is an x86-64 extension";
#endif
}

// Random messages of 0 to 4,096 bytes, fed to Sha256 in random pieces (so partial blocks,
// exact blocks and multi-block runs all reach whichever compression function Sha256 picked),
// against the portable function alone and, where the CPU has it, the SHA-NI one alone.
TEST(Sha256CompressTest, RandomSplitMessagesAgreeAcrossImplementations) {
  Xoshiro256 rng(180);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> msg(rng.NextBelow(4097));
    for (auto& b : msg) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Sha256 h;
    size_t pos = 0;
    while (pos < msg.size()) {
      const size_t n = std::min<size_t>(rng.NextBelow(200), msg.size() - pos);
      h.Update(std::span<const uint8_t>(msg.data() + pos, n));
      pos += n;
    }
    const std::string portable = DigestThrough(&Sha256CompressPortable, msg);
    ASSERT_EQ(DigestToHex(h.Finalize()), portable) << "length " << msg.size();
#if defined(__x86_64__)
    if (HardwareShaSupported()) {
      ASSERT_EQ(DigestThrough(&Sha256CompressShaNi, msg), portable) << "length " << msg.size();
    }
#endif
  }
}

TEST(HmacSha256Test, Rfc4231Case1) {
  const auto key = std::vector<uint8_t>(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = HmacSha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = HmacSha256(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3LongKeyData) {
  const auto key = std::vector<uint8_t>(20, 0xaa);
  const auto msg = std::vector<uint8_t>(50, 0xdd);
  const auto mac = HmacSha256(std::span<const uint8_t>(key.data(), key.size()),
                              std::span<const uint8_t>(msg.data(), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, KeyLongerThanBlockIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const auto key = std::vector<uint8_t>(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = HmacSha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The incremental form is the one-shot MAC of the concatenated pieces, for short and
// longer-than-a-block keys and any split (empty pieces included).
TEST(HmacSha256Test, IncrementalEqualsOneShotOfConcatenation) {
  Xoshiro256 rng(4231);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> key(trial % 2 == 0 ? 16 : 131);
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> msg(rng.NextBelow(3000));
    for (auto& b : msg) {
      b = static_cast<uint8_t>(rng.Next());
    }
    IncrementalHmacSha256 hmac(std::span<const uint8_t>(key.data(), key.size()));
    size_t pos = 0;
    do {
      const size_t n = std::min<size_t>(rng.NextBelow(300), msg.size() - pos);
      hmac.Update(std::span<const uint8_t>(msg.data() + pos, n));
      pos += n;
    } while (pos < msg.size());
    EXPECT_TRUE(DigestEqual(hmac.Finalize(),
                            HmacSha256(std::span<const uint8_t>(key.data(), key.size()),
                                       std::span<const uint8_t>(msg.data(), msg.size()))));
  }
}

TEST(DigestEqualTest, EqualAndUnequal) {
  Sha256Digest a{};
  Sha256Digest b{};
  EXPECT_TRUE(DigestEqual(a, b));
  b[31] = 1;
  EXPECT_FALSE(DigestEqual(a, b));
  b[31] = 0;
  b[0] = 0x80;
  EXPECT_FALSE(DigestEqual(a, b));
}

TEST(DigestToHexTest, Formats) {
  Sha256Digest d{};
  d[0] = 0x01;
  d[1] = 0xff;
  const std::string hex = DigestToHex(d);
  EXPECT_EQ(hex.substr(0, 4), "01ff");
  EXPECT_EQ(hex.size(), 64u);
}

TEST(DeriveTaggedTest, DeterministicAndSeparatedByLabelCounterAndKey) {
  const std::vector<uint8_t> key(16, 0x42);
  const std::vector<uint8_t> other_key(16, 0x43);
  const auto k = std::span<const uint8_t>(key.data(), key.size());
  const auto k2 = std::span<const uint8_t>(other_key.data(), other_key.size());

  // Same inputs, same output — derivation is a pure function of (key, label, counter).
  EXPECT_TRUE(DigestEqual(DeriveTagged(k, "seal", 7), DeriveTagged(k, "seal", 7)));
  // Any input change separates the derived material (what keeps CTR keystreams disjoint).
  EXPECT_FALSE(DigestEqual(DeriveTagged(k, "seal", 7), DeriveTagged(k, "seal", 8)));
  EXPECT_FALSE(DigestEqual(DeriveTagged(k, "seal", 7), DeriveTagged(k, "egress", 7)));
  EXPECT_FALSE(DigestEqual(DeriveTagged(k, "seal", 7), DeriveTagged(k2, "seal", 7)));
  // And it is exactly HMAC(key, label || counter_le): interoperable with any RFC 2104 HMAC.
  std::vector<uint8_t> message{'s', 'e', 'a', 'l', 7, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(DigestEqual(
      DeriveTagged(k, "seal", 7),
      HmacSha256(k, std::span<const uint8_t>(message.data(), message.size()))));
}

}  // namespace
}  // namespace sbt
