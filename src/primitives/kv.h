// Packed key/value representation used by the sort-merge primitives.
//
// After windowing, grouping primitives only need (key, value). We pack both into one 64-bit
// word laid out so that *signed* 64-bit comparison orders records by (key asc, value asc):
//
//   packed = ((key ^ 0x80000000) << 32) | (value ^ 0x80000000)
//
// The XORs map unsigned key order and signed value order onto the signed order of the packed
// word, so one 64-bit comparison orders two records and one sort/merge kernel serves every
// GroupBy-family operator. (The paper packs NEON lanes the same way for its ARMv8 kernels.)

#ifndef SRC_PRIMITIVES_KV_H_
#define SRC_PRIMITIVES_KV_H_

#include <cstdint>

#include "src/common/event.h"

namespace sbt {

// Packed (key, value) word, ordered by signed comparison.
using PackedKV = int64_t;

inline PackedKV PackKV(uint32_t key, int32_t value) {
  const uint32_t biased_key = key ^ 0x80000000u;
  const uint32_t biased_value = static_cast<uint32_t>(value) ^ 0x80000000u;
  return static_cast<int64_t>((static_cast<uint64_t>(biased_key) << 32) | biased_value);
}

inline uint32_t UnpackKey(PackedKV packed) {
  return (static_cast<uint64_t>(packed) >> 32) ^ 0x80000000u;
}

inline int32_t UnpackValue(PackedKV packed) {
  return static_cast<int32_t>((static_cast<uint64_t>(packed) & 0xffffffffu) ^ 0x80000000u);
}

inline PackedKV PackEvent(const Event& e) { return PackKV(e.key, e.value); }

}  // namespace sbt

#endif  // SRC_PRIMITIVES_KV_H_
