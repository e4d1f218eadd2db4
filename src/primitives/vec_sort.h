// Sort and merge kernels for the sort-merge primitives (paper §5 "Trusted primitives and
// vectorization"). They sort signed 64-bit words (see kv.h for why records pack into that
// order).
//
// The production path (SortImpl::kAuto) is an LSD radix sort over 8-bit digits. One counting
// read builds every digit's histogram, and a digit that is the same in every word is skipped:
// GroupBy's packed (key, value) words vary in only 4 to 6 of their 8 bytes, so they take 4 to
// 6 scatter passes. Below kRadixSortMinKeys the fixed cost of the count tables outweighs what
// the passes save, and a scalar bottom-up mergesort runs instead. Both are non-recursive, read
// sequentially, and allocate nothing beyond the caller's scratch, as the paper wants inside a
// TEE.
//
// The paper hand-writes ARMv8 NEON sorting networks. SortImpl::kVector keeps the AVX2
// equivalents (in-register sorting networks plus a bitonic two-run merge, the radix sort from
// 64K keys) so bench/vectorize_sort can measure them against the scalar mergesort (kScalar),
// std::sort and libc qsort (§9.3). Every implementation returns the same bytes, because a
// sorted int64 array is unique.

#ifndef SRC_PRIMITIVES_VEC_SORT_H_
#define SRC_PRIMITIVES_VEC_SORT_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace sbt {

enum class SortImpl : uint8_t {
  kAuto = 0,    // radix sort from kRadixSortMinKeys keys, scalar mergesort below
  kVector = 1,  // force the AVX2 kernels (callers must know AVX2 exists)
  kScalar = 2,  // force the portable mergesort
};

// kAuto's crossover from the mergesort to the radix sort, measured on a 4-core Sapphire Rapids
// Xeon (README "SIMD hot loops").
inline constexpr size_t kRadixSortMinKeys = 256;

// True when the AVX2 kernels are usable on this CPU.
bool VectorSortSupported();

// Sorts `data` ascending (signed) with the kernel `impl` names; uses `scratch` (at least the
// same length) as the ping-pong buffer.
void SortI64(std::span<int64_t> data, std::span<int64_t> scratch, SortImpl impl = SortImpl::kAuto);

// Merges two sorted runs into `out` (out.size() == a.size() + b.size()).
void MergeI64(std::span<const int64_t> a, std::span<const int64_t> b, std::span<int64_t> out,
              SortImpl impl = SortImpl::kAuto);

// Convenience for tests: true if ascending.
bool IsSortedI64(std::span<const int64_t> data);

}  // namespace sbt

#endif  // SRC_PRIMITIVES_VEC_SORT_H_
