// Sort and merge kernels for the sort-merge primitives (paper §5 "Trusted primitives and
// vectorization"). They sort signed 64-bit words (see kv.h for why records pack into that
// order).
//
// SortI64 is an LSD radix sort over 8-bit digits. One counting read builds every digit's
// histogram, and a digit that is the same in every word is skipped: GroupBy's packed
// (key, value) words vary in only 4 to 6 of their 8 bytes, so they take 4 to 6 scatter passes.
// Below kRadixSortMinKeys the fixed cost of the count tables outweighs what the passes save,
// and a bottom-up mergesort runs instead. Both are non-recursive, read sequentially, and
// allocate nothing beyond the caller's scratch, as the paper wants inside a TEE.
//
// The paper hand-writes ARMv8 NEON sorting networks. Here both kernels are portable C++: at
// the batch sizes GroupBy sorts (256 to 25,000 keys) the radix sort is 2-5x faster than AVX2
// sorting networks on x86. bench/vectorize_sort times them against std::sort and std::merge
// (§9.3).

#ifndef SRC_PRIMITIVES_VEC_SORT_H_
#define SRC_PRIMITIVES_VEC_SORT_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace sbt {

// SortI64's crossover from the mergesort to the radix sort, measured on a 4-core Sapphire
// Rapids Xeon (README "Trusted kernels").
inline constexpr size_t kRadixSortMinKeys = 256;

// Sorts `data` ascending (signed); uses `scratch` (at least the same length) as the ping-pong
// buffer.
void SortI64(std::span<int64_t> data, std::span<int64_t> scratch);

// Merges two sorted runs into `out` (out.size() == a.size() + b.size()).
void MergeI64(std::span<const int64_t> a, std::span<const int64_t> b, std::span<int64_t> out);

// Convenience for tests: true if ascending.
bool IsSortedI64(std::span<const int64_t> data);

}  // namespace sbt

#endif  // SRC_PRIMITIVES_VEC_SORT_H_
