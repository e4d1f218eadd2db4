#include "src/primitives/vec_sort.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/common/logging.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sbt {
namespace {

// ---------------------------------------------------------------------------
// Scalar fallback: bottom-up mergesort. Sequential access, no recursion, no allocation
// beyond the caller-provided scratch — the same properties the paper wants inside a TEE.
// ---------------------------------------------------------------------------

// Branchless two-run merge: on out-of-order x86 cores the cmov-style select sustains
// ~2-3 cycles/element on random data, which the 4-wide bitonic SIMD merge cannot beat (it does
// on the paper's in-order Cortex-A53 — a documented substrate difference, see EXPERIMENTS.md).
void ScalarMerge(const int64_t* a, size_t na, const int64_t* b, size_t nb, int64_t* out) {
  size_t i = 0;
  size_t j = 0;
  size_t k = 0;
  while (i < na && j < nb) {
    const int64_t va = a[i];
    const int64_t vb = b[j];
    const bool take_a = va <= vb;
    out[k++] = take_a ? va : vb;
    i += take_a;
    j += !take_a;
  }
  while (i < na) {
    out[k++] = a[i++];
  }
  while (j < nb) {
    out[k++] = b[j++];
  }
}

void ScalarSort(std::span<int64_t> data, std::span<int64_t> scratch) {
  const size_t n = data.size();
  // Insertion-sort small runs first; cheaper than merging from width 1.
  constexpr size_t kRun = 16;
  for (size_t lo = 0; lo < n; lo += kRun) {
    const size_t hi = std::min(lo + kRun, n);
    for (size_t i = lo + 1; i < hi; ++i) {
      const int64_t v = data[i];
      size_t j = i;
      while (j > lo && data[j - 1] > v) {
        data[j] = data[j - 1];
        --j;
      }
      data[j] = v;
    }
  }

  int64_t* src = data.data();
  int64_t* dst = scratch.data();
  for (size_t width = kRun; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      ScalarMerge(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
    }
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::memcpy(data.data(), src, n * sizeof(int64_t));
  }
}

// ---------------------------------------------------------------------------
// Radix path: LSD counting sort over the eight 8-bit digits of the sign-biased word. One read
// builds all eight histograms; a digit whose histogram holds every element in one bucket is
// the same in every word and is skipped, so GroupBy's packed (key, value) words take only as
// many scatter passes as they have varying bytes. Reads are sequential and the count tables
// take 8 KB of stack.
// ---------------------------------------------------------------------------

void RadixSort(std::span<int64_t> data, std::span<int64_t> scratch) {
  const size_t n = data.size();
  SBT_CHECK(n <= UINT32_MAX);
  // Flipping the sign bit maps signed order onto unsigned digit order (it only changes the
  // top digit).
  constexpr uint64_t kSignBit = 1ull << 63;
  uint64_t* src = reinterpret_cast<uint64_t*>(data.data());
  uint64_t* dst = reinterpret_cast<uint64_t*>(scratch.data());

  uint32_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = src[i] ^ kSignBit;
    for (int d = 0; d < 8; ++d) {
      ++counts[d][(key >> (8 * d)) & 0xff];
    }
  }
  const uint64_t first = src[0] ^ kSignBit;
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    uint32_t* offsets = counts[d];
    if (offsets[(first >> shift) & 0xff] == n) {
      continue;  // constant digit: the pass would be the identity permutation
    }
    uint32_t running = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = offsets[b];
      offsets[b] = running;
      running += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = src[i];
      dst[offsets[((v ^ kSignBit) >> shift) & 0xff]++] = v;
    }
    std::swap(src, dst);
  }
  if (src != reinterpret_cast<uint64_t*>(data.data())) {
    std::memcpy(data.data(), src, n * sizeof(int64_t));
  }
}

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// AVX2 kernels. Four signed 64-bit lanes per register. Each comparator computes its compare
// mask once and derives both min and max from it.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Min64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) inline __m256i Max64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) inline void MinMax64(__m256i a, __m256i b, __m256i* mn,
                                                     __m256i* mx) {
  const __m256i gt = _mm256_cmpgt_epi64(a, b);
  *mn = _mm256_blendv_epi8(a, b, gt);
  *mx = _mm256_blendv_epi8(b, a, gt);
}

// Sorts the 4 lanes of `v` ascending with a 5-comparator network.
__attribute__((target("avx2"))) inline __m256i Sort4(__m256i v) {
  __m256i mn;
  __m256i mx;
  // Comparators (0,1),(2,3).
  __m256i swapped = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 3, 0, 1));
  MinMax64(v, swapped, &mn, &mx);
  v = _mm256_blend_epi32(mn, mx, 0b11001100);
  // Comparators (0,2),(1,3).
  swapped = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  MinMax64(v, swapped, &mn, &mx);
  v = _mm256_blend_epi32(mn, mx, 0b11110000);
  // Comparator (1,2).
  swapped = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(3, 1, 2, 0));
  MinMax64(v, swapped, &mn, &mx);
  v = _mm256_blend_epi32(mn, mx, 0b00110000);
  return v;
}

// Bitonic merge of a 4-lane bitonic sequence into ascending order.
__attribute__((target("avx2"))) inline __m256i BitonicMerge4(__m256i v) {
  __m256i mn;
  __m256i mx;
  // Comparators (0,2),(1,3).
  __m256i swapped = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  MinMax64(v, swapped, &mn, &mx);
  v = _mm256_blend_epi32(mn, mx, 0b11110000);
  // Comparators (0,1),(2,3).
  swapped = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 3, 0, 1));
  MinMax64(v, swapped, &mn, &mx);
  v = _mm256_blend_epi32(mn, mx, 0b11001100);
  return v;
}

// Merges two ascending 4-lane registers into an ascending 8-element sequence
// (lo = smallest four, hi = largest four).
__attribute__((target("avx2"))) inline void BitonicMerge8(__m256i& lo, __m256i& hi) {
  // Reverse hi to form one bitonic sequence, then split min/max and clean up each half.
  const __m256i rev = _mm256_permute4x64_epi64(hi, _MM_SHUFFLE(0, 1, 2, 3));
  __m256i mn;
  __m256i mx;
  MinMax64(lo, rev, &mn, &mx);
  lo = BitonicMerge4(mn);
  hi = BitonicMerge4(mx);
}

// Vectorized two-run merge (Inoue-style): keeps four elements in flight, always refills from
// the run with the smaller head, and drains tails with a safe 3-way scalar merge.
__attribute__((target("avx2"))) void VectorMerge(const int64_t* a, size_t na, const int64_t* b,
                                                 size_t nb, int64_t* out) {
  if (na < 8 || nb < 8) {
    ScalarMerge(a, na, b, nb, out);
    return;
  }
  size_t ai = 4;
  size_t bi = 0;
  size_t oi = 0;
  __m256i vmin = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  while (ai + 4 <= na && bi + 4 <= nb) {
    __m256i vnext;
    if (a[ai] <= b[bi]) {
      vnext = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ai));
      ai += 4;
    } else {
      vnext = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + bi));
      bi += 4;
    }
    BitonicMerge8(vmin, vnext);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + oi), vmin);
    oi += 4;
    vmin = vnext;
  }
  // Drain: vmin (4 sorted, in flight) + the remainders of both runs, merged scalar 3-way.
  alignas(32) int64_t flight[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(flight), vmin);
  size_t fi = 0;
  while (fi < 4 || ai < na || bi < nb) {
    // Pick the smallest head among the three sorted sequences.
    int which = -1;
    int64_t best = 0;
    if (fi < 4) {
      best = flight[fi];
      which = 0;
    }
    if (ai < na && (which < 0 || a[ai] < best)) {
      best = a[ai];
      which = 1;
    }
    if (bi < nb && (which < 0 || b[bi] < best)) {
      best = b[bi];
      which = 2;
    }
    out[oi++] = best;
    if (which == 0) {
      ++fi;
    } else if (which == 1) {
      ++ai;
    } else {
      ++bi;
    }
  }
}

__attribute__((target("avx2"))) void VectorSort(std::span<int64_t> data,
                                                std::span<int64_t> scratch) {
  const size_t n = data.size();
  // Large arrays take the radix path, as kAuto does from far fewer keys; below this size kVector
  // keeps the bitonic kernels it exists to measure (bench/vectorize_sort).
  constexpr size_t kRadixThreshold = 1u << 16;
  if (n >= kRadixThreshold) {
    RadixSort(data, scratch);
    return;
  }
  // Base pass: sort 4-lane blocks in-register; insertion-sort the tail.
  size_t pos = 0;
  for (; pos + 4 <= n; pos += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data.data() + pos));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data.data() + pos), Sort4(v));
  }
  for (size_t i = pos + 1; i < n; ++i) {
    const int64_t v = data[i];
    size_t j = i;
    while (j > pos && data[j - 1] > v) {
      data[j] = data[j - 1];
      --j;
    }
    data[j] = v;
  }

  int64_t* src = data.data();
  int64_t* dst = scratch.data();
  for (size_t width = 4; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      VectorMerge(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
    }
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::memcpy(data.data(), src, n * sizeof(int64_t));
  }
}

#endif  // __x86_64__

}  // namespace

bool VectorSortSupported() {
#if defined(__x86_64__)
  // Probed once: __builtin_cpu_supports is a call into libgcc's cpu-model lookup.
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

void SortI64(std::span<int64_t> data, std::span<int64_t> scratch, SortImpl impl) {
  SBT_CHECK(scratch.size() >= data.size());
  if (data.size() < 2) {
    return;
  }
  switch (impl) {
    case SortImpl::kAuto:
      if (data.size() >= kRadixSortMinKeys) {
        RadixSort(data, scratch);
        return;
      }
      break;
    case SortImpl::kVector:
#if defined(__x86_64__)
      VectorSort(data, scratch);
      return;
#else
      break;
#endif
    case SortImpl::kScalar:
      break;
  }
  ScalarSort(data, scratch);
}

void MergeI64(std::span<const int64_t> a, std::span<const int64_t> b, std::span<int64_t> out,
              SortImpl impl) {
  SBT_CHECK(out.size() >= a.size() + b.size());
#if defined(__x86_64__)
  // kVector forces the bitonic SIMD kernel (tests / the ARM-shaped microbenchmark); the fast
  // default on this ISA is the branchless scalar merge (see ScalarMerge's comment).
  if (impl == SortImpl::kVector) {
    VectorMerge(a.data(), a.size(), b.data(), b.size(), out.data());
    return;
  }
#endif
  ScalarMerge(a.data(), a.size(), b.data(), b.size(), out.data());
}

bool IsSortedI64(std::span<const int64_t> data) {
  for (size_t i = 1; i < data.size(); ++i) {
    if (data[i - 1] > data[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace sbt
