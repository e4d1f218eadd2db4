#include "src/primitives/vec_sort.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/common/logging.h"

namespace sbt {
namespace {

// ---------------------------------------------------------------------------
// Two-run merge, and the bottom-up mergesort for small inputs built on it. Sequential access, no
// recursion, no allocation beyond the caller-provided scratch — the same properties the paper
// wants inside a TEE.
// ---------------------------------------------------------------------------

// Branchless two-run merge: on out-of-order x86 cores the cmov-style select sustains ~2-3
// cycles/element on random data, where a taken-or-not branch per element mispredicts half the
// time.
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

}  // namespace

void SortI64(std::span<int64_t> data, std::span<int64_t> scratch) {
  SBT_CHECK(scratch.size() >= data.size());
  if (data.size() < 2) {
    return;
  }
  if (data.size() >= kRadixSortMinKeys) {
    RadixSort(data, scratch);
  } else {
    ScalarSort(data, scratch);
  }
}

void MergeI64(std::span<const int64_t> a, std::span<const int64_t> b, std::span<int64_t> out) {
  SBT_CHECK(out.size() >= a.size() + b.size());
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
