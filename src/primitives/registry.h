// Registry of trusted primitives: stable numeric ids and names.
//
// The ids appear in audit records (paper Figure 6 "Op" field) and therefore must stay stable
// across engine and verifier builds. The paper ships 23 primitives; this reproduction carries
// the same families plus two merge helpers (MergeN, MergeSumCnt) used by parallel aggregation.

#ifndef SRC_PRIMITIVES_REGISTRY_H_
#define SRC_PRIMITIVES_REGISTRY_H_

#include <cstdint>
#include <string_view>

namespace sbt {

enum class PrimitiveOp : uint16_t {
  // Pseudo-ops recorded at the TEE boundary (not computations).
  kIngress = 0,
  kEgress = 1,
  kWatermark = 2,

  // Trusted primitives.
  kSort = 10,         // sort a PackedKV uArray
  kMerge = 11,        // merge two sorted PackedKV uArrays
  kMergeN = 12,       // N-way merge (copy, binary merge, or concatenate + radix sort)
  kSegment = 13,      // split an Event uArray into per-window uArrays
  kSumCnt = 14,       // per-key sum+count over a sorted PackedKV uArray
  kMergeSumCnt = 15,  // merge two sorted KeySumCount uArrays (partial aggregates)
  kTopK = 16,         // largest K values per key (sorted input)
  kConcat = 17,       // concatenate same-type uArrays
  kJoin = 18,         // sort-merge equi-join of two sorted PackedKV uArrays
  kCount = 19,        // element count -> u64 scalar
  kSum = 20,          // sum of values -> i64 scalar
  kUnique = 21,       // distinct keys of a sorted PackedKV uArray
  kFilterBand = 22,   // keep events whose value lies in [lo, hi)
  kMedian = 23,       // per-key median (sorted input)
  kSelect = 24,       // keep events with a given key
  kProject = 25,      // Event -> PackedKV
  kScale = 26,        // multiply event values by a constant
  kMinMax = 27,       // [min, max] of event values
  kAverage = 28,      // KeySumCount -> per-key average
  kHistogram = 29,    // bucket counts over event values
  kDedup = 30,        // drop consecutive duplicates in a sorted PackedKV uArray
  kSample = 31,       // keep every Nth event
  kEwma = 32,         // exponentially weighted moving average against prior state
  kCountPerKey = 33,  // per-key element count (sorted input)
  kCompact = 34,      // copy into a fresh, tightly placed uArray
  kRekey = 35,        // PackedKV/KeyValue -> PackedKV with key >>= shift (key coarsening)
  kAboveMean = 36,    // keep KeyValue cells whose value exceeds the column mean
};

inline constexpr int kNumTrustedPrimitives = 27;

std::string_view PrimitiveOpName(PrimitiveOp op);

}  // namespace sbt

#endif  // SRC_PRIMITIVES_REGISTRY_H_
