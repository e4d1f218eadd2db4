// §9.3 "Trusted primitive vectorization": the trusted sort and merge kernels (SortI64, MergeI64)
// against the standard-library alternatives the paper swaps in (std::sort and libc qsort,
// std::merge), plus ns/key at the batch sizes the GroupBy pipelines sort.
//
// Paper: vectorized sort beats std::sort by >2x and qsort by much more; replacing it inside
// GroupBy costs 2x (std::sort) to 7x (qsort).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/primitives/kv.h"
#include "src/primitives/vec_sort.h"

namespace sbt {
namespace {

int QsortCmp(const void* a, const void* b) {
  const int64_t x = *static_cast<const int64_t*>(a);
  const int64_t y = *static_cast<const int64_t*>(b);
  return (x > y) - (x < y);
}

std::vector<int64_t> RandomData(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<int64_t> data(n);
  for (auto& v : data) {
    v = static_cast<int64_t>(rng.Next());
  }
  return data;
}

template <typename SortFn>
double TimeSort(const std::vector<int64_t>& input, int reps, SortFn&& sort_fn) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    std::vector<int64_t> data = input;
    const ProcTimeUs t0 = NowUs();
    sort_fn(data);
    best = std::min(best, static_cast<double>(NowUs() - t0) / 1e6);
  }
  return best;
}

// ns/key sorting one n-key batch, best of 5 rounds over ~1M keys of Distinct-shaped words
// (taxi ids < 11000, meter values < 500: 4 varying bytes), a fresh batch per call.
template <typename SortFn>
double BatchNsPerKey(size_t n, SortFn&& sort_fn) {
  const size_t batches = std::max<size_t>(1, (1u << 20) / n);
  Xoshiro256 rng(n);
  std::vector<int64_t> input(n * batches);
  for (auto& v : input) {
    v = PackKV(static_cast<uint32_t>(rng.NextBelow(11000)),
               static_cast<int32_t>(rng.NextBelow(500)));
  }
  std::vector<int64_t> work(input.size());
  double best = 1e18;
  for (int r = 0; r < 5; ++r) {
    work = input;
    const ProcTimeUs t0 = NowUs();
    for (size_t b = 0; b < batches; ++b) {
      sort_fn(std::span<int64_t>(work).subspan(b * n, n));
    }
    const double ns = static_cast<double>(NowUs() - t0) * 1e3;
    best = std::min(best, ns / static_cast<double>(work.size()));
  }
  return best;
}

void PrintBatchSizes() {
  std::printf("\nns/key per batch sort, Distinct-shaped keys (radix sort from %zu keys)\n",
              kRadixSortMinKeys);
  std::printf("%8s %10s %10s\n", "keys", "SortI64", "std::sort");
  for (size_t n : {size_t{256}, size_t{4096}, size_t{25000}}) {
    std::vector<int64_t> scratch(n);
    const double sbt_ns =
        BatchNsPerKey(n, [&scratch](std::span<int64_t> batch) { SortI64(batch, scratch); });
    const double std_ns =
        BatchNsPerKey(n, [](std::span<int64_t> batch) { std::sort(batch.begin(), batch.end()); });
    std::printf("%8zu %10.1f %10.1f\n", n, sbt_ns, std_ns);
  }
}

void RunVectorizeSort() {
  const size_t n = 1u << 20;  // 1M keys, the per-window sort size
  const int reps = 3;
  const auto input = RandomData(n * static_cast<size_t>(BenchScale()), 31337);

  PrintHeader("SBT sort/merge vs libc qsort and std::sort (1M random 64-bit keys)",
              "hand-vectorized sort >2x std::sort; GroupBy drops 2x/7x without it");

  std::vector<int64_t> scratch(input.size());
  const double sbt_s =
      TimeSort(input, reps, [&scratch](std::vector<int64_t>& d) { SortI64(d, scratch); });
  const double std_s = TimeSort(
      input, reps, [](std::vector<int64_t>& d) { std::sort(d.begin(), d.end()); });
  const double qsort_s = TimeSort(input, reps, [](std::vector<int64_t>& d) {
    qsort(d.data(), d.size(), sizeof(int64_t), QsortCmp);
  });

  const double mkeys = input.size() / 1e6;
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s\n", "SBT SortI64 (radix)", sbt_s, mkeys / sbt_s);
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s  (%.1fx slower)\n", "std::sort", std_s,
              mkeys / std_s, std_s / sbt_s);
  std::printf("%-22s %8.3f s  %7.1f Mkeys/s  (%.1fx slower)\n", "libc qsort", qsort_s,
              mkeys / qsort_s, qsort_s / sbt_s);

  // Machine-readable mirror. speedup_vs_std divides the standard library's time by each row's,
  // both timed in this process, so it is portable across hosts of the same ISA.
  JsonBenchReport report("vectorize_sort");
  const auto sort_row = [&](const char* impl, double secs) {
    report.BeginRow()
        .Str("op", "sort")
        .Str("impl", impl)
        .Num("seconds", secs)
        .Num("mkeys_per_sec", mkeys / secs)
        .Num("speedup_vs_std", std_s / secs);
  };
  sort_row("sbt", sbt_s);
  sort_row("std_sort", std_s);
  sort_row("qsort", qsort_s);

  // Merge two independent sorted runs: with identical runs, every comparison ties and
  // std::merge's branch becomes perfectly predictable. Warm the output buffer first so neither
  // side pays first-touch faults.
  std::vector<int64_t> a = RandomData(input.size() / 2, 31337);
  std::vector<int64_t> b = RandomData(input.size() / 2, 27182);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<int64_t> out(a.size() + b.size(), 0);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());  // warmup
  MergeI64(a, b, out);                                              // warmup

  double sbt_merge_s = 1e18;
  double std_merge_s = 1e18;
  for (int r = 0; r < reps * 2; ++r) {
    const ProcTimeUs t0 = NowUs();
    MergeI64(a, b, out);
    sbt_merge_s = std::min(sbt_merge_s, static_cast<double>(NowUs() - t0) / 1e6);
    const ProcTimeUs t1 = NowUs();
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
    std_merge_s = std::min(std_merge_s, static_cast<double>(NowUs() - t1) / 1e6);
  }
  std::printf("%-22s %8.3f s\n", "SBT MergeI64", sbt_merge_s);
  std::printf("%-22s %8.3f s  (%.1fx slower)\n", "std::merge", std_merge_s,
              std_merge_s / sbt_merge_s);

  const double merge_mkeys = out.size() / 1e6;
  const auto merge_row = [&](const char* impl, double secs) {
    report.BeginRow()
        .Str("op", "merge")
        .Str("impl", impl)
        .Num("seconds", secs)
        .Num("mkeys_per_sec", merge_mkeys / secs)
        .Num("speedup_vs_std", std_merge_s / secs);
  };
  merge_row("sbt", sbt_merge_s);
  merge_row("std_merge", std_merge_s);
  report.Write();

  PrintBatchSizes();
}

}  // namespace
}  // namespace sbt

int main() {
  sbt::RunVectorizeSort();
  return 0;
}
