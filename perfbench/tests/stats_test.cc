// Tests for the benchmark's own arithmetic (perfbench/src/stats.h): tail-percentile selection
// and its printed n, due-time latency with failed and over-limit windows counted as misses,
// subtraction of generator-thread CPU, and per-1,000-event normalisation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TailSelection() {
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentile;
  // 200 samples: p95 leaves exactly 10 beyond it, p98 only 4.
  EXPECT(TailPercentile(200) == 95);
  EXPECT(SamplesBeyond(95, 200) == 10);
  EXPECT(SamplesBeyond(98, 200) == 4);
  // 199 samples: p95's rank is 190, leaving 9, so the tail falls back to p90.
  EXPECT(TailPercentile(199) == 90);
  EXPECT(SamplesBeyond(90, 199) == 19);
  EXPECT(TailPercentile(1000) == 99);
  EXPECT(TailPercentile(10000) == 99.9);
  EXPECT(TailPercentile(100) == 90);
  // Too few samples for any rung: the median.
  EXPECT(TailPercentile(15) == 50);
  EXPECT(TailPercentile(0) == 50);
}

void NearestRankPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) {
    v.push_back(i);
  }
  EXPECT(perfbench::Percentile(v, 50) == 100);
  EXPECT(perfbench::Percentile(v, 95) == 190);
  EXPECT(perfbench::Percentile({}, 50) == 0);
  // A miss sorts after every measured sample.
  std::vector<double> with_miss = {3, perfbench::kMiss, 1, 2};
  EXPECT(perfbench::Percentile(with_miss, 75) == 3);
  EXPECT(std::isinf(perfbench::Percentile(with_miss, 100)));
}

void DueTimeLatency() {
  using perfbench::WindowTiming;
  std::vector<WindowTiming> w = {
      {.present = true, .due_us = 1000, .watermark_us = 3000, .egress_us = 6000},
      {.present = false},                                                         // missing
      {.present = true, .due_us = 0, .watermark_us = 500'000, .egress_us = 1'200'000},  // late
      {.present = true, .due_us = 10'000, .watermark_us = 9'000, .egress_us = 12'000},
  };
  const perfbench::LatencySplit s = perfbench::SplitLatencies(w, /*limit_ms=*/1000);
  EXPECT(s.latency_ms.size() == 4);
  EXPECT(Near(s.latency_ms[0], 5.0));
  EXPECT(std::isinf(s.latency_ms[1]));
  EXPECT(std::isinf(s.latency_ms[2]));  // 1200 ms > 1 s limit: a miss
  EXPECT(Near(s.latency_ms[3], 2.0));
  EXPECT(s.misses == 2);
  // The split covers every window that produced a result, late ones included, and sums to
  // its latency exactly (a watermark may even precede its due time).
  EXPECT(s.delivery_ms.size() == 3 && s.close_ms.size() == 3);
  EXPECT(Near(s.delivery_ms[0], 2.0) && Near(s.close_ms[0], 3.0));
  EXPECT(Near(s.delivery_ms[2], -1.0) && Near(s.close_ms[2], 3.0));
  EXPECT(s.split_mismatches == 0);
  // Misses count in the percentiles: the median of {5, inf, inf, 2} is a miss.
  EXPECT(std::isinf(perfbench::Percentile(s.latency_ms, 50)) == false);
  EXPECT(Near(perfbench::Percentile(s.latency_ms, 50), 5.0));
  EXPECT(std::isinf(perfbench::Percentile(s.latency_ms, 75)));
  // Without a limit nothing measured is a miss.
  const perfbench::LatencySplit open = perfbench::SplitLatencies(w, perfbench::kMiss);
  EXPECT(open.misses == 1);
}

void CpuSubtraction() {
  // 2.5 s of process CPU, 0.5 s of it in generator threads -> 2000 ms of server CPU.
  EXPECT(Near(perfbench::ServerCpuMs(2'500'000'000, 500'000'000), 2000.0));
  // Clock skew between the two readings never yields negative server CPU.
  EXPECT(Near(perfbench::ServerCpuMs(100, 200), 0.0));
}

void Normalisation() {
  EXPECT(Near(perfbench::PerKEvent(2000.0, 4'000'000), 0.5));
  EXPECT(Near(perfbench::PerKEvent(1.0, 0), 0.0));
  EXPECT(Near(perfbench::PerEvent(3e9, 1'000'000'000), 3.0));
  EXPECT(Near(perfbench::OverheadPct(110, 100), 10.0));
  EXPECT(Near(perfbench::OverheadPct(5, 0), 0.0));
}

void HistogramAndMedian() {
  // Buckets: {0}, [1,2), [2,4), [4,8): 1, 1, 2, 6 samples -> median rank 5 falls in [4,8).
  EXPECT(Near(perfbench::HistogramPercentile({1, 1, 2, 6}, 50), 7.0));
  EXPECT(Near(perfbench::HistogramPercentile({5, 0, 0}, 50), 0.0));
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2.0));
  EXPECT(Near(perfbench::Median({4, 1, 2, 3}), 2.5));
  EXPECT(Near(perfbench::Mean({1, 2, 3, 6}), 3.0));
}

}  // namespace

int main() {
  TailSelection();
  NearestRankPercentiles();
  DueTimeLatency();
  CpuSubtraction();
  Normalisation();
  HistogramAndMedian();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench stats tests passed\n");
  return 0;
}
