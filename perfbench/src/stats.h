// The benchmark's own arithmetic: percentile selection, due-time latency with misses, CPU
// subtraction and per-event normalisation. Pure functions, unit-tested in
// perfbench/tests/stats_test.cc; nothing here touches the program under test.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kMiss = std::numeric_limits<double>::infinity();

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline size_t NearestRank(double p, size_t n) {
  if (n == 0) {
    return 0;
  }
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 95.0 / 100 * 200 landing a hair above 190.
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// The nearest-rank percentile of `values`; kMiss entries sort last (a miss is slower than
// any measured sample). Returns kMiss when the rank lands on a miss, 0 for no samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  const size_t rank = NearestRank(p, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

// Samples strictly beyond the nearest rank of `p`.
inline size_t SamplesBeyond(double p, size_t n) { return n - NearestRank(p, n); }

// The tail percentile of a sample of size `n`: the highest rung of a fixed ladder that still
// has at least `min_beyond` samples beyond it. Returns 50 when even the median has fewer.
inline double TailPercentile(size_t n, size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 75};
  for (double p : kLadder) {
    if (n > 0 && SamplesBeyond(p, n) >= min_beyond) {
      return p;
    }
  }
  return 50;
}

// One expected (engine, window) result of an open-loop run, with its timestamps on one
// monotonic clock (microseconds). `present` is false when the result is missing, errored or
// failed its checks; such a window is a miss.
struct WindowTiming {
  bool present = false;
  int64_t due_us = 0;        // the closing watermark's due time in the generator's schedule
  int64_t watermark_us = 0;  // WindowResult::watermark_time
  int64_t egress_us = 0;     // WindowResult::egress_time
};

struct LatencySplit {
  std::vector<double> latency_ms;   // due -> egress; kMiss for misses and over-limit windows
  std::vector<double> delivery_ms;  // due -> watermark_time (present windows only)
  std::vector<double> close_ms;     // watermark_time -> egress (present windows only)
  size_t misses = 0;                // absent windows plus windows over the limit
  // Windows whose delivery + close differs from their latency (must stay 0).
  size_t split_mismatches = 0;
};

// Due-time latency of every expected window. A window that is absent, or whose result arrives
// more than `limit_ms` after its due time, counts as a miss in the latency percentiles.
inline LatencySplit SplitLatencies(const std::vector<WindowTiming>& windows, double limit_ms) {
  LatencySplit out;
  for (const WindowTiming& w : windows) {
    if (!w.present) {
      out.latency_ms.push_back(kMiss);
      ++out.misses;
      continue;
    }
    const int64_t latency_us = w.egress_us - w.due_us;
    const int64_t delivery_us = w.watermark_us - w.due_us;
    const int64_t close_us = w.egress_us - w.watermark_us;
    if (delivery_us + close_us != latency_us) {
      ++out.split_mismatches;
    }
    out.delivery_ms.push_back(static_cast<double>(delivery_us) / 1e3);
    out.close_ms.push_back(static_cast<double>(close_us) / 1e3);
    const double ms = static_cast<double>(latency_us) / 1e3;
    if (ms > limit_ms) {
      out.latency_ms.push_back(kMiss);
      ++out.misses;
    } else {
      out.latency_ms.push_back(ms);
    }
  }
  return out;
}

// Server CPU: the whole process's CPU over the run minus what the benchmark's own generator
// (and sampler) threads burned themselves. Never negative.
inline double ServerCpuMs(int64_t process_cpu_ns, int64_t bench_threads_cpu_ns) {
  return static_cast<double>(std::max<int64_t>(0, process_cpu_ns - bench_threads_cpu_ns)) / 1e6;
}

// `value` per 1,000 events; 0 when no event was processed.
inline double PerKEvent(double value, uint64_t events) {
  return events == 0 ? 0.0 : value * 1000.0 / static_cast<double>(events);
}

// `value` per event; 0 when no event was processed.
inline double PerEvent(double value, uint64_t events) {
  return events == 0 ? 0.0 : value / static_cast<double>(events);
}

// Relative change of the traced run against the untraced one, in percent.
inline double OverheadPct(double traced, double untraced) {
  return untraced == 0 ? 0.0 : (traced - untraced) / untraced * 100.0;
}

// Nearest-rank percentile from a power-of-two histogram (bucket b holds values whose bit width
// is b, as src/obs/metrics.h's Histogram does): the upper bound of the bucket holding the rank.
inline double HistogramPercentile(const std::vector<uint64_t>& buckets, double p) {
  uint64_t n = 0;
  for (uint64_t c : buckets) {
    n += c;
  }
  if (n == 0) {
    return 0;
  }
  const size_t rank = NearestRank(p, n);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1;
    }
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size())) - 1;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
