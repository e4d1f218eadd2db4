// After a measured phase: the output checks, the benchmark's own cloud-side verification, and
// the end-to-end and per-layer metrics.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/stats.h"

namespace perfbench {

struct Evaluation {
  size_t attempted = 0;  // expected (engine, window) results
  size_t failed = 0;     // missing, errored, unverified, wrong, or over the latency limit
  std::vector<std::string> problems;  // run-level check failures (each fails the run)
  std::vector<WindowTiming> timings;
  LatencySplit split;
  uint64_t events = 0;
  uint64_t egress_bytes = 0;
  uint64_t upload_bytes = 0;      // compressed audit uploads, every chain link
  uint64_t upload_raw_bytes = 0;  // the same uploads before compression
  double verify_ms = 0;           // chain accept + decode + replay, all engines
  int64_t last_egress_us = 0;
  // Determinism record: what one seed must reproduce exactly.
  std::map<EngineKey, uint64_t> events_per_engine;

  bool correct() const { return failed == 0 && problems.empty(); }
};

// Checks every output of the run: events ingested equal events sent per engine; exactly one
// result per scheduled window, equal to the reference once decrypted with the tenant's egress
// key; every upload (including those carried in seal artifacts) accepted in order by
// AuditChainVerifier, decoded, and replayed by CloudVerifier with session_complete=true; the
// standby applied every published seal; no uArray outlives the run.
Evaluation Evaluate(const RunContext& ctx, const Stack& stack, const PhaseRaw& raw);

using Metrics = std::vector<std::pair<std::string, double>>;

Metrics EndToEndMetrics(const RunContext& ctx, const PhaseRaw& raw, const Evaluation& ev,
                        double setup_s);
// `untraced` holds the end-to-end metrics of the untraced phase, for the tracing overhead.
Metrics PerLayerMetrics(const RunContext& ctx, const Stack& stack, const PhaseRaw& raw,
                        const Evaluation& ev, const Metrics& traced_e2e,
                        const Metrics& untraced_e2e);

struct MetricInfo {
  const char* unit;
  const char* moves;  // the end-to-end metric (and workload) this one should move
};
// Unit and "should move" annotation of every reported metric.
MetricInfo InfoOf(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
