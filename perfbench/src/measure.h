// The measured phase: drives a set-up stack with the workload's generator for the run's
// seconds, then runs the server down and collects what it exports.

#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/stack.h"
#include "src/obs/metrics.h"

namespace perfbench {

struct PhaseRaw {
  int64_t t0_us = 0;     // first send due
  int64_t t_end_us = 0;  // Shutdown returned
  uint32_t windows = 0;  // windows every device sent
  uint64_t seals_before = 0;  // seals published during set-up
  int64_t process_cpu_ns = 0;
  int64_t generator_cpu_ns = 0;  // the benchmark's sender threads
  int64_t sampler_cpu_ns = 0;    // the benchmark's /proc sampler (traced runs)
  int64_t shutdown_cpu_ns = 0;   // the thread that ran EdgeServer::Shutdown
  int64_t late_us_max = 0;       // open-loop sends behind their due time
  int64_t seal_late_us_max = 0;  // seal rounds behind the generator's clock
  int64_t blocked_us = 0;        // senders waiting on server pushback
  double steal_pct = 0;
  std::vector<double> queue_depth;  // polled shard-queue depths (traced runs)
  std::map<std::string, int64_t> group_cpu_ns;  // traced runs
  sbt::ServerReport report;
  sbt::IngressFrontend::Stats ingress;
  sbt::obs::MetricsSnapshot obs_before;
  sbt::obs::MetricsSnapshot obs_after;
  std::vector<std::string> errors;
};

PhaseRaw RunMeasured(const RunContext& ctx, Stack& stack);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
