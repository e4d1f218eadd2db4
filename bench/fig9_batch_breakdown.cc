// Figure 9: run-time breakdown of operator GroupBy under different input batch sizes.
//
// Paper claims reproduced in shape: with batches of >=128K events, >90% of CPU time is actual
// computation inside the TEE and memory management stays at 1-2%; at 8K events per batch the
// world-switch overhead starts to dominate. The switch cost model is calibrated to OP-TEE's
// software-dominated switch path (see src/tz/world_switch.h).
//
// Two series per batch size:
//   per-invoke — the paper's boundary: one world switch per primitive per segment
//   fused      — command-buffer submission (src/core/cmd_buffer.h): one switch per chain
// The fused series flattens the small-batch cliff — fewer entries, more ops amortized per
// entry.
//
// Emits BENCH_fig9.json (bench_util.h) with one row per (series, batch).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/control/harness.h"
#include "src/control/pipeline.h"

namespace sbt {
namespace {

// GroupBy = Project + Sort per batch, merged and aggregated per window (AvgPerKey flavor).
Pipeline MakeGroupBy(uint32_t window_ms) {
  Pipeline p("GroupBy", window_ms);
  p.PerBatch(PrimitiveOp::kProject);
  p.PerBatch(PrimitiveOp::kSort);
  p.AtWindowClose({.op = PrimitiveOp::kMergeN, .input_stages = {-1}});
  p.AtWindowClose({.op = PrimitiveOp::kSumCnt, .input_stages = {0}});
  p.AtWindowClose({.op = PrimitiveOp::kAverage, .input_stages = {1}});
  return p;
}

void RunFig9() {
  const int scale = BenchScale();
  const uint32_t events_per_window = 512000u;  // must divide by all batch sizes below
  const uint32_t batch_sizes[] = {8000, 32000, 128000, 512000};

  PrintHeader("Figure 9: GroupBy run-time breakdown vs input batch size",
              ">=128K events/batch: >90% compute, 1-2% mem mgmt; at 8K the world switch "
              "dominates the overhead; fused submission flattens the small-batch cliff");
  std::printf("%-11s %-10s %9s %9s %9s %9s %10s %10s\n", "series", "batch", "compute%",
              "switch%", "memmgmt%", "audit%", "switches", "ops/entry");

  struct Series {
    const char* name;
    bool fused;
  };
  const Series series_list[] = {
      {"per-invoke", /*fused=*/false},
      {"fused", /*fused=*/true},
  };

  JsonBenchReport report("fig9");
  for (const Series& s : series_list) {
    for (const uint32_t batch : batch_sizes) {
      HarnessOptions opts;
      opts.version = EngineVersion::kSbtClearIngress;  // isolate the isolation cost itself
      // Single worker avoids oversubscription distortion in cycle accounting on small hosts.
      opts.engine.knobs.worker_threads = 1;
      opts.engine.secure_pool_mb = 512;
      opts.engine.knobs.fuse_chains = s.fused;
      opts.generator.batch_events = batch;
      opts.generator.num_windows = 2u * scale;
      opts.generator.workload.kind = WorkloadKind::kSynthetic;
      opts.generator.workload.events_per_window = events_per_window;
      opts.generator.workload.num_keys = 10000;
      opts.verify_audit = false;

      const HarnessResult r = RunHarness(MakeGroupBy(1000), opts);
      const DataPlaneCycleStats& c = r.cycles();
      const double total = static_cast<double>(c.invoke_cycles);
      const double switch_pct = 100.0 * c.switch_cycles / total;
      const double mem_pct = 100.0 * c.memmgmt_cycles / total;
      const double audit_pct = 100.0 * c.audit_cycles / total;
      const double compute_pct = 100.0 - switch_pct - mem_pct - audit_pct;
      const double ops_per_entry = c.ops_per_entry();
      std::printf("%-11s %-10u %8.1f%% %8.1f%% %8.1f%% %8.2f%% %10llu %10.2f\n", s.name,
                  batch, compute_pct, switch_pct, mem_pct, audit_pct,
                  static_cast<unsigned long long>(c.switch_entries), ops_per_entry);

      report.BeginRow()
          .Str("series", s.name)
          .Int("batch_events", batch)
          .Num("compute_pct", compute_pct)
          .Num("switch_pct", switch_pct)
          .Num("memmgmt_pct", mem_pct)
          .Num("audit_pct", audit_pct)
          .Int("switch_entries", c.switch_entries)
          .Num("ops_per_entry", ops_per_entry)
          .Num("events_per_sec", r.events_per_sec());
    }
  }
  report.Write();
}

}  // namespace
}  // namespace sbt

int main() {
  sbt::RunFig9();
  return 0;
}
