#include "src/control/telemetry.h"

namespace sbt {

EngineTelemetry CollectEngineTelemetry(const DataPlane& dp, const Runner& runner) {
  EngineTelemetry t;
  t.runner = runner.stats();
  t.world_switch = dp.switch_stats();
  t.cycles = dp.cycle_stats();
  t.memory = dp.memory_stats();
  t.allocator = dp.allocator_stats();
  return t;
}

namespace {

void Push(obs::MetricsSnapshot* out, const obs::MetricLabels& labels, const char* name,
          obs::MetricKind kind, double value) {
  obs::MetricSample s;
  s.name = name;
  s.labels = labels;
  s.kind = kind;
  s.value = value;
  out->samples.push_back(std::move(s));
}

}  // namespace

void AppendEngineTelemetry(const EngineTelemetry& t, const obs::MetricLabels& labels,
                           obs::MetricsSnapshot* out) {
  using obs::MetricKind;
  const auto c = [&](const char* name, uint64_t v) {
    Push(out, labels, name, MetricKind::kCounter, static_cast<double>(v));
  };
  const auto g = [&](const char* name, double v) {
    Push(out, labels, name, MetricKind::kGauge, v);
  };

  // Runner::Stats
  c("sbt_events_ingested_total", t.runner.events_ingested);
  c("sbt_frames_ingested_total", t.runner.frames_ingested);
  c("sbt_windows_emitted_total", t.runner.windows_emitted);
  c("sbt_task_errors_total", t.runner.task_errors);
  c("sbt_backpressure_stalls_total", t.runner.backpressure_stalls);
  g("sbt_max_output_delay_ms", static_cast<double>(t.runner.max_delay_ms));

  // WorldSwitchStats
  c("sbt_switch_entries_total", t.world_switch.entries);
  c("sbt_switch_burned_cycles_total", t.world_switch.burned_cycles);
  c("sbt_switch_faults_total", t.world_switch.faults);
  c("sbt_switch_annotated_ops_total", t.world_switch.annotated_ops);
  c("sbt_switch_session_cycles_total", t.world_switch.session_cycles);

  // DataPlaneCycleStats
  c("sbt_invoke_cycles_total", t.cycles.invoke_cycles);
  c("sbt_memmgmt_cycles_total", t.cycles.memmgmt_cycles);
  c("sbt_audit_cycles_total", t.cycles.audit_cycles);
  c("sbt_audit_records_total", t.cycles.audit_records);

  // SecureMemoryStats
  g("sbt_secure_pool_bytes", static_cast<double>(t.memory.pool_bytes));
  g("sbt_secure_pool_committed_bytes", static_cast<double>(t.memory.committed_bytes));
  g("sbt_secure_pool_peak_bytes", static_cast<double>(t.memory.peak_committed));
  c("sbt_secure_page_faults_total", t.memory.page_faults);
  c("sbt_secure_page_reclaims_total", t.memory.reclaims);

  // AllocatorStats
  g("sbt_uarray_live_groups", static_cast<double>(t.allocator.live_groups));
  g("sbt_uarray_live_arrays", static_cast<double>(t.allocator.live_arrays));
  c("sbt_uarray_arrays_created_total", t.allocator.arrays_created);
  c("sbt_uarray_arrays_reclaimed_total", t.allocator.arrays_reclaimed);
}

}  // namespace sbt
