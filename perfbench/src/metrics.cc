// End-to-end and per-layer metrics, each read from outside the program: the benchmark's own
// timings and spans, ServerReport/EngineTelemetry, IngressFrontend::stats(), the obs registry
// snapshot, polled EdgeServer::shard_snapshot() depths, and /proc.

#include <cmath>
#include <map>

#include "perfbench/src/report.h"

namespace perfbench {
namespace {

struct Hist {
  std::vector<uint64_t> buckets;
  double sum = 0;
  uint64_t count = 0;
};

struct ObsTotals {
  std::map<std::string, double> counters;
  std::map<std::string, Hist> hists;
};

// Sums every instance of each metric name across label sets. The refusal counter is also
// registered once per reason label; those duplicates are skipped.
ObsTotals Totals(const sbt::obs::MetricsSnapshot& snap) {
  ObsTotals out;
  for (const sbt::obs::MetricSample& s : snap.samples) {
    bool per_reason = false;
    for (const auto& [k, v] : s.labels) {
      per_reason = per_reason || k == "reason";
    }
    if (per_reason) {
      continue;
    }
    if (s.kind == sbt::obs::MetricKind::kHistogram) {
      Hist& h = out.hists[s.name];
      h.buckets.resize(s.buckets.size());
      for (size_t b = 0; b < s.buckets.size(); ++b) {
        h.buckets[b] += s.buckets[b];
      }
      h.sum += s.sum;
      h.count += s.count;
    } else if (s.kind == sbt::obs::MetricKind::kCounter) {
      out.counters[s.name] += s.value;
    }
  }
  return out;
}

// What the registry recorded during the measured phase (the registry is process-wide and
// cumulative, and one process runs several set-ups).
ObsTotals Diff(const sbt::obs::MetricsSnapshot& before, const sbt::obs::MetricsSnapshot& after) {
  ObsTotals a = Totals(after);
  const ObsTotals b = Totals(before);
  for (auto& [name, v] : a.counters) {
    if (const auto it = b.counters.find(name); it != b.counters.end()) {
      v -= it->second;
    }
  }
  for (auto& [name, h] : a.hists) {
    const auto it = b.hists.find(name);
    if (it == b.hists.end()) {
      continue;
    }
    for (size_t i = 0; i < h.buckets.size() && i < it->second.buckets.size(); ++i) {
      h.buckets[i] -= it->second.buckets[i];
    }
    h.sum -= it->second.sum;
    h.count -= it->second.count;
  }
  return a;
}

double SpanMsPercentile(const SpanLog* spans, const char* name, bool tail) {
  std::vector<double> ms;
  if (spans != nullptr) {
    for (const Span& s : *spans) {
      if (std::string_view(s.name) == name) {
        ms.push_back(static_cast<double>(s.end_us - s.start_us) / 1e3);
      }
    }
  }
  return Percentile(ms, tail ? TailPercentile(ms.size()) : 50);
}

bool HigherIsBetter(const std::string& e2e) { return e2e == "events_per_s"; }

}  // namespace

Metrics EndToEndMetrics(const RunContext& ctx, const PhaseRaw& raw, const Evaluation& ev,
                        double setup_s) {
  const double wall_s = static_cast<double>(ev.last_egress_us - raw.t0_us) / 1e6;
  uint64_t peak_bytes = 0;
  for (const sbt::TenantShardReport& e : raw.report.engines) {
    peak_bytes += e.peak_committed();
  }
  return {
      {"events_per_s", wall_s > 0 ? static_cast<double>(ev.events) / wall_s : 0.0},
      {"result_latency_p50_ms", Percentile(ev.split.latency_ms, 50)},
      {"result_latency_tail_ms", Percentile(ev.split.latency_ms, ctx.spec->tail_pct)},
      {"setup_s", setup_s},
      {"server_cpu_ms_per_kevent",
       PerKEvent(ServerCpuMs(raw.process_cpu_ns, raw.generator_cpu_ns + raw.sampler_cpu_ns),
                 ev.events)},
      {"secure_mem_peak_mb", static_cast<double>(peak_bytes) / (1 << 20)},
      {"uplink_bytes_per_kevent",
       PerKEvent(static_cast<double>(ev.egress_bytes + ev.upload_bytes), ev.events)},
  };
}

Metrics PerLayerMetrics(const RunContext& ctx, const Stack& stack, const PhaseRaw& raw,
                        const Evaluation& ev, const Metrics& traced_e2e,
                        const Metrics& untraced_e2e) {
  const WorkloadSpec& spec = *ctx.spec;
  const uint64_t events = ev.events;
  const double wall_s = static_cast<double>(raw.t_end_us - raw.t0_us) / 1e6;
  const ObsTotals obs = Diff(raw.obs_before, raw.obs_after);
  auto counter = [&](const char* name) {
    const auto it = obs.counters.find(name);
    return it == obs.counters.end() ? 0.0 : it->second;
  };
  auto hist = [&](const char* name) {
    const auto it = obs.hists.find(name);
    return it == obs.hists.end() ? Hist{} : it->second;
  };
  auto cores = [&](const char* group) {
    const auto it = raw.group_cpu_ns.find(group);
    return it == raw.group_cpu_ns.end() || wall_s <= 0
               ? 0.0
               : static_cast<double>(it->second) / 1e9 / wall_s;
  };

  // Exported engine telemetry, summed over engines.
  double entries = 0, ops = 0, switch_cycles = 0, in_tee = 0, memmgmt = 0, audit_cycles = 0;
  double records = 0, faults = 0, arrays = 0, live_arrays = 0, stalls = 0, task_errors = 0;
  double util_peak = 0;
  for (const sbt::TenantShardReport& e : raw.report.engines) {
    const sbt::EngineTelemetry& t = e.telemetry;
    entries += static_cast<double>(t.world_switch.entries);
    ops += static_cast<double>(t.world_switch.annotated_ops);
    switch_cycles += static_cast<double>(t.cycles.switch_cycles);
    // Session residency: every cycle inside the boundary, world-switch burns excluded.
    in_tee += static_cast<double>(t.world_switch.session_cycles);
    memmgmt += static_cast<double>(t.cycles.memmgmt_cycles);
    audit_cycles += static_cast<double>(t.cycles.audit_cycles);
    records += static_cast<double>(t.cycles.audit_records);
    faults += static_cast<double>(t.memory.page_faults);
    arrays += static_cast<double>(t.allocator.arrays_created);
    live_arrays += static_cast<double>(t.allocator.live_arrays);
    stalls += static_cast<double>(t.runner.backpressure_stalls);
    task_errors += static_cast<double>(t.runner.task_errors + e.dispatch_errors);
    if (e.partition_bytes > 0) {
      util_peak = std::max(util_peak, static_cast<double>(e.peak_committed()) /
                                          static_cast<double>(e.partition_bytes));
    }
  }
  double stall_retries = 0, shed = 0;
  for (const sbt::SourceReport& s : raw.report.sources) {
    stall_retries += static_cast<double>(s.admission_retries);
    shed += static_cast<double>(s.frames_shed);
  }
  for (const sbt::TenantShardReport& e : raw.report.engines) {
    shed += static_cast<double>(e.shed_frames);
  }

  std::vector<double> delivery = ev.split.delivery_ms;
  std::vector<double> close = ev.split.close_ms;
  const Hist combiner = hist("sbt_combiner_batch_chains");
  int64_t grouped_ns = 0;
  for (const auto& [group, ns] : raw.group_cpu_ns) {
    grouped_ns += ns;
  }
  const uint64_t seals = stack.seals_published - raw.seals_before;

  Metrics m = {
      {"net.generator_late_ms_max", static_cast<double>(raw.late_us_max) / 1e3},
      {"net.send_blocked_s_per_mevent",
       events == 0 ? 0.0 : static_cast<double>(raw.blocked_us) / 1e6 /
                               (static_cast<double>(events) / 1e6)},
      {"net.generator_cpu_ms_per_kevent",
       PerKEvent(static_cast<double>(raw.generator_cpu_ns) / 1e6, events)},
      {"server.ingress.handshake_ms_p50", SpanMsPercentile(ctx.spans, "session.handshake", false)},
      {"server.ingress.handshake_ms_tail", SpanMsPercentile(ctx.spans, "session.handshake", true)},
      {"server.ingress.sessions_per_s",
       wall_s > 0 ? static_cast<double>(raw.ingress.sessions_accepted) / wall_s : 0.0},
      {"server.ingress.sessions_rejected", static_cast<double>(raw.ingress.sessions_rejected)},
      {"server.ingress.frames_per_batch",
       raw.ingress.batches == 0 ? 0.0
                                : static_cast<double>(raw.ingress.frames) /
                                      static_cast<double>(raw.ingress.batches)},
      {"server.ingress.busy_cores", cores("server.ingress")},
      {"server.edge.delivery_ms_p50", Percentile(delivery, 50)},
      {"server.edge.delivery_ms_tail", Percentile(delivery, spec.tail_pct)},
      {"server.edge.admission_stall_retries_per_kevent", PerKEvent(stall_retries, events)},
      {"server.edge.shed_frames", shed},
      {"server.edge.shard_queue_depth_mean", Mean(raw.queue_depth)},
      {"server.edge.busy_cores", cores("server.edge")},
      {"control.close_ms_p50", Percentile(close, 50)},
      {"control.close_ms_tail", Percentile(close, spec.tail_pct)},
      {"control.backpressure_stalls_per_kevent", PerKEvent(stalls, events)},
      {"control.task_errors", task_errors},
      {"control.busy_cores", cores("control")},
      {"core.ticket_retire_cycles_p50",
       HistogramPercentile(hist("sbt_ticket_open_to_retire_cycles").buckets, 50)},
      {"core.commit_stall_cycles_per_kevent",
       PerKEvent(hist("sbt_ticket_commit_stall_cycles").sum, events)},
      {"core.ring_full_stalls", counter("sbt_ticket_ring_full_stalls_total")},
      {"core.combiner_chains_per_batch",
       combiner.count == 0 ? 0.0 : combiner.sum / static_cast<double>(combiner.count)},
      {"core.checkpoint_refusals", counter("sbt_checkpoint_refusals_total")},
      {"tz.switch_entries_per_kevent", PerKEvent(entries, events)},
      {"tz.ops_per_entry", entries == 0 ? 0.0 : ops / entries},
      {"tz.switch_cycles_per_event", PerEvent(switch_cycles, events)},
      {"tz.page_faults_per_kevent", PerKEvent(faults, events)},
      {"tz.pool_utilization_peak", util_peak},
      {"primitives.compute_cycles_per_event",
       PerEvent(std::max(0.0, in_tee - memmgmt - audit_cycles), events)},
      {"uarray.memmgmt_cycles_per_event", PerEvent(memmgmt, events)},
      {"uarray.arrays_per_kevent", PerKEvent(arrays, events)},
      {"uarray.live_arrays_end", live_arrays},
      {"attest.records_per_kevent", PerKEvent(records, events)},
      {"attest.audit_cycles_per_event", PerEvent(audit_cycles, events)},
      {"attest.upload_bytes_per_kevent", PerKEvent(static_cast<double>(ev.upload_bytes), events)},
      {"attest.compression_ratio",
       ev.upload_bytes == 0 ? 0.0 : static_cast<double>(ev.upload_raw_bytes) /
                                        static_cast<double>(ev.upload_bytes)},
      {"attest.verify_ms_per_kevent", PerKEvent(ev.verify_ms, events)},
      {"server.replication.checkpoint_ms_p50", Percentile(stack.checkpoint_ms, 50)},
      {"server.replication.checkpoint_ms_tail",
       Percentile(stack.checkpoint_ms, TailPercentile(stack.checkpoint_ms.size()))},
      {"server.replication.publish_ms_p50", Percentile(stack.publish_ms, 50)},
      {"server.replication.seal_bytes_per_kevent",
       PerKEvent(static_cast<double>(stack.seal_bytes), events)},
      {"server.replication.seals", static_cast<double>(seals)},
      {"server.replication.apply_failures",
       static_cast<double>(stack.seal_failures) +
           (stack.replica == nullptr
                ? 0.0
                : static_cast<double>(stack.seals_published - stack.replica->seals_applied()))},
  };
  for (size_t i = 0; i < traced_e2e.size() && i < untraced_e2e.size(); ++i) {
    const std::string& name = traced_e2e[i].first;
    const double cost = HigherIsBetter(name)
                            ? OverheadPct(untraced_e2e[i].second, traced_e2e[i].second)
                            : OverheadPct(traced_e2e[i].second, untraced_e2e[i].second);
    m.emplace_back("obs.trace_overhead_pct." + name, cost);
  }
  m.emplace_back("bench.failed_window_share",
                 ev.attempted == 0 ? 0.0
                                   : static_cast<double>(ev.failed) /
                                         static_cast<double>(ev.attempted));
  // Share of server CPU (process CPU minus the benchmark's own threads) that no thread
  // group accounts for.
  const int64_t server_ns = raw.process_cpu_ns - raw.generator_cpu_ns - raw.sampler_cpu_ns;
  m.emplace_back("bench.cpu_unaccounted_share",
                 server_ns <= 0 ? 0.0
                                : static_cast<double>(raw.process_cpu_ns - grouped_ns) /
                                      static_cast<double>(server_ns));
  m.emplace_back("bench.host_steal_pct", raw.steal_pct);
  return m;
}

MetricInfo InfoOf(const std::string& name) {
  static const std::map<std::string, MetricInfo> kInfo = {
      {"events_per_s", {"1/s", ""}},
      {"result_latency_p50_ms", {"ms", ""}},
      {"result_latency_tail_ms", {"ms", ""}},
      {"setup_s", {"s", ""}},
      {"server_cpu_ms_per_kevent", {"ms/kevent", ""}},
      {"secure_mem_peak_mb", {"MB", ""}},
      {"uplink_bytes_per_kevent", {"B/kevent", ""}},
      {"net.generator_late_ms_max", {"ms", "validity: large => this run's latencies invalid"}},
      {"net.send_blocked_s_per_mevent", {"s/Mevent", "events_per_s @bulk_saturate"}},
      {"net.generator_cpu_ms_per_kevent", {"ms/kevent", "subtracted from server_cpu"}},
      {"server.ingress.handshake_ms_p50", {"ms", "result_latency_*, server_cpu @sensor_herd"}},
      {"server.ingress.handshake_ms_tail", {"ms", "result_latency_*, server_cpu @sensor_herd"}},
      {"server.ingress.sessions_per_s", {"1/s", "result_latency_*, server_cpu @sensor_herd"}},
      {"server.ingress.sessions_rejected", {"count", "result_latency_*, server_cpu @sensor_herd"}},
      {"server.ingress.frames_per_batch", {"frames/batch", "server_cpu @sensor_herd; not @bulk"}},
      {"server.ingress.busy_cores", {"cores", "server_cpu @sensor_herd; not @bulk_saturate"}},
      {"server.edge.delivery_ms_p50", {"ms", "result_latency_p50_ms @sensor_herd"}},
      {"server.edge.delivery_ms_tail", {"ms", "result_latency_tail_ms @sensor_herd"}},
      {"server.edge.admission_stall_retries_per_kevent", {"1/kevent", "events_per_s @bulk"}},
      {"server.edge.shed_frames", {"count", "events_per_s @bulk_saturate"}},
      {"server.edge.shard_queue_depth_mean", {"frames", "result_latency @herd; events @bulk"}},
      {"server.edge.busy_cores", {"cores", "result_latency @herd; events_per_s @bulk"}},
      {"control.close_ms_p50", {"ms", "result_latency_p50_ms @replicated_mix"}},
      {"control.close_ms_tail", {"ms", "result_latency_tail_ms @replicated_mix"}},
      {"control.backpressure_stalls_per_kevent", {"1/kevent", "events_per_s @bulk_saturate"}},
      {"control.task_errors", {"count", "correctness (any non-zero fails windows)"}},
      {"control.busy_cores", {"cores", "result_latency @mix; events_per_s @bulk"}},
      {"core.ticket_retire_cycles_p50", {"cycles", "server_cpu, close_ms @mix; not @herd"}},
      {"core.commit_stall_cycles_per_kevent", {"cycles/kevent", "server_cpu, close_ms @mix"}},
      {"core.ring_full_stalls", {"count", "server_cpu, close_ms @mix; not @herd"}},
      {"core.combiner_chains_per_batch", {"chains/batch", "server_cpu @mix; not @herd"}},
      {"core.checkpoint_refusals", {"count", "result_latency_tail_ms @mix"}},
      {"tz.switch_entries_per_kevent", {"1/kevent", "server_cpu @mix; events_per_s @bulk"}},
      {"tz.ops_per_entry", {"ops/entry", "server_cpu @mix; events_per_s @bulk"}},
      {"tz.switch_cycles_per_event", {"cycles/event", "server_cpu @mix; events_per_s @bulk"}},
      {"tz.page_faults_per_kevent", {"1/kevent", "events_per_s, secure_mem_peak_mb @bulk"}},
      {"tz.pool_utilization_peak", {"share", "secure_mem_peak_mb @bulk_saturate"}},
      {"primitives.compute_cycles_per_event", {"cycles/event", "events_per_s @bulk; not @herd"}},
      {"uarray.memmgmt_cycles_per_event", {"cycles/event", "events_per_s @bulk_saturate"}},
      {"uarray.arrays_per_kevent", {"1/kevent", "events_per_s, secure_mem_peak_mb @bulk"}},
      {"uarray.live_arrays_end", {"count", "correctness (any non-zero fails the run)"}},
      {"attest.records_per_kevent", {"1/kevent", "uplink @herd; server_cpu @mix"}},
      {"attest.audit_cycles_per_event", {"cycles/event", "server_cpu @replicated_mix"}},
      {"attest.upload_bytes_per_kevent", {"B/kevent", "uplink_bytes_per_kevent @sensor_herd"}},
      {"attest.compression_ratio", {"ratio", "uplink_bytes_per_kevent @sensor_herd"}},
      {"attest.verify_ms_per_kevent", {"ms/kevent", "cloud-side cost (outside server_cpu)"}},
      {"server.replication.checkpoint_ms_p50", {"ms", "result_latency_tail_ms @mix"}},
      {"server.replication.checkpoint_ms_tail", {"ms", "result_latency_tail_ms @mix"}},
      {"server.replication.publish_ms_p50", {"ms", "result_latency_tail_ms @mix"}},
      {"server.replication.seal_bytes_per_kevent", {"B/kevent", "replication bytes @mix"}},
      {"server.replication.seals", {"count", "fixed by the seal schedule"}},
      {"server.replication.apply_failures", {"count", "correctness (must stay 0)"}},
      {"bench.failed_window_share", {"share", "correctness (must stay 0)"}},
      {"bench.cpu_unaccounted_share", {"share", "server CPU no thread group accounts for"}},
      {"bench.host_steal_pct", {"%", "validity: high => noisy host"}},
  };
  if (name.rfind("obs.trace_overhead_pct.", 0) == 0) {
    return {"%", "tracing cost on the named end-to-end metric"};
  }
  const auto it = kInfo.find(name);
  return it == kInfo.end() ? MetricInfo{"", ""} : it->second;
}

}  // namespace perfbench
