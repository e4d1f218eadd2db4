// End-to-end serving benchmark with per-layer attribution.
//
//   perfbench_e2e --workload <bulk_saturate|sensor_herd|replicated_mix> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end metrics. --trace 1
// runs it untraced and then traced with the same seed: the traced run records the benchmark's
// spans around every call it makes into a layer and groups per-thread CPU by the call that
// created each thread; it reports the per-layer metrics, the tracing overhead on every
// end-to-end metric, and checks that the seed reproduced the same counts. Every run checks
// every output; the last stdout line is one JSON object with the result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "perfbench/src/measure.h"
#include "perfbench/src/report.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 && args->seconds <= 120 &&
         (args->trace == 0 || args->trace == 1);
}

struct Phase {
  RunContext ctx;
  SpanLog spans;
  ThreadGroups groups;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  PhaseRaw raw;
  Evaluation ev;
  Metrics e2e;
};

std::unique_ptr<Phase> RunPhase(const WorkloadSpec& spec, const Args& args, const CpuSplit& cpus,
                                bool traced) {
  auto ph = std::make_unique<Phase>();
  ph->ctx = RunContext{.spec = &spec,
                       .seed = args.seed,
                       .seconds = args.seconds,
                       .spans = traced ? &ph->spans : nullptr,
                       .groups = traced ? &ph->groups : nullptr,
                       .generator_cpus = cpus.split ? &cpus.generator : nullptr};
  // setup_s is the median of several fresh set-ups: one set-up is a few milliseconds, the
  // scale of thread wake-ups, so a single one would not repeat within its bound. The host
  // drifts between fast and slow spells lasting seconds (the same set-up took 0.75 or 1.3 ms),
  // so half of them are timed before the measured phase and half after it.
  auto set_up = [&]() {
    const int64_t t0 = sbt::NowUs();
    auto stack = SetUp(ph->ctx);
    const int64_t dt = sbt::NowUs() - t0;
    if (!stack.ok()) {
      FailRun("set-up failed: " + stack.status().ToString(), 1);
    }
    ph->setup_s.push_back(static_cast<double>(dt) / 1e6);
    return std::move(*stack);
  };
  for (int i = 0; i < kSetups / 2; ++i) {
    TearDown(*set_up());
  }
  ph->stack = set_up();
  AttachStreams(ph->ctx, *ph->stack);
  ph->raw = RunMeasured(ph->ctx, *ph->stack);
  ph->ev = Evaluate(ph->ctx, *ph->stack, ph->raw);
  while (ph->setup_s.size() < static_cast<size_t>(kSetups)) {
    TearDown(*set_up());
  }
  ph->e2e = EndToEndMetrics(ph->ctx, ph->raw, ph->ev, Median(ph->setup_s));
  return ph;
}

void PrintPhase(const char* label, const Phase& ph) {
  const WorkloadSpec& spec = *ph.ctx.spec;
  const size_t n = ph.ev.split.latency_ms.size();
  std::printf("[%s] windows=%u engines=%zu events=%llu batches=%llu seals=%llu\n", label,
              ph.raw.windows, ph.ev.events_per_engine.size(),
              static_cast<unsigned long long>(ph.ev.events),
              static_cast<unsigned long long>(ph.raw.ingress.batches),
              static_cast<unsigned long long>(ph.stack->seals_published - ph.raw.seals_before));
  std::printf("[%s] latency from %s: n=%zu, tail = p%g (%zu samples beyond), misses=%zu\n",
              label, spec.open_loop ? "the schedule's due time" : "the watermark's send time", n,
              spec.tail_pct, SamplesBeyond(spec.tail_pct, n), ph.ev.split.misses);
  std::printf("[%s] setup_s = median of %zu fresh set-ups\n", label, ph.setup_s.size());
  std::printf("[%s] validity: generator_late_ms_max=%.3f seal_late_ms_max=%.3f "
              "host_steal_pct=%.2f\n",
              label, static_cast<double>(ph.raw.late_us_max) / 1e3,
              static_cast<double>(ph.raw.seal_late_us_max) / 1e3, ph.raw.steal_pct);
  for (const auto& [name, value] : ph.e2e) {
    std::printf("[%s] %-28s %16.4f %s\n", label, name.c_str(), value, InfoOf(name).unit);
  }
  std::printf("[%s] outputs: %zu of %zu windows checked OK%s\n", label,
              ph.ev.attempted - ph.ev.failed, ph.ev.attempted,
              ph.ev.correct() ? "" : " -- RUN FAILED");
  for (const std::string& p : ph.ev.problems) {
    std::printf("[%s] problem: %s\n", label, p.c_str());
  }
}

// A seed must reproduce the same counts. The closed loop's window count follows its speed,
// so there the per-window counts are compared.
std::vector<std::string> DeterminismProblems(const Phase& a, const Phase& b) {
  std::vector<std::string> out;
  const bool closed = !a.ctx.spec->open_loop;
  auto per_window = [&](const Phase& p, double v) {
    return closed && p.raw.windows > 0 ? v / p.raw.windows : v;
  };
  if (!closed && a.raw.windows != b.raw.windows) {
    out.push_back("seed reproduced a different window count");
  }
  for (const auto& [key, events] : a.ev.events_per_engine) {
    const auto it = b.ev.events_per_engine.find(key);
    if (it == b.ev.events_per_engine.end() ||
        per_window(a, static_cast<double>(events)) !=
            per_window(b, static_cast<double>(it->second))) {
      out.push_back("seed reproduced different events per engine");
    }
  }
  if (per_window(a, static_cast<double>(a.raw.ingress.batches)) !=
      per_window(b, static_cast<double>(b.raw.ingress.batches))) {
    out.push_back("seed reproduced a different coalesced batch count");
  }
  if (a.stack->seals_published - a.raw.seals_before !=
      b.stack->seals_published - b.raw.seals_before) {
    out.push_back("seed reproduced a different seal count");
  }
  return out;
}

void WriteTrace(const std::string& path, const SpanLog& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%lld,\"dur\":%lld,"
                 "\"args\":{\"tenant\":%u,\"engine\":%u,\"window\":%lld}}",
                 i == 0 ? "" : ",", s.name, s.tid, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us - s.start_us), s.tenant, s.engine,
                 static_cast<long long>(s.window));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void PrintResult(bool correct, size_t attempted, size_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A miss selected as a percentile has no finite value; report it as a huge one.
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 1e9;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), v, InfoOf(metrics[i].first).unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <bulk_saturate|sensor_herd|replicated_mix> --seed <n> "
                 "--seconds <1..120> --trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<WorkloadSpec> spec = MakeWorkload(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  // Every server thread is created by this thread (or one it creates), so pinning it here
  // keeps the whole program under test off the generator's CPU.
  const CpuSplit cpus = SplitCpus();
  if (cpus.split) {
    PinCallingThread(cpus.server);
  }
  std::printf("cpus: %d for the program under test, %d for the load generator\n",
              cpus.split ? CPU_COUNT(&cpus.server) : 0, cpus.split ? 1 : 0);

  const std::unique_ptr<Phase> untraced = RunPhase(*spec, args, cpus, /*traced=*/false);
  PrintPhase("untraced", *untraced);
  if (args.trace == 0) {
    PrintResult(untraced->ev.correct(), untraced->ev.attempted, untraced->ev.failed,
                untraced->e2e);
    return 0;
  }

  const std::unique_ptr<Phase> traced = RunPhase(*spec, args, cpus, /*traced=*/true);
  PrintPhase("traced", *traced);
  const std::vector<std::string> determinism = DeterminismProblems(*untraced, *traced);
  for (const std::string& p : determinism) {
    std::printf("[self-check] problem: %s\n", p.c_str());
  }
  const Metrics layers = PerLayerMetrics(traced->ctx, *traced->stack, traced->raw, traced->ev,
                                         traced->e2e, untraced->e2e);

  std::printf("\nper-layer table (%s, traced run)\n", spec->name.c_str());
  std::printf("%-48s %16s %-13s %s\n", "metric", "value", "unit", "should move");
  for (const auto& [name, value] : layers) {
    const MetricInfo info = InfoOf(name);
    std::printf("%-48s %16.4f %-13s %s\n", name.c_str(), value, info.unit, info.moves);
  }
  const double wall_s = static_cast<double>(traced->raw.t_end_us - traced->raw.t0_us) / 1e6;
  std::printf("\nCPU by thread group (created by), traced run, %.2f s:\n", wall_s);
  int64_t grouped = 0;
  for (const auto& [group, ns] : traced->raw.group_cpu_ns) {
    grouped += ns;
    std::printf("  %-22s %10.1f ms  %6.3f cores\n", group.c_str(), static_cast<double>(ns) / 1e6,
                static_cast<double>(ns) / 1e9 / wall_s);
  }
  std::printf("  %-22s %10.1f ms  (no thread group accounts for it)\n", "unaccounted",
              static_cast<double>(traced->raw.process_cpu_ns - grouped) / 1e6);
  if (!args.trace_out.empty()) {
    WriteTrace(args.trace_out, traced->spans);
    std::printf("spans: %zu written to %s\n", traced->spans.size(), args.trace_out.c_str());
  }

  const bool correct = untraced->ev.correct() && traced->ev.correct() && determinism.empty();
  PrintResult(correct, untraced->ev.attempted + traced->ev.attempted,
              untraced->ev.failed + traced->ev.failed, layers);
  return 0;
}
