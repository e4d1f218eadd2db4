#include "perfbench/src/measure.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

namespace perfbench {
namespace {

constexpr int64_t kSendDeadlineUs = 30'000'000;  // one write or handshake
constexpr int64_t kDrainDeadlineUs = 30'000'000;  // ingress done, shutdown
constexpr int64_t kPollUs = 5'000;
constexpr int64_t kSampleUs = 50'000;
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
// The herd's senders and the sessions each keeps open at once: at most 4 (nproc) sessions.
constexpr size_t kHerdSenders = 2;
constexpr size_t kHerdSessionsPerSender = 2;

void SleepUntilUs(int64_t t_us) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::microseconds(t_us))));
}

// Lockstep for the closed loop: every device finishes window w before any starts w+1, and the
// last to arrive decides whether the run's time is up, so all devices send the same windows.
//
// The window is the closed loop's request. Before releasing the next window the last arriver
// waits until the queues the server exports as gauges are empty: shard queues, runner task
// queues, and closes parked for ordered egress. Without this the loop never lets the runner's
// queue drain, and because the runner picks up its newest task first, the oldest window close
// starves until input stops: every result then waits for the end of the run, and past 4096
// open tickets the engine deadlocks (see CHANGES.md).
class WindowBarrier {
 public:
  WindowBarrier(size_t parties, std::vector<sbt::obs::Gauge*> queue_depths)
      : parties_(parties), queue_depths_(std::move(queue_depths)) {}

  // True: stop after this window. nullopt: aborted or timed out.
  std::optional<bool> Arrive(int64_t stop_at_us, int64_t deadline_us) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      while (!CaughtUp()) {
        if (sbt::NowUs() > deadline_us) {
          aborted_ = true;
          cv_.notify_all();
          return std::nullopt;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      arrived_ = 0;
      stop_ = sbt::NowUs() >= stop_at_us;
      ++generation_;
      cv_.notify_all();
      return stop_;
    }
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::microseconds(deadline_us)));
    if (!cv_.wait_until(lock, deadline, [&] { return generation_ != gen || aborted_; }) ||
        aborted_) {
      return std::nullopt;
    }
    return stop_;
  }

  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  bool CaughtUp() const {
    for (const sbt::obs::Gauge* g : queue_depths_) {
      if (g->Value() > 0) {
        return false;
      }
    }
    return true;
  }

  const size_t parties_;
  const std::vector<sbt::obs::Gauge*> queue_depths_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;       // guarded by mu_
  uint64_t generation_ = 0;  // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  bool aborted_ = false;     // guarded by mu_
};

struct SenderOut {
  int64_t cpu_ns = 0;
  int64_t late_us_max = 0;
  int64_t blocked_us = 0;
  std::string error;
  SpanLog spans;
};

struct Schedule {
  const RunContext* ctx = nullptr;
  Stack* stack = nullptr;
  int64_t t0_us = 0;
  uint32_t windows = 0;  // open loop: windows in the schedule
  int64_t period_us = 0;
};

// bulk_saturate: each device sends its next frame as soon as its socket accepts it.
void ClosedLoopSender(const Schedule& s, DeviceRun& d, WindowBarrier& barrier, SenderOut& out) {
  const WorkloadSpec& spec = *s.ctx->spec;
  SpanLog* log = s.ctx->spans != nullptr ? &out.spans : nullptr;
  const uint32_t frames_per_window = spec.events_per_device_window / spec.frame_events;
  const int64_t stop_at =
      s.t0_us + (spec.warmup_ms + static_cast<int64_t>(s.ctx->seconds) * 1000) * 1000;
  SleepUntilUs(s.t0_us);
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t blocked0 = d.link->blocked_us();
  std::vector<uint8_t> frame;
  sbt::Status st = sbt::OkStatus();
  for (uint32_t w = 0; st.ok(); ++w) {
    d.refs.emplace_back();
    for (uint32_t f = 0; f < frames_per_window && st.ok(); ++f) {
      const uint64_t ctr =
          d.stream->Fill(w, f * spec.frame_events, spec.frame_events, &frame, &d.refs[w]);
      SpanScope span(log, "frame.write", d.plan->id, d.shard, w);
      st = d.link->SendData(ctr, frame, sbt::NowUs() + kSendDeadlineUs);
      d.events += spec.frame_events;
      ++d.frames;
    }
    if (st.ok()) {
      st = d.link->SendWatermark(static_cast<uint64_t>(w + 1) * spec.window_ms,
                                 sbt::NowUs() + kSendDeadlineUs);
      d.wm_sent_us.push_back(sbt::NowUs());
    }
    d.refs[w].Trim(d.plan->op);
    if (!st.ok()) {
      break;
    }
    const std::optional<bool> stop = barrier.Arrive(stop_at, sbt::NowUs() + kSendDeadlineUs);
    if (!stop.has_value()) {
      st = sbt::DeadlineExceeded("window barrier aborted or timed out");
    } else if (*stop) {
      break;
    }
  }
  if (st.ok()) {
    st = d.link->Bye(/*final=*/true, sbt::NowUs() + kSendDeadlineUs);
  }
  if (!st.ok()) {
    barrier.Abort();
    out.error = st.ToString();
  }
  out.blocked_us = d.link->blocked_us() - blocked0;
  out.cpu_ns = ThreadCpuNs() - cpu0;
}

// replicated_mix: one persistent session, frames paced evenly through each window and the
// closing watermark due at the window boundary.
void PacedSender(const Schedule& s, DeviceRun& d, SenderOut& out) {
  const WorkloadSpec& spec = *s.ctx->spec;
  SpanLog* log = s.ctx->spans != nullptr ? &out.spans : nullptr;
  const uint32_t frames_per_window = spec.events_per_device_window / spec.frame_events;
  SleepUntilUs(s.t0_us);
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t blocked0 = d.link->blocked_us();
  std::vector<uint8_t> frame;
  sbt::Status st = sbt::OkStatus();
  auto wait_due = [&](int64_t due) {
    SleepUntilUs(due);
    out.late_us_max = std::max(out.late_us_max, sbt::NowUs() - due);
  };
  for (uint32_t w = 0; w < s.windows && st.ok(); ++w) {
    d.refs.emplace_back();
    const int64_t start = s.t0_us + static_cast<int64_t>(w) * s.period_us;
    for (uint32_t f = 0; f < frames_per_window && st.ok(); ++f) {
      const uint64_t ctr =
          d.stream->Fill(w, f * spec.frame_events, spec.frame_events, &frame, &d.refs[w]);
      wait_due(start + static_cast<int64_t>(f) * s.period_us / frames_per_window);
      SpanScope span(log, "frame.write", d.plan->id, d.shard, w);
      st = d.link->SendData(ctr, frame, sbt::NowUs() + kSendDeadlineUs);
      d.events += spec.frame_events;
      ++d.frames;
    }
    d.refs[w].Trim(d.plan->op);
    if (st.ok()) {
      wait_due(start + s.period_us);
      st = d.link->SendWatermark(static_cast<uint64_t>(w + 1) * spec.window_ms,
                                 sbt::NowUs() + kSendDeadlineUs);
      d.wm_sent_us.push_back(sbt::NowUs());
    }
  }
  if (st.ok()) {
    st = d.link->Bye(/*final=*/true, sbt::NowUs() + kSendDeadlineUs);
  }
  out.error = st.ok() ? "" : st.ToString();
  out.blocked_us = d.link->blocked_us() - blocked0;
  out.cpu_ns = ThreadCpuNs() - cpu0;
}

// sensor_herd: at every window boundary this thread's devices take turns, a few sessions in
// flight at a time: each opens a fresh authenticated session, then uploads its readings, a
// watermark and its Bye in one write.
void HerdSender(const Schedule& s, std::vector<DeviceRun*> mine, SenderOut& out) {
  const WorkloadSpec& spec = *s.ctx->spec;
  SpanLog* log = s.ctx->spans != nullptr ? &out.spans : nullptr;
  const uint16_t port = s.stack->ingress->tcp_port();
  const int tid = CurrentTid();
  SleepUntilUs(s.t0_us);
  const int64_t cpu0 = ThreadCpuNs();
  std::vector<std::vector<uint8_t>> frames(mine.size());
  std::vector<uint64_t> ctrs(mine.size());
  std::vector<int64_t> started(mine.size());
  sbt::Status st = sbt::OkStatus();
  for (uint32_t w = 0; w < s.windows && st.ok(); ++w) {
    for (size_t i = 0; i < mine.size(); ++i) {
      DeviceRun& d = *mine[i];
      d.refs.emplace_back();
      ctrs[i] = d.stream->Fill(w, 0, spec.events_per_device_window, &frames[i], &d.refs[w]);
    }
    const int64_t due = s.t0_us + static_cast<int64_t>(w + 1) * s.period_us;
    SleepUntilUs(due);
    out.late_us_max = std::max(out.late_us_max, sbt::NowUs() - due);
    const int64_t deadline = sbt::NowUs() + kSendDeadlineUs;
    std::vector<size_t> active;  // devices with a session open
    std::vector<bool> uploaded(mine.size(), false);
    size_t next = 0;
    size_t finished = 0;
    while (st.ok() && finished < mine.size()) {
      while (st.ok() && active.size() < kHerdSessionsPerSender && next < mine.size()) {
        started[next] = sbt::NowUs();
        st = mine[next]->link->BeginConnect(port, (static_cast<uint64_t>(w) << 32) |
                                                      mine[next]->id);
        active.push_back(next++);
      }
      bool progressed = false;
      for (size_t a = 0; a < active.size() && st.ok();) {
        const size_t i = active[a];
        DeviceRun& d = *mine[i];
        if (!uploaded[i]) {
          bool open = false;
          st = d.link->AdvanceHandshake(&open);
          if (st.ok() && open) {
            if (log != nullptr) {
              log->push_back(Span{"session.handshake", d.plan->id, d.shard, w, started[i],
                                  sbt::NowUs(), tid});
            }
            SpanScope span(log, "frame.write", d.plan->id, d.shard, w);
            st = d.link->Upload(ctrs[i], frames[i], static_cast<uint64_t>(w + 1) * spec.window_ms,
                                /*final=*/w + 1 == s.windows, deadline);
            d.wm_sent_us.push_back(sbt::NowUs());
            d.events += spec.events_per_device_window;
            ++d.frames;
            uploaded[i] = true;
            progressed = true;
          }
          ++a;
          continue;
        }
        bool closed = false;
        st = d.link->AdvanceClose(&closed);
        if (!st.ok() || !closed) {
          ++a;
          continue;
        }
        ++finished;
        progressed = true;
        active.erase(active.begin() + static_cast<long>(a));
      }
      if (!progressed && st.ok() && !active.empty()) {
        if (sbt::NowUs() > deadline) {
          st = sbt::DeadlineExceeded("herd sessions did not finish before the deadline");
        }
        std::vector<pollfd> fds;
        for (size_t i : active) {
          fds.push_back(pollfd{mine[i]->link->fd(), POLLIN, 0});
        }
        (void)::poll(fds.data(), fds.size(), /*timeout_ms=*/1);
      }
    }
  }
  out.error = st.ok() ? "" : st.ToString();
  for (DeviceRun* d : mine) {
    out.blocked_us += d->link->blocked_us();
  }
  out.cpu_ns = ThreadCpuNs() - cpu0;
}

}  // namespace

PhaseRaw RunMeasured(const RunContext& ctx, Stack& stack) {
  const WorkloadSpec& spec = *ctx.spec;
  PhaseRaw raw;
  Schedule sched{.ctx = &ctx, .stack = &stack};
  sched.period_us = static_cast<int64_t>(spec.window_ms) * 1000;
  sched.windows =
      spec.open_loop ? (spec.warmup_ms + static_cast<uint32_t>(ctx.seconds) * 1000) / spec.window_ms
                     : 0;
  std::set<EngineKey> engines;
  for (const DeviceRun& d : stack.devices) {
    engines.insert(EngineKey{d.plan->id, d.shard});
  }
  const size_t expected_results = sched.windows * engines.size();

  // Threads: one per persistent session, or the herd's fixed sender pool.
  const size_t n_threads = spec.persistent_sessions ? stack.devices.size()
                                                    : kHerdSenders;
  std::vector<SenderOut> outs(n_threads);
  std::atomic<size_t> running{n_threads};
  // The closed loop's barrier reads the server's queue gauges (same names and labels the
  // server registers them under).
  std::vector<sbt::obs::Gauge*> queue_depths;
  sbt::obs::MetricsRegistry& registry = sbt::obs::MetricsRegistry::Global();
  if (!spec.open_loop) {
    for (const EngineKey& e : engines) {
      const sbt::obs::MetricLabels labels = {
          {"tenant", stack.ingress_registry.Find(e.tenant)->name},
          {"shard", std::to_string(e.shard)}};
      queue_depths.push_back(registry.GetGauge("sbt_runner_queue_depth", labels));
      queue_depths.push_back(registry.GetGauge("sbt_runner_finished_closes", labels));
    }
    for (uint32_t shard = 0; shard < spec.num_shards; ++shard) {
      queue_depths.push_back(
          registry.GetGauge("sbt_shard_queue_depth", {{"shard", std::to_string(shard)}}));
    }
  }
  WindowBarrier barrier(n_threads, std::move(queue_depths));
  sched.t0_us = sbt::NowUs() + 20'000;
  raw.t0_us = sched.t0_us;
  stack.seal_thread_cpu_ns = 0;
  stack.seal_bytes = 0;
  raw.seals_before = stack.seals_published;
  stack.checkpoint_ms.clear();
  stack.publish_ms.clear();

  std::vector<std::thread> senders;
  for (size_t t = 0; t < n_threads; ++t) {
    senders.emplace_back([&, t] {
      if (ctx.generator_cpus != nullptr) {
        PinCallingThread(*ctx.generator_cpus);
      }
      if (!spec.persistent_sessions) {
        std::vector<DeviceRun*> mine;
        for (size_t i = t; i < stack.devices.size(); i += n_threads) {
          mine.push_back(&stack.devices[i]);
        }
        HerdSender(sched, std::move(mine), outs[t]);
      } else if (spec.open_loop) {
        PacedSender(sched, stack.devices[t], outs[t]);
      } else {
        ClosedLoopSender(sched, stack.devices[t], barrier, outs[t]);
      }
      running.fetch_sub(1);
    });
  }

  std::atomic<bool> sampler_stop{false};
  std::thread sampler;
  if (ctx.groups != nullptr) {
    ctx.groups->MarkStart();
    sampler = std::thread([&] {
      if (ctx.generator_cpus != nullptr) {
        PinCallingThread(*ctx.generator_cpus);
      }
      const int64_t cpu0 = ThreadCpuNs();
      while (!sampler_stop.load()) {
        ctx.groups->Sample();
        std::this_thread::sleep_for(std::chrono::microseconds(kSampleUs));
      }
      raw.sampler_cpu_ns = ThreadCpuNs() - cpu0;
    });
  }
  raw.obs_before = registry.Snapshot();
  const HostCpu host0 = ReadHostCpu();
  SleepUntilUs(sched.t0_us);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t main_cpu0 = ThreadCpuNs();

  // The control thread: seals on the generator's clock (replicated_mix) and, when traced,
  // polls the shard queues. It is the only caller of Checkpoint and shard_snapshot.
  const int64_t seal_us = static_cast<int64_t>(spec.seal_every_ms) * 1000;
  const int64_t sched_end = sched.t0_us + static_cast<int64_t>(sched.windows) * sched.period_us;
  int64_t seal_round = 1;
  int64_t next_seal = seal_us > 0 && sched.t0_us + seal_us <= sched_end ? sched.t0_us + seal_us
                                                                          : kNever;
  int64_t next_poll = ctx.groups != nullptr ? sched.t0_us : kNever;
  const int64_t give_up = sched.t0_us + (ctx.seconds + 120) * 1'000'000ll;
  while (running.load() > 0 || next_seal != kNever) {
    SleepUntilUs(std::min({next_seal, next_poll, sbt::NowUs() + kPollUs}));
    const int64_t now = sbt::NowUs();
    if (now > give_up) {
      FailRun("generator did not finish its schedule", expected_results);
    }
    if (now >= next_seal) {
      raw.seal_late_us_max = std::max(raw.seal_late_us_max, now - next_seal);
      const int64_t window = (now - sched.t0_us) / sched.period_us;
      for (uint32_t shard = 0; shard < spec.num_shards; ++shard) {
        SealShard(ctx, stack, shard, window);
      }
      ++seal_round;
      next_seal = sched.t0_us + seal_round * seal_us;
      if (next_seal > sched_end) {
        next_seal = kNever;
      }
    }
    if (now >= next_poll) {
      for (uint32_t shard = 0; shard < spec.num_shards; ++shard) {
        raw.queue_depth.push_back(
            static_cast<double>(stack.server->shard_snapshot(shard).queue_depth));
      }
      next_poll = std::max(next_poll + kPollUs, now);
    }
  }
  const int64_t main_cpu_ns = ThreadCpuNs() - main_cpu0;
  for (std::thread& t : senders) {
    t.join();
  }
  for (SenderOut& out : outs) {
    raw.generator_cpu_ns += out.cpu_ns;
    raw.late_us_max = std::max(raw.late_us_max, out.late_us_max);
    raw.blocked_us += out.blocked_us;
    if (!out.error.empty()) {
      raw.errors.push_back("sender: " + out.error);
    }
    if (ctx.spans != nullptr) {
      ctx.spans->insert(ctx.spans->end(), out.spans.begin(), out.spans.end());
    }
  }
  raw.windows = static_cast<uint32_t>(stack.devices.front().refs.size());
  for (const DeviceRun& d : stack.devices) {
    if (d.refs.size() != raw.windows) {
      raw.errors.push_back("devices sent different window counts");
      break;
    }
  }

  const size_t attempted = raw.windows * engines.size();
  {
    SpanScope span(ctx.spans, "ingress.wait_done", 0, 0, -1);
    if (!stack.ingress->WaitAllDone(std::chrono::milliseconds(kDrainDeadlineUs / 1000)) &&
        raw.errors.empty()) {
      FailRun("ingress did not see every device finish before its deadline", attempted);
    }
  }
  stack.ingress->Stop();
  if (ctx.groups != nullptr) {
    ctx.groups->Sample();
  }
  {
    SpanScope span(ctx.spans, "server.shutdown", 0, 0, -1);
    raw.report = ShutdownWithin(*stack.server, kDrainDeadlineUs, &raw.shutdown_cpu_ns, attempted);
  }
  raw.t_end_us = sbt::NowUs();
  raw.process_cpu_ns = ProcessCpuNs() - cpu0;
  raw.steal_pct = StealPct(host0, ReadHostCpu());
  if (ctx.groups != nullptr) {
    sampler_stop.store(true);
    sampler.join();
    raw.group_cpu_ns = ctx.groups->Totals();
    raw.group_cpu_ns["control"] += raw.shutdown_cpu_ns;
    raw.group_cpu_ns["server.replication"] += stack.seal_thread_cpu_ns;
    raw.group_cpu_ns["bench.main"] += main_cpu_ns - stack.seal_thread_cpu_ns;
    raw.group_cpu_ns["net.generator"] += raw.generator_cpu_ns;
    raw.group_cpu_ns["bench.sampler"] += raw.sampler_cpu_ns;
  }
  raw.obs_after = registry.Snapshot();
  raw.ingress = stack.ingress->stats();
  if (stack.subscriber != nullptr) {
    stack.subscriber->Stop();
    stack.publisher->Stop();
  }
  return raw;
}

}  // namespace perfbench
