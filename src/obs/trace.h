// Sampled flight recorder: bounded per-thread ring buffers of span events.
//
// Tracing is compiled in everywhere but costs one relaxed atomic load and a branch when
// disabled (the default: SBT_TRACE unset or 0). When enabled, events whose correlation
// ticket satisfies `seq % sample_every == 0` are recorded into the calling thread's ring —
// a fixed-capacity buffer that overwrites its oldest entries, so after a failure the rings
// hold the *most recent* window of activity (flight-recorder semantics, never unbounded
// growth). Ticketless events (checkpoints, unticketed boundary calls) use ticket 0, which
// every sampling rate accepts, so structural events are always present in an enabled trace.
//
// Each ring is guarded by its own mutex with exactly one writer (its thread), so recording
// is an uncontended lock — contention exists only against a concurrent Drain(), and the
// whole scheme is trivially TSan-clean. Rings are registered through shared_ptr, so events
// from exited threads survive until the next Drain().
//
// Events carry only names (static strings), ids, sizes and timestamps — never secure-world
// plaintext (DESIGN.md "Observability invariants"). Dumps are JSONL where each line is a
// Chrome trace-event object; tools/trace2chrome.py wraps a dump for chrome://tracing.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sbt {
namespace obs {

struct TraceEvent {
  const char* name = nullptr;  // static string, [a-z0-9._] only (emitted unescaped)
  uint64_t ts_us = 0;          // microseconds since process start (steady clock)
  uint64_t ticket = 0;         // correlation id: execution-ticket seq, 0 = structural
  uint64_t arg = 0;            // free-form: sizes, depths, chain/window ids
  uint32_t dur_us = 0;         // span duration; 0 for instants
  uint32_t tid = 0;            // small per-thread index (ring id), not the OS tid
  char phase = 'i';            // Chrome phase: 'X' complete span, 'i' instant
};

class Tracer {
 public:
  // Process-wide tracer; first use reads SBT_TRACE (sample-every, 0/unset = disabled),
  // SBT_TRACE_DUMP (JSONL dump path, appended to) and SBT_TRACE_RING (per-thread ring
  // capacity in events). Never destroyed.
  static Tracer& Global();

  bool enabled() const { return sample_every_.load(std::memory_order_relaxed) != 0; }

  // The whole-trace sampling decision: whether this ticket's events are recorded. Hot-path
  // cost when disabled is this load + branch. Modulo keeps every event of a sampled ticket,
  // so a chain's full lifecycle stays correlated instead of being sampled apart.
  bool ShouldSample(uint64_t ticket) const {
    const uint64_t n = sample_every_.load(std::memory_order_relaxed);
    return n != 0 && ticket % n == 0;
  }

  void SetSampleEvery(uint64_t n) { sample_every_.store(n, std::memory_order_relaxed); }
  uint64_t sample_every() const { return sample_every_.load(std::memory_order_relaxed); }

  // Applies to rings created after the call (tests shrink it, then record from a fresh
  // thread to exercise wraparound).
  void SetRingCapacity(size_t events);
  void SetDumpPath(std::string path);
  const std::string dump_path() const;

  void Record(const char* name, char phase, uint64_t ticket, uint64_t arg, uint64_t ts_us,
              uint32_t dur_us);

  void Instant(const char* name, uint64_t ticket, uint64_t arg = 0) {
    if (!ShouldSample(ticket)) return;
    Record(name, 'i', ticket, arg, NowMicros(), 0);
  }

  // Collects and clears every ring (chronological order), dropping rings whose threads have
  // exited. Events overwritten before a drain are gone — dropped() counts them.
  std::vector<TraceEvent> Drain();
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Appends the drained events as JSONL Chrome trace-event lines. DumpIfConfigured() is a
  // no-op (false) unless a dump path is set; safe to call from every exit path — repeated
  // calls append only events recorded since the previous drain.
  bool Dump(const std::string& path);
  bool DumpIfConfigured();

  static uint64_t NowMicros();

 private:
  struct Ring {
    std::mutex mu;
    std::vector<TraceEvent> events;  // ring storage, capacity `cap`
    size_t cap = 0;
    size_t next = 0;  // total records mod nothing; next slot = next % cap once full
    uint64_t overwritten = 0;
    uint32_t tid = 0;
    bool retired = false;  // owning thread exited; reap after next drain
  };
  struct RingHandle {
    std::shared_ptr<Ring> ring;
    ~RingHandle();
  };

  Tracer() = default;
  Ring* LocalRing();

  std::atomic<uint64_t> sample_every_{0};
  std::atomic<size_t> ring_cap_{4096};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_tid_{1};
  mutable std::mutex reg_mu_;  // guards rings_ and dump_path_
  std::vector<std::shared_ptr<Ring>> rings_;
  std::string dump_path_;
};

// RAII complete-span ('X') event. Sampling is decided at construction; a span that starts
// unsampled records nothing. set_arg() attaches a result computed inside the span.
class TraceSpan {
 public:
  TraceSpan(const char* name, uint64_t ticket, uint64_t arg = 0)
      : name_(name), ticket_(ticket), arg_(arg),
        active_(Tracer::Global().ShouldSample(ticket)) {
    if (active_) start_us_ = Tracer::NowMicros();
  }
  ~TraceSpan() {
    if (!active_) return;
    const uint64_t end = Tracer::NowMicros();
    Tracer::Global().Record(name_, 'X', ticket_, arg_, start_us_,
                            static_cast<uint32_t>(end - start_us_));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const char* name_;
  uint64_t ticket_;
  uint64_t arg_;
  uint64_t start_us_ = 0;
  bool active_;
};

#define SBT_OBS_CAT2(a, b) a##b
#define SBT_OBS_CAT(a, b) SBT_OBS_CAT2(a, b)

// Scoped span / instant event, correlated by ticket seq. `arg` must be a size, count, id or
// cycle value — never payload bytes.
#define SBT_TRACE_SPAN(name, ticket, arg) \
  ::sbt::obs::TraceSpan SBT_OBS_CAT(sbt_trace_span_, __LINE__)((name), (ticket), (arg))
#define SBT_TRACE_INSTANT(name, ticket, arg) \
  ::sbt::obs::Tracer::Global().Instant((name), (ticket), (arg))

}  // namespace obs
}  // namespace sbt

#endif  // SRC_OBS_TRACE_H_
