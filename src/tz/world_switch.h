// World-switch (SMC) cost model and accounting.
//
// Every invocation of the data plane crosses the normal/secure boundary twice (entry + exit).
// On the paper's platform the hardware part is a few thousand cycles and most of the cost is
// OP-TEE's software path. The emulation burns a calibrated number of cycles at each crossing so
// that batching trade-offs (Figure 9) reproduce: with small input batches the switch rate is
// high and dominates; at >=128K events/batch compute is >90% of CPU time.
//
// The gate also keeps entry counters and cycle totals, which the run-time breakdown benchmarks
// read directly.

#ifndef SRC_TZ_WORLD_SWITCH_H_
#define SRC_TZ_WORLD_SWITCH_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "src/common/failpoint.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace sbt {

namespace ws_internal {

// How many threads currently hold an open world-switch session, across every gate in the
// process — the live view of the serial-section question ("is the boundary ever actually
// concurrent?"). One relaxed add per entry/exit.
inline obs::Gauge* OpenSessionsGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("sbt_world_switch_open_sessions");
  return gauge;
}

}  // namespace ws_internal

struct WorldSwitchConfig {
  // Cycles burned on entry (SMC trap + OP-TEE dispatch) and on exit (return path).
  // Defaults model the paper's observation that OP-TEE's software path dominates the cost
  // (the hardware SMC itself is only a few thousand cycles).
  uint64_t entry_cycles = 150000;
  uint64_t exit_cycles = 150000;

  static WorldSwitchConfig Disabled() { return WorldSwitchConfig{0, 0}; }
};

struct WorldSwitchStats {
  uint64_t entries = 0;
  uint64_t burned_cycles = 0;
  // Aborted-and-retried entries (SMC faults; only injected via the "world_switch.fault"
  // fail point in this emulation). Each fault burns one extra entry cost.
  uint64_t faults = 0;
  // Boundary operations annotated onto sessions (Session::Annotate). A call-per-primitive
  // boundary runs one op per entry; fused command-buffer submission amortizes many ops over a
  // single entry — the Figure 9 batching argument, made visible.
  uint64_t annotated_ops = 0;
  // Total in-TEE residency cycles observed through sessions: every annotated segment plus the
  // residual tail a session settles when it ends (destruction or being move-assigned over).
  uint64_t session_cycles = 0;

  double ops_per_entry() const {
    return entries == 0 ? 0.0 : static_cast<double>(annotated_ops) / static_cast<double>(entries);
  }
};

class WorldSwitchGate {
 public:
  explicit WorldSwitchGate(const WorldSwitchConfig& config = WorldSwitchConfig{})
      : config_(config) {}

  // RAII session: constructor pays the entry cost, destructor the exit cost. Move-assignable so
  // a long-lived session variable can be re-pointed at a fresh entry (the old session pays its
  // exit first, exactly as if it had gone out of scope).
  class Session {
   public:
    explicit Session(WorldSwitchGate* gate) : gate_(gate) {
      gate_->PayEntry();
      mark_ = ReadCycleCounter();
    }
    ~Session() {
      if (gate_ != nullptr) {
        Settle();
        gate_->PayExit();
      }
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    Session(Session&& other) noexcept : gate_(other.gate_), mark_(other.mark_) {
      other.gate_ = nullptr;
    }
    Session& operator=(Session&& other) noexcept {
      if (this != &other) {
        if (gate_ != nullptr) {
          // Settle before paying the exit: the cycles elapsed since the assigned-over
          // session's last annotation (its live mark_) would otherwise vanish from
          // WorldSwitchStats::session_cycles when mark_ is overwritten mid-flight.
          Settle();
          gate_->PayExit();
        }
        gate_ = other.gate_;
        mark_ = other.mark_;
        other.gate_ = nullptr;
      }
      return *this;
    }

    // Attributes the cycles elapsed since session entry (or since the previous annotation) to
    // boundary operation `op` — the registry's PrimitiveOp id, passed as its raw value so the
    // tz layer stays independent of the primitives layer. A fused command-buffer submission
    // annotates once per executed command; WorldSwitchStats::ops_per_entry() then reports how
    // many ops each world switch amortized over.
    void Annotate(uint16_t op) {
      if (gate_ == nullptr) {
        return;
      }
      const uint64_t now = ReadCycleCounter();
      gate_->AttributeOp(op, now - mark_);
      mark_ = now;
    }

   private:
    // Attributes the unannotated tail (cycles since mark_) to the gate's session residency
    // total. Called whenever the session ends while still attached to a gate.
    void Settle() {
      gate_->SettleResidual(ReadCycleCounter() - mark_);
      mark_ = 0;
    }

    WorldSwitchGate* gate_;
    uint64_t mark_ = 0;
  };

  Session Enter() { return Session(this); }

  WorldSwitchStats stats() const {
    WorldSwitchStats s;
    s.entries = entries_.load(std::memory_order_relaxed);
    s.burned_cycles = burned_.load(std::memory_order_relaxed);
    s.faults = faults_.load(std::memory_order_relaxed);
    s.annotated_ops = ops_.load(std::memory_order_relaxed);
    s.session_cycles = session_cycles_.load(std::memory_order_relaxed);
    return s;
  }

  // Cycles attributed to boundary op `op` via Session::Annotate (in-TEE execution time, not
  // switch burns). Slots alias above kOpCycleSlots; registry ids are far below it.
  uint64_t op_cycles(uint16_t op) const {
    return op_cycles_[op % kOpCycleSlots].load(std::memory_order_relaxed);
  }

  void ResetStats() {
    entries_.store(0, std::memory_order_relaxed);
    burned_.store(0, std::memory_order_relaxed);
    faults_.store(0, std::memory_order_relaxed);
    ops_.store(0, std::memory_order_relaxed);
    session_cycles_.store(0, std::memory_order_relaxed);
    for (auto& c : op_cycles_) {
      c.store(0, std::memory_order_relaxed);
    }
  }

  const WorldSwitchConfig& config() const { return config_; }

 private:
  static constexpr size_t kOpCycleSlots = 64;

  void AttributeOp(uint16_t op, uint64_t cycles) {
    ops_.fetch_add(1, std::memory_order_relaxed);
    op_cycles_[op % kOpCycleSlots].fetch_add(cycles, std::memory_order_relaxed);
    session_cycles_.fetch_add(cycles, std::memory_order_relaxed);
  }

  void SettleResidual(uint64_t cycles) {
    session_cycles_.fetch_add(cycles, std::memory_order_relaxed);
  }

  void PayEntry() {
    // An injected SMC fault aborts the entry after its cost is paid; the caller's trap is
    // re-issued, so the successful entry below pays the cost a second time.
    while (SBT_FAIL_POINT("world_switch.fault")) {
      faults_.fetch_add(1, std::memory_order_relaxed);
      Burn(config_.entry_cycles);
    }
    entries_.fetch_add(1, std::memory_order_relaxed);
    Burn(config_.entry_cycles);
    ws_internal::OpenSessionsGauge()->Add(1);
  }
  void PayExit() {
    ws_internal::OpenSessionsGauge()->Add(-1);
    Burn(config_.exit_cycles);
  }

  void Burn(uint64_t cycles) {
    if (cycles == 0) {
      return;
    }
    const uint64_t start = ReadCycleCounter();
    while (ReadCycleCounter() - start < cycles) {
      // Spin: models CPU time consumed by the OP-TEE switch path, attributable to this thread.
    }
    burned_.fetch_add(cycles, std::memory_order_relaxed);
  }

  WorldSwitchConfig config_;
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> burned_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> session_cycles_{0};
  std::array<std::atomic<uint64_t>, kOpCycleSlots> op_cycles_{};
};

}  // namespace sbt

#endif  // SRC_TZ_WORLD_SWITCH_H_
