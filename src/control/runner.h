// The untrusted control plane runtime (paper §4.2).
//
// The Runner orchestrates pipeline execution: it ingests frames, asks the data plane to segment
// them by window, fans the per-batch primitive chains out to a worker-thread pool, tracks
// watermarks, and — when a watermark closes a window — executes the per-window stage DAG and
// egresses the result. It holds *no* analytics data: everything it touches is an opaque
// reference. Scheduling, queues, and synchronization all live here, outside the TEE.
//
// Elastic parallelism with deterministic egress. Chains execute on `worker_threads` workers,
// concurrently and out of order (StreamBox-style elastic pipeline parallelism), yet everything
// externally visible is sequenced in *program order* — the order the control thread submitted
// work — via DataPlane execution tickets:
//   - every boundary operation gets a ticket at submission time; audit records commit to the
//     log in ticket order, and output uArray ids are reserved at ticket-open time;
//   - window closes execute out of order, but egress (keystream offsets, egress audit records,
//     result emission) is serialized by a watermark-ordered completion stage;
//   - worker lanes and window contribution order are fixed at submission time.
// Consequence: the audit hash chain, egress blobs, and the verifier's replay are byte-identical
// for every worker_threads value (property-tested, including under injected SMC faults). The
// execution schedule is invisible; only throughput changes.
//
// Consumption hints: intermediates are hinted into per-worker lanes (produced and consumed
// back-to-back), window contributions into per-window lanes (reclaimed together at close) —
// the placement strategy §6.2 describes. `use_hints=false` reproduces the Figure 10 baseline.

#ifndef SRC_CONTROL_RUNNER_H_
#define SRC_CONTROL_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/control/pipeline.h"
#include "src/core/data_plane.h"
#include "src/core/exec_knobs.h"
#include "src/obs/metrics.h"

namespace sbt {

struct RunnerConfig {
  // Execution knobs (src/core/exec_knobs.h): worker_threads (workers executing per-batch chains
  // and window-close chains, concurrently and out of order — egress and audit emission are
  // sequenced, so every worker count produces the same audit chain, egress blobs, and verifier
  // verdict) and fuse_chains (per-batch chains and the window-close DAG go through one
  // DataPlane::Submit each, one world switch per chain, instead of one command per step).
  ExecutionKnobs knobs;
  IngestPath ingest_path = IngestPath::kTrustedIo;
  bool use_hints = true;
  // Backpressure: stall ingestion while the data plane reports high pool utilization.
  bool block_on_backpressure = true;
  // Label set stamped onto this runner's registry instruments (the server sets tenant/shard;
  // harnesses leave it empty for unlabeled process-wide series). Worker-task counters add a
  // per-worker "worker" label on top.
  obs::MetricLabels metric_labels;
};

struct WindowResult {
  uint32_t window_index = 0;
  std::vector<EgressBlob> blobs;
  ProcTimeUs watermark_time = 0;
  ProcTimeUs egress_time = 0;

  // Clamped at 0: clock skew between the watermark and egress timestamps (coarse clocks in
  // tests, NTP steps in deployment) must not underflow into a bogus multi-day delay.
  uint32_t delay_ms() const {
    return egress_time >= watermark_time
               ? static_cast<uint32_t>((egress_time - watermark_time) / 1000)
               : 0;
  }
};

class Runner {
 public:
  Runner(DataPlane* data_plane, Pipeline pipeline, RunnerConfig config);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // Ingests one event frame (bytes of `pipeline.event_size()` events). Blocks under
  // backpressure. Thread-compatible: one ingesting thread per stream. `segments` carries the
  // keystream runs of a coalesced network frame (see DataPlane::IngestBatch); empty for the
  // single-run frames every in-process producer emits.
  Status IngestFrame(std::span<const uint8_t> frame, uint16_t stream = 0,
                     uint64_t ctr_offset = 0, std::span<const FrameSegment> segments = {});

  // Advances the (global) watermark: all windows ending at or before `value` close and their
  // results are computed and egressed asynchronously. One watermarking thread per runner.
  Status AdvanceWatermark(EventTimeMs value);

  // Blocks until all queued work (chains + window closes) has finished, including work being
  // submitted by IngestFrame/AdvanceWatermark calls in flight when Drain is entered: each
  // submitter registers itself before touching window state, so Drain cannot slip through the
  // gap between a window being marked for close and its close task reaching the queue.
  void Drain();

  // Removes and returns finished window results.
  std::vector<WindowResult> TakeResults();

  // The construction-time config (knob-observation tests read knobs through this).
  const RunnerConfig& config() const { return config_; }

  struct Stats {
    uint64_t events_ingested = 0;
    uint64_t frames_ingested = 0;
    uint64_t windows_emitted = 0;
    uint64_t task_errors = 0;
    uint32_t max_delay_ms = 0;
    uint64_t backpressure_stalls = 0;
  };
  Stats stats() const;

 private:
  // Engine-level checkpoint/restore goes through EngineLifecycle (src/control/lifecycle.h) —
  // the one entrypoint that seals runner state together with the paired data plane. These two
  // are its private halves; nothing else may seal a runner in isolation.
  friend class EngineLifecycle;

  // Serializes the quiesced control-plane state — open-window bookkeeping (contribution refs
  // per stream) and the cumulative counters — for inclusion in a sealed engine checkpoint.
  // Call after Drain() with no concurrent submitters; in-flight work fails with
  // kFailedPrecondition. The refs inside are opaque; only the paired DataPlane can resolve
  // them, so these bytes leak nothing even before sealing.
  Result<std::vector<uint8_t>> CheckpointState();

  // Restores CheckpointState bytes into this freshly constructed runner (same pipeline
  // declaration, a DataPlane restored from the matching checkpoint). kFailedPrecondition when
  // the runner already processed work; kDataLoss on malformed bytes.
  Status RestoreState(std::span<const uint8_t> bytes);

  // One per-batch contribution to a window. `order` fixes the contribution's position in the
  // close chain's input list independently of which worker finished first: restored
  // contributions keep their serialized order (indices below kLiveOrderBase), live ones sort by
  // their chain ticket.
  struct Contribution {
    uint64_t order = 0;
    OpaqueRef ref = 0;
  };
  static constexpr uint64_t kLiveOrderBase = 1ull << 48;

  struct WindowState {
    // Contributions per stream (index = stream id), appended in completion order and sorted by
    // `order` at close.
    std::vector<std::vector<Contribution>> contributions;
    int pending_chains = 0;
    bool close_requested = false;
    bool close_enqueued = false;
    ProcTimeUs watermark_time = 0;
    // Issued when the closing watermark arrives (valid iff close_requested): the close chain's
    // position in program order and its reserved stage-output ids.
    ExecTicket close_ticket;
  };

  // A window-close chain that finished executing and awaits sequenced egress.
  struct PendingClose {
    uint32_t window_index = 0;
    ExecTicket ticket;
    std::vector<OpaqueRef> egress_refs;  // final-stage outputs, egressed in this order
    ProcTimeUs watermark_time = 0;
    // False when the close chain failed: the ticket still retires (successors must not
    // stall) but no result is emitted for the window.
    bool chain_ok = true;
  };

  // RAII registration of an ingest/watermark call as an in-flight work submitter; Drain waits
  // for the count to reach zero alongside the queue emptying.
  class SubmitGuard {
   public:
    explicit SubmitGuard(Runner* runner);
    ~SubmitGuard();
    SubmitGuard(const SubmitGuard&) = delete;
    SubmitGuard& operator=(const SubmitGuard&) = delete;

   private:
    Runner* runner_;
  };

  void WorkerLoop(int worker_index);
  void Enqueue(std::function<void()> task);
  void RunChain(ExecTicket ticket, uint32_t worker_lane, OpaqueRef ref, uint32_t window_index,
                uint16_t stream);
  void CloseWindow(uint32_t window_index, WindowState state);
  // Parks an executed close and drains the completion stage: every close at the front of the
  // watermark order whose chain has finished is egressed, retired, and emitted — in order.
  // One thread at a time holds the drain turn (draining_closes_); egress itself runs with
  // cmu_ released, so parking a close or issuing close tickets never waits out an egress.
  void FinishClose(PendingClose close);
  // Egress + result emission for one close. Serialized by the drain turn, not by cmu_.
  void ProcessClose(PendingClose& close);
  void NoteError(const Status& status);
  HintRequest LaneHint(uint32_t lane) const {
    return config_.use_hints ? HintRequest::Parallel(lane) : HintRequest::None();
  }
  // Boundary submission for one chain buffer: a direct DataPlane::Submit under the chain's
  // ticket, which the caller retires. Hosts the runner.submit_stall test hook.
  Result<SubmitResponse> SubmitChain(const CmdBuffer& buffer, ExecTicket* ticket);

  DataPlane* dp_;
  Pipeline pipeline_;
  RunnerConfig config_;
  // The per-batch chain, compiled once at construction and stamped into a CmdBuffer per
  // segment (fused mode).
  CmdChainTemplate chain_template_;

  // Task pool.
  std::mutex qmu_;
  std::condition_variable qcv_;
  std::condition_variable drain_cv_;
  std::deque<std::function<void()>> queue_;
  int active_tasks_ = 0;
  int pending_submits_ = 0;  // IngestFrame/AdvanceWatermark calls between entry and last Enqueue
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Window bookkeeping.
  std::mutex wmu_;
  std::map<uint32_t, WindowState> windows_;

  // Watermark-ordered completion stage. close_order_ holds close-ticket seqs in issue
  // (= watermark) order; finished_closes_ parks executed closes until their turn. Egress for
  // the front of the order runs under cmu_, so keystream offsets, egress audit records, and
  // result emission are always in watermark order no matter which worker finished when.
  std::mutex cmu_;
  std::deque<uint64_t> close_order_;
  std::map<uint64_t, PendingClose> finished_closes_;
  bool draining_closes_ = false;  // guarded by cmu_: one drain turn-holder at a time

  // Backpressure: ingest waits here instead of spinning; workers notify after each task (chain
  // completions are what reclaim pool memory).
  std::mutex bp_mu_;
  std::condition_variable bp_cv_;

  // Results.
  std::mutex rmu_;
  std::vector<WindowResult> results_;

  // Registry instruments, interned once at construction (registry pointers are stable for the
  // process lifetime). Depth gauges are written under the lock already guarding the structure
  // they measure, so readers see a value some writer actually observed.
  obs::Gauge* m_queue_depth_ = nullptr;      // task-pool depth; written under qmu_
  obs::Gauge* m_finished_closes_ = nullptr;  // parked completion-stage closes; under cmu_

  std::atomic<uint64_t> events_ingested_{0};
  std::atomic<uint64_t> frames_ingested_{0};
  std::atomic<uint64_t> windows_emitted_{0};
  std::atomic<uint64_t> task_errors_{0};
  std::atomic<uint32_t> max_delay_ms_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};
  std::atomic<uint32_t> next_worker_lane_{0};
};

}  // namespace sbt

#endif  // SRC_CONTROL_RUNNER_H_
