#include "src/control/runner.h"

#include <algorithm>
#include <string>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/core/checkpoint.h"
#include "src/obs/trace.h"

namespace sbt {
namespace {

// Lane bases keep intermediate, contribution, and close-stage uArrays in disjoint uGroup chains.
constexpr uint32_t kWorkerLaneBase = 1u << 16;
constexpr uint32_t kWindowLaneBase = 2u << 16;
constexpr uint32_t kCloseLaneBase = 3u << 16;
constexpr uint32_t kSegmentLaneBase = 4u << 16;
constexpr uint32_t kLaneSlots = 512;

// Leading marker of serialized runner state ("SBTR").
constexpr uint32_t kRunnerStateMagic = 0x52544253u;

}  // namespace

Runner::Runner(DataPlane* data_plane, Pipeline pipeline, RunnerConfig config)
    : dp_(data_plane), pipeline_(std::move(pipeline)), config_(config) {
  SBT_CHECK(config_.knobs.worker_threads > 0);
  // Compile the per-batch chain once; RunChain stamps it into a CmdBuffer per segment.
  chain_template_ = pipeline_.CompileBatchChain();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  m_queue_depth_ = reg.GetGauge("sbt_runner_queue_depth", config_.metric_labels);
  m_finished_closes_ = reg.GetGauge("sbt_runner_finished_closes", config_.metric_labels);
  workers_.reserve(config_.knobs.worker_threads);
  for (int i = 0; i < config_.knobs.worker_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    stopping_ = true;
  }
  qcv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void Runner::WorkerLoop(int worker_index) {
  // Per-worker task counter: the runner's labels plus this worker's index, interned once per
  // thread — the per-worker load-balance view the aggregate counters cannot show.
  obs::MetricLabels labels = config_.metric_labels;
  labels.emplace_back("worker", std::to_string(worker_index));
  obs::Counter* tasks_done =
      obs::MetricsRegistry::Global().GetCounter("sbt_runner_worker_tasks_total", labels);
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(qmu_);
      qcv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) {
        return;
      }
      // LIFO pickup: newest task first, like StreamBox's dynamic scheduler (cache-hot batches
      // win; consumption start times of sibling outputs then vary widely — paper §6.2).
      task = std::move(queue_.back());
      queue_.pop_back();
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      ++active_tasks_;
    }
    task();
    tasks_done->Add(1);
    // Chain completions retire uArrays and free pool pages: wake any ingest stalled on
    // backpressure so it re-checks utilization instead of sleeping out its poll interval.
    // (Skipped entirely when nothing can ever wait — the flag is immutable.)
    if (config_.block_on_backpressure) {
      bp_cv_.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(qmu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

Runner::SubmitGuard::SubmitGuard(Runner* runner) : runner_(runner) {
  std::lock_guard<std::mutex> lock(runner_->qmu_);
  ++runner_->pending_submits_;
}

Runner::SubmitGuard::~SubmitGuard() {
  bool drained;
  {
    std::lock_guard<std::mutex> lock(runner_->qmu_);
    --runner_->pending_submits_;
    drained = runner_->pending_submits_ == 0 && runner_->queue_.empty() &&
              runner_->active_tasks_ == 0;
  }
  if (drained) {
    runner_->drain_cv_.notify_all();
  }
}

void Runner::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    queue_.push_back(std::move(task));
    m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  qcv_.notify_one();
}

void Runner::NoteError(const Status& status) {
  if (task_errors_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // First failure in this runner: flush the flight recorder (no-op unless SBT_TRACE_DUMP is
    // set) while the events surrounding the failure are still in the rings.
    obs::Tracer::Global().DumpIfConfigured();
  }
  SBT_LOG(Error) << "runner task failed: " << status.ToString();
}

Result<SubmitResponse> Runner::SubmitChain(const CmdBuffer& buffer, ExecTicket* ticket) {
  // Test hook: parks a worker's chain (or close stage) before the boundary for as long as the
  // fail point stays armed, so a test can hold work back while it fills the retire ring.
  while (SBT_FAIL_POINT("runner.submit_stall")) {
  }
  return dp_->Submit(buffer, ticket);
}

Status Runner::IngestFrame(std::span<const uint8_t> frame, uint16_t stream,
                           uint64_t ctr_offset, std::span<const FrameSegment> segments) {
  // Registered before any window-state mutation so a concurrent Drain waits for the chain
  // tasks this call is about to enqueue.
  SubmitGuard submit(this);

  // Backpressure: stall the source while the secure pool is under pressure (paper §4.2).
  // Waits on a condition variable that workers signal after every task (chain completions are
  // what reclaim pool memory) rather than spinning; the timeout is a safety net against
  // reclaim paths that bypass the task pool.
  while (config_.block_on_backpressure && dp_->ShouldBackpressure()) {
    backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(bp_mu_);
    bp_cv_.wait_for(lock, std::chrono::milliseconds(1),
                    [this] { return !dp_->ShouldBackpressure(); });
  }

  // The frame's boundary work — ingress, segmentation, then one chain per segment — is
  // ticketed in submission order; workers may execute the chains in any order afterwards.
  ExecTicket frame_ticket = dp_->OpenTicket(0);
  SBT_TRACE_SPAN("frame.ingest", frame_ticket.seq, frame.size());
  auto ingested = dp_->IngestBatch(frame, pipeline_.event_size(), stream, config_.ingest_path,
                                   ctr_offset, &frame_ticket, segments);
  if (!ingested.ok()) {
    dp_->RetireTicket(frame_ticket);
    return ingested.status();
  }
  events_ingested_.fetch_add(ingested->elems, std::memory_order_relaxed);
  frames_ingested_.fetch_add(1, std::memory_order_relaxed);

  // Segment synchronously so window membership is final before any later watermark. Segment
  // outputs are handed to parallel chain workers -> consumed-in-parallel hint (one lane per
  // output; the data plane spreads them).
  InvokeRequest seg;
  seg.op = PrimitiveOp::kSegment;
  seg.inputs = {ingested->ref};
  seg.params.window_size_ms = pipeline_.window_size_ms();
  seg.params.window_slide_ms = pipeline_.window_slide_ms();
  seg.hint = LaneHint(kSegmentLaneBase +
                      (next_worker_lane_.load(std::memory_order_relaxed) * 7) % kLaneSlots);
  auto windowed = dp_->Invoke(seg, &frame_ticket);
  dp_->RetireTicket(frame_ticket);
  if (!windowed.ok()) {
    return windowed.status();
  }

  // Chain tickets, worker lanes, and window membership are all fixed here, on the submitting
  // thread, in ascending window order (PrimSegment returns ascending) — the execution schedule
  // can no longer influence anything the audit stream or the close chains will see. Tickets
  // open before wmu_ is taken: OpenTicket waits while the retire ring is full, and the ticket
  // it waits for may be a close that only a worker holding wmu_ can queue.
  struct PlannedChain {
    ExecTicket ticket;
    uint32_t lane = 0;
    OpaqueRef ref = 0;
    uint32_t win_no = 0;
  };
  std::vector<PlannedChain> chains;
  chains.reserve(windowed->outputs.size());
  const uint32_t chain_ids = static_cast<uint32_t>(pipeline_.batch_chain().size());
  for (const OutputInfo& out : windowed->outputs) {
    PlannedChain chain;
    chain.ticket = dp_->OpenTicket(chain_ids);
    chain.lane = kWorkerLaneBase +
                 next_worker_lane_.fetch_add(1, std::memory_order_relaxed) % kLaneSlots;
    chain.ref = out.ref;
    chain.win_no = out.win_no;
    chains.push_back(std::move(chain));
  }
  {
    std::lock_guard<std::mutex> lock(wmu_);
    for (const PlannedChain& chain : chains) {
      WindowState& ws = windows_[chain.win_no];
      if (ws.contributions.empty()) {
        ws.contributions.resize(pipeline_.num_streams());
      }
      ++ws.pending_chains;
    }
  }
  for (PlannedChain& chain : chains) {
    Enqueue([this, c = std::move(chain), stream]() mutable {
      RunChain(std::move(c.ticket), c.lane, c.ref, c.win_no, stream);
    });
  }
  return OkStatus();
}

void Runner::RunChain(ExecTicket ticket, uint32_t worker_lane, OpaqueRef ref,
                      uint32_t window_index, uint16_t stream) {
  SBT_TRACE_SPAN("chain.run", ticket.seq, window_index);
  OpaqueRef cur = ref;
  const auto& chain = pipeline_.batch_chain();
  // Hints are identical in both modes — intermediates in the worker's lane, the final
  // contribution in its window's lane so the whole window reclaims together at close — which
  // keeps the audit stream byte-identical between them.
  auto step_hint = [&](size_t i) {
    const bool last = (i + 1 == chain.size());
    return LaneHint(last ? kWindowLaneBase + window_index % kLaneSlots : worker_lane);
  };
  // A failed chain must still flow through the bookkeeping below: skipping the
  // pending_chains decrement would wedge the window forever (never closeable, runner never
  // checkpointable again after one transient allocation failure). The window closes with the
  // contributions that DID arrive, and the verifier's replay flags the gap — attestation, not
  // silence, is how lost data surfaces.
  bool chain_ok = true;
  if (config_.knobs.fuse_chains && !chain.empty()) {
    // Fused: the compiled template stamps slot-chained commands over this segment's ref and
    // the whole chain crosses the TEE boundary once.
    const CmdBuffer buffer = chain_template_.Stamp(ref, step_hint);
    auto resp = SubmitChain(buffer, &ticket);
    if (!resp.ok()) {
      NoteError(resp.status());
      chain_ok = false;
    } else if (resp->outputs.back().empty() || resp->outputs.back()[0].ref == 0) {
      NoteError(Internal("fused chain exported no contribution ref"));
      chain_ok = false;
    } else {
      cur = resp->outputs.back()[0].ref;
    }
  } else {
    for (size_t i = 0; i < chain.size(); ++i) {
      // One-command buffer, exactly what Invoke stamps internally. The ticket spans the whole
      // chain and retires below, after the last step.
      CmdBuffer one;
      one.Push(CmdBuffer::Entry{chain[i].op, {cur}, chain[i].params, step_hint(i)});
      auto resp = SubmitChain(one, &ticket);
      if (!resp.ok()) {
        NoteError(resp.status());
        chain_ok = false;
        break;
      }
      cur = resp->outputs[0][0].ref;
    }
  }

  if (!chain_ok) {
    // Release the orphaned ref — the last live intermediate (unfused), or the chain head when
    // the first command failed. A head already consumed inside a fused chain makes this a
    // harmless NotFound; without it every failed chain would pin pool memory forever and be
    // sealed into every later checkpoint.
    (void)dp_->Release(cur);
  }
  // The chain's staged records (its executed prefix, on failure) commit in program order.
  dp_->RetireTicket(ticket);

  bool do_close = false;
  WindowState closing;
  {
    std::lock_guard<std::mutex> lock(wmu_);
    auto it = windows_.find(window_index);
    SBT_CHECK(it != windows_.end());
    WindowState& ws = it->second;
    if (chain_ok) {
      // Ordered by chain ticket: the close chain's input list (and hence its audit records)
      // sees contributions in submission order, not completion order.
      ws.contributions[stream].push_back(Contribution{kLiveOrderBase + ticket.seq, cur});
    }
    --ws.pending_chains;
    if (ws.close_requested && !ws.close_enqueued && ws.pending_chains == 0) {
      ws.close_enqueued = true;
      do_close = true;
      closing = std::move(ws);
      windows_.erase(it);
    }
  }
  if (do_close) {
    Enqueue([this, window_index, state = std::move(closing)]() mutable {
      CloseWindow(window_index, std::move(state));
    });
  }
}

Status Runner::AdvanceWatermark(EventTimeMs value) {
  // Registered before windows are marked close_enqueued: without this a Drain racing the gap
  // between releasing wmu_ and Enqueue below would see an empty queue and miss the close.
  SubmitGuard submit(this);
  {
    ExecTicket wm_ticket = dp_->OpenTicket(0);
    const Status s = dp_->IngestWatermark(value, 0, &wm_ticket);
    dp_->RetireTicket(wm_ticket);
    SBT_RETURN_IF_ERROR(s);
  }
  const ProcTimeUs now = NowUs();

  // Each window this watermark closes gets its close ticket NOW, in ascending window order —
  // that ticket carries the close chain's audit position and its reserved stage-output ids,
  // and its seq joins close_order_, the sequence the completion stage egresses in. The chains
  // still pending for a window all hold earlier tickets (membership was final at segment
  // time), so the close always commits after its inputs. As in IngestFrame, the tickets open
  // with no runner lock held (a full retire ring waits for a close that needs wmu_ to be
  // queued and cmu_ to egress); windows are marked only once their tickets exist, so a chain
  // finishing in between cannot queue a close that has no ticket yet.
  const auto stage_ids = static_cast<uint32_t>(pipeline_.window_stages().size());
  std::vector<uint32_t> closing;
  {
    std::lock_guard<std::mutex> lock(wmu_);
    for (const auto& [index, ws] : windows_) {
      if (pipeline_.WindowEnd(index) <= value && !ws.close_requested) {
        closing.push_back(index);
      }
    }
  }
  std::vector<ExecTicket> tickets;
  tickets.reserve(closing.size());
  for (size_t i = 0; i < closing.size(); ++i) {
    tickets.push_back(dp_->OpenTicket(stage_ids));
  }
  std::vector<std::pair<uint32_t, WindowState>> to_close;
  {
    std::lock_guard<std::mutex> lock(wmu_);
    std::lock_guard<std::mutex> order_lock(cmu_);
    for (size_t i = 0; i < closing.size(); ++i) {
      // Only this (single) submitting thread marks or erases an unmarked window.
      const auto it = windows_.find(closing[i]);
      SBT_CHECK(it != windows_.end());
      WindowState& ws = it->second;
      ws.close_requested = true;
      ws.watermark_time = now;
      ws.close_ticket = std::move(tickets[i]);
      close_order_.push_back(ws.close_ticket.seq);
      if (ws.pending_chains == 0) {
        ws.close_enqueued = true;
        to_close.emplace_back(it->first, std::move(ws));
        windows_.erase(it);
      }
    }
  }
  for (auto& [w, state] : to_close) {
    Enqueue([this, w = w, state = std::move(state)]() mutable {
      CloseWindow(w, std::move(state));
    });
  }
  return OkStatus();
}

void Runner::CloseWindow(uint32_t window_index, WindowState state) {
  SBT_TRACE_SPAN("window.close", state.close_ticket.seq, window_index);
  const auto& stages = pipeline_.window_stages();
  std::vector<std::vector<OpaqueRef>> stage_outputs(stages.size());
  const HintRequest close_hint = LaneHint(kCloseLaneBase + window_index % kLaneSlots);

  // Contributions arrived in completion order; the close chain consumes them in submission
  // order (restored ones first, then by chain ticket), so its inputs — and the audit records
  // naming them — are independent of the execution schedule.
  for (std::vector<Contribution>& stream_refs : state.contributions) {
    std::sort(stream_refs.begin(), stream_refs.end(),
              [](const Contribution& a, const Contribution& b) { return a.order < b.order; });
  }

  // Input gathering is shared between both boundary modes — the fused/unfused byte-equivalence
  // depends on them never diverging. `outputs_of(src)` abstracts the only difference: how a
  // producer stage's outputs are named (its table refs unfused, its command's slot ref fused).
  auto gather_inputs = [&](size_t j,
                           const std::function<std::vector<OpaqueRef>(int)>& outputs_of) {
    const WindowStageSpec& stage = stages[j];
    std::vector<OpaqueRef> inputs;
    for (int src : stage.input_stages) {
      if (src < 0) {
        for (size_t s = 0; s < state.contributions.size(); ++s) {
          if (stage.stream_filter >= 0 && static_cast<int>(s) != stage.stream_filter) {
            continue;
          }
          for (const Contribution& c : state.contributions[s]) {
            inputs.push_back(c.ref);
          }
        }
      } else if (static_cast<size_t>(src) < j) {
        const std::vector<OpaqueRef> from = outputs_of(src);
        inputs.insert(inputs.end(), from.begin(), from.end());
      }
    }
    return inputs;
  };

  // A slot ref names ONE output; every close stage is single-output (Pipeline::AtWindowClose
  // refuses kSegment), so any close DAG fuses.
  const bool fuse = config_.knobs.fuse_chains && !stages.empty();

  // The close chain itself executes HERE, on whatever worker picked this task up, possibly
  // while younger windows' closes are already done — out-of-order window execution is the
  // point. Only egress is deferred to the sequenced completion stage below. A failed chain
  // still reaches FinishClose: its ticket must retire (with the executed prefix's records) or
  // every younger close would stall behind it.
  bool chain_ok = true;
  if (fuse) {
    // The per-window DAG is forward dataflow, so the whole thing fuses into ONE submission:
    // stage j's inputs from stage src become slot refs naming src's command. (Fusing per
    // topologically-independent level would already amortize the switches; forward slot refs
    // subsume the levels entirely.) Stage skipping — a stage whose inputs are all empty — is
    // decided here, exactly as the unfused loop decides it.
    CmdBuffer buffer;
    std::vector<int> cmd_of(stages.size(), -1);  // stage -> command index, -1 = skipped
    for (size_t j = 0; j < stages.size(); ++j) {
      std::vector<OpaqueRef> inputs = gather_inputs(j, [&](int src) {
        return cmd_of[src] >= 0
                   ? std::vector<OpaqueRef>{MakeSlotRef(static_cast<uint32_t>(cmd_of[src]))}
                   : std::vector<OpaqueRef>{};
      });
      if (inputs.empty()) {
        continue;
      }
      CmdBuffer::Entry entry;
      entry.op = stages[j].op;
      entry.params = stages[j].params;
      entry.inputs = std::move(inputs);
      entry.hint = close_hint;
      buffer.Push(std::move(entry));
      cmd_of[j] = static_cast<int>(buffer.size()) - 1;
    }
    if (!buffer.empty()) {
      // The close ticket retires only in ProcessClose, after the sequenced egress.
      auto resp = SubmitChain(buffer, &state.close_ticket);
      if (!resp.ok()) {
        NoteError(resp.status());
        chain_ok = false;
      } else {
        for (size_t j = 0; j < stages.size(); ++j) {
          if (cmd_of[j] < 0) {
            continue;
          }
          for (const OutputInfo& out : resp->outputs[cmd_of[j]]) {
            if (out.ref != 0) {  // intermediates were consumed inside the TEE
              stage_outputs[j].push_back(out.ref);
            }
          }
        }
      }
    }
  } else {
    for (size_t j = 0; j < stages.size(); ++j) {
      std::vector<OpaqueRef> inputs =
          gather_inputs(j, [&](int src) { return stage_outputs[src]; });
      if (inputs.empty()) {
        continue;
      }
      CmdBuffer one;
      one.Push(CmdBuffer::Entry{stages[j].op, std::move(inputs), stages[j].params, close_hint});
      auto resp = SubmitChain(one, &state.close_ticket);
      if (!resp.ok()) {
        NoteError(resp.status());
        chain_ok = false;
        // Earlier stages' outputs that no later stage consumed are orphans now; release them
        // instead of pinning pool memory into every later checkpoint.
        for (size_t k = 0; k <= j; ++k) {
          for (OpaqueRef orphan : stage_outputs[k]) {
            (void)dp_->Release(orphan);
          }
        }
        break;
      }
      for (const OutputInfo& out : resp->outputs[0]) {
        stage_outputs[j].push_back(out.ref);
      }
    }
  }

  PendingClose close;
  close.window_index = window_index;
  close.ticket = std::move(state.close_ticket);
  close.watermark_time = state.watermark_time;
  close.chain_ok = chain_ok;
  if (chain_ok && !stages.empty()) {
    close.egress_refs = std::move(stage_outputs.back());
  }
  FinishClose(std::move(close));
}

void Runner::FinishClose(PendingClose close) {
  std::unique_lock<std::mutex> lock(cmu_);
  finished_closes_.emplace(close.ticket.seq, std::move(close));
  m_finished_closes_->Set(static_cast<int64_t>(finished_closes_.size()));
  if (draining_closes_) {
    return;  // the current turn-holder's loop will reach this close
  }
  // Drain the front of the watermark order: whoever parks the close that the order was
  // waiting on takes the drain turn and processes it AND every consecutive already-finished
  // successor, so closes are egressed strictly in watermark order without a dedicated thread.
  // cmu_ is released around each egress — only the turn flag serializes processing — so
  // watermark bookkeeping and other closes parking are never stalled behind crypto.
  draining_closes_ = true;
  while (!close_order_.empty()) {
    const auto it = finished_closes_.find(close_order_.front());
    if (it == finished_closes_.end()) {
      break;  // the front close is still executing on some worker
    }
    PendingClose ready = std::move(it->second);
    finished_closes_.erase(it);
    m_finished_closes_->Set(static_cast<int64_t>(finished_closes_.size()));
    close_order_.pop_front();
    lock.unlock();
    ProcessClose(ready);
    lock.lock();
  }
  draining_closes_ = false;
}

void Runner::ProcessClose(PendingClose& close) {
  SBT_TRACE_SPAN("close.emit", close.ticket.seq, close.window_index);
  if (!close.chain_ok) {
    // The chain's executed prefix was already audited; the window emits nothing. Retiring
    // unblocks every younger close behind this ticket.
    dp_->RetireTicket(close.ticket);
    return;
  }
  WindowResult result;
  result.window_index = close.window_index;
  result.watermark_time = close.watermark_time;
  bool egress_ok = true;
  for (size_t i = 0; i < close.egress_refs.size(); ++i) {
    auto blob = dp_->Egress(close.egress_refs[i], &close.ticket);
    if (!blob.ok()) {
      NoteError(blob.status());
      egress_ok = false;
      for (size_t k = i + 1; k < close.egress_refs.size(); ++k) {
        (void)dp_->Release(close.egress_refs[k]);
      }
      break;
    }
    result.blobs.push_back(std::move(*blob));
  }
  dp_->RetireTicket(close.ticket);
  if (!egress_ok) {
    return;
  }
  result.egress_time = NowUs();

  const uint32_t delay = result.delay_ms();
  uint32_t prev = max_delay_ms_.load(std::memory_order_relaxed);
  while (delay > prev &&
         !max_delay_ms_.compare_exchange_weak(prev, delay, std::memory_order_relaxed)) {
  }
  windows_emitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(rmu_);
    results_.push_back(std::move(result));
  }
}

void Runner::Drain() {
  // Condition-variable wait (no polling): notified by SubmitGuard releases and task
  // completions. Sequenced egress needs no extra condition here — a close parked in the
  // completion stage is always drained by the in-flight task of the close ahead of it, so
  // "queue empty + no active task" implies the completion stage is empty too.
  std::unique_lock<std::mutex> lock(qmu_);
  drain_cv_.wait(lock, [this] {
    return queue_.empty() && active_tasks_ == 0 && pending_submits_ == 0;
  });
}

Result<std::vector<uint8_t>> Runner::CheckpointState() {
  {
    std::lock_guard<std::mutex> lock(qmu_);
    if (!queue_.empty() || active_tasks_ != 0 || pending_submits_ != 0) {
      return FailedPrecondition("runner checkpoint with work in flight (call Drain first)");
    }
  }
  ByteWriter w;
  w.U32(kRunnerStateMagic);
  {
    std::lock_guard<std::mutex> lock(wmu_);
    w.U64(windows_.size());
    for (const auto& [index, ws] : windows_) {
      if (ws.pending_chains != 0) {
        return FailedPrecondition("runner checkpoint with pending per-batch chains");
      }
      w.U32(index);
      w.U8(ws.close_requested ? 1 : 0);
      w.U16(static_cast<uint16_t>(ws.contributions.size()));
      for (const std::vector<Contribution>& stream_refs : ws.contributions) {
        // Serialized in submission order (wire format: refs only); restore re-derives the
        // order from the position, so a restored engine's close chains consume contributions
        // exactly as the uninterrupted run would have.
        std::vector<Contribution> ordered = stream_refs;
        std::sort(ordered.begin(), ordered.end(),
                  [](const Contribution& a, const Contribution& b) {
                    return a.order < b.order;
                  });
        w.U64(ordered.size());
        for (const Contribution& c : ordered) {
          w.U64(c.ref);
        }
      }
    }
  }
  // Cumulative counters ride along so a restored engine reports session totals, not
  // per-incarnation fragments.
  w.U64(events_ingested_.load(std::memory_order_relaxed));
  w.U64(frames_ingested_.load(std::memory_order_relaxed));
  w.U64(windows_emitted_.load(std::memory_order_relaxed));
  w.U64(task_errors_.load(std::memory_order_relaxed));
  w.U32(max_delay_ms_.load(std::memory_order_relaxed));
  w.U64(backpressure_stalls_.load(std::memory_order_relaxed));
  // Lane counter too: hints are audited, so a restored engine must keep issuing the same lane
  // sequence an uninterrupted run would have.
  w.U32(next_worker_lane_.load(std::memory_order_relaxed));
  return w.Take();
}

Status Runner::RestoreState(std::span<const uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(wmu_);
    if (!windows_.empty()) {
      return FailedPrecondition("restore into a runner that already has window state");
    }
  }
  if (frames_ingested_.load(std::memory_order_relaxed) != 0 ||
      windows_emitted_.load(std::memory_order_relaxed) != 0) {
    return FailedPrecondition("restore into a runner that already processed work");
  }

  ByteReader r(bytes);
  const Status malformed = DataLoss("runner checkpoint state is malformed");
  uint32_t magic = 0;
  uint64_t window_count = 0;
  if (!r.U32(&magic) || magic != kRunnerStateMagic || !r.U64(&window_count)) {
    return malformed;
  }
  std::map<uint32_t, WindowState> windows;
  for (uint64_t i = 0; i < window_count; ++i) {
    uint32_t index = 0;
    uint8_t close_requested = 0;
    uint16_t streams = 0;
    if (!r.U32(&index) || !r.U8(&close_requested) || !r.U16(&streams) ||
        streams != pipeline_.num_streams()) {
      return malformed;
    }
    // A close-requested window can never legally appear in a checkpoint (CheckpointState
    // rejects pending chains, and a close-requested window with none left the map when its
    // close was enqueued). Restoring one would carry a default close ticket that could stall
    // the audit commit stream forever — reject the bytes instead.
    if (close_requested != 0) {
      return malformed;
    }
    WindowState ws;
    ws.contributions.resize(streams);
    for (uint16_t s = 0; s < streams; ++s) {
      uint64_t n = 0;
      if (!r.U64(&n)) {
        return malformed;
      }
      for (uint64_t k = 0; k < n; ++k) {
        OpaqueRef ref = 0;
        if (!r.U64(&ref)) {
          return malformed;
        }
        // Restored orders (< kLiveOrderBase) sort before any live chain's, preserving the
        // original submission order across the restore.
        ws.contributions[s].push_back(Contribution{k, ref});
      }
    }
    if (!windows.emplace(index, std::move(ws)).second) {
      return malformed;  // duplicate window index
    }
  }
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t emitted = 0;
  uint64_t errors = 0;
  uint32_t max_delay = 0;
  uint64_t stalls = 0;
  uint32_t next_lane = 0;
  if (!r.U64(&events) || !r.U64(&frames) || !r.U64(&emitted) || !r.U64(&errors) ||
      !r.U32(&max_delay) || !r.U64(&stalls) || !r.U32(&next_lane) || !r.exhausted()) {
    return malformed;
  }
  {
    std::lock_guard<std::mutex> lock(wmu_);
    windows_ = std::move(windows);
  }
  events_ingested_.store(events, std::memory_order_relaxed);
  frames_ingested_.store(frames, std::memory_order_relaxed);
  windows_emitted_.store(emitted, std::memory_order_relaxed);
  task_errors_.store(errors, std::memory_order_relaxed);
  max_delay_ms_.store(max_delay, std::memory_order_relaxed);
  backpressure_stalls_.store(stalls, std::memory_order_relaxed);
  next_worker_lane_.store(next_lane, std::memory_order_relaxed);
  return OkStatus();
}

std::vector<WindowResult> Runner::TakeResults() {
  std::lock_guard<std::mutex> lock(rmu_);
  std::vector<WindowResult> out;
  out.swap(results_);
  return out;
}

Runner::Stats Runner::stats() const {
  Stats s;
  s.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  s.frames_ingested = frames_ingested_.load(std::memory_order_relaxed);
  s.windows_emitted = windows_emitted_.load(std::memory_order_relaxed);
  s.task_errors = task_errors_.load(std::memory_order_relaxed);
  s.max_delay_ms = max_delay_ms_.load(std::memory_order_relaxed);
  s.backpressure_stalls = backpressure_stalls_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sbt
