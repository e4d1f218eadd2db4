#include "src/core/data_plane.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>

#include "src/common/logging.h"

namespace sbt {
namespace {

// Ingress batches are placed in high-numbered per-stream lanes so they never share uGroups with
// computation outputs.
constexpr uint32_t kIngressLaneBase = 0x40000000u;

// Restored uArrays spread over a few lanes of their own: contributions of different windows
// must not serialize behind one uGroup tail, and the lanes keep them clear of post-restore
// ingress and computation groups.
constexpr uint32_t kRestoreLaneBase = 0x50000000u;
constexpr uint32_t kRestoreLanes = 16;

// Leading payload marker: detects key mixups (wrong tenant key decrypts to noise) before any
// per-entry parsing, on the off chance the MAC was also forged to match.
constexpr uint32_t kPayloadMagic = 0x43544253u;  // "SBTC"

// Cache maintenance on a world-shared buffer (OP-TEE flushes shared memory at the boundary so
// the secure side reads coherent data). On x86 we flush the same lines explicitly.
void FlushSharedBuffer(const uint8_t* data, size_t len) {
#if defined(__x86_64__)
  // Every other line: calibrated so the boundary-copy penalty lands in the paper's "up to ~20%"
  // band for ingestion-dominated pipelines (full per-line flushing overshoots on x86, whose
  // clflush is costlier than the A53's dc civac).
  for (size_t i = 0; i < len; i += 256) {
    __builtin_ia32_clflush(data + i);
  }
  __builtin_ia32_mfence();
#else
  (void)data;
  (void)len;
#endif
}

Status RequireInputCount(PrimitiveOp op, size_t count, size_t min_inputs, size_t max_inputs) {
  if (count < min_inputs || count > max_inputs) {
    return InvalidArgument("wrong number of inputs for " + std::string(PrimitiveOpName(op)));
  }
  return OkStatus();
}

// Marks a boundary op as inside the TEE for the checkpoint atomicity guard. The increment
// happens under the admission mutex: Checkpoint holds that mutex from its refusal decision
// through the end of the seal, so an op either increments before the decision (and the
// checkpoint refuses) or blocks here until the seal is done — never in between. The decrement
// needs no lock; a finishing op can only turn a refusal into a pass, never corrupt a seal.
class BoundaryGuard {
 public:
  BoundaryGuard(std::mutex* admission_mu, std::atomic<int>* count) : count_(count) {
    std::lock_guard<std::mutex> lock(*admission_mu);
    count_->fetch_add(1, std::memory_order_relaxed);
  }
  ~BoundaryGuard() { count_->fetch_sub(1, std::memory_order_relaxed); }
  BoundaryGuard(const BoundaryGuard&) = delete;
  BoundaryGuard& operator=(const BoundaryGuard&) = delete;

 private:
  std::atomic<int>* count_;
};

}  // namespace

void DataPlane::UpdateAdaptiveThreshold() {
  if (!config_.adaptive_backpressure) {
    return;
  }
  const double util = world_.PoolUtilization();
  const double prev = last_utilization_.exchange(util, std::memory_order_relaxed);
  double threshold = adaptive_threshold_.load(std::memory_order_relaxed);
  if (util > prev) {
    // Pool filling: tighten proportionally to the growth rate so the source slows before a
    // hard allocation failure.
    threshold -= 2.0 * (util - prev);
  } else {
    // Pool draining or steady: relax toward the configured ceiling.
    threshold += 0.01;
  }
  threshold = std::clamp(threshold, config_.adaptive_floor, config_.backpressure_threshold);
  adaptive_threshold_.store(threshold, std::memory_order_relaxed);
}

DataPlane::DataPlane(const DataPlaneConfig& config)
    : config_(config),
      world_(config.partition),
      gate_(config.switch_cost),
      alloc_(&world_, config.placement),
      ingress_cipher_(config.ingress_key,
                      std::span<const uint8_t>(config.ingress_nonce.data(), 12)),
      egress_cipher_(config.egress_key, std::span<const uint8_t>(config.egress_nonce.data(), 12)),
      epoch_us_(NowUs()) {
  adaptive_threshold_.store(config_.backpressure_threshold, std::memory_order_relaxed);
  // Intern the hot-path instruments once; every later update is a relaxed atomic on a cached
  // pointer. Labels (tenant/shard) come from whoever built the config.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  m_ticket_latency_cycles_ = reg.GetHistogram("sbt_ticket_open_to_retire_cycles",
                                              config_.metric_labels);
  m_ticket_reorder_depth_ = reg.GetHistogram("sbt_ticket_reorder_depth", config_.metric_labels);
  m_checkpoint_seal_cycles_ = reg.GetHistogram("sbt_checkpoint_seal_cycles",
                                               config_.metric_labels);
  m_checkpoint_refusals_ = reg.GetCounter("sbt_checkpoint_refusals_total",
                                          config_.metric_labels);
  // Reason-labeled refusal counters, one per admission guard, so delta-checkpoint cadence
  // tuning can see *which* guard keeps tripping (satellite of the failover work).
  const auto refusal_counter = [&reg, this](const char* reason) {
    obs::MetricLabels labels = config_.metric_labels;
    labels.emplace_back("reason", reason);
    return reg.GetCounter("sbt_checkpoint_refusals_total", labels);
  };
  m_refuse_inflight_ = refusal_counter("inflight_chain");
  m_refuse_ticket_ = refusal_counter("open_ticket");
  m_refuse_ring_ = refusal_counter("retire_ring");
  m_refuse_uarray_ = refusal_counter("open_uarray");
  m_commit_stall_cycles_ = reg.GetHistogram("sbt_ticket_commit_stall_cycles",
                                            config_.metric_labels);
  m_commit_batch_tickets_ = reg.GetHistogram("sbt_ticket_commit_batch_tickets",
                                             config_.metric_labels);
  m_ring_full_stalls_ = reg.GetCounter("sbt_ticket_ring_full_stalls_total",
                                       config_.metric_labels);
  ring_ = std::make_unique<TicketSlot[]>(kRingSlots);
  for (uint64_t i = 0; i < kRingSlots; ++i) {
    ring_[i].tag.store(SlotTag(i, kSlotFree), std::memory_order_relaxed);
  }
}

Result<PlacementHint> DataPlane::TranslateHint(
    const HintRequest& hint, AuditRecord* record,
    const std::function<Result<uint64_t>(OpaqueRef)>* resolve_slot) {
  switch (hint.kind) {
    case HintRequest::Kind::kNone:
      return PlacementHint::None();
    case HintRequest::Kind::kAfter: {
      uint64_t array_id = 0;
      if (IsSlotRef(hint.after) && resolve_slot != nullptr) {
        SBT_ASSIGN_OR_RETURN(array_id, (*resolve_slot)(hint.after));
      } else {
        SBT_ASSIGN_OR_RETURN(const OpaqueRefTable::Entry entry, refs_.Resolve(hint.after));
        array_id = entry.array_id;
      }
      record->hints.push_back(AuditHint::After(static_cast<uint32_t>(array_id)));
      return PlacementHint::After(array_id);
    }
    case HintRequest::Kind::kParallel:
      record->hints.push_back(AuditHint::Parallel(hint.lane));
      return PlacementHint::Parallel(hint.lane);
  }
  return InvalidArgument("unknown hint kind");
}

OutputInfo DataPlane::RegisterOutput(UArray* array, uint16_t stream, AuditRecord* record,
                                     uint32_t win_no) {
  const OpaqueRef ref = refs_.Register(array->id(), stream);
  record->outputs.push_back(static_cast<uint32_t>(array->id()));
  OutputInfo info;
  info.ref = ref;
  info.elems = array->size();
  info.win_no = win_no;
  return info;
}

void DataPlane::StampAndAppendLocked(AuditRecord record) {
  const uint64_t t0 = ReadCycleCounter();  // after acquisition: count work, not contention
  record.ts_ms = config_.logical_audit_timestamps
                     ? static_cast<uint32_t>(logical_ts_++)
                     : NowTs();
  audit_log_.push_back(std::move(record));
  audit_records_.fetch_add(1, std::memory_order_relaxed);
  audit_cycles_.fetch_add(ReadCycleCounter() - t0, std::memory_order_relaxed);
}

void DataPlane::AppendAudit(AuditRecord record, ExecTicket* ticket) {
  if (ticket != nullptr) {
    // Staged: the record reaches the log (and gets its timestamp) when the ticket commits in
    // program order, not when this out-of-order execution happened to produce it. Between
    // kOpen and kSlotRetired exactly one thread — the one executing this ticket's operation —
    // touches the slot, so no lock guards the vector. The kSlotRetired release-store publishes
    // the records to the frontier committer.
    ring_[ticket->seq & (kRingSlots - 1)].records.push_back(std::move(record));
    return;
  }
  std::lock_guard<std::mutex> lock(audit_mu_);
  StampAndAppendLocked(std::move(record));
}

ExecTicket DataPlane::OpenTicket(uint32_t reserve_ids) {
  ExecTicket ticket;
  // Program order comes from the caller (the control thread opens tickets in submission
  // order), so a relaxed increment suffices; ReserveIds is an atomic bump in the allocator.
  // Nothing here takes a lock.
  ticket.seq = next_ticket_seq_.fetch_add(1, std::memory_order_relaxed);
  if (reserve_ids > 0) {
    ticket.ids.next = alloc_.ReserveIds(reserve_ids);
    ticket.ids.end = ticket.ids.next + reserve_ids;
  }
  TicketSlot& slot = ring_[ticket.seq & (kRingSlots - 1)];
  const uint64_t want = SlotTag(ticket.seq, kSlotFree);
  if (slot.tag.load(std::memory_order_acquire) != want) {
    // Ring full: the slot's previous lap (seq - kRingSlots) has not committed yet. The opener
    // waits — the bounded buffer's natural backpressure on the control thread.
    m_ring_full_stalls_->Add(1);
    while (slot.tag.load(std::memory_order_acquire) != want) {
      std::this_thread::yield();
    }
  }
  slot.open_cycles = ReadCycleCounter();
  slot.tag.store(SlotTag(ticket.seq, kSlotOpen), std::memory_order_release);
  return ticket;
}

void DataPlane::RetireTicket(const ExecTicket& ticket) {
  TicketSlot& slot = ring_[ticket.seq & (kRingSlots - 1)];
  SBT_CHECK(slot.tag.load(std::memory_order_relaxed) == SlotTag(ticket.seq, kSlotOpen));
  m_ticket_latency_cycles_->Observe(ReadCycleCounter() - slot.open_cycles);
  // In-flight tickets at this instant IS the reorder-buffer depth: open, or retired but
  // blocked behind an open predecessor. The serial-section suspect, measured where it forms.
  const uint64_t depth = next_ticket_seq_.load(std::memory_order_relaxed) -
                         commit_next_seq_.load(std::memory_order_relaxed);
  m_ticket_reorder_depth_->Observe(depth);
  SBT_TRACE_INSTANT("ticket.retire", ticket.seq, depth);
  slot.tag.store(SlotTag(ticket.seq, kSlotRetired), std::memory_order_release);
  CommitFrontier();
}

void DataPlane::CommitFrontier() {
  // Frontier-commit election: whoever finds the frontier slot retired and wins commit_lock_
  // drains every contiguous retired slot into the log. The post-release re-check closes the
  // stranding race — a ticket that retires while the committer drains sees commit_lock_ held
  // and returns, so the committer must look at the new frontier again before leaving.
  while (true) {
    const uint64_t head = commit_next_seq_.load(std::memory_order_acquire);
    if (ring_[head & (kRingSlots - 1)].tag.load(std::memory_order_acquire) !=
        SlotTag(head, kSlotRetired)) {
      return;  // frontier still executing: its retiring thread will commit
    }
    if (commit_lock_.exchange(true, std::memory_order_acq_rel)) {
      return;  // a committer is draining; it re-checks after releasing
    }
    const uint64_t t0 = ReadCycleCounter();
    uint64_t committed = 0;
    {
      std::lock_guard<std::mutex> lock(audit_mu_);  // commit_lock_ before audit_mu_
      uint64_t seq = commit_next_seq_.load(std::memory_order_relaxed);
      while (true) {
        TicketSlot& slot = ring_[seq & (kRingSlots - 1)];
        if (slot.tag.load(std::memory_order_acquire) != SlotTag(seq, kSlotRetired)) {
          break;
        }
        for (AuditRecord& record : slot.records) {
          StampAndAppendLocked(std::move(record));
        }
        slot.records.clear();  // keeps capacity: the slot doubles as a staging arena
        slot.open_cycles = 0;
        slot.tag.store(SlotTag(seq + kRingSlots, kSlotFree), std::memory_order_release);
        ++seq;
        ++committed;
      }
      commit_next_seq_.store(seq, std::memory_order_release);
    }
    commit_lock_.store(false, std::memory_order_release);
    m_commit_stall_cycles_->Observe(ReadCycleCounter() - t0);
    m_commit_batch_tickets_->Observe(committed);
  }
}

size_t DataPlane::open_tickets() const {
  // Exact once the control plane has drained (the only caller that needs exactness —
  // Checkpoint under admission_mu_); a racy snapshot otherwise.
  return static_cast<size_t>(next_ticket_seq_.load(std::memory_order_relaxed) -
                             commit_next_seq_.load(std::memory_order_relaxed));
}

Result<DataPlane::ResolvedInput> DataPlane::ResolveTableInput(OpaqueRef ref) {
  SBT_ASSIGN_OR_RETURN(const OpaqueRefTable::Entry entry, refs_.Resolve(ref));
  UArray* array = alloc_.Find(entry.array_id);
  if (array == nullptr) {
    return Internal("live reference to reclaimed uArray");
  }
  return ResolvedInput{array, entry.stream};
}

Result<InvokeResponse> DataPlane::Invoke(const InvokeRequest& request, ExecTicket* ticket) {
  // A call-per-primitive invocation IS a one-command chain: routing it through Submit keeps
  // exactly one implementation of the boundary sequence (resolve, hint, dispatch, retire,
  // audit), so the two entry points cannot drift apart. For a single command the semantics
  // coincide — no slots exist, every output is registered, failure retires nothing.
  CmdBuffer buffer;
  buffer.Push(CmdBuffer::Entry{request.op, request.inputs, request.params, request.hint,
                               request.retire_inputs});
  SBT_ASSIGN_OR_RETURN(SubmitResponse submitted, Submit(buffer, ticket));
  InvokeResponse response;
  response.outputs = std::move(submitted.outputs[0]);
  return response;
}

Result<SubmitResponse> DataPlane::Submit(const CmdBuffer& buffer, ExecTicket* ticket) {
  if (buffer.empty()) {
    return InvalidArgument("empty command buffer");
  }
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  // The whole chain crosses the boundary once — this single session is the point of fusion.
  auto session = gate_.Enter();
  const uint64_t t0 = ReadCycleCounter();
  const std::vector<CmdBuffer::Entry>& cmds = buffer.entries();
  SBT_TRACE_SPAN("tee.chain", ticket != nullptr ? ticket->seq : 0, cmds.size());

  // Output of one executed command, addressable by later commands via its slot ref. The array
  // pointer is only valid until the slot is consumed (the consuming command retires it).
  struct Slot {
    UArray* array = nullptr;
    uint64_t array_id = 0;
    uint64_t elems = 0;
    uint16_t stream = 0;
    uint32_t win_no = 0;
    bool consumed = false;
  };
  std::vector<std::vector<Slot>> slots(cmds.size());

  auto fail = [&](Status status) -> Result<SubmitResponse> {
    // A failed chain reclaims every intermediate nothing consumed: the prefix's effects stand
    // (it executed and was audited, like the unfused prefix would be), but no half-built chain
    // state survives in the table or the pool.
    for (std::vector<Slot>& produced : slots) {
      for (Slot& slot : produced) {
        if (!slot.consumed) {
          alloc_.Retire(slot.array);
        }
      }
    }
    invoke_cycles_.fetch_add(ReadCycleCounter() - t0, std::memory_order_relaxed);
    return status;
  };

  for (size_t i = 0; i < cmds.size(); ++i) {
    const CmdBuffer::Entry& cmd = cmds[i];
    AuditRecord record;
    record.op = cmd.op;

    // Resolve operands: slot refs against this chain's earlier outputs, table refs as Invoke
    // would. Both validations happen before the command touches anything.
    auto find_slot = [&](OpaqueRef ref) -> Result<Slot*> {
      const uint32_t ci = SlotRefCommand(ref);
      const uint16_t oi = SlotRefOutput(ref);
      if (ci >= i || oi >= slots[ci].size()) {
        return InvalidArgument("forged or forward-pointing slot reference (rejected)");
      }
      Slot& slot = slots[ci][oi];
      if (slot.consumed) {
        return NotFound("slot reference already consumed within this chain");
      }
      return &slot;
    };
    std::vector<UArray*> inputs;
    std::vector<Slot*> slot_inputs(cmd.inputs.size(), nullptr);
    uint16_t stream = 0;
    for (size_t j = 0; j < cmd.inputs.size(); ++j) {
      const OpaqueRef ref = cmd.inputs[j];
      UArray* array = nullptr;
      uint16_t ref_stream = 0;
      if (IsSlotRef(ref)) {
        auto slot = find_slot(ref);
        if (!slot.ok()) {
          return fail(slot.status());
        }
        array = (*slot)->array;
        ref_stream = (*slot)->stream;
        slot_inputs[j] = *slot;
      } else {
        auto in = ResolveTableInput(ref);
        if (!in.ok()) {
          return fail(in.status());
        }
        array = in->array;
        ref_stream = in->stream;
      }
      if (j == 0) {
        stream = ref_stream;
      }
      inputs.push_back(array);
      record.inputs.push_back(static_cast<uint32_t>(array->id()));
    }
    record.stream = stream;

    PrimitiveContext ctx;
    ctx.alloc = &alloc_;
    ctx.generation = static_cast<uint64_t>(cmd.op);
    // A ticketed chain's outputs take the ids reserved at ticket-open time (program order), so
    // the audit stream cannot see which worker executed the chain, or when. The cursor lives in
    // the ticket: an unfused chain spans several Submit calls but one id sequence.
    ctx.ids = ticket != nullptr ? &ticket->ids : nullptr;
    const std::function<Result<uint64_t>(OpaqueRef)> resolve_hint_slot =
        [&](OpaqueRef ref) -> Result<uint64_t> {
      SBT_ASSIGN_OR_RETURN(Slot * slot, find_slot(ref));
      return slot->array_id;
    };
    {
      auto hint = TranslateHint(cmd.hint, &record, &resolve_hint_slot);
      if (!hint.ok()) {
        return fail(hint.status());
      }
      ctx.hint = *hint;
    }

    auto produced = Dispatch(cmd.op, cmd.params, ctx, inputs, &record);
    if (!produced.ok()) {
      return fail(produced.status());
    }
    session.Annotate(static_cast<uint16_t>(cmd.op));

    if (cmd.retire_inputs) {
      for (size_t j = 0; j < cmd.inputs.size(); ++j) {
        if (slot_inputs[j] != nullptr) {
          if (!slot_inputs[j]->consumed) {
            slot_inputs[j]->consumed = true;
            alloc_.Retire(inputs[j]);
          }
        } else {
          refs_.Remove(cmd.inputs[j]);
          alloc_.Retire(inputs[j]);
        }
      }
    }
    AppendAudit(std::move(record), ticket);
    for (const ProducedOutput& out : *produced) {
      slots[i].push_back(Slot{out.array, out.array->id(), out.array->size(), stream,
                              out.win_no, false});
    }
  }

  // Only chain-surviving outputs materialize as table refs for the normal world; everything a
  // later command consumed lived and died inside the TEE.
  SubmitResponse response;
  response.outputs.resize(cmds.size());
  for (size_t i = 0; i < cmds.size(); ++i) {
    for (Slot& slot : slots[i]) {
      OutputInfo info;
      info.elems = slot.elems;
      info.win_no = slot.win_no;
      if (!slot.consumed) {
        info.ref = refs_.Register(slot.array_id, slot.stream);
      }
      response.outputs[i].push_back(info);
    }
  }
  invoke_cycles_.fetch_add(ReadCycleCounter() - t0, std::memory_order_relaxed);
  return response;
}

Result<std::vector<DataPlane::ProducedOutput>> DataPlane::Dispatch(
    PrimitiveOp op, const InvokeParams& p, const PrimitiveContext& ctx,
    const std::vector<UArray*>& inputs, AuditRecord* record) {
  auto single_output = [&](Result<UArray*> out) -> Result<std::vector<ProducedOutput>> {
    if (!out.ok()) {
      return out.status();
    }
    record->outputs.push_back(static_cast<uint32_t>((*out)->id()));
    return std::vector<ProducedOutput>{ProducedOutput{*out, 0}};
  };

  switch (op) {
    case PrimitiveOp::kSegment: {
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      const SlidingWindowFn window_fn{
          p.window_size_ms,
          p.window_slide_ms == 0 ? p.window_size_ms : p.window_slide_ms};
      SBT_ASSIGN_OR_RETURN(auto segments, PrimSegment(ctx, *inputs[0], window_fn));
      std::vector<ProducedOutput> produced;
      produced.reserve(segments.size());
      for (const SegmentOutput& seg : segments) {
        record->outputs.push_back(static_cast<uint32_t>(seg.events->id()));
        record->win_nos.push_back(static_cast<uint16_t>(seg.window_index));
        produced.push_back(ProducedOutput{seg.events, seg.window_index});
      }
      return produced;
    }
    case PrimitiveOp::kFilterBand:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimFilterBand(ctx, *inputs[0], p.lo, p.hi));
    case PrimitiveOp::kSelect:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimSelect(ctx, *inputs[0], p.key));
    case PrimitiveOp::kProject:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimProject(ctx, *inputs[0]));
    case PrimitiveOp::kScale:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimScale(ctx, *inputs[0], p.factor));
    case PrimitiveOp::kSample:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimSample(ctx, *inputs[0], p.stride));
    case PrimitiveOp::kMinMax:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimMinMax(ctx, *inputs[0]));
    case PrimitiveOp::kHistogram:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(
          PrimHistogram(ctx, *inputs[0], p.hist_base, p.hist_width, p.hist_buckets));
    case PrimitiveOp::kSum:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimSum(ctx, *inputs[0]));
    case PrimitiveOp::kCount:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimCount(ctx, *inputs[0]));
    case PrimitiveOp::kSort:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimSort(ctx, *inputs[0]));
    case PrimitiveOp::kMerge:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 2, 2));
      return single_output(PrimMerge(ctx, *inputs[0], *inputs[1]));
    case PrimitiveOp::kMergeN: {
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 4096));
      std::vector<const UArray*> ins(inputs.begin(), inputs.end());
      return single_output(PrimMergeN(ctx, ins));
    }
    case PrimitiveOp::kSumCnt:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimSumCnt(ctx, *inputs[0]));
    case PrimitiveOp::kMergeSumCnt:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 2, 2));
      return single_output(PrimMergeSumCnt(ctx, *inputs[0], *inputs[1]));
    case PrimitiveOp::kTopK:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimTopKPerKey(ctx, *inputs[0], p.k));
    case PrimitiveOp::kUnique:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimUnique(ctx, *inputs[0]));
    case PrimitiveOp::kCountPerKey:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimCountPerKey(ctx, *inputs[0]));
    case PrimitiveOp::kMedian:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimMedianPerKey(ctx, *inputs[0]));
    case PrimitiveOp::kDedup:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimDedup(ctx, *inputs[0]));
    case PrimitiveOp::kJoin:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 2, 2));
      return single_output(PrimJoin(ctx, *inputs[0], *inputs[1]));
    case PrimitiveOp::kAverage:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimAverage(ctx, *inputs[0]));
    case PrimitiveOp::kEwma:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 2, 2));
      return single_output(PrimEwma(ctx, *inputs[0], *inputs[1], p.alpha_num, p.alpha_den));
    case PrimitiveOp::kConcat: {
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 4096));
      std::vector<const UArray*> ins(inputs.begin(), inputs.end());
      return single_output(PrimConcat(ctx, ins));
    }
    case PrimitiveOp::kCompact:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimCompact(ctx, *inputs[0]));
    case PrimitiveOp::kRekey:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimRekey(ctx, *inputs[0], p.shift));
    case PrimitiveOp::kAboveMean:
      SBT_RETURN_IF_ERROR(RequireInputCount(op, inputs.size(), 1, 1));
      return single_output(PrimAboveMean(ctx, *inputs[0]));
    case PrimitiveOp::kIngress:
    case PrimitiveOp::kEgress:
    case PrimitiveOp::kWatermark:
      break;
  }
  return InvalidArgument("not a dispatchable primitive");
}

Result<OutputInfo> DataPlane::IngestBatch(std::span<const uint8_t> frame, size_t elem_size,
                                          uint16_t stream, IngestPath path,
                                          uint64_t ctr_offset, ExecTicket* ticket,
                                          std::span<const FrameSegment> segments) {
  const uint64_t t0 = ReadCycleCounter();
  SBT_TRACE_SPAN("tee.ingest", ticket != nullptr ? ticket->seq : 0, frame.size());
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  auto session = gate_.Enter();

  if (elem_size == 0 || frame.size() % elem_size != 0) {
    return InvalidArgument("ingress frame is not a whole number of events");
  }
  // Segments describe keystream runs of a coalesced frame; they must tile the payload exactly
  // so no byte decrypts at an ambiguous offset (and none escapes decryption).
  size_t tiled = 0;
  for (const FrameSegment& seg : segments) {
    if (seg.byte_offset != tiled || seg.byte_len == 0) {
      return InvalidArgument("coalesced frame segments do not tile the payload");
    }
    tiled += seg.byte_len;
  }
  if (!segments.empty() && tiled != frame.size()) {
    return InvalidArgument("coalesced frame segments do not cover the payload");
  }
  UpdateAdaptiveThreshold();

  SBT_ASSIGN_OR_RETURN(
      UArray * batch,
      alloc_.Create(elem_size, UArrayScope::kStreaming,
                    PlacementHint::Parallel(kIngressLaneBase + stream)));

  Status copied;
  if (path == IngestPath::kViaOs) {
    // The untrusted OS received the frame; model the extra hop across the TEE boundary: a
    // staging copy into the OS-side shared buffer plus the cache maintenance OP-TEE performs on
    // world-shared memory before the secure side may read it.
    std::vector<uint8_t> staging(frame.begin(), frame.end());
    FlushSharedBuffer(staging.data(), staging.size());
    copied = batch->Append(staging.data(), staging.size());
  } else {
    // Trusted IO: the NIC DMA'd straight into secure memory; the single placement copy below is
    // what native reception would also pay.
    copied = batch->Append(frame.data(), frame.size());
  }
  if (!copied.ok()) {
    // A partially-grown batch must not outlive the failure: retiring it lets head reclaim free
    // its pages, otherwise a pool-exhausted ingest pins utilization at the ceiling forever and
    // backpressure can never clear (the source would stall indefinitely).
    alloc_.Retire(batch);
    return copied;
  }

  if (config_.decrypt_ingress) {
    if (segments.empty()) {
      ingress_cipher_.Crypt(
          std::span<uint8_t>(batch->mutable_data(), batch->size_bytes()), ctr_offset);
    } else {
      for (const FrameSegment& seg : segments) {
        ingress_cipher_.Crypt(
            std::span<uint8_t>(batch->mutable_data() + seg.byte_offset, seg.byte_len),
            seg.ctr_offset);
      }
    }
  }
  batch->Produce();

  AuditRecord record;
  record.op = PrimitiveOp::kIngress;
  record.stream = stream;
  const OutputInfo info = RegisterOutput(batch, stream, &record);
  AppendAudit(std::move(record), ticket);
  session.Annotate(static_cast<uint16_t>(PrimitiveOp::kIngress));
  invoke_cycles_.fetch_add(ReadCycleCounter() - t0, std::memory_order_relaxed);
  return info;
}

Status DataPlane::IngestWatermark(EventTimeMs value, uint16_t stream, ExecTicket* ticket) {
  SBT_TRACE_INSTANT("tee.watermark", ticket != nullptr ? ticket->seq : 0, value);
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  auto session = gate_.Enter();
  AuditRecord record;
  record.op = PrimitiveOp::kWatermark;
  record.watermark = value;
  record.stream = stream;
  AppendAudit(std::move(record), ticket);
  session.Annotate(static_cast<uint16_t>(PrimitiveOp::kWatermark));
  return OkStatus();
}

Result<EgressBlob> DataPlane::Egress(OpaqueRef ref, ExecTicket* ticket) {
  const uint64_t t0 = ReadCycleCounter();
  SBT_TRACE_SPAN("tee.egress", ticket != nullptr ? ticket->seq : 0, 0);
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  auto session = gate_.Enter();

  SBT_ASSIGN_OR_RETURN(const OpaqueRefTable::Entry entry, refs_.Resolve(ref));
  UArray* array = alloc_.Find(entry.array_id);
  if (array == nullptr) {
    return Internal("live reference to reclaimed uArray");
  }

  EgressBlob blob;
  blob.elems = array->size();
  blob.ciphertext.resize(array->size_bytes());
  const uint64_t offset = egress_ctr_offset_.fetch_add(
      (array->size_bytes() + kAesBlockSize - 1) / kAesBlockSize * kAesBlockSize,
      std::memory_order_relaxed);
  blob.ctr_offset = offset;
  egress_cipher_.Crypt(std::span<const uint8_t>(array->data(), array->size_bytes()),
                       std::span<uint8_t>(blob.ciphertext.data(), blob.ciphertext.size()),
                       offset);
  blob.mac = HmacSha256(std::span<const uint8_t>(config_.mac_key.data(), config_.mac_key.size()),
                        std::span<const uint8_t>(blob.ciphertext.data(), blob.ciphertext.size()));

  AuditRecord record;
  record.op = PrimitiveOp::kEgress;
  record.stream = entry.stream;
  record.inputs.push_back(static_cast<uint32_t>(entry.array_id));
  AppendAudit(std::move(record), ticket);

  refs_.Remove(ref);
  alloc_.Retire(array);
  session.Annotate(static_cast<uint16_t>(PrimitiveOp::kEgress));
  invoke_cycles_.fetch_add(ReadCycleCounter() - t0, std::memory_order_relaxed);
  return blob;
}

Status DataPlane::Release(OpaqueRef ref) {
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  auto session = gate_.Enter();
  SBT_ASSIGN_OR_RETURN(const OpaqueRefTable::Entry entry, refs_.Resolve(ref));
  UArray* array = alloc_.Find(entry.array_id);
  if (array == nullptr) {
    return Internal("live reference to reclaimed uArray");
  }
  refs_.Remove(ref);
  alloc_.Retire(array);
  return OkStatus();
}

AuditUpload DataPlane::FlushAuditImpl(std::vector<AuditRecord>* raw_records) {
  AuditUpload upload;
  std::vector<AuditRecord> drained;
  {
    std::lock_guard<std::mutex> lock(audit_mu_);
    drained.swap(audit_log_);
    upload.chain_seq = chain_seq_;
    upload.chain_prev = chain_head_;
    upload.record_count = drained.size();
    upload.raw_bytes = RawAuditBatchBytes(drained);
    upload.compressed = EncodeAuditBatch(drained);
    upload.mac = AuditUploadMac(config_.mac_key, upload);
    // This upload is now the chain head; the next one (or a sealed checkpoint) links to it.
    chain_head_ = upload.mac;
    ++chain_seq_;
  }
  if (raw_records != nullptr) {
    raw_records->insert(raw_records->end(), drained.begin(), drained.end());
  }
  return upload;
}

AuditUpload DataPlane::FlushAudit(std::vector<AuditRecord>* raw_records) {
  BoundaryGuard inflight(&admission_mu_, &inflight_chains_);
  auto session = gate_.Enter();
  return FlushAuditImpl(raw_records);
}

uint64_t DataPlane::audit_chain_seq() const {
  std::lock_guard<std::mutex> lock(audit_mu_);
  return chain_seq_;
}

Sha256Digest DataPlane::audit_chain_head() const {
  std::lock_guard<std::mutex> lock(audit_mu_);
  return chain_head_;
}

Result<DataPlane::CheckpointBundle> DataPlane::Checkpoint(std::span<const uint8_t> control_annex,
                                                          SealMode mode) {
  // A command chain inside the TEE is atomic with respect to checkpoints: its intermediates
  // live in slots no table snapshot can see, so sealing mid-chain would capture a state no
  // unfused schedule can reach. The refusal decision below and the seal itself run under the
  // boundary admission mutex — the same lock every chain increments inflight_chains_ under —
  // so the decision cannot go stale: a chain either admitted before the check (we refuse) or
  // blocks at admission until the seal completes.
  std::lock_guard<std::mutex> admission(admission_mu_);
  if (inflight_chains() != 0) {
    m_checkpoint_refusals_->Add(1);
    m_refuse_inflight_->Add(1);
    return FailedPrecondition(
        "checkpoint refused: an Invoke/Submit chain is inside the TEE (inflight_chain)");
  }
  // An open ticket means staged audit records that have not reached the log: flushing the
  // chain link now would embed a position that misses work already executed before the seal.
  // Distinguish a genuinely open ticket (work still executing) from a non-empty retire ring
  // (everything retired but the frontier commit has not drained) — the operator response
  // differs: the former needs Drain, the latter a moment for the elected committer.
  if (open_tickets() != 0) {
    m_checkpoint_refusals_->Add(1);
    bool any_open = false;
    const uint64_t next = next_ticket_seq_.load(std::memory_order_relaxed);
    for (uint64_t seq = commit_next_seq_.load(std::memory_order_acquire);
         seq != next && !any_open; ++seq) {
      const uint64_t tag = ring_[seq % kRingSlots].tag.load(std::memory_order_acquire);
      any_open = tag == SlotTag(seq, kSlotOpen);
    }
    if (any_open) {
      m_refuse_ticket_->Add(1);
      return FailedPrecondition(
          "checkpoint refused: execution tickets are open — drain first (open_ticket)");
    }
    m_refuse_ring_->Add(1);
    return FailedPrecondition(
        "checkpoint refused: retired tickets awaiting frontier commit (retire_ring)");
  }
  const uint64_t seal_t0 = ReadCycleCounter();
  SBT_TRACE_SPAN("tee.checkpoint", 0, 0);
  // Test hook: each armed hit spins once more, deterministically widening the decision->seal
  // window the admission mutex is supposed to have closed (stress_test CheckpointRace).
  while (SBT_FAIL_POINT("data_plane.checkpoint_stall")) {
  }
  auto session = gate_.Enter();

  // Enumerate live state through the reference table (live refs and live arrays are 1:1 in a
  // quiesced engine) in id order, so the same state always seals to the same payload.
  std::vector<std::pair<OpaqueRef, OpaqueRefTable::Entry>> refs = refs_.Snapshot();
  std::sort(refs.begin(), refs.end(),
            [](const auto& a, const auto& b) { return a.second.array_id < b.second.array_id; });
  std::vector<UArray*> arrays;
  arrays.reserve(refs.size());
  for (const auto& [ref, entry] : refs) {
    UArray* array = alloc_.Find(entry.array_id);
    if (array == nullptr) {
      return Internal("live reference to reclaimed uArray");
    }
    if (array->state() == UArrayState::kOpen) {
      m_checkpoint_refusals_->Add(1);
      m_refuse_uarray_->Add(1);
      return FailedPrecondition(
          "checkpoint refused: a uArray is still open — engine not quiesced (open_uarray)");
    }
    arrays.push_back(array);
  }

  // Seal the audit log into the next chain link first: the checkpoint's embedded chain
  // position must describe the stream *including* everything that happened before the seal.
  CheckpointBundle bundle;
  bundle.audit = FlushAuditImpl(nullptr);

  // One payload layout for both modes: the scalar positions, a tombstone for every id the base
  // held that is gone, a full entry for every live id the base lacks, and the annex. The base
  // is the previous seal's id set for a delta (ids are never reused and Produced uArrays are
  // immutable, so "dirtied since" is set difference) and empty otherwise: a full seal is the
  // delta from nothing. A delta requested with no previous seal falls back to full.
  const bool delta = mode == SealMode::kDelta && has_seal_base_;
  const std::map<uint64_t, OpaqueRef> no_base;
  const std::map<uint64_t, OpaqueRef>& base = delta ? sealed_ids_ : no_base;
  std::set<uint64_t> live_ids;
  for (const auto& [ref, entry] : refs) {
    live_ids.insert(entry.array_id);
  }
  ByteWriter w;
  w.U32(kPayloadMagic);
  w.U64(alloc_.next_array_id());
  w.U64(egress_ctr_offset_.load(std::memory_order_relaxed));
  w.F64(adaptive_threshold_.load(std::memory_order_relaxed));
  w.F64(last_utilization_.load(std::memory_order_relaxed));
  std::vector<uint64_t> tombstones;  // the base is id-ordered, so this stays sorted
  for (const auto& [id, ref] : base) {
    if (!live_ids.contains(id)) {
      tombstones.push_back(id);
    }
  }
  w.U64(tombstones.size());
  for (const uint64_t id : tombstones) {
    w.U64(id);
  }
  std::vector<size_t> additions;  // indices into refs (and arrays)
  for (size_t i = 0; i < refs.size(); ++i) {
    if (!base.contains(refs[i].second.array_id)) {
      additions.push_back(i);
    }
  }
  w.U64(additions.size());
  for (const size_t i : additions) {
    const auto& [ref, entry] = refs[i];
    w.U64(ref);
    w.U64(entry.array_id);
    w.U16(entry.stream);
    w.U8(static_cast<uint8_t>(arrays[i]->scope()));
    w.U64(arrays[i]->elem_size());
    w.Blob(std::span<const uint8_t>(arrays[i]->data(), arrays[i]->size_bytes()));
  }
  w.Blob(control_annex);
  const std::vector<uint8_t> plaintext = w.Take();

  uint64_t seq = 0;
  Sha256Digest head{};
  {
    std::lock_guard<std::mutex> lock(audit_mu_);
    seq = chain_seq_;
    head = chain_head_;
  }
  // The delta's base is the *previous* seal's position; this seal then becomes the base for
  // the next one.
  EngineIdentity identity = config_.identity;
  identity.chain_seq = seq;
  identity.chain_head = head;
  bundle.sealed = SealCheckpoint(std::span<const uint8_t>(plaintext.data(), plaintext.size()),
                                 config_.egress_key, config_.mac_key,
                                 delta ? SealMode::kDelta : SealMode::kFull, identity,
                                 delta ? seal_base_seq_ : 0,
                                 delta ? seal_base_head_ : Sha256Digest{});
  sealed_ids_.clear();
  for (const auto& [ref, entry] : refs) {
    sealed_ids_.emplace(entry.array_id, ref);
  }
  has_seal_base_ = true;
  seal_base_seq_ = seq;
  seal_base_head_ = head;
  m_checkpoint_seal_cycles_->Observe(ReadCycleCounter() - seal_t0);
  return bundle;
}

Result<std::vector<uint8_t>> DataPlane::ApplySeal(const SealedCheckpoint& sealed) {
  std::lock_guard<std::mutex> admission(admission_mu_);
  auto session = gate_.Enter();
  // The mode selects the precondition and nothing else. A full seal is the delta from the empty
  // base, so it needs a plane that holds nothing; a delta applies only on top of the exact
  // seal it was cut against — position is MAC-bound in the header, so a reordered, replayed,
  // or forked delta fails here deterministically.
  if (sealed.mode == SealMode::kFull) {
    if (refs_.live_count() != 0 || audit_records_.load(std::memory_order_relaxed) != 0 ||
        audit_chain_seq() != 0) {
      return FailedPrecondition("full seal applied to a plane that has already processed data");
    }
  } else if (!has_seal_base_) {
    return FailedPrecondition("delta applied to a plane holding no base seal");
  } else if (audit_chain_seq() != sealed.base_chain_seq ||
             !DigestEqual(audit_chain_head(), sealed.base_chain_head)) {
    return DataLoss(
        "delta seal base position does not match this plane (reordered, replayed, or forked "
        "delta chain)");
  }

  SBT_ASSIGN_OR_RETURN(const std::vector<uint8_t> plaintext,
                       UnsealCheckpoint(sealed, config_.egress_key, config_.mac_key));
  ByteReader r(std::span<const uint8_t>(plaintext.data(), plaintext.size()));
  const Status malformed = DataLoss("sealed checkpoint payload is malformed");
  uint32_t magic = 0;
  uint64_t next_array_id = 0;
  uint64_t egress_offset = 0;
  double adaptive_threshold = 0;
  double last_utilization = 0;
  uint64_t tombstone_count = 0;
  if (!r.U32(&magic) || magic != kPayloadMagic || !r.U64(&next_array_id) ||
      !r.U64(&egress_offset) || !r.F64(&adaptive_threshold) || !r.F64(&last_utilization) ||
      !r.U64(&tombstone_count)) {
    return malformed;
  }
  // Validate the whole payload before mutating anything: a rejected seal must leave the
  // plane's base state byte-for-byte intact so the retransmitted (or correct successor) seal
  // still applies.
  std::set<uint64_t> tombstones;
  for (uint64_t i = 0; i < tombstone_count; ++i) {
    uint64_t id = 0;
    if (!r.U64(&id)) {
      return malformed;
    }
    if (!sealed_ids_.contains(id) || !tombstones.insert(id).second) {
      return malformed;  // tombstone for an id this plane never held, or a duplicate
    }
    if (alloc_.Find(id) == nullptr) {
      return Internal("seal base holds an id with no live uArray");
    }
  }
  uint64_t addition_count = 0;
  if (!r.U64(&addition_count)) {
    return malformed;
  }
  struct Addition {
    uint64_t ref = 0;
    uint64_t array_id = 0;
    uint16_t stream = 0;
    uint8_t scope = 0;
    uint64_t elem_size = 0;
    std::span<const uint8_t> bytes;
  };
  std::vector<Addition> additions;
  for (uint64_t i = 0; i < addition_count; ++i) {
    Addition add;
    uint64_t byte_count = 0;
    if (!r.U64(&add.ref) || !r.U64(&add.array_id) || !r.U16(&add.stream) || !r.U8(&add.scope) ||
        !r.U64(&add.elem_size) || !r.U64(&byte_count) || !r.View(byte_count, &add.bytes)) {
      return malformed;
    }
    // Array ids are never reused, so an addition can never collide with a tombstone; it must
    // be new to this plane outright.
    if (add.scope > static_cast<uint8_t>(UArrayScope::kTemporary) || add.elem_size == 0 ||
        add.bytes.size() % add.elem_size != 0 || sealed_ids_.contains(add.array_id)) {
      return malformed;
    }
    additions.push_back(add);
  }
  std::vector<uint8_t> annex;
  if (!r.Blob(&annex) || !r.exhausted()) {
    return malformed;
  }

  for (const uint64_t id : tombstones) {
    const auto it = sealed_ids_.find(id);
    refs_.Remove(it->second);
    alloc_.Retire(alloc_.Find(id));
    sealed_ids_.erase(it);
  }
  for (const Addition& add : additions) {
    const PlacementHint hint =
        PlacementHint::Parallel(kRestoreLaneBase + static_cast<uint32_t>(add.array_id) %
                                                       kRestoreLanes);
    SBT_ASSIGN_OR_RETURN(UArray * array,
                         alloc_.RestoreArray(add.array_id, add.elem_size,
                                             static_cast<UArrayScope>(add.scope), hint));
    const Status appended = array->Append(add.bytes.data(), add.bytes.size());
    if (!appended.ok()) {
      alloc_.Retire(array);
      return appended;  // kResourceExhausted: the sealed state exceeds this partition
    }
    array->Produce();
    SBT_RETURN_IF_ERROR(refs_.RegisterExisting(add.ref, add.array_id, add.stream));
    sealed_ids_.emplace(add.array_id, add.ref);
  }

  alloc_.AdvanceNextArrayId(next_array_id);
  egress_ctr_offset_.store(egress_offset, std::memory_order_relaxed);
  adaptive_threshold_.store(adaptive_threshold, std::memory_order_relaxed);
  last_utilization_.store(last_utilization, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(audit_mu_);
    chain_seq_ = sealed.identity.chain_seq;
    chain_head_ = sealed.identity.chain_head;
  }
  // The applied seal becomes this plane's delta base: a promoted standby (or a restored
  // primary) can emit deltas immediately.
  has_seal_base_ = true;
  seal_base_seq_ = sealed.identity.chain_seq;
  seal_base_head_ = sealed.identity.chain_head;
  return annex;
}

std::string DataPlane::DebugDump() const {
  std::ostringstream os;
  const SecureMemoryStats mem = world_.stats();
  const AllocatorStats a = alloc_.stats();
  os << "data plane: refs=" << refs_.live_count() << " arrays=" << a.live_arrays
     << " groups=" << a.live_groups << " committed=" << (mem.committed_bytes >> 10)
     << "KB peak=" << (mem.peak_committed >> 10) << "KB switches=" << gate_.stats().entries
     << " audit_records=" << audit_records_.load();
  return os.str();
}

DataPlaneCycleStats DataPlane::cycle_stats() const {
  DataPlaneCycleStats s;
  s.invoke_cycles = invoke_cycles_.load(std::memory_order_relaxed);
  s.switch_cycles = gate_.stats().burned_cycles;
  s.switch_entries = gate_.stats().entries;
  s.switch_ops = gate_.stats().annotated_ops;
  s.memmgmt_cycles = alloc_.stats().cycles;
  s.audit_cycles = audit_cycles_.load(std::memory_order_relaxed);
  s.audit_records = audit_records_.load(std::memory_order_relaxed);
  return s;
}

void DataPlane::ResetCycleStats() {
  invoke_cycles_.store(0, std::memory_order_relaxed);
  audit_cycles_.store(0, std::memory_order_relaxed);
  gate_.ResetStats();
}

}  // namespace sbt
