// The StreamBox-TZ data plane: everything inside the TEE (paper §3-§8).
//
// The data plane owns all analytics data (uArrays in secure memory), the trusted primitives, the
// specialized allocator, and audit-record generation. Its boundary interface is deliberately
// tiny — the paper exports four entry functions; this class mirrors them:
//
//    Init/finalize   -> constructor / destructor
//    Debug           -> DebugDump()
//    Invoke          -> Invoke(), one entry shared by all trusted primitives
//
// plus the ingress/egress paths (trusted IO in hardware; emulated here, see the trusted-IO
// row of DESIGN.md's substitutions table):
//
//    IngestBatch / IngestWatermark / Egress / Release / FlushAudit
//
// Nothing shared crosses the boundary: operands are opaque references, results are opaque
// references or ciphertext. All methods are thread-safe; the control plane's worker threads call
// Invoke concurrently and primitives run in parallel over one cache-coherent secure space.

#ifndef SRC_CORE_DATA_PLANE_H_
#define SRC_CORE_DATA_PLANE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/attest/audit_record.h"
#include "src/attest/compress.h"
#include "src/common/event.h"
#include "src/common/segment.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/checkpoint.h"
#include "src/core/cmd_buffer.h"
#include "src/core/opaque_ref.h"
#include "src/crypto/aes128.h"
#include "src/crypto/sha256.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/primitives/primitives.h"
#include "src/tz/secure_world.h"
#include "src/tz/world_switch.h"
#include "src/uarray/allocator.h"

namespace sbt {

// How ingress data reaches the TEE (Table 5's engine versions).
enum class IngestPath : uint8_t {
  kTrustedIo = 0,  // TrustZone trusted IO: data lands directly in secure memory
  kViaOs = 1,      // untrusted OS receives, then copies across the TEE boundary
};

struct DataPlaneConfig {
  TzPartitionConfig partition;
  WorldSwitchConfig switch_cost;
  PlacementPolicy placement = PlacementPolicy::kHintGuided;

  // Ingress security (Table 5): decrypt AES-128-CTR frames on ingestion.
  bool decrypt_ingress = true;
  AesKey ingress_key{};
  std::array<uint8_t, 12> ingress_nonce{};

  // Egress: results are AES-CTR encrypted and HMAC-signed for the edge-cloud uplink.
  AesKey egress_key{};
  std::array<uint8_t, 12> egress_nonce{};
  AesKey mac_key{};

  // Backpressure threshold on secure pool utilization (paper §4.2).
  double backpressure_threshold = 0.85;

  // Test/verification mode: audit-record timestamps become a logical record counter instead of
  // the wall clock, so two runs that execute the same dataflow produce byte-identical audit
  // uploads (the worker-count equivalence property tests compare whole uploads, MACs included).
  // Freshness delays are meaningless in this mode; never enable it in a deployment.
  bool logical_audit_timestamps = false;

  // Who this plane is, for seals, reports, and replication frames. The chain-position fields
  // are ignored here — they are stamped at seal time. Standalone harnesses leave it zeroed.
  EngineIdentity identity;

  // Automatic flow control (the paper's stated future work, §4.2): tune the threshold online
  // from the pool-utilization trend. While committed memory grows faster than it reclaims the
  // threshold tightens (push back early, before a hard allocation failure); while the pool
  // drains it relaxes back toward `backpressure_threshold`.
  bool adaptive_backpressure = false;
  double adaptive_floor = 0.50;  // never tighten below this utilization

  // Labels attached to this engine's hot-path metrics (e.g. {{"tenant","alpha"},
  // {"shard","2"}}); the server sets them per engine, standalone harnesses leave them empty.
  // Instrument pointers are interned once at construction — labels cost nothing per event.
  obs::MetricLabels metric_labels;
};

// HintRequest and InvokeParams — the boundary vocabulary shared by call-per-primitive Invoke
// and fused command-buffer submission — live in src/core/cmd_buffer.h.

struct InvokeRequest {
  PrimitiveOp op = PrimitiveOp::kCompact;
  std::vector<OpaqueRef> inputs;
  InvokeParams params;
  HintRequest hint;
  // Streaming inputs are consumed (retired) by default; pass false to keep an input alive
  // (operator state, shared reads).
  bool retire_inputs = true;
};

struct OutputInfo {
  OpaqueRef ref = 0;
  uint64_t elems = 0;     // element count (the control plane schedules by batch size)
  uint32_t win_no = 0;    // Segment outputs: window index
};

struct InvokeResponse {
  std::vector<OutputInfo> outputs;
};

// Result of a fused command-buffer submission. outputs[i] aligns with buffer entry i; an
// output that a later command in the same chain consumed never materialized as a table ref
// and reports ref == 0 (its element count is still visible for scheduling).
struct SubmitResponse {
  std::vector<std::vector<OutputInfo>> outputs;
};

// Encrypted, signed result leaving the edge.
struct EgressBlob {
  std::vector<uint8_t> ciphertext;
  Sha256Digest mac{};
  uint64_t elems = 0;
  // Position of this blob in the egress CTR keystream (would ride in the upload header).
  uint64_t ctr_offset = 0;
};

// CPU-cycle breakdown for the Figure 9 run-time decomposition.
struct DataPlaneCycleStats {
  uint64_t invoke_cycles = 0;     // total cycles inside the TEE boundary
  uint64_t switch_cycles = 0;     // world-switch cost (entry+exit burns)
  uint64_t switch_entries = 0;    // number of TEE entries
  uint64_t switch_ops = 0;        // boundary ops annotated onto entries (Session::Annotate)
  uint64_t memmgmt_cycles = 0;    // allocator placement/reclaim
  uint64_t audit_cycles = 0;      // audit-record generation
  uint64_t audit_records = 0;

  // Ops amortized per world switch: 1 for a call-per-primitive boundary, the chain length for
  // fused command-buffer submission (the fig9 "win" column).
  double ops_per_entry() const {
    return switch_entries == 0
               ? 0.0
               : static_cast<double>(switch_ops) / static_cast<double>(switch_entries);
  }
};

// An execution ticket: one boundary operation's position in the engine's canonical program
// order, plus a pre-reserved audit-id range for the uArrays it will create.
//
// Tickets are what let the control plane run window chains on N workers, out of order, while
// the audit stream stays byte-identical to single-worker execution. The control thread opens
// tickets in program order (OpenTicket); a worker executes its operation whenever it likes —
// records it produces are staged under the ticket, and its outputs take ids from the reserved
// range — and retires the ticket when done. Staged records only reach the audit log once every
// earlier ticket has retired, so log order == ticket order == program order, regardless of the
// execution schedule. An op that fails still retires its ticket (its staged prefix commits,
// exactly as a single-worker run would have logged it).
struct ExecTicket {
  uint64_t seq = 0;
  IdReservation ids;
};

class DataPlane {
 public:
  explicit DataPlane(const DataPlaneConfig& config);

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  // --- deterministic sequencing (elastic intra-engine parallelism) ---

  // Opens the next ticket in program order, reserving `reserve_ids` audit ids for the arrays
  // the ticketed operation will create. Callers must open tickets in the order the operations
  // are *submitted* (the engine's control thread does) — that order defines the audit stream.
  ExecTicket OpenTicket(uint32_t reserve_ids);

  // Marks a ticket's operation complete. Commits its staged audit records — and those of any
  // successors this one was blocking — to the log in ticket order. Every opened ticket must be
  // retired exactly once, on success and failure paths alike.
  void RetireTicket(const ExecTicket& ticket);

  // Tickets opened but not yet retired (or retired but blocked behind an open predecessor).
  // Zero once the control plane has drained; Checkpoint refuses while nonzero.
  size_t open_tickets() const;

  // --- the four boundary entry points (plus IO) ---

  // Single shared entry for all trusted primitives. With a ticket, audit records are staged
  // for ticket-ordered commit and outputs draw from the ticket's reserved ids.
  Result<InvokeResponse> Invoke(const InvokeRequest& request, ExecTicket* ticket = nullptr);

  // Fused entry: executes a whole command chain under ONE world-switch session, one audit
  // record per command (byte-identical replay vs. the equivalent Invoke-per-step stream).
  // Intra-chain dataflow uses slot refs; intermediates consumed inside the chain are retired
  // in the secure world without ever becoming table refs. A failure at command k takes effect
  // exactly like the unfused prefix would — commands before k are executed, audited, and their
  // inputs retired — except that k's and the prefix's unconsumed outputs are reclaimed rather
  // than leaked, and the error is returned. Forged or forward-pointing slot refs fail with
  // kInvalidArgument, an already-consumed slot ref with kNotFound (mirroring a retired table
  // ref) — in both cases before any primitive runs in that command.
  Result<SubmitResponse> Submit(const CmdBuffer& buffer, ExecTicket* ticket = nullptr);

  // Ingests one event frame. With kTrustedIo the frame models a DMA landing in secure memory
  // (single placement copy); with kViaOs an extra staging copy across the boundary is paid.
  // `ctr_offset` is the frame's offset in the source's CTR keystream when decrypting.
  // A coalesced frame (network ingress concatenating many sessions) passes `segments`: each
  // run decrypts at its own keystream offset. Segments must tile the frame exactly — in
  // order, no gaps — or the ingest fails before touching secure memory. Empty `segments`
  // means one run at `ctr_offset` (every pre-ingress caller). The audit record is identical
  // either way: segmentation is a transport artifact, not an auditable event.
  Result<OutputInfo> IngestBatch(std::span<const uint8_t> frame, size_t elem_size,
                                 uint16_t stream, IngestPath path, uint64_t ctr_offset = 0,
                                 ExecTicket* ticket = nullptr,
                                 std::span<const FrameSegment> segments = {});

  // Ingests a watermark (event-time progress signal) and records it for attestation.
  Status IngestWatermark(EventTimeMs value, uint16_t stream = 0, ExecTicket* ticket = nullptr);

  // Externalizes a result: encrypt + sign + audit; the reference is consumed. Keystream
  // offsets are allocated in call order — ticketed callers (the runner's completion stage)
  // must therefore egress in ticket order.
  Result<EgressBlob> Egress(OpaqueRef ref, ExecTicket* ticket = nullptr);

  // Explicitly releases a reference (e.g. dropped window state).
  Status Release(OpaqueRef ref);

  // Drains accumulated audit records as a compressed, signed upload (the next link of the
  // engine's audit hash chain). Also returns the raw records (test/verifier plumbing; a
  // deployment would only ship the blob).
  AuditUpload FlushAudit(std::vector<AuditRecord>* raw_records = nullptr);

  // --- sealed checkpoint/restore (see src/core/checkpoint.h) ---

  struct CheckpointBundle {
    SealedCheckpoint sealed;
    // The audit-chain link flushed at seal time; the sealed header embeds the chain position
    // immediately after this upload.
    AuditUpload audit;
  };

  // Quiesce-and-snapshot: serializes live state (uArray contents, reference table, allocator
  // and egress-cipher positions, flow-control state) plus the caller's opaque `control_annex`,
  // seals it with the tenant keys, and flushes the audit log so the chain position embedded in
  // the seal is current. The caller must have drained all in-flight work (Runner::Drain); an
  // open uArray or an Invoke/Submit chain still inside the TEE fails with kFailedPrecondition
  // (a command buffer is atomic with respect to checkpoints), and the Status message plus the
  // reason-labeled sbt_checkpoint_refusals_total counter name which guard tripped.
  //
  // Both modes write one payload layout: a delta against a base id set — tombstones for the
  // uArrays retired since the base, full entries for those created since (sound because ids are
  // never reused and a Produced uArray is immutable), and the scalar positions. mode == kDelta
  // takes this plane's previous seal as the base; kFull takes the empty base, so every live
  // entry is an addition. A delta requested before any seal exists falls back to a full seal —
  // check sealed.mode.
  Result<CheckpointBundle> Checkpoint(std::span<const uint8_t> control_annex = {},
                                      SealMode mode = SealMode::kFull);

  // Applies one seal (same tenant keys) and returns its control annex. The mode selects only the
  // precondition: a kFull seal needs a freshly constructed plane, a kDelta seal a plane whose
  // chain sits exactly at the delta's base position (a standby replica, or a restored primary
  // catching up through a seal chain). One validate-then-mutate pass follows, so a seal that is
  // rejected leaves the plane as it was. A delta onto a plane with no base, or a full seal onto
  // a used plane, fails with kFailedPrecondition; a tampered, truncated, reordered, replayed, or
  // forked seal with kDataLoss; a partition too small for the sealed state with
  // kResourceExhausted (discard the instance: that one is found only while mutating).
  Result<std::vector<uint8_t>> ApplySeal(const SealedCheckpoint& sealed);

  // Audit chain position: sequence number of the next upload and MAC of the last one.
  uint64_t audit_chain_seq() const;
  Sha256Digest audit_chain_head() const;

  // Debug entry point (the paper's fourth TCB entry function).
  std::string DebugDump() const;

  // --- control-plane-visible status (safe aggregates, no data) ---

  bool ShouldBackpressure() const {
    return world_.PoolUtilization() > effective_backpressure_threshold();
  }
  // The currently active threshold (== the configured one unless adaptive control moved it).
  double effective_backpressure_threshold() const {
    return config_.adaptive_backpressure
               ? adaptive_threshold_.load(std::memory_order_relaxed)
               : config_.backpressure_threshold;
  }
  SecureMemoryStats memory_stats() const { return world_.stats(); }
  WorldSwitchStats switch_stats() const { return gate_.stats(); }
  DataPlaneCycleStats cycle_stats() const;
  AllocatorStats allocator_stats() const { return alloc_.stats(); }
  size_t live_refs() const { return refs_.live_count(); }

  void ResetCycleStats();

  // Boundary calls currently inside the TEE (Invoke/Submit chains). Checkpoint refuses to run
  // while nonzero: an in-flight command buffer is atomic — it either completes before the seal
  // or happens entirely after the restore, never half of each.
  int inflight_chains() const { return inflight_chains_.load(std::memory_order_relaxed); }

 private:
  struct ProducedOutput {
    UArray* array = nullptr;
    uint32_t win_no = 0;
  };
  struct ResolvedInput {
    UArray* array = nullptr;
    uint16_t stream = 0;
  };
  // Boundary hardening shared by Invoke and Submit: validates a table ref (slot-tagged and
  // forged refs rejected) and maps it to its live array.
  Result<ResolvedInput> ResolveTableInput(OpaqueRef ref);
  // Executes one primitive over already-resolved inputs, filling the audit record's input/
  // output ids. Registration of outputs as table refs is the caller's concern: Invoke
  // registers everything, Submit only what survives the chain.
  Result<std::vector<ProducedOutput>> Dispatch(PrimitiveOp op, const InvokeParams& params,
                                               const PrimitiveContext& ctx,
                                               const std::vector<UArray*>& inputs,
                                               AuditRecord* record);
  // Translates a boundary hint to an allocator hint + audit form. `resolve_slot` maps a
  // slot-tagged After target to its uArray id (null outside a command buffer).
  Result<PlacementHint> TranslateHint(
      const HintRequest& hint, AuditRecord* record,
      const std::function<Result<uint64_t>(OpaqueRef)>* resolve_slot = nullptr);
  OutputInfo RegisterOutput(UArray* array, uint16_t stream, AuditRecord* record,
                            uint32_t win_no = 0);
  // Emits one audit record: directly into the log (no ticket), or staged under the ticket for
  // ticket-ordered commit.
  void AppendAudit(AuditRecord record, ExecTicket* ticket = nullptr);
  // Stamps the record's timestamp (wall clock, or the logical counter in
  // logical_audit_timestamps mode) and appends it. Caller holds audit_mu_.
  void StampAndAppendLocked(AuditRecord record);
  uint32_t NowTs() const {
    return static_cast<uint32_t>((NowUs() - epoch_us_) / 1000);
  }

  DataPlaneConfig config_;
  SecureWorld world_;
  WorldSwitchGate gate_;
  UArrayAllocator alloc_;
  OpaqueRefTable refs_;
  Aes128Ctr ingress_cipher_;
  Aes128Ctr egress_cipher_;
  ProcTimeUs epoch_us_;

  // Flushes the audit log into the next chain link. Callers hold no locks.
  AuditUpload FlushAuditImpl(std::vector<AuditRecord>* raw_records);

  mutable std::mutex audit_mu_;
  std::vector<AuditRecord> audit_log_;
  uint64_t chain_seq_ = 0;        // guarded by audit_mu_
  Sha256Digest chain_head_{};     // guarded by audit_mu_; zeros until the first upload
  uint64_t logical_ts_ = 0;       // guarded by audit_mu_ (logical_audit_timestamps mode)

  // --- Ticket reorder buffer: a lock-free ring ---
  //
  // A bounded ring indexed by ticket seq: ticket s lives in slot s % kRingSlots. Each slot
  // carries a tag word encoding (seq << kPhaseBits) | phase; the phase walks
  // kFree -> kOpen -> kRetired and back to kFree for seq + kRingSlots. Staging is MPSC with a
  // single writer per slot: between kOpen and kRetired exactly one thread (the executing
  // worker) appends to `records`, so no lock guards the vector — the kRetired release-store
  // publishes it and the committer's acquire-load of the tag receives it.
  //
  // Commit happens only at the frontier (commit_next_seq_). After retiring its own slot, a
  // thread elects itself committer via commit_lock_ iff the frontier slot is retired; the
  // winner drains every contiguous retired slot into the audit log under audit_mu_
  // (StampAndAppendLocked, ticket order == seq order), frees the slots for their next lap, and
  // re-checks after releasing so a ticket that retired mid-drain is never stranded.
  // Lock order: commit_lock_ before audit_mu_, never the reverse.
  //
  // A full ring (OpenTicket finds its slot still occupied, i.e. > kRingSlots tickets in
  // flight) spins the opener — natural backpressure on the control thread, counted in
  // m_ring_full_stalls_.
  static constexpr uint64_t kRingSlots = 4096;  // power of two; >max in-flight tickets
  static constexpr uint64_t kPhaseBits = 2;
  enum TicketPhase : uint64_t { kSlotFree = 0, kSlotOpen = 1, kSlotRetired = 2 };
  static constexpr uint64_t SlotTag(uint64_t seq, TicketPhase phase) {
    return (seq << kPhaseBits) | static_cast<uint64_t>(phase);
  }
  struct alignas(64) TicketSlot {
    std::atomic<uint64_t> tag{0};
    std::vector<AuditRecord> records;  // single writer while kOpen; capacity persists per slot
    uint64_t open_cycles = 0;          // ReadCycleCounter() at OpenTicket
  };
  std::unique_ptr<TicketSlot[]> ring_;
  std::atomic<uint64_t> next_ticket_seq_{0};
  std::atomic<uint64_t> commit_next_seq_{0};  // stored only by the elected committer
  std::atomic<bool> commit_lock_{false};
  // Frontier-commit election + batch drain; called after a slot flips to kRetired.
  void CommitFrontier();

  std::atomic<uint64_t> invoke_cycles_{0};
  std::atomic<uint64_t> memmgmt_cycles_{0};
  std::atomic<uint64_t> audit_cycles_{0};
  std::atomic<uint64_t> audit_records_{0};
  std::atomic<uint64_t> egress_ctr_offset_{0};

  // Boundary admission: every state-mutating boundary op (Invoke/Submit chain, ingest, egress,
  // release, audit flush) increments inflight_chains_ while holding this mutex for the
  // increment. Checkpoint takes the refusal decision AND performs the whole seal under it, so
  // "no chain is inside the TEE" cannot go stale between the check and the seal — no chain can
  // be admitted into that window. Ordering: admission_mu_ is outermost (it is only ever held
  // alone, or by Checkpoint which then takes audit_mu_).
  mutable std::mutex admission_mu_;
  std::atomic<int> inflight_chains_{0};

  // Adaptive flow control state (see DataPlaneConfig::adaptive_backpressure).
  void UpdateAdaptiveThreshold();
  std::atomic<double> adaptive_threshold_{0.85};
  std::atomic<double> last_utilization_{0.0};

  // Hot-path instruments, interned once at construction with config_.metric_labels (stable
  // pointers into the global registry; each update is 1-2 relaxed atomic ops).
  obs::Histogram* m_ticket_latency_cycles_;   // OpenTicket -> RetireTicket
  obs::Histogram* m_ticket_reorder_depth_;    // in-flight tickets observed at each retire
  obs::Histogram* m_checkpoint_seal_cycles_;  // successful Checkpoint() duration
  obs::Counter* m_checkpoint_refusals_;       // kFailedPrecondition refusals (all reasons)
  // Same counter family with a {"reason", ...} label naming the guard that tripped:
  obs::Counter* m_refuse_inflight_;  // reason="inflight_chain"
  obs::Counter* m_refuse_ticket_;    // reason="open_ticket"
  obs::Counter* m_refuse_ring_;      // reason="retire_ring"
  obs::Counter* m_refuse_uarray_;    // reason="open_uarray"

  // --- delta-seal base tracking (guarded by admission_mu_) ---
  // Array ids included in this plane's previous seal (or the last seal applied to it), mapped to
  // their table refs so a delta can tombstone retired ids. Sound because array ids are
  // monotonic (never reused) and a Produced uArray is immutable: "dirtied since the last seal"
  // reduces to set difference on ids.
  std::map<uint64_t, OpaqueRef> sealed_ids_;
  bool has_seal_base_ = false;
  uint64_t seal_base_seq_ = 0;     // chain position of the previous seal
  Sha256Digest seal_base_head_{};
  // Serial-section attribution for the retire ring (fig7 reads these).
  obs::Histogram* m_commit_stall_cycles_;     // cycles inside a frontier-commit drain
  obs::Histogram* m_commit_batch_tickets_;    // tickets committed per frontier drain
  obs::Counter* m_ring_full_stalls_;          // OpenTicket waits for its slot's previous lap
};

}  // namespace sbt

#endif  // SRC_CORE_DATA_PLANE_H_
