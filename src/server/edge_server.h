// Sharded multi-tenant EdgeServer: the serving layer above single-engine execution.
//
// The paper's engine runs ONE pipeline against ONE TEE data plane. An edge deployment
// aggregates thousands of untrusted IoT sources for many cloud consumers, so the EdgeServer
// multiplexes tenants and sources over a fleet of isolated secure-world shards:
//
//   sources --FrameChannel--> frontend threads --ShardRouter--> shard queues
//                                                                   |
//                                                     per-shard dispatcher thread
//                                                                   |
//                                            per-(shard, tenant) engine = DataPlane + Runner
//
// Sharding model. The host's secure budget is carved into `num_shards` equal partitions. A
// shard hosts engine instances for its resident tenants — tenants never share a secure
// partition, an audit log, or keys — and a tenant's per-engine carve comes out of its shard's
// partition, so committed secure bytes on a shard can never exceed the shard's partition (the
// sum of its carves, each enforced by its own SecureWorld). Every DESIGN.md invariant (bounded
// secure memory, opaque boundary, tamper-evident audit) therefore holds per shard AND per
// tenant.
//
// Routing. The stateless ShardRouter maps (tenant, source) onto shards with jump consistent
// hashing, so a source is single-homed for its whole session and a shard-count change moves
// only ~1/max(N, N') of the keys; a multi-stream pipeline (e.g. Join) is tenant-homed so all
// of its streams meet in one engine. Each engine advances its runner's watermark to the
// MINIMUM across its bound sources, the multi-source generalization of the single-stream
// in-band contract.
//
// Admission control. A backpressured shard fills its bounded ingest queue; frontends then
// either hold the affected source's frame (kStall — the bounded source channel pushes back to
// that source alone) or drop it (kShed — watermarks are never shed). Either way only sources
// routed to the congested shard are affected; other shards' dispatchers keep draining their own
// queues. A kShed tenant's engine additionally sheds at the data-plane door while its secure
// pool is above the backpressure threshold. Within one shard, tenants share a dispatcher, so a
// stalling tenant delays its shard's co-residents (a scheduling, not an isolation, concern);
// across shards there is no coupling. As with the single-engine Runner, a kStall tenant whose
// quota cannot hold a window of in-flight data wedges exactly like the paper's engine would —
// size quotas to windows.
//
// Shard lifecycle. A shard is in one of two states:
//   Serving — its ingest queue is open and its dispatcher runs;
//   Stopped — its queue is closed (or not yet opened) and no dispatcher runs: before Start(),
//             after a detaching Checkpoint or a KillShard, and after Shutdown().
// Every control operation runs the same steps: park the frontends, stop the shard (close-then-
// join drains every frame already routed to it into its engines), change its engines, start
// it again if it should serve, recompute which sources flow, resume the frontends. Frontends
// stay parked for the whole operation, so no intermediate state is ever observable.
//
// The source rule: a source flows if and only if its engine is resident on a Serving shard
// (and, while the server shuts down, every source flows so its channel drains). Otherwise the
// frontend holds its frames and the bounded source channel pushes back to that source alone,
// so no frame is dispatched to a shard that no longer hosts its engine.
//
//   | Operation           | On a Serving shard         | On a Stopped shard                   |
//   |---------------------|----------------------------|--------------------------------------|
//   | Checkpoint in place | Seals; shard stays Serving | kFailedPrecondition, checked before  |
//   |                     |                            | frontends park, no side effect       |
//   | Checkpoint + detach | Shard becomes Stopped      | Shard stays Stopped                  |
//   | KillShard           | Shard becomes Stopped      | Shard stays Stopped                  |
//   | Promote / Restore   | Shard becomes Serving      | Shard becomes Serving                |
//   | Resize              | Rebuilds every shard as Serving                                   |
//   | Shutdown            | Stops every shard                                                 |
//
// Checkpoint seals every resident engine into a SealArtifact (src/server/replica.h); kDelta
// seals only state dirtied since the engine's previous seal. Restore applies artifacts through
// a fresh ReplicaSession (every audit-chain link and every delta's base position verified)
// and promotes the result; Promote adopts a ReplicaSession's pre-applied engines (hot-standby
// failover; before Start() it only adopts, and Start() starts every shard); KillShard drops
// the shard's engines with their unsealed state, as if its secure world died; Resize
// detach-seals every engine and re-applies each at its jump-hash home under N' partitions,
// validated before any state is touched. A fused command buffer in flight is atomic with
// respect to all of this: the runner drain waits for the whole Submit task, and
// DataPlane::Checkpoint refuses (naming the tripped guard) if it can still see in-flight
// boundary work.
//
// Control-plane operations (Checkpoint / Restore / Promote / KillShard / Resize / Shutdown)
// and shard_snapshot() must be called from one control thread.
//
// Session: Add tenants to the registry, BindSource for every source, Start, feed the
// channels, Shutdown. Shutdown closes source channels, runs the frontends down, stops every
// shard, then per engine: Runner::Drain -> collect results -> flush the final audit upload ->
// verify the full upload chain (MACs + hash-chain continuity across any restores) and replay
// the decoded records against the tenant's pipeline declaration. Each engine's audit chain
// verifies independently — the per-tenant attestation a cloud consumer actually receives.

#ifndef SRC_SERVER_EDGE_SERVER_H_
#define SRC_SERVER_EDGE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/attest/verifier.h"
#include "src/control/engine.h"
#include "src/control/runner.h"
#include "src/control/telemetry.h"
#include "src/core/data_plane.h"
#include "src/net/channel.h"
#include "src/obs/metrics.h"
#include "src/server/replica.h"
#include "src/server/shard_router.h"
#include "src/server/tenant.h"
#include "src/tz/world_switch.h"

namespace sbt {

struct EdgeServerConfig {
  uint32_t num_shards = 4;
  // One host secure budget, carved into equal per-shard partitions.
  size_t host_secure_budget_bytes = 256u << 20;
  int frontend_threads = 2;
  // Runner worker threads per (shard, tenant) engine — the default grant for tenants that do
  // not request their own TenantSpec::worker_threads.
  int workers_per_engine = 2;
  // Host-wide cap on the SUM of worker threads across all resident engines (0 = uncapped).
  // Grants are first-come: an engine created after the budget is spent still gets 1 worker so
  // it can always make progress. Re-homed/restored engines re-carve at their new home.
  int host_worker_budget = 0;
  size_t shard_queue_frames = 64;   // bounded ingest queue per shard (the backpressure signal)
  WorldSwitchConfig switch_cost = WorldSwitchConfig::Disabled();
  bool verify_audit_on_shutdown = true;
  // Audit records carry a logical per-engine counter instead of wall-clock timestamps, making
  // two runs over the same per-source streams byte-identical (DataPlaneConfig has the same
  // knob; this plumbs it to every engine). The network-vs-in-process equivalence tests
  // depend on it.
  bool logical_audit_timestamps = false;
};

// One engine's session outcome. Counters are cumulative across checkpoint/restore cycles
// (runner stats ride inside the sealed state); peak_committed covers the engine's current
// incarnation, each of which is bounded by the same carve.
struct TenantShardReport {
  TenantId tenant = 0;
  std::string tenant_name;
  uint32_t shard = 0;

  // Runner stats, world-switch/cycle breakdowns, and pool/allocator stats, all collected
  // through the one CollectEngineTelemetry path (no bespoke per-struct copies here).
  EngineTelemetry telemetry;
  std::vector<WindowResult> windows;

  size_t partition_bytes = 0;   // this engine's secure carve (page-rounded quota)
  int worker_threads = 0;       // the engine's granted worker carve (>= 1)
  uint64_t shed_frames = 0;     // dropped at the data-plane door (kShed under backpressure)
  uint64_t dispatch_errors = 0;

  AuditUpload audit;            // the final upload (last link of the chain)
  size_t uploads = 0;           // audit chain length (1 + one per checkpoint taken)
  uint64_t restores = 0;        // times this engine was sealed and restored/re-homed/promoted
  bool chain_ok = false;        // upload MACs + hash-chain continuity verified
  VerifyReport verify;  // replay of this engine's decoded audit chain against its pipeline
  bool verified = false;

  const Runner::Stats& runner() const { return telemetry.runner; }
  // Never exceeds partition_bytes (SecureWorld-enforced); covers the current incarnation.
  size_t peak_committed() const { return telemetry.memory.peak_committed; }
};

// One source binding's counters.
struct SourceReport {
  TenantId tenant = 0;
  uint32_t source = 0;
  uint32_t shard = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_shed = 0;       // dropped at the frontend (kShed, shard queue full)
  uint64_t admission_retries = 0; // rounds this source was held back (kStall)
};

struct ServerReport {
  std::vector<TenantShardReport> engines;
  std::vector<SourceReport> sources;
  // Every engine's telemetry as labeled samples (tenant + shard), the scrape-shaped view of
  // `engines` — feed to obs::ToPrometheusText / obs::ToJson for export.
  obs::MetricsSnapshot metrics;

  // Views into `engines`; invalidated if the report is copied or destroyed.
  std::vector<const TenantShardReport*> ForTenant(TenantId tenant) const {
    std::vector<const TenantShardReport*> out;
    for (const TenantShardReport& e : engines) {
      if (e.tenant == tenant) {
        out.push_back(&e);
      }
    }
    return out;
  }

  uint64_t TotalEventsIngested() const {
    uint64_t n = 0;
    for (const TenantShardReport& e : engines) {
      n += e.telemetry.runner.events_ingested;
    }
    return n;
  }
};

class EdgeServer {
 public:
  EdgeServer(EdgeServerConfig config, TenantRegistry registry);
  ~EdgeServer();

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  // Binds one source's channel to its routed shard, instantiating the tenant's engine there on
  // first contact. Fails if the tenant is unknown, the binding duplicates (tenant, source), or
  // the tenant's carve would oversubscribe the target shard's partition. Must precede Start().
  // `pipeline_stream` is the pipeline-level stream id this source feeds (Join-style pipelines).
  Status BindSource(TenantId tenant, uint32_t source, FrameChannel* channel,
                    uint16_t pipeline_stream = 0);

  // Spawns shard dispatchers and frontend threads. Call once, after all binds.
  Status Start();

  // Runs the server down (see lifecycle above) and returns the per-engine reports. Idempotent;
  // only the first call yields a populated report.
  ServerReport Shutdown();

  // The one checkpoint entrypoint (see the shard lifecycle table above).
  struct CheckpointRequest {
    uint32_t shard = 0;
    SealMode mode = SealMode::kFull;
    // false: seal in place, the shard keeps serving (continuous replication); the shard must
    // be Serving. true: lift the engines off the shard and stop it; their sources hold their
    // frames until a Restore/Promote makes the engines resident again (migration / operator
    // checkpoint). An engine that fails to seal (defensive; a drained engine cannot) stays
    // resident either way and is simply absent from the result.
    bool detach = false;
  };
  Result<std::vector<SealArtifact>> Checkpoint(const CheckpointRequest& request);

  // The one restore entrypoint: applies the artifacts through a fresh ReplicaSession (chain
  // verification + delta-base checks) and promotes the result onto `shard`. kDataLoss for a
  // stale/forked/corrupt artifact, kResourceExhausted if the shard's partition cannot hold the
  // re-carves; engines that apply cleanly are restored even if a sibling fails.
  Status Restore(uint32_t shard, std::vector<SealArtifact> artifacts);

  // Adopts a ReplicaSession's pre-applied engines onto `shard` — hot-standby promotion.
  // Callable before Start() (standby warm-up) or on a live server (re-homing). Each adopted
  // engine's chain position must match the server's last verified head for that engine (when
  // known), and it takes its sources over: a pristine bind-time placeholder of its tenant yields
  // them (on `shard` it also yields its carve; elsewhere it is dropped once it has no source
  // left), while an engine with real state that claims one of them refuses with
  // kFailedPrecondition. Every shard holding an engine of a promoted tenant stops while engines
  // move and serves again afterwards.
  Status Promote(ReplicaSession& replica, uint32_t shard);

  // Chaos entrypoint: kills `shard` as if its secure world died — resident engines vanish with
  // their un-sealed state, and their sources hold their frames until the engines are promoted.
  Status KillShard(uint32_t shard);

  // Elastic resize under live ingest (see the class comment). Validated before any state is
  // touched: an infeasible plan (some new partition cannot hold its engines' carves) fails
  // with kResourceExhausted and the server continues unchanged.
  Status Resize(uint32_t new_num_shards);

  // The shard a source's frames land on under the CURRENT shard count (stable; callable before
  // binding). After a resize, sources follow their engine, which may differ for sources that
  // shared an engine before the move.
  uint32_t RouteOf(TenantId tenant, uint32_t source) const;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  size_t shard_partition_bytes() const { return shard_partition_bytes_; }

  // Live aggregates. Walks the shard's engine list, which control operations change, so it is
  // called from the control thread (it may run while the server serves).
  struct ShardSnapshot {
    size_t partition_bytes = 0;  // the shard's slice of the host budget
    size_t carved_bytes = 0;     // sum of resident engines' carves (<= partition_bytes)
    size_t committed_bytes = 0;  // sum of resident engines' committed secure memory
    size_t queue_depth = 0;
  };
  ShardSnapshot shard_snapshot(uint32_t shard) const;

  // On-demand scrape of the process-wide metrics registry (every live instrument: engine
  // counters, gauges the dispatchers sample, ticket/world-switch series), rendered
  // as Prometheus text or JSON. Safe to call from any thread while the server runs.
  std::string ScrapeMetrics(bool json = false) const;

 private:
  struct RoutedFrame {
    TenantId tenant = 0;
    uint32_t source = 0;
    Frame frame;
  };

  // One tenant's engine instance. Created at bind time (or adopted at promote), driven only by
  // its shard's dispatcher thread after Start(). Identity — the audit chain — survives
  // re-homing: the instance is sealed on one shard and promoted on another with its sources.
  struct Engine {
    uint64_t engine_id = 0;
    TenantId tenant = 0;
    AdmissionPolicy admission = AdmissionPolicy::kStall;
    size_t partition_bytes = 0;
    int worker_threads = 1;  // granted worker carve
    std::unique_ptr<DataPlane> dp;
    std::unique_ptr<Runner> runner;
    std::map<uint32_t, EventTimeMs> source_watermarks;  // source -> latest in-band watermark
    EventTimeMs advanced = 0;                           // min watermark already applied
    // Cumulative data frames dispatched into this engine per source (sealed in the annex; the
    // replication trim/replay boundary).
    std::map<uint32_t, uint64_t> source_frames;
    uint64_t shed_frames = 0;
    uint64_t dispatch_errors = 0;
    uint64_t restores = 0;
    // Live committed-secure-bytes gauge (tenant+shard labels), refreshed by the shard's
    // dispatcher on its sampling cadence; interned at engine creation.
    obs::Gauge* committed_gauge = nullptr;
    // Cloud-side session accumulation (what the consumer already received), carried across
    // re-homing in server memory — the stand-in for the uplink's far end. The *_shipped marks
    // track how much of it the last seal artifact already carried, so a delta artifact ships
    // only the new tail.
    std::vector<AuditUpload> uploads;
    std::vector<WindowResult> results;
    size_t uploads_shipped = 0;
    size_t results_shipped = 0;
  };

  enum class ShardState : uint8_t { kStopped, kServing };

  struct Shard {
    uint32_t index = 0;
    size_t slice_bytes = 0;
    size_t carved_bytes = 0;  // sum of resident engines' carves
    ShardState state = ShardState::kStopped;
    std::unique_ptr<BoundedChannel<RoutedFrame>> queue;  // open iff kServing
    std::vector<std::unique_ptr<Engine>> engines;
    // (tenant << 32 | source) -> resident engine, the dispatcher's routing table.
    std::map<uint64_t, Engine*> by_source;
    std::thread dispatcher;  // running iff kServing
  };

  // One bound source. Owned by exactly one frontend thread after Start(); `shard` and
  // `suspended` are written only by UpdateSourceFlow, while every frontend is parked.
  struct Source {
    TenantId tenant = 0;
    uint32_t id = 0;
    uint16_t pipeline_stream = 0;
    AdmissionPolicy admission = AdmissionPolicy::kStall;
    FrameChannel* channel = nullptr;
    uint32_t shard = 0;
    bool suspended = false;  // engine not resident on a serving shard: hold frames
    std::optional<RoutedFrame> pending;  // admission-stalled frame, retried before new pops
    bool finished = false;
    uint64_t frames_delivered = 0;
    uint64_t frames_shed = 0;
    uint64_t admission_retries = 0;
  };

  void FrontendLoop(size_t frontend_index, size_t num_frontends);
  // Wakes idle frontends: bump the arrival generation and notify. Wired as every source
  // channel's listener; also pinged by pause requests so parking is prompt.
  void PingIngest();
  void DispatchLoop(Shard* shard);
  void Dispatch(Shard* shard, RoutedFrame rf);
  // True if the frame was consumed (enqueued to the shard, or shed); false = hold and retry.
  bool TryDeliver(Source& src, RoutedFrame& rf);

  // Parks every live frontend thread at a barrier (and resumes them, after UpdateSourceFlow).
  // Bracketing control-plane mutations this way means source structs and routing tables are
  // never touched while a frontend is mid-delivery.
  void PauseFrontends();
  void ResumeFrontends();
  // Blocks until `pause_requested_` drops, counting this thread as parked meanwhile.
  void ParkUntilResumed();

  // Replaces the fleet with `num_shards` empty, Stopped shards under a matching router.
  void ResetFleet(uint32_t num_shards);
  // The shard lifecycle: StartShard opens a fresh queue and spawns the dispatcher (Stopped ->
  // Serving); StopShard closes the queue and joins the dispatcher, which drains what was
  // routed (Serving -> Stopped; a no-op on a Stopped shard).
  void StartShard(Shard& shard);
  void StopShard(Shard& shard);
  // Recomputes the shard's routing table and carve total from its engines.
  void RebuildRouting(Shard& shard);
  // The source rule: re-points every source at the shard its engine is resident on and lets
  // it flow iff that shard serves (or the server is stopping). Runs while frontends are parked.
  void UpdateSourceFlow();
  // The one engine recipe, shared by bind-time creation and adoption: carves the tenant's
  // partition and worker grant on `shard` and builds the runner around `dp` (a fresh plane is
  // made when null). `replaces` is a resident placeholder the engine will take over from; its
  // carve and workers count as free. Changes nothing on the shard: the caller installs it.
  Result<std::unique_ptr<Engine>> BuildEngine(const Shard& shard, const TenantSpec& spec,
                                              const EngineIdentity& identity,
                                              std::unique_ptr<DataPlane> dp,
                                              const Engine* replaces);
  // Worker threads currently granted across every resident engine (the spent budget).
  int WorkersAllocated() const;
  // Seals `engine` (which must belong to a stopped shard) into a transferable artifact.
  Result<SealArtifact> SealEngine(Engine& engine, SealMode mode, bool detach);
  // Adopts one pre-applied engine onto the stopped `shard` (frontends parked or not yet
  // started); it is installed only once fully built. It takes its sources over from the
  // placeholders of its tenant, so every shard holding an engine of that tenant must be stopped.
  Status AdoptEngine(Shard& shard, ReplicaSession::PromotedEngine pe);
  // Seals every engine of the stopped `shard` into `out`; detach lifts the sealed ones off it.
  // Returns the first seal failure (the engine that failed stays resident).
  Status SealShard(Shard& shard, SealMode mode, bool detach, std::vector<SealArtifact>* out);
  // The shard an engine (and its sources) belongs on under `router`.
  uint32_t EngineHome(const ShardRouter& router, const Engine& engine) const;
  // The ReplicaSession options matching this server's engine construction.
  ReplicaSession::Options ReplicaOptions() const;

  EdgeServerConfig config_;
  TenantRegistry registry_;
  ShardRouter router_;
  size_t shard_partition_bytes_ = 0;
  uint64_t next_engine_id_ = 1;
  // Cloud-side stand-in: the last verified chain position per engine (next seq, head MAC),
  // advanced whenever an upload leaves an engine. Restores must continue from here — replaying
  // a checkpoint sealed before newer uploads exists only in attacks, and is rejected. Survives
  // KillShard: a dead shard does not launder a stale artifact.
  std::map<uint64_t, std::pair<uint64_t, Sha256Digest>> chain_heads_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::thread> frontends_;
  bool started_ = false;
  bool stopped_ = false;

  // Frontend pause barrier. Epoch-based: a parked frontend waits for ITS round's resume, so a
  // back-to-back pause can never mistake stragglers from the previous round for parked ones.
  std::atomic<bool> pause_requested_{false};
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  size_t frontends_live_ = 0;    // guarded by pause_mu_
  size_t frontends_parked_ = 0;  // guarded by pause_mu_
  uint64_t pause_epoch_ = 0;     // guarded by pause_mu_; bumped by each resume

  // Frontend idle parking. An idle frontend samples the generation before its scan pass and
  // waits for it to change instead of sleeping a fixed interval: source-channel pushes/closes,
  // pause requests, AND shard-queue space freeing under an admission stall (the queues'
  // space listeners ping, gated on stalled_sources_ so unstalled steady state pays one relaxed
  // load per dispatch) all wake it immediately. The wait keeps a long timeout purely as a
  // safety net against lost wakeups.
  std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  uint64_t ingest_generation_ = 0;  // guarded by ingest_mu_
  // Sources currently holding an admission-stalled frame (frontend threads inc/dec around
  // Source::pending). Nonzero makes shard-queue pops ping the ingest CV.
  std::atomic<uint64_t> stalled_sources_{0};
};

}  // namespace sbt

#endif  // SRC_SERVER_EDGE_SERVER_H_
