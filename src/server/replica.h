// Hot-standby state replication: the seal artifact and the replica session that consumes it.
//
// A SealArtifact is one engine's transferable seal: the tamper-evident sealed checkpoint
// (full or delta, src/core/checkpoint.h) plus the cloud-side session accumulation that must
// travel with it — the audit-chain links a verifier needs to accept the seal's chain position,
// the window results already egressed, and the per-source covered-frame counts the failover
// proxy uses to trim its replay buffers. Everything security-relevant rides inside the seal's
// ciphertext or under the chain MACs; the artifact adds no plaintext secure-world state, so it
// is safe to stream over the untrusted replication wire as-is.
//
// A ReplicaSession is the standby's half of continuous checkpoint shipping:
//
//   subscribe  — the replication subscriber (src/server/replication.h) or an operator feeds
//                every artifact the primary seals, in order, through Apply();
//   apply      — one sequence for both modes: verify the artifact's uploads on a scratch chain
//                verifier, then DataPlane::ApplySeal, then commit to the slot. A kFull
//                artifact starts from a fresh verifier and a fresh DataPlane and replaces the
//                engine's slot wholesale; a kDelta artifact starts from the slot's verifier and
//                plane, extends both, and is rejected if it is corrupted, reordered, replayed,
//                or forked (ApplySeal checks the base position, the verifier the chain);
//   promote    — TakeEngines() hands the pre-applied planes over exactly once; the EdgeServer
//                builds runners around them (EngineLifecycle::AdoptState) and resumes their
//                sources. A promoted session refuses further applies and further takes.
//
// Both the operator restore path (EdgeServer::Restore) and the streamed failover path consume
// this one API — there is no second restore pipeline.

#ifndef SRC_SERVER_REPLICA_H_
#define SRC_SERVER_REPLICA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/common/status.h"
#include "src/control/runner.h"
#include "src/core/checkpoint.h"
#include "src/core/data_plane.h"
#include "src/server/tenant.h"
#include "src/tz/world_switch.h"

namespace sbt {

// One sealed engine in transferable form. `sealed.identity` names the engine (tenant, id,
// advisory shard, chain position); a kFull artifact carries the engine's complete upload and
// result history, a kDelta artifact only what the engine produced since its previous seal.
struct SealArtifact {
  SealedCheckpoint sealed;
  std::vector<AuditUpload> uploads;
  std::vector<WindowResult> results;
  // Cumulative data frames the engine had dispatched per source at seal time. Untrusted
  // transport bookkeeping for replay trimming; the authoritative copy is sealed inside the
  // engine annex and re-checked at promote.
  std::map<uint32_t, uint64_t> source_frames;

  TenantId tenant() const { return sealed.identity.tenant; }
  uint64_t engine_id() const { return sealed.identity.engine_id; }
  const EngineIdentity& identity() const { return sealed.identity; }
};

// Wire codec (strict: decode rejects truncated, oversized, or trailing bytes). The encoding is
// self-contained so one artifact is one replication-stream frame body.
std::vector<uint8_t> EncodeSealArtifact(const SealArtifact& artifact);
Result<SealArtifact> DecodeSealArtifact(std::span<const uint8_t> bytes);

// The page-rounded secure carve one engine instance of `spec` occupies on its shard.
size_t EnginePartitionBytes(const TenantSpec& spec);

// The one construction recipe for an engine's DataPlaneConfig, shared by bind-time creation,
// operator restore, and replica pre-apply — a restored plane is configured exactly like the
// original, whichever path built it.
DataPlaneConfig MakeEngineDataPlaneConfig(const TenantSpec& spec, const EngineIdentity& identity,
                                          const WorldSwitchConfig& switch_cost,
                                          bool logical_audit_timestamps,
                                          obs::MetricLabels labels);

class ReplicaSession {
 public:
  struct Options {
    WorldSwitchConfig switch_cost = WorldSwitchConfig::Disabled();
    bool logical_audit_timestamps = false;
  };

  // `registry` must outlive the session and contain every tenant whose artifacts arrive.
  explicit ReplicaSession(const TenantRegistry* registry) : ReplicaSession(registry, Options()) {}
  ReplicaSession(const TenantRegistry* registry, Options options);

  // Applies one artifact in arrival order. Thread-safe (the subscriber thread and an operator
  // may interleave). kFull replaces the engine's slot wholesale; kDelta requires a slot and
  // must continue both the verified audit chain and the plane's seal base. A rejected artifact
  // leaves the slot as it was (a partition too small for a delta's additions is the exception:
  // that slot must be re-established by a later kFull).
  Status Apply(SealArtifact artifact);

  size_t engines() const;
  uint64_t seals_applied() const;

  // Per-(tenant, source) covered data-frame counts across every applied engine: the boundary
  // up to which the failover proxy trims before replaying retained frames to the standby.
  std::map<std::pair<TenantId, uint32_t>, uint64_t> CoveredFrames() const;

  // One pre-applied engine, ready for adoption (EdgeServer::Promote).
  struct PromotedEngine {
    EngineIdentity identity;  // latest applied chain position
    std::unique_ptr<DataPlane> dp;
    std::vector<uint8_t> engine_annex;  // latest control annex (EngineLifecycle::AdoptState)
    std::vector<AuditUpload> uploads;
    std::vector<WindowResult> results;
    std::map<uint32_t, uint64_t> source_frames;
  };

  // Promote-exactly-once: hands every slot over and poisons the session — a second take, or
  // any Apply after the take, fails kFailedPrecondition. This is the availability invariant
  // that makes split-brain (two servers running the same engine) impossible through this API.
  Result<std::vector<PromotedEngine>> TakeEngines();

 private:
  struct Slot {
    AuditChainVerifier verifier;  // persists across deltas
    std::unique_ptr<DataPlane> dp;
    EngineIdentity identity;
    std::vector<uint8_t> engine_annex;
    std::vector<AuditUpload> uploads;
    std::vector<WindowResult> results;
    std::map<uint32_t, uint64_t> source_frames;
  };

  const TenantRegistry* registry_;
  Options options_;

  mutable std::mutex mu_;
  bool promoted_ = false;          // guarded by mu_
  uint64_t seals_applied_ = 0;     // guarded by mu_
  std::map<uint64_t, Slot> slots_;  // engine_id -> standby state; guarded by mu_
};

}  // namespace sbt

#endif  // SRC_SERVER_REPLICA_H_
