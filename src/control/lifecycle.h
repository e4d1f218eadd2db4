// The one engine-lifecycle surface.
//
// An "engine" is one DataPlane + Runner pair. Checkpoint/restore used to be spread over four
// parallel surfaces (Runner::CheckpointState/RestoreState, free CheckpointEngine/RestoreEngine,
// EdgeServer::CheckpointShard/RestoreShard, and ad-hoc Resize quiesce plumbing); everything now
// funnels through here:
//
//   EngineLifecycle::Checkpoint  — quiesce the runner (Drain waits out any fused command
//       buffer as one atomic task, so a seal never lands mid-chain), collect finished window
//       results (already egressed — ciphertext, safe outside the seal), and seal the runner's
//       window bookkeeping together with the caller's opaque server annex inside the data
//       plane's checkpoint. kDelta seals only state dirtied since the engine's previous seal.
//   EngineLifecycle::Restore     — apply a seal to a freshly constructed pair built from the
//       same configs (DataPlane::ApplySeal, so a full seal), returning the server annex.
//   EngineLifecycle::AdoptState  — the promote-path splice: the data plane already carries
//       applied state (ReplicaSession applied the full seal and every delta after it through
//       the same DataPlane::ApplySeal as they streamed in); a freshly constructed runner adopts
//       the latest control annex. Restore() is exactly DataPlane::ApplySeal + AdoptState.
//
// Server-scope lifecycle (whole shards, replication, promotion) is EdgeServer::Checkpoint /
// EdgeServer::Restore / ReplicaSession (src/server/replica.h), both of which consume this API.

#ifndef SRC_CONTROL_LIFECYCLE_H_
#define SRC_CONTROL_LIFECYCLE_H_

#include <span>
#include <vector>

#include "src/control/runner.h"
#include "src/core/data_plane.h"

namespace sbt {

class EngineLifecycle {
 public:
  struct CheckpointRequest {
    SealMode mode = SealMode::kFull;
    // Opaque server-layer bytes sealed alongside the runner state (EdgeServer puts its
    // per-engine annex here; standalone harnesses leave it empty).
    std::span<const uint8_t> server_annex = {};
  };

  EngineLifecycle(DataPlane* dp, Runner* runner) : dp_(dp), runner_(runner) {}

  // Quiesces and seals the pair. Finished-but-uncollected window results are moved into
  // *results (when non-null) — they were already egressed, so they ride outside the seal.
  Result<DataPlane::CheckpointBundle> Checkpoint(const CheckpointRequest& request,
                                                 std::vector<WindowResult>* results = nullptr);

  // Applies a seal to this freshly constructed pair (same configs) through DataPlane::ApplySeal
  // and returns the server annex. A fresh plane holds no base, so only a full seal applies here;
  // deltas stream through ReplicaSession.
  Result<std::vector<uint8_t>> Restore(const SealedCheckpoint& sealed);

  // Promote-path splice: the paired data plane already holds applied state; the freshly
  // constructed runner adopts `engine_annex` (the control annex the last ApplySeal on that
  // plane returned). Returns the server annex.
  Result<std::vector<uint8_t>> AdoptState(std::span<const uint8_t> engine_annex);

 private:
  DataPlane* dp_;
  Runner* runner_;
};

}  // namespace sbt

#endif  // SRC_CONTROL_LIFECYCLE_H_
