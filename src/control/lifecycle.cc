#include "src/control/lifecycle.h"

namespace sbt {
namespace {

// Annex layout inside the sealed payload: runner state, then the caller's server annex.
constexpr uint32_t kEngineAnnexMagic = 0x45544253u;  // "SBTE"

}  // namespace

Result<DataPlane::CheckpointBundle> EngineLifecycle::Checkpoint(
    const CheckpointRequest& request, std::vector<WindowResult>* results) {
  runner_->Drain();
  if (results != nullptr) {
    std::vector<WindowResult> pending = runner_->TakeResults();
    results->insert(results->end(), std::make_move_iterator(pending.begin()),
                    std::make_move_iterator(pending.end()));
  }
  SBT_ASSIGN_OR_RETURN(const std::vector<uint8_t> runner_state, runner_->CheckpointState());
  ByteWriter w;
  w.U32(kEngineAnnexMagic);
  w.Blob(std::span<const uint8_t>(runner_state.data(), runner_state.size()));
  w.Blob(request.server_annex);
  const std::vector<uint8_t> annex = w.Take();
  return dp_->Checkpoint(std::span<const uint8_t>(annex.data(), annex.size()), request.mode);
}

Result<std::vector<uint8_t>> EngineLifecycle::Restore(const SealedCheckpoint& sealed) {
  SBT_ASSIGN_OR_RETURN(const std::vector<uint8_t> annex, dp_->ApplySeal(sealed));
  return AdoptState(std::span<const uint8_t>(annex.data(), annex.size()));
}

Result<std::vector<uint8_t>> EngineLifecycle::AdoptState(std::span<const uint8_t> engine_annex) {
  ByteReader r(engine_annex);
  uint32_t magic = 0;
  std::vector<uint8_t> runner_state;
  std::vector<uint8_t> server_annex;
  if (!r.U32(&magic) || magic != kEngineAnnexMagic || !r.Blob(&runner_state) ||
      !r.Blob(&server_annex) || !r.exhausted()) {
    return DataLoss("engine checkpoint annex is malformed");
  }
  SBT_RETURN_IF_ERROR(
      runner_->RestoreState(std::span<const uint8_t>(runner_state.data(), runner_state.size())));
  return server_annex;
}

}  // namespace sbt
