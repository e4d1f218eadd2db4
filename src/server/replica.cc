#include "src/server/replica.h"

#include <algorithm>
#include <string>
#include <utility>


namespace sbt {
namespace {

// Leading marker of an encoded SealArtifact ("SBTA").
constexpr uint32_t kArtifactMagic = 0x41544253u;

void WriteDigest(ByteWriter* w, const Sha256Digest& digest) {
  w->Blob(std::span<const uint8_t>(digest.data(), digest.size()));
}

bool ReadDigest(ByteReader* r, Sha256Digest* digest) {
  std::vector<uint8_t> bytes;
  if (!r->Blob(&bytes) || bytes.size() != digest->size()) {
    return false;
  }
  std::copy(bytes.begin(), bytes.end(), digest->begin());
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeSealArtifact(const SealArtifact& artifact) {
  ByteWriter w;
  w.U32(kArtifactMagic);

  const SealedCheckpoint& sealed = artifact.sealed;
  w.U32(sealed.version);
  w.U8(static_cast<uint8_t>(sealed.mode));
  w.U32(sealed.identity.tenant);
  w.U64(sealed.identity.engine_id);
  w.U32(sealed.identity.shard);
  w.U64(sealed.identity.chain_seq);
  WriteDigest(&w, sealed.identity.chain_head);
  w.U64(sealed.base_chain_seq);
  WriteDigest(&w, sealed.base_chain_head);
  w.U64(sealed.seal_salt);
  w.Blob(std::span<const uint8_t>(sealed.ciphertext.data(), sealed.ciphertext.size()));
  WriteDigest(&w, sealed.mac);

  w.U64(artifact.uploads.size());
  for (const AuditUpload& upload : artifact.uploads) {
    w.Blob(std::span<const uint8_t>(upload.compressed.data(), upload.compressed.size()));
    WriteDigest(&w, upload.mac);
    w.U64(upload.raw_bytes);
    w.U64(upload.record_count);
    w.U64(upload.chain_seq);
    WriteDigest(&w, upload.chain_prev);
  }

  w.U64(artifact.results.size());
  for (const WindowResult& result : artifact.results) {
    w.U32(result.window_index);
    w.U64(static_cast<uint64_t>(result.watermark_time));
    w.U64(static_cast<uint64_t>(result.egress_time));
    w.U64(result.blobs.size());
    for (const EgressBlob& blob : result.blobs) {
      w.Blob(std::span<const uint8_t>(blob.ciphertext.data(), blob.ciphertext.size()));
      WriteDigest(&w, blob.mac);
      w.U64(blob.elems);
      w.U64(blob.ctr_offset);
    }
  }

  w.U64(artifact.source_frames.size());
  for (const auto& [source, frames] : artifact.source_frames) {
    w.U32(source);
    w.U64(frames);
  }
  return w.Take();
}

Result<SealArtifact> DecodeSealArtifact(std::span<const uint8_t> bytes) {
  const Status malformed = DataLoss("seal artifact is malformed");
  ByteReader r(bytes);
  SealArtifact artifact;
  SealedCheckpoint& sealed = artifact.sealed;

  uint32_t magic = 0;
  uint8_t mode = 0;
  if (!r.U32(&magic) || magic != kArtifactMagic || !r.U32(&sealed.version) || !r.U8(&mode) ||
      mode > static_cast<uint8_t>(SealMode::kDelta) || !r.U32(&sealed.identity.tenant) ||
      !r.U64(&sealed.identity.engine_id) || !r.U32(&sealed.identity.shard) ||
      !r.U64(&sealed.identity.chain_seq) || !ReadDigest(&r, &sealed.identity.chain_head) ||
      !r.U64(&sealed.base_chain_seq) || !ReadDigest(&r, &sealed.base_chain_head) ||
      !r.U64(&sealed.seal_salt) || !r.Blob(&sealed.ciphertext) || !ReadDigest(&r, &sealed.mac)) {
    return malformed;
  }
  sealed.mode = static_cast<SealMode>(mode);

  uint64_t upload_count = 0;
  if (!r.U64(&upload_count)) {
    return malformed;
  }
  for (uint64_t i = 0; i < upload_count; ++i) {
    AuditUpload upload;
    uint64_t raw_bytes = 0;
    uint64_t record_count = 0;
    if (!r.Blob(&upload.compressed) || !ReadDigest(&r, &upload.mac) || !r.U64(&raw_bytes) ||
        !r.U64(&record_count) || !r.U64(&upload.chain_seq) ||
        !ReadDigest(&r, &upload.chain_prev)) {
      return malformed;
    }
    upload.raw_bytes = raw_bytes;
    upload.record_count = record_count;
    artifact.uploads.push_back(std::move(upload));
  }

  uint64_t result_count = 0;
  if (!r.U64(&result_count)) {
    return malformed;
  }
  for (uint64_t i = 0; i < result_count; ++i) {
    WindowResult result;
    uint64_t watermark_time = 0;
    uint64_t egress_time = 0;
    uint64_t blob_count = 0;
    if (!r.U32(&result.window_index) || !r.U64(&watermark_time) || !r.U64(&egress_time) ||
        !r.U64(&blob_count)) {
      return malformed;
    }
    result.watermark_time = static_cast<ProcTimeUs>(watermark_time);
    result.egress_time = static_cast<ProcTimeUs>(egress_time);
    for (uint64_t b = 0; b < blob_count; ++b) {
      EgressBlob blob;
      if (!r.Blob(&blob.ciphertext) || !ReadDigest(&r, &blob.mac) || !r.U64(&blob.elems) ||
          !r.U64(&blob.ctr_offset)) {
        return malformed;
      }
      result.blobs.push_back(std::move(blob));
    }
    artifact.results.push_back(std::move(result));
  }

  uint64_t frame_count = 0;
  if (!r.U64(&frame_count)) {
    return malformed;
  }
  for (uint64_t i = 0; i < frame_count; ++i) {
    uint32_t source = 0;
    uint64_t frames = 0;
    if (!r.U32(&source) || !r.U64(&frames)) {
      return malformed;
    }
    artifact.source_frames[source] = frames;
  }
  if (!r.exhausted()) {
    return malformed;
  }
  return artifact;
}

size_t EnginePartitionBytes(const TenantSpec& spec) {
  constexpr size_t kPage = 64u << 10;
  return (spec.secure_quota_bytes + kPage - 1) / kPage * kPage;
}

DataPlaneConfig MakeEngineDataPlaneConfig(const TenantSpec& spec, const EngineIdentity& identity,
                                          const WorldSwitchConfig& switch_cost,
                                          bool logical_audit_timestamps,
                                          obs::MetricLabels labels) {
  DataPlaneConfig cfg;
  cfg.partition.secure_page_bytes = 64u << 10;
  cfg.partition.secure_dram_bytes = EnginePartitionBytes(spec);
  cfg.partition.group_reserve_bytes = cfg.partition.secure_dram_bytes;
  cfg.switch_cost = switch_cost;
  cfg.decrypt_ingress = spec.encrypted_ingress;
  cfg.ingress_key = spec.ingress_key;
  cfg.ingress_nonce = spec.ingress_nonce;
  cfg.egress_key = spec.egress_key;
  cfg.egress_nonce = spec.egress_nonce;
  cfg.mac_key = spec.mac_key;
  cfg.backpressure_threshold = spec.backpressure_threshold;
  cfg.logical_audit_timestamps = logical_audit_timestamps;
  cfg.identity = identity;
  cfg.metric_labels = std::move(labels);
  return cfg;
}

ReplicaSession::ReplicaSession(const TenantRegistry* registry, Options options)
    : registry_(registry), options_(std::move(options)) {}

Status ReplicaSession::Apply(SealArtifact artifact) {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_) {
    return FailedPrecondition("replica session already promoted; it accepts no further seals");
  }
  const TenantSpec* spec = registry_->Find(artifact.tenant());
  if (spec == nullptr) {
    return NotFound("seal artifact for unknown tenant " + std::to_string(artifact.tenant()));
  }
  const uint64_t engine_id = artifact.engine_id();
  const bool full = artifact.sealed.mode == SealMode::kFull;
  auto it = slots_.find(engine_id);
  if (!full && it == slots_.end()) {
    return FailedPrecondition("delta seal for engine " + std::to_string(engine_id) +
                              " but this replica holds no full base for it");
  }
  // One sequence for both modes, on scratch state: a full seal starts from a fresh chain
  // verifier and a fresh plane, a delta from a copy of the slot's verifier and the slot's own
  // plane (ApplySeal validates the whole seal before it mutates). A corrupted, reordered, or
  // replayed seal is rejected with the slot byte-for-byte intact, so the correct successor
  // still applies.
  AuditChainVerifier verifier = full ? AuditChainVerifier(spec->mac_key) : it->second.verifier;
  for (const AuditUpload& upload : artifact.uploads) {
    SBT_RETURN_IF_ERROR(verifier.Accept(upload));
  }
  SBT_RETURN_IF_ERROR(
      verifier.AcceptResume(artifact.identity().chain_seq, artifact.identity().chain_head));
  std::unique_ptr<DataPlane> fresh;
  if (full) {
    fresh = std::make_unique<DataPlane>(MakeEngineDataPlaneConfig(
        *spec, artifact.identity(), options_.switch_cost, options_.logical_audit_timestamps,
        obs::MetricLabels{{"tenant", spec->name}, {"role", "standby"}}));
  }
  DataPlane* dp = full ? fresh.get() : it->second.dp.get();
  SBT_ASSIGN_OR_RETURN(std::vector<uint8_t> annex, dp->ApplySeal(artifact.sealed));

  if (full) {  // replaces any slot for this engine wholesale
    it = slots_
             .insert_or_assign(engine_id,
                               Slot{.verifier = std::move(verifier), .dp = std::move(fresh)})
             .first;
  } else {
    it->second.verifier = std::move(verifier);
  }
  Slot& slot = it->second;
  slot.identity = artifact.identity();
  slot.engine_annex = std::move(annex);
  slot.uploads.insert(slot.uploads.end(), std::make_move_iterator(artifact.uploads.begin()),
                      std::make_move_iterator(artifact.uploads.end()));
  slot.results.insert(slot.results.end(), std::make_move_iterator(artifact.results.begin()),
                      std::make_move_iterator(artifact.results.end()));
  slot.source_frames = std::move(artifact.source_frames);  // cumulative counts: replace
  ++seals_applied_;
  return OkStatus();
}

size_t ReplicaSession::engines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

uint64_t ReplicaSession::seals_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seals_applied_;
}

std::map<std::pair<TenantId, uint32_t>, uint64_t> ReplicaSession::CoveredFrames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::pair<TenantId, uint32_t>, uint64_t> covered;
  for (const auto& [engine_id, slot] : slots_) {
    for (const auto& [source, frames] : slot.source_frames) {
      covered[{slot.identity.tenant, source}] = frames;
    }
  }
  return covered;
}

Result<std::vector<ReplicaSession::PromotedEngine>> ReplicaSession::TakeEngines() {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_) {
    return FailedPrecondition(
        "replica session already promoted; engines can be taken exactly once");
  }
  promoted_ = true;
  std::vector<PromotedEngine> engines;
  engines.reserve(slots_.size());
  for (auto& [engine_id, slot] : slots_) {
    PromotedEngine pe;
    pe.identity = slot.identity;
    pe.dp = std::move(slot.dp);
    pe.engine_annex = std::move(slot.engine_annex);
    pe.uploads = std::move(slot.uploads);
    pe.results = std::move(slot.results);
    pe.source_frames = std::move(slot.source_frames);
    engines.push_back(std::move(pe));
  }
  slots_.clear();
  return engines;
}

}  // namespace sbt
