#include "src/server/edge_server.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "src/attest/compress.h"
#include "src/common/logging.h"
#include "src/control/lifecycle.h"
#include "src/core/checkpoint.h"
#include "src/obs/trace.h"

namespace sbt {
namespace {

// How many frames one source may feed per frontend round before yielding to its siblings.
constexpr int kFrontendBurst = 32;

// Dispatcher gauge-sampling cadence: how often a shard's dispatcher refreshes its engines'
// committed-bytes gauges between frames. Cheap (one stats read per engine), so frequent.
constexpr auto kGaugeSamplePeriod = std::chrono::milliseconds(10);

// Admission-control counters (process-global: frontends serve interleaved tenants, and the
// per-source breakdown already lives in SourceReport).
struct AdmissionMetrics {
  obs::Counter* shed_frames;
  obs::Counter* stall_retries;
};

const AdmissionMetrics& Admission() {
  static const AdmissionMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return AdmissionMetrics{
        reg.GetCounter("sbt_admission_shed_frames_total"),
        reg.GetCounter("sbt_admission_stall_retries_total"),
    };
  }();
  return m;
}

obs::MetricLabels EngineMetricLabels(const std::string& tenant_name, uint32_t shard) {
  return {{"tenant", tenant_name}, {"shard", std::to_string(shard)}};
}

// Safety-net timeout for an idle frontend parked on the arrival signal. Every real wake
// source pings the CV — arrivals, closes, pause requests, and shard-queue space freeing under
// an admission stall (the queue space listeners) — so this only bounds the damage of a lost
// wakeup. Long on purpose: the previous 100us value made stalled frontends spin a core.
constexpr auto kFrontendIdleWait = std::chrono::milliseconds(5);

// Leading marker of the server-side annex sealed inside an engine checkpoint ("SBTS").
constexpr uint32_t kServerAnnexMagic = 0x53544253u;

uint64_t SourceKey(TenantId tenant, uint32_t source) {
  return (static_cast<uint64_t>(tenant) << 32) | source;
}

// The EdgeServer-level state of one engine, sealed alongside the runner state: watermark
// frontier per source, applied minimum, covered-frame counts, admission counters, and the
// engine's stable identity.
struct ServerAnnex {
  uint64_t engine_id = 0;
  EventTimeMs advanced = 0;
  uint64_t shed_frames = 0;
  uint64_t dispatch_errors = 0;
  uint64_t restores = 0;
  std::map<uint32_t, EventTimeMs> source_watermarks;
  std::map<uint32_t, uint64_t> source_frames;
};

std::vector<uint8_t> EncodeServerAnnex(const ServerAnnex& annex) {
  ByteWriter w;
  w.U32(kServerAnnexMagic);
  w.U64(annex.engine_id);
  w.U64(annex.advanced);
  w.U64(annex.shed_frames);
  w.U64(annex.dispatch_errors);
  w.U64(annex.restores);
  w.U64(annex.source_watermarks.size());
  for (const auto& [source, watermark] : annex.source_watermarks) {
    w.U32(source);
    w.U64(watermark);
  }
  w.U64(annex.source_frames.size());
  for (const auto& [source, frames] : annex.source_frames) {
    w.U32(source);
    w.U64(frames);
  }
  return w.Take();
}

Result<ServerAnnex> DecodeServerAnnex(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  ServerAnnex annex;
  uint32_t magic = 0;
  uint64_t advanced = 0;
  uint64_t source_count = 0;
  if (!r.U32(&magic) || magic != kServerAnnexMagic || !r.U64(&annex.engine_id) ||
      !r.U64(&advanced) || !r.U64(&annex.shed_frames) || !r.U64(&annex.dispatch_errors) ||
      !r.U64(&annex.restores) || !r.U64(&source_count)) {
    return DataLoss("engine server annex is malformed");
  }
  annex.advanced = advanced;
  for (uint64_t i = 0; i < source_count; ++i) {
    uint32_t source = 0;
    uint64_t watermark = 0;
    if (!r.U32(&source) || !r.U64(&watermark)) {
      return DataLoss("engine server annex is malformed");
    }
    annex.source_watermarks[source] = watermark;
  }
  uint64_t frame_count = 0;
  if (!r.U64(&frame_count)) {
    return DataLoss("engine server annex is malformed");
  }
  for (uint64_t i = 0; i < frame_count; ++i) {
    uint32_t source = 0;
    uint64_t frames = 0;
    if (!r.U32(&source) || !r.U64(&frames)) {
      return DataLoss("engine server annex is malformed");
    }
    annex.source_frames[source] = frames;
  }
  if (!r.exhausted()) {
    return DataLoss("engine server annex is malformed");
  }
  return annex;
}

}  // namespace

EdgeServer::EdgeServer(EdgeServerConfig config, TenantRegistry registry)
    : config_(config), registry_(std::move(registry)), router_(config.num_shards) {
  SBT_CHECK(config_.num_shards > 0);
  SBT_CHECK(config_.frontend_threads > 0);
  SBT_CHECK(config_.workers_per_engine > 0);
  SBT_CHECK(config_.shard_queue_frames > 0);
  ResetFleet(config_.num_shards);
}

void EdgeServer::ResetFleet(uint32_t num_shards) {
  router_ = ShardRouter(num_shards);
  shard_partition_bytes_ = config_.host_secure_budget_bytes / num_shards;
  shards_.clear();
  for (uint32_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->slice_bytes = shard_partition_bytes_;
    shards_.push_back(std::move(shard));
  }
}

void EdgeServer::StartShard(Shard& shard) {
  SBT_CHECK(shard.state == ShardState::kStopped);
  shard.queue = std::make_unique<BoundedChannel<RoutedFrame>>(config_.shard_queue_frames);
  shard.queue->SetDepthGauge(obs::MetricsRegistry::Global().GetGauge(
      "sbt_shard_queue_depth", {{"shard", std::to_string(shard.index)}}));
  // Queue space freeing is the wake signal an admission-stalled frontend is waiting for; ping
  // only while some source actually holds a stalled frame so the steady-state dispatch path
  // pays one relaxed load, not a CV broadcast per frame.
  shard.queue->SetSpaceListener([this] {
    if (stalled_sources_.load(std::memory_order_relaxed) > 0) {
      PingIngest();
    }
  });
  shard.dispatcher = std::thread([this, s = &shard] { DispatchLoop(s); });
  shard.state = ShardState::kServing;
}

void EdgeServer::StopShard(Shard& shard) {
  if (shard.state == ShardState::kStopped) {
    return;
  }
  // Close-then-join drains every frame already routed to this shard into its engines.
  shard.queue->Close();
  shard.dispatcher.join();
  shard.state = ShardState::kStopped;
}

void EdgeServer::RebuildRouting(Shard& shard) {
  shard.by_source.clear();
  shard.carved_bytes = 0;
  for (auto& engine : shard.engines) {
    shard.carved_bytes += engine->partition_bytes;
    for (const auto& [source, watermark] : engine->source_watermarks) {
      shard.by_source[SourceKey(engine->tenant, source)] = engine.get();
    }
  }
}

void EdgeServer::UpdateSourceFlow() {
  for (auto& src : sources_) {
    const Shard* home = nullptr;  // the shard the source's engine is resident on
    for (const auto& shard : shards_) {
      if (shard->by_source.contains(SourceKey(src->tenant, src->id))) {
        home = shard.get();
        break;
      }
    }
    // A source with no resident engine keeps its last home, clamped into a shrunk fleet: at
    // shutdown its frames drain (and drop) there.
    src->shard = home != nullptr ? home->index : std::min(src->shard, num_shards() - 1);
    src->suspended = !stopped_ && (home == nullptr || home->state != ShardState::kServing);
  }
}

EdgeServer::~EdgeServer() {
  if (started_ && !stopped_) {
    Shutdown();
  }
}

uint32_t EdgeServer::RouteOf(TenantId tenant, uint32_t source) const {
  // Multi-stream pipelines are tenant-homed: all their streams must meet in one engine.
  const TenantSpec* spec = registry_.Find(tenant);
  const uint32_t key = (spec != nullptr && spec->pipeline.num_streams() > 1) ? 0 : source;
  return router_.Route(tenant, key);
}

uint32_t EdgeServer::EngineHome(const ShardRouter& router, const Engine& engine) const {
  // Sources are sticky to their engine (in-flight windows must complete where their
  // contributions live), so an engine is homed by its anchor key: the tenant-homed key for
  // multi-stream pipelines, otherwise its lowest bound source id. Sources that shared the
  // engine before a resize move with it.
  const TenantSpec* spec = registry_.Find(engine.tenant);
  uint32_t key = 0;
  if ((spec == nullptr || spec->pipeline.num_streams() <= 1) &&
      !engine.source_watermarks.empty()) {
    key = engine.source_watermarks.begin()->first;
  }
  return router.Route(engine.tenant, key);
}

ReplicaSession::Options EdgeServer::ReplicaOptions() const {
  ReplicaSession::Options opts;
  opts.switch_cost = config_.switch_cost;
  opts.logical_audit_timestamps = config_.logical_audit_timestamps;
  return opts;
}

Result<std::unique_ptr<EdgeServer::Engine>> EdgeServer::BuildEngine(
    const Shard& shard, const TenantSpec& spec, const EngineIdentity& identity,
    std::unique_ptr<DataPlane> dp, const Engine* replaces) {
  const size_t partition_bytes = EnginePartitionBytes(spec);
  const size_t yielded_bytes = replaces != nullptr ? replaces->partition_bytes : 0;
  if (shard.carved_bytes - yielded_bytes + partition_bytes > shard.slice_bytes) {
    return ResourceExhausted("tenant " + spec.name + " quota oversubscribes shard " +
                             std::to_string(shard.index));
  }

  // Worker carve: the tenant's requested parallelism (or the server default), clamped so the
  // host-wide worker budget is never oversubscribed — but never below one worker, since a
  // worker-less engine could not close windows at all. Determinism makes this safe to clamp
  // freely: the grant changes throughput only, never the audit chain or egress bytes.
  int workers = spec.worker_threads > 0 ? spec.worker_threads : config_.workers_per_engine;
  if (config_.host_worker_budget > 0) {
    const int yielded_workers = replaces != nullptr ? replaces->worker_threads : 0;
    const int remaining = config_.host_worker_budget - WorkersAllocated() + yielded_workers;
    workers = std::max(1, std::min(workers, remaining));
  }

  // Per-engine telemetry attribution: every registry series this engine's data plane and
  // runner intern carries the tenant and its current shard home. A re-homed engine re-creates
  // here with its new shard label; the old series simply stops moving.
  const obs::MetricLabels labels = EngineMetricLabels(spec.name, shard.index);
  if (dp == nullptr) {
    // The data-plane config comes from the shared recipe every construction site uses.
    dp = std::make_unique<DataPlane>(MakeEngineDataPlaneConfig(
        spec, identity, config_.switch_cost, config_.logical_audit_timestamps, labels));
  }

  RunnerConfig rc;
  rc.knobs.worker_threads = workers;
  rc.metric_labels = labels;
  rc.ingest_path = IngestPath::kTrustedIo;
  // kShed tenants drop at the data-plane door instead of blocking inside IngestFrame.
  rc.block_on_backpressure = spec.admission == AdmissionPolicy::kStall;

  auto engine = std::make_unique<Engine>();
  engine->engine_id = identity.engine_id;
  engine->tenant = spec.id;
  engine->admission = spec.admission;
  engine->worker_threads = workers;
  engine->partition_bytes = partition_bytes;
  engine->dp = std::move(dp);
  engine->runner = std::make_unique<Runner>(engine->dp.get(), spec.pipeline, rc);
  engine->committed_gauge =
      obs::MetricsRegistry::Global().GetGauge("sbt_engine_committed_bytes", labels);
  return engine;
}

int EdgeServer::WorkersAllocated() const {
  int total = 0;
  for (const auto& shard : shards_) {
    for (const auto& engine : shard->engines) {
      total += engine->worker_threads;
    }
  }
  return total;
}

Status EdgeServer::BindSource(TenantId tenant, uint32_t source, FrameChannel* channel,
                              uint16_t pipeline_stream) {
  if (started_) {
    return FailedPrecondition("BindSource after Start");
  }
  if (channel == nullptr) {
    return InvalidArgument("null source channel");
  }
  const TenantSpec* spec = registry_.Find(tenant);
  if (spec == nullptr) {
    return NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (pipeline_stream >= spec->pipeline.num_streams()) {
    return InvalidArgument("pipeline stream out of range for tenant " + spec->name);
  }
  for (const auto& existing : sources_) {
    if (existing->tenant == tenant && existing->id == source) {
      return InvalidArgument("duplicate source " + std::to_string(source) + " for tenant " +
                             spec->name);
    }
  }

  const uint32_t shard_index = RouteOf(tenant, source);
  Shard& shard = *shards_[shard_index];
  Engine* engine = nullptr;
  for (auto& candidate : shard.engines) {
    if (candidate->tenant == tenant) {
      engine = candidate.get();
      break;
    }
  }
  if (engine == nullptr) {
    // First contact of this tenant with this shard: carve its partition out of the shard's
    // slice and instantiate the engine.
    const EngineIdentity identity{.tenant = tenant, .engine_id = next_engine_id_,
                                  .shard = shard_index};
    SBT_ASSIGN_OR_RETURN(std::unique_ptr<Engine> built,
                         BuildEngine(shard, *spec, identity, nullptr, nullptr));
    engine = built.get();
    shard.engines.push_back(std::move(built));
    ++next_engine_id_;
  }
  engine->source_watermarks.emplace(source, 0);
  engine->source_frames.emplace(source, 0);
  RebuildRouting(shard);

  auto src = std::make_unique<Source>();
  src->tenant = tenant;
  src->id = source;
  src->pipeline_stream = pipeline_stream;
  src->admission = spec->admission;
  src->channel = channel;
  src->shard = shard_index;
  sources_.push_back(std::move(src));
  return OkStatus();
}

Status EdgeServer::Start() {
  if (started_) {
    return FailedPrecondition("Start called twice");
  }
  if (sources_.empty()) {
    return FailedPrecondition("no sources bound");
  }
  started_ = true;
  // Source-channel arrivals wake idle frontends (cleared again in Shutdown, after the
  // frontends exit). Producers may not have started yet, so this cannot race a push.
  for (auto& src : sources_) {
    src->channel->SetListener([this] { PingIngest(); });
  }
  for (auto& shard : shards_) {
    StartShard(*shard);
  }
  UpdateSourceFlow();
  const size_t frontends =
      std::min<size_t>(static_cast<size_t>(config_.frontend_threads), sources_.size());
  frontends_.reserve(frontends);
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    frontends_live_ = frontends;
  }
  for (size_t f = 0; f < frontends; ++f) {
    frontends_.emplace_back([this, f, frontends] { FrontendLoop(f, frontends); });
  }
  return OkStatus();
}

void EdgeServer::PingIngest() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ++ingest_generation_;
  }
  ingest_cv_.notify_all();
}

void EdgeServer::PauseFrontends() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  pause_requested_.store(true, std::memory_order_relaxed);
  // Idle frontends are parked on the arrival signal, not polling: wake them so they see the
  // pause request now instead of at their safety timeout.
  PingIngest();
  pause_cv_.wait(lock, [this] { return frontends_parked_ == frontends_live_; });
}

void EdgeServer::ResumeFrontends() {
  // Every control operation ends here, with the frontends still parked: the one place sources
  // are re-pointed and suspended or resumed.
  UpdateSourceFlow();
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    pause_requested_.store(false, std::memory_order_relaxed);
    ++pause_epoch_;
  }
  pause_cv_.notify_all();
}

void EdgeServer::ParkUntilResumed() {
  std::unique_lock<std::mutex> lock(pause_mu_);
  // Loop, not a single wait: a straggler woken by round k's resume may find round k+1 already
  // requested. It must re-park HERE, under the barrier mutex, without touching any source —
  // if it left and ran a pass, it would have satisfied round k+1's "all parked" count while
  // racing the control thread's mutations.
  while (pause_requested_.load(std::memory_order_relaxed)) {
    ++frontends_parked_;
    pause_cv_.notify_all();
    const uint64_t epoch = pause_epoch_;
    pause_cv_.wait(lock, [this, epoch] { return pause_epoch_ != epoch; });
    --frontends_parked_;
  }
}

bool EdgeServer::TryDeliver(Source& src, RoutedFrame& rf) {
  BoundedChannel<RoutedFrame>& queue = *shards_[src.shard]->queue;
  if (queue.TryPush(rf)) {
    ++src.frames_delivered;
    return true;
  }
  // A closed queue is a stopped shard. A source flows into one only at shutdown (the source
  // rule holds every other source whose engine is not on a serving shard): the frame can
  // never be delivered, so drop it — watermarks included — exactly as dispatch drops frames
  // that find no resident engine. Holding it would wedge the frontend run-down.
  if (queue.closed()) {
    ++src.frames_shed;
    return true;
  }
  // The shard's ingest queue is full: the shard is backpressured. Shed tenants drop data
  // frames on the floor; watermarks are never shed (windows must still close), and stall
  // tenants hold the frame so only this source waits.
  if (src.admission == AdmissionPolicy::kShed && !rf.frame.is_watermark) {
    ++src.frames_shed;
    Admission().shed_frames->Add(1);
    return true;
  }
  return false;
}

void EdgeServer::FrontendLoop(size_t frontend_index, size_t num_frontends) {
  std::vector<Source*> mine;
  for (size_t i = frontend_index; i < sources_.size(); i += num_frontends) {
    mine.push_back(sources_[i].get());
  }
  while (true) {
    if (pause_requested_.load(std::memory_order_relaxed)) {
      ParkUntilResumed();
    }
    // Sampled before the scan: an arrival DURING the pass advances the generation, so the
    // idle wait below falls through instead of sleeping past it.
    uint64_t pass_generation;
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      pass_generation = ingest_generation_;
    }
    bool progressed = false;
    size_t finished = 0;
    for (Source* src : mine) {
      if (src->finished) {
        ++finished;
        continue;
      }
      // A suspended source's engine is not resident on a serving shard: hold its frames —
      // the bounded source channel pushes back to that source alone.
      if (src->suspended) {
        continue;
      }
      // Per-source FIFO: a held frame must go before anything newly popped.
      if (src->pending.has_value()) {
        if (!TryDeliver(*src, *src->pending)) {
          ++src->admission_retries;
          Admission().stall_retries->Add(1);
          continue;  // stalled: skip only this source, siblings keep flowing
        }
        src->pending.reset();
        stalled_sources_.fetch_sub(1, std::memory_order_relaxed);
        progressed = true;
      }
      for (int burst = 0; burst < kFrontendBurst && !src->pending.has_value(); ++burst) {
        auto frame = src->channel->PopWithTimeout(std::chrono::microseconds(0));
        if (!frame.has_value()) {
          if (src->channel->drained()) {
            src->finished = true;
            ++finished;
          }
          break;
        }
        progressed = true;
        RoutedFrame rf{src->tenant, src->id, std::move(*frame)};
        rf.frame.stream = src->pipeline_stream;
        if (!TryDeliver(*src, rf)) {
          src->pending.emplace(std::move(rf));
          stalled_sources_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (finished == mine.size()) {
      break;
    }
    if (!progressed) {
      // Park until something pings — a source-channel push or close, a pause request — or the
      // safety timeout that keeps admission-stall retries at the old poll cadence.
      std::unique_lock<std::mutex> lock(ingest_mu_);
      ingest_cv_.wait_for(lock, kFrontendIdleWait, [this, pass_generation] {
        return ingest_generation_ != pass_generation;
      });
    }
  }
  std::lock_guard<std::mutex> lock(pause_mu_);
  --frontends_live_;
  pause_cv_.notify_all();
}

void EdgeServer::Dispatch(Shard* shard, RoutedFrame rf) {
  const auto it = shard->by_source.find(SourceKey(rf.tenant, rf.source));
  if (it == shard->by_source.end()) {
    // Only reachable at shutdown, when every source flows: a source whose engine is gone (it
    // failed to restore, or was killed or detached and never restored) drains into its last
    // home. Its frames are dropped here rather than wedging the shard.
    SBT_LOG(Error) << "shard " << shard->index << ": frame for tenant " << rf.tenant
                   << " source " << rf.source << " has no resident engine";
    return;
  }
  Engine& e = *it->second;
  if (rf.frame.is_watermark) {
    EventTimeMs& latest = e.source_watermarks.at(rf.source);
    latest = std::max(latest, rf.frame.watermark);
    // The engine's watermark is the minimum over its sources: a window only closes once every
    // source feeding this engine has covered it.
    EventTimeMs min_wm = latest;
    for (const auto& [id, wm] : e.source_watermarks) {
      min_wm = std::min(min_wm, wm);
    }
    if (min_wm > e.advanced) {
      e.advanced = min_wm;
      const Status s = e.runner->AdvanceWatermark(min_wm);
      if (!s.ok()) {
        ++e.dispatch_errors;
        SBT_LOG(Error) << "shard " << shard->index << " tenant " << rf.tenant
                       << ": watermark failed: " << s.ToString();
      }
    }
    return;
  }
  // Covered-frame accounting: every data frame that reaches this engine counts, shed or not —
  // the seal reflects its (possibly null) effect, so replication replay must skip it.
  ++e.source_frames[rf.source];
  if (e.admission == AdmissionPolicy::kShed && e.dp->ShouldBackpressure()) {
    ++e.shed_frames;
    Admission().shed_frames->Add(1);
    return;
  }
  const Status s = e.runner->IngestFrame(rf.frame.bytes, rf.frame.stream, rf.frame.ctr_offset,
                                         rf.frame.segments);
  if (!s.ok()) {
    ++e.dispatch_errors;
    SBT_LOG(Error) << "shard " << shard->index << " tenant " << rf.tenant
                   << ": ingest failed: " << s.ToString();
  }
}

void EdgeServer::DispatchLoop(Shard* shard) {
  // The dispatcher doubles as the shard's periodic gauge sampler: it is the one thread that
  // may touch the shard's engines while the shard serves (control operations change them only
  // after StopShard joins it), so sampling here needs no locks and no extra thread.
  auto last_sample = std::chrono::steady_clock::now();
  while (auto rf = shard->queue->Pop()) {
    Dispatch(shard, std::move(*rf));
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sample >= kGaugeSamplePeriod) {
      last_sample = now;
      for (const auto& engine : shard->engines) {
        engine->committed_gauge->Set(
            static_cast<int64_t>(engine->dp->memory_stats().committed_bytes));
      }
    }
  }
}

Result<SealArtifact> EdgeServer::SealEngine(Engine& engine, SealMode mode, bool detach) {
  ServerAnnex annex;
  annex.engine_id = engine.engine_id;
  annex.advanced = engine.advanced;
  annex.shed_frames = engine.shed_frames;
  annex.dispatch_errors = engine.dispatch_errors;
  annex.restores = engine.restores;
  annex.source_watermarks = engine.source_watermarks;
  annex.source_frames = engine.source_frames;
  const std::vector<uint8_t> annex_bytes = EncodeServerAnnex(annex);

  EngineLifecycle lifecycle(engine.dp.get(), engine.runner.get());
  EngineLifecycle::CheckpointRequest request;
  request.mode = mode;
  request.server_annex = std::span<const uint8_t>(annex_bytes.data(), annex_bytes.size());
  SBT_ASSIGN_OR_RETURN(DataPlane::CheckpointBundle bundle,
                       lifecycle.Checkpoint(request, &engine.results));
  engine.uploads.push_back(std::move(bundle.audit));
  chain_heads_[engine.engine_id] = {engine.uploads.back().chain_seq + 1,
                                    engine.uploads.back().mac};

  SealArtifact artifact;
  artifact.sealed = std::move(bundle.sealed);
  artifact.source_frames = engine.source_frames;
  // Branch on the seal the plane actually produced, not the requested mode: a kDelta request
  // with no prior seal falls back to full, and a full artifact must stand alone.
  if (detach) {
    artifact.uploads = std::move(engine.uploads);
    artifact.results = std::move(engine.results);
    engine.uploads.clear();
    engine.results.clear();
    engine.uploads_shipped = 0;
    engine.results_shipped = 0;
  } else if (artifact.sealed.mode == SealMode::kFull) {
    artifact.uploads = engine.uploads;
    artifact.results = engine.results;
    engine.uploads_shipped = engine.uploads.size();
    engine.results_shipped = engine.results.size();
  } else {
    artifact.uploads.assign(engine.uploads.begin() + engine.uploads_shipped,
                            engine.uploads.end());
    artifact.results.assign(engine.results.begin() + engine.results_shipped,
                            engine.results.end());
    engine.uploads_shipped = engine.uploads.size();
    engine.results_shipped = engine.results.size();
  }
  return artifact;
}

Status EdgeServer::SealShard(Shard& shard, SealMode mode, bool detach,
                             std::vector<SealArtifact>* out) {
  // Seal what seals. An engine that refuses (it cannot once the shard is stopped and drained —
  // this is defensive) stays resident with its upload history intact rather than poisoning the
  // artifacts already taken from its co-residents.
  Status status = OkStatus();
  std::vector<std::unique_ptr<Engine>> kept;
  for (auto& engine : shard.engines) {
    auto artifact = SealEngine(*engine, mode, detach);
    if (!artifact.ok()) {
      SBT_LOG(Error) << "shard " << shard.index << ": sealing engine for tenant "
                     << engine->tenant << " failed: " << artifact.status().ToString();
      if (status.ok()) {
        status = artifact.status();
      }
      kept.push_back(std::move(engine));
      continue;
    }
    out->push_back(std::move(*artifact));
    if (!detach) {
      kept.push_back(std::move(engine));
    }
  }
  shard.engines = std::move(kept);
  RebuildRouting(shard);
  return status;
}

Result<std::vector<SealArtifact>> EdgeServer::Checkpoint(const CheckpointRequest& request) {
  if (!started_ || stopped_) {
    return FailedPrecondition("Checkpoint on a server that is not running");
  }
  if (request.shard >= shards_.size()) {
    return InvalidArgument("no such shard");
  }
  Shard& shard = *shards_[request.shard];
  // Sealing in place leaves the shard serving, so only a serving shard can do it. Checked
  // before the frontends park: the refusal has no side effect.
  if (!request.detach && shard.state != ShardState::kServing) {
    return FailedPrecondition("seal-in-place checkpoint of a stopped shard");
  }
  PauseFrontends();
  StopShard(shard);
  // A co-resident's seal failure does not void the artifacts taken (the failure is logged).
  std::vector<SealArtifact> artifacts;
  (void)SealShard(shard, request.mode, request.detach, &artifacts);
  if (!request.detach) {
    StartShard(shard);
  }
  ResumeFrontends();
  return artifacts;
}

Status EdgeServer::AdoptEngine(Shard& shard, ReplicaSession::PromotedEngine pe) {
  const TenantSpec* spec = registry_.Find(pe.identity.tenant);
  if (spec == nullptr) {
    return NotFound("promoted engine for unknown tenant " + std::to_string(pe.identity.tenant));
  }
  // Tamper-evident recovery, server side: the adopted chain position must continue the last
  // verified upload this server saw leave the engine. (The ReplicaSession already verified
  // every link up to this position.) A stale or forked artifact is rejected.
  if (const auto it = chain_heads_.find(pe.identity.engine_id); it != chain_heads_.end()) {
    if (pe.identity.chain_seq != it->second.first ||
        !DigestEqual(pe.identity.chain_head, it->second.second)) {
      return DataLoss("checkpoint is stale: the engine's audit chain advanced past it");
    }
  }
  // A pristine engine never processed anything and sealed nothing: a bind-time placeholder,
  // not a live incarnation of any checkpointed identity.
  const auto pristine = [](const Engine& e) {
    return e.uploads.empty() && e.dp->live_refs() == 0 && e.dp->audit_chain_seq() == 0 &&
           e.dp->cycle_stats().audit_records == 0;
  };
  // Split-brain guard: a checkpointed engine identity may be live at most once on this server.
  // Placeholders are exempt — their ids are locally assigned and may collide with ids from the
  // server that sealed the artifact.
  for (auto& other : shards_) {
    for (const auto& engine : other->engines) {
      if (engine->tenant == pe.identity.tenant &&
          engine->engine_id == pe.identity.engine_id && !pristine(*engine)) {
        return FailedPrecondition("engine is already live; refusing a second restore");
      }
    }
  }
  // A placeholder of the promoted tenant on this shard yields its carve to the promoted
  // incarnation (the standby warm-up path: BindSource created it, the real state streamed in).
  const Engine* placeholder = nullptr;
  for (const auto& resident : shard.engines) {
    if (resident->tenant == pe.identity.tenant && pristine(*resident)) {
      placeholder = resident.get();
      break;
    }
  }

  // Build the engine completely before installing it, so a failed adoption changes nothing.
  // The plane already carries the applied state; the fresh runner adopts the latest control
  // annex, and the server annex restores our own bookkeeping.
  SBT_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                       BuildEngine(shard, *spec, pe.identity, std::move(pe.dp), placeholder));
  EngineLifecycle lifecycle(engine->dp.get(), engine->runner.get());
  SBT_ASSIGN_OR_RETURN(const std::vector<uint8_t> server_annex,
                       lifecycle.AdoptState(std::span<const uint8_t>(pe.engine_annex.data(),
                                                                     pe.engine_annex.size())));
  SBT_ASSIGN_OR_RETURN(const ServerAnnex annex,
                       DecodeServerAnnex(std::span<const uint8_t>(server_annex.data(),
                                                                  server_annex.size())));
  if (annex.engine_id != pe.identity.engine_id) {
    return DataLoss("checkpoint metadata does not match its sealed engine identity");
  }
  engine->advanced = annex.advanced;
  engine->shed_frames = annex.shed_frames;
  engine->dispatch_errors = annex.dispatch_errors;
  engine->restores = annex.restores + 1;
  engine->source_watermarks = annex.source_watermarks;
  engine->source_frames = annex.source_frames;
  engine->uploads = std::move(pe.uploads);
  engine->results = std::move(pe.results);
  engine->uploads_shipped = engine->uploads.size();
  engine->results_shipped = engine->results.size();

  // A source routes to one engine, so the adopted engine takes its sources over from every
  // other engine of its tenant: a placeholder yields them (and goes once it has none left); an
  // engine with real state refuses — promotion never silently discards work. An engine with
  // none of its sources stays, even on this shard (a resize may home two engines there).
  std::vector<std::pair<Shard*, Engine*>> yielders;
  for (auto& other : shards_) {
    for (const auto& resident : other->engines) {
      if (resident->tenant != engine->tenant || resident.get() == placeholder ||
          !std::ranges::any_of(engine->source_watermarks, [&resident](const auto& entry) {
            return resident->source_watermarks.contains(entry.first);
          })) {
        continue;
      }
      if (!pristine(*resident)) {
        return FailedPrecondition("a source of the promoted engine feeds a live engine on shard " +
                                  std::to_string(other->index));
      }
      yielders.emplace_back(other.get(), resident.get());
    }
  }

  next_engine_id_ = std::max(next_engine_id_, engine->engine_id + 1);
  for (auto& [other, yielder] : yielders) {
    for (const auto& [source, watermark] : engine->source_watermarks) {
      yielder->source_watermarks.erase(source);
      yielder->source_frames.erase(source);
    }
    if (yielder->source_watermarks.empty()) {
      std::erase_if(other->engines, [y = yielder](const auto& e) { return e.get() == y; });
    }
    RebuildRouting(*other);
  }
  std::erase_if(shard.engines, [placeholder](const auto& e) { return e.get() == placeholder; });
  shard.engines.push_back(std::move(engine));
  RebuildRouting(shard);
  return OkStatus();
}

Status EdgeServer::Promote(ReplicaSession& replica, uint32_t shard_index) {
  if (stopped_) {
    return FailedPrecondition("Promote on a stopped server");
  }
  if (shard_index >= shards_.size()) {
    return InvalidArgument("no such shard");
  }
  SBT_ASSIGN_OR_RETURN(std::vector<ReplicaSession::PromotedEngine> engines,
                       replica.TakeEngines());
  PauseFrontends();
  // Adoption changes the target shard and takes sources over from placeholders of the promoted
  // tenants on other shards, so every shard holding an engine of such a tenant stops too. The
  // ones that served serve again and the target starts serving (before Start(), Start() does).
  std::vector<Shard*> serve;
  for (auto& shard : shards_) {
    const bool touched =
        shard->index == shard_index ||
        std::ranges::any_of(shard->engines, [&engines](const auto& resident) {
          return std::ranges::any_of(engines, [&resident](const auto& pe) {
            return pe.identity.tenant == resident->tenant;
          });
        });
    if (!touched) {
      continue;
    }
    if (started_ && (shard->index == shard_index || shard->state == ShardState::kServing)) {
      serve.push_back(shard.get());
    }
    StopShard(*shard);
  }
  Status status = OkStatus();
  for (auto& pe : engines) {
    const Status s = AdoptEngine(*shards_[shard_index], std::move(pe));
    if (!s.ok()) {
      SBT_LOG(Error) << "shard " << shard_index << ": promoting an engine failed: "
                     << s.ToString();
      if (status.ok()) {
        status = s;  // keep promoting the rest; their state must not be stranded
      }
    }
  }
  for (Shard* shard : serve) {
    StartShard(*shard);
  }
  ResumeFrontends();
  return status;
}

Status EdgeServer::Restore(uint32_t shard_index, std::vector<SealArtifact> artifacts) {
  if (!started_ || stopped_) {
    return FailedPrecondition("Restore on a server that is not running");
  }
  if (shard_index >= shards_.size()) {
    return InvalidArgument("no such shard");
  }
  // The operator path consumes the same pipeline as streamed failover: apply through a
  // ReplicaSession (full chain verification + delta-base checks), then promote.
  ReplicaSession replica(&registry_, ReplicaOptions());
  Status status = OkStatus();
  for (auto& artifact : artifacts) {
    const Status s = replica.Apply(std::move(artifact));
    if (!s.ok() && status.ok()) {
      status = s;  // keep applying the rest; their state must not be stranded
    }
  }
  const Status promoted = Promote(replica, shard_index);
  return status.ok() ? promoted : status;
}

Status EdgeServer::KillShard(uint32_t shard_index) {
  if (!started_ || stopped_) {
    return FailedPrecondition("KillShard on a server that is not running");
  }
  if (shard_index >= shards_.size()) {
    return InvalidArgument("no such shard");
  }
  Shard& shard = *shards_[shard_index];
  PauseFrontends();
  StopShard(shard);
  // The fault itself: every resident engine vanishes with whatever it had not sealed, exactly
  // as if the shard's secure world died. chain_heads_ deliberately survives — the cloud's
  // knowledge of the verified chain does not die with the edge hardware, so a stale artifact
  // sealed before newer uploads is still rejected at promote.
  shard.engines.clear();
  RebuildRouting(shard);
  ResumeFrontends();
  return OkStatus();
}

Status EdgeServer::Resize(uint32_t new_num_shards) {
  if (!started_ || stopped_) {
    return FailedPrecondition("Resize on a server that is not running");
  }
  if (new_num_shards == 0) {
    return InvalidArgument("cannot resize to zero shards");
  }
  PauseFrontends();

  // Plan first: every engine's new home and the carve load per new shard. An infeasible plan
  // aborts before any engine is touched, leaving the server running as before.
  const ShardRouter new_router(new_num_shards);
  const size_t new_slice = config_.host_secure_budget_bytes / new_num_shards;
  std::vector<size_t> planned_carve(new_num_shards, 0);
  std::map<uint64_t, uint32_t> home_of;  // engine_id -> new home
  for (auto& shard : shards_) {
    for (auto& engine : shard->engines) {
      const uint32_t home = EngineHome(new_router, *engine);
      planned_carve[home] += engine->partition_bytes;
      home_of[engine->engine_id] = home;
    }
  }
  for (uint32_t s = 0; s < new_num_shards; ++s) {
    if (planned_carve[s] > new_slice) {
      ResumeFrontends();
      return ResourceExhausted("resize to " + std::to_string(new_num_shards) +
                               " shards oversubscribes shard " + std::to_string(s));
    }
  }

  // Stop and detach-seal everything (full seals: each artifact must stand alone). An engine
  // that fails to seal cannot move; it is dropped with the old fleet and its seal's status
  // returned.
  Status status = OkStatus();
  std::vector<SealArtifact> moves;
  moves.reserve(home_of.size());
  for (auto& shard : shards_) {
    StopShard(*shard);
    const Status sealed = SealShard(*shard, SealMode::kFull, /*detach=*/true, &moves);
    if (!sealed.ok() && status.ok()) {
      status = sealed;
    }
  }

  // Rebuild the fleet under the new partition plan. One ReplicaSession re-verifies every moved
  // engine's full chain (re-sharding is as tamper-evident as recovery), then each engine is
  // adopted at its planned home.
  ResetFleet(new_num_shards);
  ReplicaSession replica(&registry_, ReplicaOptions());
  for (auto& artifact : moves) {
    const Status s = replica.Apply(std::move(artifact));
    if (!s.ok()) {
      SBT_LOG(Error) << "resize: applying a sealed engine failed: " << s.ToString();
      if (status.ok()) {
        status = s;
      }
    }
  }
  auto engines = replica.TakeEngines();
  if (!engines.ok()) {
    if (status.ok()) {
      status = engines.status();
    }
  } else {
    for (auto& pe : *engines) {
      const uint32_t home = home_of[pe.identity.engine_id];
      const Status s = AdoptEngine(*shards_[home], std::move(pe));
      if (!s.ok()) {
        SBT_LOG(Error) << "resize: restoring an engine on shard " << home
                       << " failed: " << s.ToString();
        if (status.ok()) {
          status = s;
        }
      }
    }
  }
  for (auto& shard : shards_) {
    StartShard(*shard);
  }
  ResumeFrontends();
  return status;
}

ServerReport EdgeServer::Shutdown() {
  ServerReport report;
  if (!started_ || stopped_) {
    return report;
  }
  // 0. The source rule with the server stopping: every source flows, so frontends can drain
  //    their channels and exit. Frames for engines that are gone are dropped: at a stopped
  //    shard's closed queue, or at dispatch with an error log.
  PauseFrontends();
  stopped_ = true;
  ResumeFrontends();
  // 1. Run the frontends down: close every source channel (idempotent — sources that already
  //    closed their end are unaffected); frontends drain what remains, then exit.
  for (auto& src : sources_) {
    src->channel->Close();
  }
  for (std::thread& t : frontends_) {
    t.join();
  }
  // No frontend listens anymore; unhook the channels so late pushes from lingering producers
  // don't call into a server that is being torn down.
  for (auto& src : sources_) {
    src->channel->SetListener(nullptr);
  }
  // 2. Stop every shard; dispatchers drain their queues (drain-after-close) and exit.
  for (auto& shard : shards_) {
    StopShard(*shard);
  }
  // 3. Per engine: drain all in-flight work, then collect results and the tenant's audit
  //    chain. Ordering matters: Drain before the final flush so every upload sequence is a
  //    complete session the verifier can replay with session_complete=true.
  for (auto& shard : shards_) {
    for (auto& engine : shard->engines) {
      engine->runner->Drain();
      TenantShardReport r;
      r.tenant = engine->tenant;
      r.tenant_name = registry_.Find(engine->tenant)->name;
      r.shard = shard->index;
      // One collection path for every engine-side counter (runner stats, world-switch and
      // cycle breakdowns, pool/allocator stats) — and the same struct rendered as labeled
      // samples into the report's scrape-shaped snapshot.
      r.telemetry = CollectEngineTelemetry(*engine->dp, *engine->runner);
      AppendEngineTelemetry(r.telemetry, EngineMetricLabels(r.tenant_name, shard->index),
                            &report.metrics);
      r.windows = std::move(engine->results);
      {
        std::vector<WindowResult> tail = engine->runner->TakeResults();
        r.windows.insert(r.windows.end(), std::make_move_iterator(tail.begin()),
                         std::make_move_iterator(tail.end()));
      }
      r.partition_bytes = engine->partition_bytes;
      r.worker_threads = engine->worker_threads;
      r.shed_frames = engine->shed_frames;
      r.dispatch_errors = engine->dispatch_errors;
      r.restores = engine->restores;

      engine->uploads.push_back(engine->dp->FlushAudit());
      r.uploads = engine->uploads.size();
      r.audit = engine->uploads.back();
      if (config_.verify_audit_on_shutdown) {
        const TenantSpec* spec = registry_.Find(engine->tenant);
        // Transport layer: upload MACs + hash-chain continuity (across any restores).
        AuditChainVerifier chain(spec->mac_key);
        r.chain_ok = true;
        std::vector<AuditRecord> records;
        for (const AuditUpload& upload : engine->uploads) {
          if (!chain.Accept(upload).ok()) {
            r.chain_ok = false;
            break;
          }
          auto decoded = DecodeAuditBatch(upload.compressed);
          if (!decoded.ok()) {
            r.chain_ok = false;
            break;
          }
          records.insert(records.end(), std::make_move_iterator(decoded->begin()),
                         std::make_move_iterator(decoded->end()));
        }
        // Replay layer: the decoded chain verifies as ONE session against the declaration —
        // a restored engine's records splice seamlessly onto its pre-checkpoint stream.
        const CloudVerifier verifier(spec->pipeline.ToVerifierSpec());
        r.verify = verifier.Verify(records, /*session_complete=*/true);
        r.verified = true;
      }
      report.engines.push_back(std::move(r));
    }
  }
  std::sort(report.engines.begin(), report.engines.end(),
            [](const TenantShardReport& a, const TenantShardReport& b) {
              return std::tie(a.tenant, a.shard) < std::tie(b.tenant, b.shard);
            });
  for (const auto& src : sources_) {
    report.sources.push_back(SourceReport{.tenant = src->tenant,
                                          .source = src->id,
                                          .shard = src->shard,
                                          .frames_delivered = src->frames_delivered,
                                          .frames_shed = src->frames_shed,
                                          .admission_retries = src->admission_retries});
  }
  // End-of-session observability flush: write the registry dump and the flight-recorder trace
  // if SBT_METRICS_DUMP / SBT_TRACE_DUMP ask for them (both no-ops otherwise).
  obs::MetricsRegistry::Global().DumpIfConfigured();
  obs::Tracer::Global().DumpIfConfigured();
  return report;
}

std::string EdgeServer::ScrapeMetrics(bool json) const {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  return json ? obs::ToJson(snap) : obs::ToPrometheusText(snap);
}

EdgeServer::ShardSnapshot EdgeServer::shard_snapshot(uint32_t shard_index) const {
  SBT_CHECK(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  ShardSnapshot snap;
  snap.partition_bytes = shard.slice_bytes;
  snap.carved_bytes = shard.carved_bytes;
  for (const auto& engine : shard.engines) {
    snap.committed_bytes += engine->dp->memory_stats().committed_bytes;
  }
  snap.queue_depth = shard.queue != nullptr ? shard.queue->size() : 0;  // null before Start()
  return snap;
}

}  // namespace sbt
