// Network ingress tests: the deterministic coalescer (SourceSequencer), the framed-TCP and
// datagram transports end to end over loopback against a live EdgeServer, churn/duplication/
// reordering tolerance, handshake authentication, and the headline equivalence property — a
// server fed by a device fleet over real sockets produces a byte-identical audit chain and
// egress to one fed the same per-device streams in-process.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/control/benchmarks.h"
#include "src/net/fleet.h"
#include "src/net/generator.h"
#include "src/server/edge_server.h"
#include "src/server/ingress.h"
#include "tests/testing/testing.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SBT_UNDER_SANITIZER 1
#endif
#endif
#if !defined(SBT_UNDER_SANITIZER) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define SBT_UNDER_SANITIZER 1
#endif

namespace sbt {
namespace {

// Fleet size for the churn-at-scale test: 10^4 sources natively, scaled down under
// sanitizers (the nightly TSan soak pins its own size via this env var).
size_t SoakSources() {
  if (const char* env = std::getenv("SBT_INGRESS_SOAK_SOURCES")) {
    const int v = std::atoi(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
#if defined(SBT_UNDER_SANITIZER)
  return 1000;
#else
  return 10000;
#endif
}

// --- SourceSequencer ---------------------------------------------------------------------

struct DrainedFrame {
  std::vector<uint8_t> bytes;
  uint64_t ctr_offset = 0;
  bool is_watermark = false;
  EventTimeMs watermark = 0;
  std::vector<FrameSegment> segments;

  bool operator==(const DrainedFrame& o) const {
    if (bytes != o.bytes || ctr_offset != o.ctr_offset || is_watermark != o.is_watermark ||
        watermark != o.watermark || segments.size() != o.segments.size()) {
      return false;
    }
    for (size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].byte_offset != o.segments[i].byte_offset ||
          segments[i].byte_len != o.segments[i].byte_len ||
          segments[i].ctr_offset != o.segments[i].ctr_offset) {
        return false;
      }
    }
    return true;
  }
};

std::vector<DrainedFrame> Drain(FrameChannel* ch) {
  std::vector<DrainedFrame> out;
  while (auto f = ch->PopWithTimeout(std::chrono::microseconds(0))) {
    out.push_back(DrainedFrame{f->bytes, f->ctr_offset, f->is_watermark, f->watermark,
                               f->segments});
  }
  return out;
}

// One device's scripted stream: two rungs of one 8-byte frame each, keystream-contiguous
// ACROSS devices in ascending-id flush order so the packer's segment merge is observable.
struct Rung {
  std::vector<uint8_t> bytes;
  uint64_t ctr_offset;
  EventTimeMs watermark;
};

std::map<uint32_t, std::vector<Rung>> ScriptedStreams() {
  const std::vector<uint32_t> devices = {2, 5, 9};
  std::map<uint32_t, std::vector<Rung>> streams;
  for (int r = 0; r < 2; ++r) {
    for (size_t i = 0; i < devices.size(); ++i) {
      const uint32_t dev = devices[i];
      Rung rung;
      rung.bytes.assign(8, static_cast<uint8_t>(dev * 10 + r));
      rung.ctr_offset = (static_cast<uint64_t>(r) * devices.size() + i) * 8;
      rung.watermark = static_cast<EventTimeMs>((r + 1) * 100);
      streams[dev].push_back(rung);
    }
  }
  return streams;
}

TEST(SourceSequencerTest, FlushOrderIsIndependentOfArrivalInterleaving) {
  const auto streams = ScriptedStreams();

  // Interleaving A: device by device, each one's whole stream before the next.
  SourceSequencer seq_a(0, /*event_size=*/4, /*coalesce_events=*/64, /*channel_capacity=*/64);
  for (const auto& [dev, rungs] : streams) {
    seq_a.AddSource(dev);
  }
  for (const auto& [dev, rungs] : streams) {
    for (const Rung& r : rungs) {
      seq_a.OnData(dev, r.bytes, r.ctr_offset);
      seq_a.OnWatermark(dev, r.watermark);
    }
  }
  for (const auto& [dev, rungs] : streams) {
    seq_a.OnDone(dev);
  }

  // Interleaving B: round-robin across devices, in reversed device order, rung by rung.
  SourceSequencer seq_b(0, 4, 64, 64);
  for (const auto& [dev, rungs] : streams) {
    seq_b.AddSource(dev);
  }
  for (size_t r = 0; r < 2; ++r) {
    for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
      const Rung& rung = it->second[r];
      seq_b.OnData(it->first, rung.bytes, rung.ctr_offset);
      seq_b.OnWatermark(it->first, rung.watermark);
    }
  }
  for (const auto& [dev, rungs] : streams) {
    seq_b.OnDone(dev);
  }

  ASSERT_TRUE(seq_a.finalized() && seq_b.finalized());
  const auto frames_a = Drain(seq_a.channel());
  const auto frames_b = Drain(seq_b.channel());
  ASSERT_EQ(frames_a.size(), frames_b.size());
  for (size_t i = 0; i < frames_a.size(); ++i) {
    EXPECT_TRUE(frames_a[i] == frames_b[i]) << "frame " << i;
  }

  // Shape: per rung one coalesced batch + one group watermark, and because the scripted
  // offsets are contiguous in flush order, each batch is a single keystream segment.
  ASSERT_EQ(frames_a.size(), 4u);
  EXPECT_FALSE(frames_a[0].is_watermark);
  ASSERT_EQ(frames_a[0].segments.size(), 1u);
  EXPECT_EQ(frames_a[0].segments[0].byte_len, 24u);
  EXPECT_EQ(frames_a[0].segments[0].ctr_offset, 0u);
  EXPECT_TRUE(frames_a[1].is_watermark);
  EXPECT_EQ(frames_a[1].watermark, 100u);
  ASSERT_EQ(frames_a[2].segments.size(), 1u);
  EXPECT_EQ(frames_a[2].segments[0].ctr_offset, 24u);
  EXPECT_TRUE(frames_a[3].is_watermark);
  EXPECT_EQ(frames_a[3].watermark, 200u);
  EXPECT_EQ(seq_a.events_in(), 12u);
  EXPECT_EQ(seq_a.batches_out(), 2u);
}

TEST(SourceSequencerTest, CutsBatchesAtTheCoalesceTargetAndDropsRegressedWatermarks) {
  SourceSequencer seq(0, /*event_size=*/4, /*coalesce_events=*/4, /*channel_capacity=*/64);
  seq.AddSource(1);
  // Three 2-event frames: 2+2 fits the 4-event target, the third opens a new batch.
  seq.OnData(1, std::vector<uint8_t>(8, 0xaa), 0);
  seq.OnData(1, std::vector<uint8_t>(8, 0xbb), 8);
  seq.OnData(1, std::vector<uint8_t>(8, 0xcc), 16);
  seq.OnWatermark(1, 100);
  seq.OnWatermark(1, 100);  // repeated: dropped, not re-emitted
  seq.OnWatermark(1, 50);   // regressed: dropped (watermarks are monotone)
  seq.OnDone(1);

  const auto frames = Drain(seq.channel());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].bytes.size(), 16u);  // frames 1+2 coalesced (one contiguous segment)
  ASSERT_EQ(frames[0].segments.size(), 1u);
  EXPECT_EQ(frames[0].segments[0].byte_len, 16u);
  EXPECT_EQ(frames[1].bytes.size(), 8u);   // frame 3 alone in the follow-up batch
  EXPECT_EQ(frames[1].segments[0].ctr_offset, 16u);
  EXPECT_TRUE(frames[2].is_watermark);
  EXPECT_EQ(frames[2].watermark, 100u);
}

// One step of a single device's stream, with how many frames the step must leave in the
// channel of a single-device group that packs on arrival.
struct Step {
  enum class Kind { kData, kWatermark, kDone } kind;
  size_t events = 0;  // kData: 4-byte events
  uint64_t ctr_offset = 0;
  EventTimeMs watermark = 0;
  size_t pushed = 0;
};

std::vector<Step> SingleDeviceScript() {
  using K = Step::Kind;
  return {
      {K::kData, 2, 0, 0, 0},
      {K::kData, 2, 8, 0, 0},
      {K::kData, 3, 16, 0, 1},  // cut mid-rung: 2+2 leaves before the watermark
      {K::kData, 1, 100, 0, 0},  // keystream gap: a second segment in the open batch
      {K::kWatermark, 0, 0, 100, 2},
      {K::kWatermark, 0, 0, 100, 0},  // repeated: dropped
      {K::kWatermark, 0, 0, 50, 0},  // regressed: dropped
      {K::kData, 5, 104, 0, 0},  // one frame over the target opens a batch alone
      {K::kData, 1, 124, 0, 1},
      {K::kWatermark, 0, 0, 200, 2},
      {K::kData, 2, 128, 0, 0},
      {K::kDone, 0, 0, 0, 1},  // the partial batch leaves at end-of-stream
  };
}

void Apply(SourceSequencer* seq, uint32_t source, const Step& step) {
  switch (step.kind) {
    case Step::Kind::kData:
      seq->OnData(source,
                  std::vector<uint8_t>(step.events * 4, static_cast<uint8_t>(step.ctr_offset)),
                  step.ctr_offset);
      break;
    case Step::Kind::kWatermark:
      seq->OnWatermark(source, step.watermark);
      break;
    case Step::Kind::kDone:
      seq->OnDone(source);
      break;
  }
}

// A single-device group hands each batch to the engine as soon as the coalesce target cuts it,
// before the watermark that closes its rung, and pushes exactly what the buffered path pushes.
// The reference is the buffered path: the same stream through a two-device group whose second
// device sends only the same watermarks, so every frame waits for its rung there.
TEST(SourceSequencerTest, SingleSourcePacksOnArrivalAndMatchesTheBufferedPath) {
  const auto script = SingleDeviceScript();

  SourceSequencer streamed(0, /*event_size=*/4, /*coalesce_events=*/4, /*channel_capacity=*/64);
  streamed.AddSource(7);
  std::vector<DrainedFrame> streamed_frames;
  for (size_t i = 0; i < script.size(); ++i) {
    Apply(&streamed, 7, script[i]);
    const auto pushed = Drain(streamed.channel());
    EXPECT_EQ(pushed.size(), script[i].pushed) << "step " << i;
    streamed_frames.insert(streamed_frames.end(), pushed.begin(), pushed.end());
  }
  ASSERT_TRUE(streamed.finalized());

  SourceSequencer buffered(0, 4, 4, 64);
  buffered.AddSource(7);
  buffered.AddSource(8);
  for (const Step& step : script) {
    Apply(&buffered, 7, step);
    if (step.kind != Step::Kind::kData) {
      Apply(&buffered, 8, step);
    }
  }
  ASSERT_TRUE(buffered.finalized());
  const auto buffered_frames = Drain(buffered.channel());

  ASSERT_EQ(streamed_frames.size(), buffered_frames.size());
  for (size_t i = 0; i < streamed_frames.size(); ++i) {
    EXPECT_TRUE(streamed_frames[i] == buffered_frames[i]) << "frame " << i;
  }
  EXPECT_EQ(streamed.events_in(), buffered.events_in());
  EXPECT_EQ(streamed.batches_out(), buffered.batches_out());

  // Shape: batches {2+2}, {3 | gap | 1}, wm 100, {5}, {1}, wm 200, {2}.
  ASSERT_EQ(streamed_frames.size(), 7u);
  EXPECT_EQ(streamed_frames[0].bytes.size(), 16u);
  ASSERT_EQ(streamed_frames[1].segments.size(), 2u);
  EXPECT_EQ(streamed_frames[1].segments[1].ctr_offset, 100u);
  EXPECT_TRUE(streamed_frames[2].is_watermark);
  EXPECT_EQ(streamed_frames[2].watermark, 100u);
  EXPECT_EQ(streamed_frames[3].bytes.size(), 20u);
  EXPECT_TRUE(streamed_frames[5].is_watermark);
  EXPECT_EQ(streamed_frames[5].watermark, 200u);
  EXPECT_EQ(streamed_frames[6].bytes.size(), 8u);
}

// Registration closes at the first delivery: a group that packed frames on arrival as a single
// device cannot become a buffered two-device group.
TEST(SourceSequencerDeathTest, AddSourceAfterFirstDeliveryAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SourceSequencer seq(0, 4, 4, 8);
        seq.AddSource(1);
        seq.OnData(1, std::vector<uint8_t>(8, 1), 0);
        seq.AddSource(2);
      },
      "SBT_CHECK failed");
}

// --- end-to-end over loopback ------------------------------------------------------------

struct TestDeployment {
  TenantRegistry registry_copy;  // keys, for result decryption
  std::unique_ptr<EdgeServer> server;
  std::unique_ptr<IngressFrontend> frontend;
};

GeneratorConfig DeviceGen(const TenantSpec& spec, uint32_t seed, uint32_t events_per_window,
                          uint32_t num_windows, uint32_t batch_events) {
  GeneratorConfig cfg;
  cfg.workload.kind = WorkloadKind::kIntelLab;
  cfg.workload.events_per_window = events_per_window;
  cfg.workload.window_ms = 1000;
  cfg.workload.seed = seed;
  cfg.batch_events = batch_events;
  cfg.num_windows = num_windows;
  cfg.encrypt = spec.encrypted_ingress;
  cfg.key = spec.ingress_key;
  cfg.nonce = spec.ingress_nonce;
  return cfg;
}

TestDeployment MakeDeployment(size_t num_devices, const IngressConfig& in_cfg,
                              uint32_t num_shards) {
  TestDeployment d;
  TenantRegistry registry;
  EXPECT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 8u << 20)).ok());
  EXPECT_TRUE(d.registry_copy.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 8u << 20)).ok());

  EdgeServerConfig cfg;
  cfg.num_shards = num_shards;
  cfg.host_secure_budget_bytes = 128u << 20;
  cfg.frontend_threads = 1;
  cfg.workers_per_engine = 1;
  cfg.logical_audit_timestamps = true;  // byte-equivalence across runs needs logical clocks
  d.server = std::make_unique<EdgeServer>(cfg, std::move(registry));

  d.frontend = std::make_unique<IngressFrontend>(in_cfg, &d.registry_copy);
  for (size_t i = 0; i < num_devices; ++i) {
    EXPECT_TRUE(d.frontend->Provision(1, static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(d.frontend->BindTo(d.server.get()).ok());
  EXPECT_TRUE(d.server->Start().ok());
  return d;
}

std::vector<DeviceConfig> FleetDevices(const TenantSpec& spec, size_t n,
                                       uint32_t events_per_window, uint32_t num_windows,
                                       uint32_t batch_events) {
  std::vector<DeviceConfig> devices;
  devices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DeviceConfig dc;
    dc.tenant = 1;
    dc.source = static_cast<uint32_t>(i);
    dc.gen = DeviceGen(spec, /*seed=*/100 + static_cast<uint32_t>(i), events_per_window,
                       num_windows, batch_events);
    dc.mac_key = spec.mac_key;
    devices.push_back(std::move(dc));
  }
  return devices;
}

// The headline property: a server fed over real loopback TCP — with connection churn and
// duplicate retransmits injected — produces a byte-identical audit chain and egress to a
// server fed the same per-device streams through the in-process delivery path.
TEST(IngressEquivalenceTest, TcpFleetMatchesInProcessDeliveryByteForByte) {
  constexpr size_t kDevices = 5;
  constexpr uint32_t kEventsPerWindow = 400;
  constexpr uint32_t kWindows = 3;
  constexpr uint32_t kBatch = 100;
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;  // one group -> one engine: the strongest equivalence statement
  in_cfg.coalesce_events = 512;
  in_cfg.channel_capacity = 8;

  // Run A: in-process. Device streams delivered straight into the sequencers, one device at a
  // time (the sequencer makes the interleaving irrelevant — that is the point).
  TestDeployment a = MakeDeployment(kDevices, in_cfg, /*num_shards=*/1);
  const TenantSpec spec = *a.registry_copy.Find(1);
  for (size_t i = 0; i < kDevices; ++i) {
    Generator gen(DeviceGen(spec, 100 + static_cast<uint32_t>(i), kEventsPerWindow, kWindows,
                            kBatch));
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        a.frontend->DeliverLocalWatermark(1, static_cast<uint32_t>(i), frame->watermark);
      } else {
        a.frontend->DeliverLocalData(1, static_cast<uint32_t>(i), std::move(frame->bytes),
                                     frame->ctr_offset);
      }
    }
    a.frontend->DeliverLocalDone(1, static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(a.frontend->AllSourcesDone());
  const ServerReport report_a = a.server->Shutdown();

  // Run B: the same streams over loopback TCP with churn every 3 messages and a duplicate
  // retransmit on every second reconnect.
  TestDeployment b = MakeDeployment(kDevices, in_cfg, /*num_shards=*/1);
  ASSERT_TRUE(b.frontend->Start().ok());
  FleetConfig fc;
  fc.tcp_port = b.frontend->tcp_port();
  fc.threads = 3;
  fc.frames_per_connection = 3;
  fc.dup_on_reconnect = 2;
  DeviceFleet fleet(fc, FleetDevices(spec, kDevices, kEventsPerWindow, kWindows, kBatch));
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  ASSERT_TRUE(b.frontend->WaitAllDone(std::chrono::milliseconds(30000)));
  b.frontend->Stop();
  const ServerReport report_b = b.server->Shutdown();

  EXPECT_GT(fleet_report->connects, kDevices);  // churn actually happened
  EXPECT_GT(fleet_report->dup_injected, 0u);
  const auto stats_b = b.frontend->stats();
  EXPECT_EQ(stats_b.dup_frames, fleet_report->dup_injected);  // every dup seq was dropped
  EXPECT_EQ(stats_b.events, fleet_report->events_sent);

  // Byte-identical attestation and egress.
  ASSERT_EQ(report_a.engines.size(), 1u);
  ASSERT_EQ(report_b.engines.size(), 1u);
  const TenantShardReport& ea = report_a.engines[0];
  const TenantShardReport& eb = report_b.engines[0];
  EXPECT_TRUE(ea.verified && ea.verify.correct);
  EXPECT_TRUE(eb.verified && eb.verify.correct);
  EXPECT_EQ(ea.runner().events_ingested, eb.runner().events_ingested);
  EXPECT_EQ(ea.audit.record_count, eb.audit.record_count);
  ASSERT_EQ(ea.audit.compressed.size(), eb.audit.compressed.size());
  EXPECT_EQ(ea.audit.compressed, eb.audit.compressed) << "audit chains diverged";
  EXPECT_EQ(ea.audit.mac, eb.audit.mac);
  ASSERT_EQ(ea.windows.size(), eb.windows.size());
  for (size_t w = 0; w < ea.windows.size(); ++w) {
    EXPECT_EQ(ea.windows[w].window_index, eb.windows[w].window_index);
    ASSERT_EQ(ea.windows[w].blobs.size(), eb.windows[w].blobs.size());
    for (size_t j = 0; j < ea.windows[w].blobs.size(); ++j) {
      EXPECT_EQ(ea.windows[w].blobs[j].ciphertext, eb.windows[w].blobs[j].ciphertext)
          << "window " << w << " blob " << j;
      EXPECT_EQ(ea.windows[w].blobs[j].ctr_offset, eb.windows[w].blobs[j].ctr_offset);
    }
  }
}

// Churn at scale: SoakSources() devices (10^4 natively) over loopback TCP, every device
// reconnecting for each rung (the fleet's fd budget forces connect-per-rung) and retransmitting
// its last message on every reconnect. No event is lost, every duplicate is dropped, and the
// audit chain still verifies at shutdown.
TEST(IngressScaleTest, TcpFleetSustainsChurningSources) {
  const size_t kDevices = SoakSources();
  IngressConfig in_cfg;
  in_cfg.num_shards = 2;
  in_cfg.coalesce_events = 4096;
  TestDeployment d = MakeDeployment(kDevices, in_cfg, /*num_shards=*/2);
  const TenantSpec spec = *d.registry_copy.Find(1);
  ASSERT_TRUE(d.frontend->Start().ok());

  FleetConfig fc;
  fc.tcp_port = d.frontend->tcp_port();
  fc.threads = 4;
  fc.dup_on_reconnect = 1;
  fc.max_open_per_thread = 64;  // force connect-per-rung churn regardless of fleet size
  DeviceFleet fleet(fc, FleetDevices(spec, kDevices, /*events_per_window=*/16,
                                     /*num_windows=*/1, /*batch_events=*/16));
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  ASSERT_TRUE(d.frontend->WaitAllDone(std::chrono::milliseconds(120000)));
  d.frontend->Stop();
  const ServerReport report = d.server->Shutdown();

  const auto stats = d.frontend->stats();
  EXPECT_EQ(fleet_report->devices, kDevices);
  EXPECT_EQ(fleet_report->handshake_failures, 0u);
  EXPECT_GE(fleet_report->connects, 2 * kDevices);  // >= one churn reconnect per device
  EXPECT_EQ(stats.sessions_accepted, fleet_report->connects);
  EXPECT_EQ(stats.events, fleet_report->events_sent);  // zero loss through churn
  EXPECT_EQ(stats.events, 16u * kDevices);
  EXPECT_EQ(stats.dup_frames, fleet_report->dup_injected);
  EXPECT_GT(stats.batches, 0u);

  uint64_t ingested = 0;
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.runner().task_errors, 0u);
    EXPECT_TRUE(e.verified && e.verify.correct) << "shard " << e.shard;
    ingested += e.runner().events_ingested;
  }
  EXPECT_EQ(ingested, 16u * kDevices);
}

// Datagram mode: duplicated and reordered packets are resolved by per-device sequence numbers
// — every event still arrives exactly once, in each device's order, and the pipeline verifies.
TEST(IngressUdpTest, ToleratesDuplicationAndReordering) {
  constexpr size_t kDevices = 40;
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  in_cfg.enable_udp = true;
  in_cfg.dgram_boot_nonce = 77;  // this deployment epoch's datagram-key randomizer
  TestDeployment d = MakeDeployment(kDevices, in_cfg, /*num_shards=*/1);
  const TenantSpec spec = *d.registry_copy.Find(1);
  ASSERT_TRUE(d.frontend->Start().ok());

  FleetConfig fc;
  fc.use_udp = true;
  fc.udp_port = d.frontend->udp_port();
  fc.dgram_boot_nonce = 77;
  fc.threads = 2;
  fc.dup_every = 3;   // every 3rd datagram sent twice
  fc.swap_every = 5;  // every 5th pair sent in swapped order
  // 10 datagrams per device (4 data frames + 1 watermark per window), so both injectors fire.
  DeviceFleet fleet(fc, FleetDevices(spec, kDevices, /*events_per_window=*/200,
                                     /*num_windows=*/2, /*batch_events=*/50));
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  ASSERT_TRUE(d.frontend->WaitAllDone(std::chrono::milliseconds(60000)));
  d.frontend->Stop();
  const ServerReport report = d.server->Shutdown();

  const auto stats = d.frontend->stats();
  EXPECT_GT(fleet_report->dup_injected, 0u);
  EXPECT_GT(fleet_report->swaps_injected, 0u);
  EXPECT_GE(stats.dup_frames, fleet_report->dup_injected);  // + kDone re-sends
  EXPECT_GT(stats.reordered_dgrams, 0u);
  EXPECT_EQ(stats.skipped_dgrams, 0u);  // loopback at this volume: nothing actually lost
  EXPECT_EQ(stats.events, fleet_report->events_sent);

  ASSERT_EQ(report.engines.size(), 1u);
  EXPECT_EQ(report.engines[0].runner().events_ingested, fleet_report->events_sent);
  EXPECT_TRUE(report.engines[0].verified && report.engines[0].verify.correct);
}

// The session handshake is the tenant boundary: a device keyed with another tenant's MAC key,
// or never provisioned at all, is rejected before a single payload byte reaches a sequencer.
TEST(IngressAuthTest, WrongTenantKeyAndUnknownDeviceAreRejected) {
  TenantRegistry registry;  // outlives the frontend; a second tenant provides the wrong key
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 8u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "imposter", MakeWinSum(1000), 8u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);
  const TenantSpec imposter = *registry.Find(2);

  TenantRegistry server_registry;
  ASSERT_TRUE(server_registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 8u << 20)).ok());
  EdgeServerConfig cfg;
  cfg.num_shards = 1;
  cfg.host_secure_budget_bytes = 32u << 20;
  EdgeServer server(cfg, std::move(server_registry));

  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  IngressFrontend frontend(in_cfg, &registry);
  ASSERT_TRUE(frontend.Provision(1, /*source=*/0).ok());
  ASSERT_TRUE(frontend.BindTo(&server).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(frontend.Start().ok());

  // Device 0 exists but presents tenant 2's key; device 99 was never provisioned.
  std::vector<DeviceConfig> devices;
  DeviceConfig wrong_key;
  wrong_key.tenant = 1;
  wrong_key.source = 0;
  wrong_key.gen = DeviceGen(sensors, 1, 100, 1, 100);
  wrong_key.mac_key = imposter.mac_key;
  devices.push_back(wrong_key);
  DeviceConfig unknown;
  unknown.tenant = 1;
  unknown.source = 99;
  unknown.gen = DeviceGen(sensors, 2, 100, 1, 100);
  unknown.mac_key = sensors.mac_key;
  devices.push_back(unknown);

  FleetConfig fc;
  fc.tcp_port = frontend.tcp_port();
  fc.threads = 1;
  DeviceFleet fleet(fc, devices);
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  EXPECT_EQ(fleet_report->handshake_failures, 2u);
  EXPECT_EQ(fleet_report->events_sent, 0u);

  frontend.Stop();  // aborts the never-finalized group so Shutdown cannot hang
  (void)server.Shutdown();
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.sessions_rejected, 2u);
  EXPECT_EQ(stats.sessions_accepted, 0u);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.events, 0u);
}

// Handshake challenges start unpredictably per process: two identically provisioned frontends
// (a restart, in effect) answer the same Hello with different challenges, so a Hello+Auth
// recorded before a restart never verifies against the restarted frontend.
TEST(IngressAuthTest, FreshFrontendsIssueDifferentChallenges) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 8u << 20)).ok());
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  wire::Hello hello;
  hello.tenant = 1;
  hello.source = 0;
  hello.client_nonce = 7;
  std::vector<uint64_t> challenges;
  for (int i = 0; i < 2; ++i) {
    IngressFrontend frontend(in_cfg, &registry);
    ASSERT_TRUE(frontend.Provision(1, /*source=*/0).ok());
    ASSERT_TRUE(frontend.Start().ok());
    const auto challenge = testing::HelloChallenge(frontend.tcp_port(), hello);
    frontend.Stop();
    ASSERT_TRUE(challenge.has_value());
    challenges.push_back(*challenge);
  }
  EXPECT_NE(challenges[0], challenges[1]);
}

// A device that delivered its final end-of-stream cannot rejoin: the reconnect handshake
// draws a Reject. Regression test — this used to pass the handshake and reach the
// sequencer's done-state invariant, aborting the whole multi-tenant process on one
// misbehaving (but authenticated) device.
TEST(IngressAuthTest, ReconnectAfterFinalByeIsRejected) {
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  TestDeployment d = MakeDeployment(1, in_cfg, /*num_shards=*/1);
  const TenantSpec spec = *d.registry_copy.Find(1);
  ASSERT_TRUE(d.frontend->Start().ok());

  // Drive device 0's whole stream; the fleet closes it with Bye{final}.
  FleetConfig fc;
  fc.tcp_port = d.frontend->tcp_port();
  fc.threads = 1;
  DeviceFleet fleet(fc, FleetDevices(spec, 1, /*events_per_window=*/16, /*num_windows=*/1,
                                     /*batch_events=*/16));
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  ASSERT_TRUE(d.frontend->WaitAllDone(std::chrono::milliseconds(30000)));

  // The finished device comes back and says Hello again.
  auto sock = net::TcpConnect(d.frontend->tcp_port());
  ASSERT_TRUE(sock.ok());
  wire::Hello hello;
  hello.tenant = 1;
  hello.source = 0;
  hello.stream = 0;
  hello.client_nonce = 7;
  std::vector<uint8_t> out;
  wire::AppendHello(&out, hello);
  ASSERT_TRUE(net::WriteAll(*sock, out).ok());
  wire::MsgType type;
  std::vector<uint8_t> body;
  ASSERT_TRUE(testing::ReadWireReply(*sock, &type, &body));
  EXPECT_EQ(type, wire::MsgType::kReject);

  // The refused reconnect perturbed nothing: the stream's events are all there and the
  // audit chain still verifies.
  d.frontend->Stop();
  const ServerReport report = d.server->Shutdown();
  const auto stats = d.frontend->stats();
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.events, 16u);
  ASSERT_EQ(report.engines.size(), 1u);
  EXPECT_TRUE(report.engines[0].verified && report.engines[0].verify.correct);
}

// Datagram keys are scoped to the deployment epoch: a fleet keyed with a stale boot nonce
// (the pre-restart key, i.e. any capture from an earlier epoch) fails every packet MAC, so
// a server restart that rotates the nonce is immune to cross-epoch replay.
TEST(IngressUdpTest, StaleBootNonceDatagramsAreRejected) {
  constexpr size_t kDevices = 4;
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  in_cfg.enable_udp = true;
  in_cfg.dgram_boot_nonce = 2026;
  TestDeployment d = MakeDeployment(kDevices, in_cfg, /*num_shards=*/1);
  const TenantSpec spec = *d.registry_copy.Find(1);
  ASSERT_TRUE(d.frontend->Start().ok());

  FleetConfig fc;
  fc.use_udp = true;
  fc.udp_port = d.frontend->udp_port();
  fc.dgram_boot_nonce = 2025;  // the previous epoch's key
  fc.threads = 1;
  DeviceFleet fleet(fc, FleetDevices(spec, kDevices, /*events_per_window=*/20,
                                     /*num_windows=*/1, /*batch_events=*/10));
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  EXPECT_GT(fleet_report->events_sent, 0u);

  // Sends are fire-and-forget; give the IO thread a beat to (not) deliver anything.
  EXPECT_FALSE(d.frontend->WaitAllDone(std::chrono::milliseconds(200)));
  d.frontend->Stop();
  (void)d.server->Shutdown();
  const auto stats = d.frontend->stats();
  EXPECT_GT(stats.sessions_rejected, 0u);  // every datagram bounced off its MAC
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.events, 0u);
}

}  // namespace
}  // namespace sbt
