// EdgeServer integration tests: routing stability, tenant isolation across data-plane shards,
// per-tenant audit verifiability, per-shard backpressure containment, quota admission, and the
// Runner drain/shutdown ordering the server's shutdown path depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/control/benchmarks.h"
#include "src/net/generator.h"
#include "src/server/edge_server.h"
#include "src/server/shard_router.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

using testing::RegenerateEvents;

// One emulated source: a generator feeding its own channel from its own thread.
struct TestSource {
  TenantId tenant = 0;
  uint32_t id = 0;
  uint16_t pipeline_stream = 0;
  std::unique_ptr<FrameChannel> channel;
  std::unique_ptr<Generator> generator;
  std::thread thread;
};

GeneratorConfig SourceGenConfig(const TenantSpec& spec, WorkloadKind kind,
                                uint32_t events_per_window = 5000, uint32_t num_windows = 3,
                                uint32_t watermark_lag = 0, uint64_t seed = 42) {
  GeneratorConfig cfg;
  cfg.workload.kind = kind;
  cfg.workload.events_per_window = events_per_window;
  cfg.workload.window_ms = 1000;
  cfg.workload.seed = seed;
  cfg.batch_events = 1000;
  cfg.num_windows = num_windows;
  cfg.watermark_lag_windows = watermark_lag;
  cfg.encrypt = spec.encrypted_ingress;
  cfg.key = spec.ingress_key;
  cfg.nonce = spec.ingress_nonce;
  return cfg;
}

std::unique_ptr<TestSource> MakeSource(TenantId tenant, uint32_t id, const GeneratorConfig& cfg,
                                       uint16_t pipeline_stream = 0) {
  auto src = std::make_unique<TestSource>();
  src->tenant = tenant;
  src->id = id;
  src->pipeline_stream = pipeline_stream;
  src->channel = std::make_unique<FrameChannel>(8);
  src->generator = std::make_unique<Generator>(cfg);
  return src;
}

void StartSources(std::vector<std::unique_ptr<TestSource>>& sources) {
  for (auto& src : sources) {
    src->thread = std::thread([s = src.get()] { s->generator->RunInto(s->channel.get()); });
  }
}

void JoinSources(std::vector<std::unique_ptr<TestSource>>& sources) {
  for (auto& src : sources) {
    src->thread.join();
  }
}

std::vector<uint8_t> DecryptTenantBlob(const TenantSpec& spec, const EgressBlob& blob) {
  Aes128Ctr cipher(spec.egress_key, std::span<const uint8_t>(spec.egress_nonce.data(), 12));
  std::vector<uint8_t> plain = blob.ciphertext;
  cipher.Crypt(std::span<uint8_t>(plain.data(), plain.size()), blob.ctr_offset);
  return plain;
}

TEST(ShardRouterTest, RoutingIsStableAndSpreads) {
  const ShardRouter router(4);
  std::vector<size_t> load(4, 0);
  for (TenantId t = 1; t <= 4; ++t) {
    for (uint32_t s = 0; s < 64; ++s) {
      const uint32_t shard = router.Route(t, s);
      ASSERT_LT(shard, 4u);
      EXPECT_EQ(router.Route(t, s), shard);  // stable across calls
      ++load[shard];
    }
  }
  // 256 keys over 4 shards: no shard starves or hoards (loose bounds, deterministic hash).
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(load[shard], 256u / 8) << "shard " << shard << " starved";
    EXPECT_LT(load[shard], 256u / 2) << "shard " << shard << " hoards";
  }
  // One shard degenerates to constant routing.
  const ShardRouter one(1);
  EXPECT_EQ(one.Route(7, 123), 0u);
}

TEST(TenantRegistryTest, AddFindAndRejects) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "alpha", MakeWinSum(1000))).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "beta", MakeDistinct(1000))).ok());

  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.Find(1), nullptr);
  EXPECT_EQ(registry.Find(1)->name, "alpha");
  EXPECT_EQ(registry.Find(3), nullptr);
  EXPECT_EQ(registry.ids(), (std::vector<TenantId>{1, 2}));

  EXPECT_FALSE(registry.Add(MakeTenantSpec(1, "dup", MakeWinSum(1000))).ok());
  EXPECT_FALSE(registry.Add(MakeTenantSpec(3, "", MakeWinSum(1000))).ok());
  TenantSpec zero_quota = MakeTenantSpec(4, "zero", MakeWinSum(1000));
  zero_quota.secure_quota_bytes = 0;
  EXPECT_FALSE(registry.Add(std::move(zero_quota)).ok());

  // Distinct tenants derive distinct key material.
  EXPECT_NE(registry.Find(1)->ingress_key, registry.Find(2)->ingress_key);
  EXPECT_NE(registry.Find(1)->egress_key, registry.Find(2)->egress_key);
}

// The per-engine worker carve: tenants request worker_threads, grants come out of the host's
// worker budget first-come, and an engine created after the budget is spent still gets one
// worker (progress is never denied — and thanks to deterministic sequencing the grant cannot
// change any engine's audit chain or egress, only its throughput).
TEST(EdgeServerTest, WorkerBudgetIsCarvedAcrossEngines) {
  TenantRegistry registry;
  TenantSpec greedy = MakeTenantSpec(1, "greedy", MakeWinSum(1000), 4u << 20);
  greedy.worker_threads = 3;
  ASSERT_TRUE(registry.Add(std::move(greedy)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "default", MakeWinSum(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(3, "starved", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec spec1 = *registry.Find(1);
  const TenantSpec spec2 = *registry.Find(2);
  const TenantSpec spec3 = *registry.Find(3);

  EdgeServerConfig cfg;
  cfg.num_shards = 1;  // all three engines share one shard -> carve order is bind order
  cfg.host_secure_budget_bytes = 64u << 20;
  cfg.workers_per_engine = 2;
  cfg.host_worker_budget = 4;  // greedy takes 3, default gets the 1 left, starved floors at 1
  EdgeServer server(cfg, registry);

  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 10, SourceGenConfig(spec1, WorkloadKind::kIntelLab)));
  sources.push_back(MakeSource(2, 20, SourceGenConfig(spec2, WorkloadKind::kIntelLab)));
  sources.push_back(MakeSource(3, 30, SourceGenConfig(spec3, WorkloadKind::kIntelLab)));
  for (auto& src : sources) {
    ASSERT_TRUE(server.BindSource(src->tenant, src->id, src->channel.get()).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  for (auto& src : sources) {
    src->thread = std::thread([&src] { src->generator->RunInto(src->channel.get()); });
  }
  for (auto& src : sources) {
    src->thread.join();
  }
  const ServerReport report = server.Shutdown();

  ASSERT_EQ(report.engines.size(), 3u);
  EXPECT_EQ(report.engines[0].worker_threads, 3);  // requested 3, budget had 4
  EXPECT_EQ(report.engines[1].worker_threads, 1);  // wanted the default 2, only 1 left
  EXPECT_EQ(report.engines[2].worker_threads, 1);  // budget exhausted -> floor of 1
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.runner().task_errors, 0u) << e.tenant_name;
    EXPECT_TRUE(e.verified && e.verify.correct) << e.tenant_name;
    EXPECT_EQ(e.runner().windows_emitted, 3u) << e.tenant_name;
  }
}

// The acceptance scenario: 4 shards, 3 tenants, 5 sources. Every tenant's audit uploads verify
// independently against its own pipeline, committed secure bytes stay inside every engine's
// carve and every shard's partition, and results are numerically correct per tenant.
TEST(EdgeServerTest, MultiTenantAuditsVerifyIndependently) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "fleet", MakeDistinct(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(3, "filter", MakeFilter(1000, 0, 100), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);
  const TenantSpec fleet = *registry.Find(2);
  const TenantSpec filter = *registry.Find(3);

  EdgeServerConfig cfg;
  cfg.num_shards = 4;
  cfg.host_secure_budget_bytes = 64u << 20;
  cfg.frontend_threads = 2;
  cfg.workers_per_engine = 2;
  EdgeServer server(cfg, std::move(registry));

  // Tenant 1 gets exactly one source so its per-window sums are checkable against a replay.
  const GeneratorConfig sensors_cfg = SourceGenConfig(sensors, WorkloadKind::kIntelLab);
  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, sensors_cfg));
  sources.push_back(MakeSource(2, 0, SourceGenConfig(fleet, WorkloadKind::kTaxi)));
  sources.push_back(
      MakeSource(2, 1, SourceGenConfig(fleet, WorkloadKind::kTaxi, 5000, 3, 0, /*seed=*/99)));
  sources.push_back(MakeSource(3, 0, SourceGenConfig(filter, WorkloadKind::kFilterable)));
  sources.push_back(
      MakeSource(3, 1, SourceGenConfig(filter, WorkloadKind::kFilterable, 5000, 3, 0, 7)));

  for (auto& src : sources) {
    ASSERT_TRUE(server.BindSource(src->tenant, src->id, src->channel.get()).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);
  JoinSources(sources);
  const ServerReport report = server.Shutdown();

  // Every (shard, tenant) engine ran clean and its audit session verifies independently.
  ASSERT_FALSE(report.engines.empty());
  std::map<uint32_t, size_t> shard_carves;
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.runner().task_errors, 0u) << e.tenant_name << " shard " << e.shard;
    EXPECT_EQ(e.dispatch_errors, 0u) << e.tenant_name;
    EXPECT_EQ(e.shed_frames, 0u) << e.tenant_name;
    EXPECT_EQ(e.runner().windows_emitted, 3u) << e.tenant_name << " shard " << e.shard;
    ASSERT_TRUE(e.verified);
    EXPECT_TRUE(e.verify.correct)
        << e.tenant_name << " shard " << e.shard << ": "
        << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
    EXPECT_EQ(e.verify.windows_verified, 3u);
    EXPECT_GT(e.audit.record_count, 0u);
    // Bounded secure memory, per engine and (summed below) per shard.
    EXPECT_LE(e.peak_committed(), e.partition_bytes);
    shard_carves[e.shard] += e.partition_bytes;
  }
  for (const auto& [shard, carved] : shard_carves) {
    EXPECT_LE(carved, server.shard_partition_bytes()) << "shard " << shard;
  }

  // Per tenant: one engine per distinct shard its sources routed to, nothing shed anywhere.
  uint64_t events_generated = 0;
  for (const auto& src : sources) {
    events_generated += src->generator->events_emitted();
  }
  EXPECT_EQ(report.TotalEventsIngested(), events_generated);
  for (const auto& sr : report.sources) {
    EXPECT_GT(sr.frames_delivered, 0u);
    EXPECT_EQ(sr.frames_shed, 0u);
    EXPECT_EQ(sr.shard, server.RouteOf(sr.tenant, sr.source));
  }
  for (TenantId tenant : {1u, 2u, 3u}) {
    std::set<uint32_t> shards;
    for (const auto& sr : report.sources) {
      if (sr.tenant == tenant) {
        shards.insert(sr.shard);
      }
    }
    EXPECT_EQ(report.ForTenant(tenant).size(), shards.size()) << "tenant " << tenant;
  }

  // Numeric correctness for the single-source tenant: per-window sums match a replay.
  const auto sensor_engines = report.ForTenant(1);
  ASSERT_EQ(sensor_engines.size(), 1u);
  std::map<uint32_t, int64_t> expected;
  for (const Event& e : RegenerateEvents(sensors_cfg)) {
    expected[e.ts_ms / 1000] += e.value;
  }
  ASSERT_EQ(sensor_engines[0]->windows.size(), 3u);
  for (const WindowResult& wr : sensor_engines[0]->windows) {
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptTenantBlob(sensors, wr.blobs[0]);
    ASSERT_EQ(plain.size(), sizeof(int64_t));
    int64_t sum = 0;
    std::memcpy(&sum, plain.data(), sizeof(sum));
    EXPECT_EQ(sum, expected[wr.window_index]) << "window " << wr.window_index;
  }
}

// One tenant floods a shard past its backpressure threshold; its frames are shed at that
// shard's data-plane door while every other shard's tenants run to completion untouched.
TEST(EdgeServerTest, ShardBackpressureNeverStallsOtherShards) {
  TenantRegistry registry;
  // Filter with a pass-everything band: contributions retain ~the full input, so open windows
  // pin secure memory and the 2MB carve saturates deterministically.
  TenantSpec noisy =
      MakeTenantSpec(1, "noisy", MakeFilter(1000, -2000000000, 2000000000), 2u << 20);
  noisy.admission = AdmissionPolicy::kShed;
  // Shed early (60% of the 2MB carve) so window closes retain allocation headroom.
  noisy.backpressure_threshold = 0.6;
  ASSERT_TRUE(registry.Add(std::move(noisy)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "quiet-a", MakeWinSum(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(3, "quiet-b", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec noisy_spec = *registry.Find(1);
  const TenantSpec quiet_a = *registry.Find(2);
  const TenantSpec quiet_b = *registry.Find(3);

  EdgeServerConfig cfg;
  cfg.num_shards = 4;
  cfg.host_secure_budget_bytes = 64u << 20;
  cfg.frontend_threads = 2;
  EdgeServer server(cfg, std::move(registry));

  // Pick source ids so the noisy tenant lands on a shard neither quiet tenant uses.
  const uint32_t quiet_a_shard = server.RouteOf(2, 0);
  const uint32_t quiet_b_shard = server.RouteOf(3, 0);
  uint32_t noisy_source = 0;
  while (server.RouteOf(1, noisy_source) == quiet_a_shard ||
         server.RouteOf(1, noisy_source) == quiet_b_shard) {
    ++noisy_source;
  }

  // All six windows' watermarks arrive only after the data: windows stay open, memory pins.
  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(
      1, noisy_source,
      SourceGenConfig(noisy_spec, WorkloadKind::kFilterable, 30000, 6, /*watermark_lag=*/6)));
  sources.push_back(MakeSource(2, 0, SourceGenConfig(quiet_a, WorkloadKind::kIntelLab)));
  sources.push_back(MakeSource(3, 0, SourceGenConfig(quiet_b, WorkloadKind::kIntelLab)));
  for (auto& src : sources) {
    ASSERT_TRUE(server.BindSource(src->tenant, src->id, src->channel.get()).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);
  JoinSources(sources);
  const ServerReport report = server.Shutdown();

  // The noisy engine shed under backpressure but stayed inside its carve, closed all its
  // windows once the watermarks arrived, and still produced a verifiable audit session.
  const auto noisy_engines = report.ForTenant(1);
  ASSERT_EQ(noisy_engines.size(), 1u);
  const TenantShardReport& ne = *noisy_engines[0];
  EXPECT_GT(ne.shed_frames, 0u);
  EXPECT_LT(ne.runner().events_ingested, 6u * 30000u);
  EXPECT_EQ(ne.runner().task_errors, 0u);
  // Shedding starts past ~60% of the carve; tail windows may arrive entirely shed (no state,
  // nothing to emit), but every window that ingested data must close and emit.
  EXPECT_GE(ne.runner().windows_emitted, 3u);
  EXPECT_LE(ne.runner().windows_emitted, 6u);
  EXPECT_LE(ne.peak_committed(), ne.partition_bytes);
  ASSERT_TRUE(ne.verified);
  EXPECT_TRUE(ne.verify.correct)
      << (ne.verify.violations.empty() ? "" : ne.verify.violations[0]);

  // Quiet tenants on other shards: complete, lossless, verified.
  for (TenantId tenant : {2u, 3u}) {
    const auto engines = report.ForTenant(tenant);
    ASSERT_EQ(engines.size(), 1u) << "tenant " << tenant;
    const TenantShardReport& e = *engines[0];
    EXPECT_NE(e.shard, ne.shard);
    EXPECT_EQ(e.runner().windows_emitted, 3u);
    EXPECT_EQ(e.runner().events_ingested, 3u * 5000u);
    EXPECT_EQ(e.shed_frames, 0u);
    EXPECT_EQ(e.runner().task_errors, 0u);
    EXPECT_TRUE(e.verify.correct);
  }
  for (const auto& sr : report.sources) {
    if (sr.tenant != 1) {
      EXPECT_EQ(sr.frames_shed, 0u) << "tenant " << sr.tenant;
    }
  }
}

TEST(EdgeServerTest, QuotaOversubscriptionAndBadBindsAreRejected) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "big-a", MakeWinSum(1000), 5u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "big-b", MakeWinSum(1000), 5u << 20)).ok());

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 16u << 20;  // 8MB per shard: two 5MB carves cannot share
  EdgeServer server(cfg, std::move(registry));

  // Find source ids that collide on one shard.
  uint32_t b_source = 0;
  while (server.RouteOf(2, b_source) != server.RouteOf(1, 0)) {
    ++b_source;
  }

  FrameChannel ch_a(4);
  FrameChannel ch_a2(4);
  FrameChannel ch_b(4);
  ASSERT_TRUE(server.BindSource(1, 0, &ch_a).ok());
  // A second source of the same tenant on the same engine carves nothing new.
  uint32_t a_second = 1;
  while (server.RouteOf(1, a_second) != server.RouteOf(1, 0)) {
    ++a_second;
  }
  ASSERT_TRUE(server.BindSource(1, a_second, &ch_a2).ok());

  const Status oversubscribed = server.BindSource(2, b_source, &ch_b);
  EXPECT_EQ(oversubscribed.code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(server.BindSource(9, 0, &ch_b).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.BindSource(1, 0, &ch_a).code(), StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(server.BindSource(1, 5, nullptr).code(), StatusCode::kInvalidArgument);

  const auto snap = server.shard_snapshot(server.RouteOf(1, 0));
  EXPECT_LE(snap.carved_bytes, snap.partition_bytes);
  EXPECT_GT(snap.carved_bytes, 0u);

  // Run the bound sources so the server shuts down cleanly.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.BindSource(1, 77, &ch_b).code(), StatusCode::kFailedPrecondition);
  ch_a.Close();
  ch_a2.Close();
  const ServerReport report = server.Shutdown();
  EXPECT_EQ(report.engines.size(), 1u);
}

// A two-stream (Join) tenant is tenant-homed: all its sources land on one shard so both
// streams meet in one engine, and the joined session verifies.
TEST(EdgeServerTest, MultiStreamTenantIsTenantHomed) {
  TenantRegistry registry;
  Pipeline join = MakeJoin(1000);
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "join", std::move(join), 8u << 20)).ok());
  const TenantSpec spec = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 4;
  cfg.host_secure_budget_bytes = 64u << 20;
  EdgeServer server(cfg, std::move(registry));

  for (uint32_t s = 0; s < 16; ++s) {
    EXPECT_EQ(server.RouteOf(1, s), server.RouteOf(1, 0));
  }

  GeneratorConfig left = SourceGenConfig(spec, WorkloadKind::kSynthetic, 3000);
  left.workload.num_keys = 500;
  GeneratorConfig right = left;
  right.workload.seed = left.workload.seed + 1;

  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, left, /*pipeline_stream=*/0));
  sources.push_back(MakeSource(1, 1, right, /*pipeline_stream=*/1));
  for (auto& src : sources) {
    ASSERT_TRUE(
        server.BindSource(src->tenant, src->id, src->channel.get(), src->pipeline_stream).ok());
  }
  EXPECT_EQ(server.BindSource(1, 2, sources[0]->channel.get(), 2).code(),
            StatusCode::kInvalidArgument);  // stream out of range

  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);
  JoinSources(sources);
  const ServerReport report = server.Shutdown();

  ASSERT_EQ(report.engines.size(), 1u);
  const TenantShardReport& e = report.engines[0];
  EXPECT_EQ(e.runner().task_errors, 0u);
  EXPECT_EQ(e.runner().windows_emitted, 3u);
  ASSERT_TRUE(e.verified);
  EXPECT_TRUE(e.verify.correct)
      << (e.verify.violations.empty() ? "" : e.verify.violations[0]);

  // Reference row count for window 0, replayed from both seeds.
  std::map<uint32_t, uint64_t> l0;
  std::map<uint32_t, uint64_t> r0;
  for (const Event& ev : RegenerateEvents(left)) {
    if (ev.ts_ms < 1000) {
      ++l0[ev.key];
    }
  }
  for (const Event& ev : RegenerateEvents(right)) {
    if (ev.ts_ms < 1000) {
      ++r0[ev.key];
    }
  }
  uint64_t expected_rows = 0;
  for (const auto& [key, n] : l0) {
    auto it = r0.find(key);
    if (it != r0.end()) {
      expected_rows += n * it->second;
    }
  }
  for (const WindowResult& wr : e.windows) {
    if (wr.window_index != 0) {
      continue;
    }
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptTenantBlob(spec, wr.blobs[0]);
    EXPECT_EQ(plain.size() / sizeof(JoinRow), expected_rows);
  }
}

// The elastic-resize acceptance scenario: grow N -> N+1 and shrink back under live ingest.
// No event is lost (kStall sources simply stall while engines move), every engine's audit
// chain verifies across both moves as one continued session, and per-shard secure-memory
// quotas hold before, during, and after.
TEST(EdgeServerTest, ElasticResizeUnderLiveIngestIsLossless) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "fleet", MakeDistinct(1000), 4u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(3, "join", MakeJoin(1000), 8u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);
  const TenantSpec fleet = *registry.Find(2);
  const TenantSpec join = *registry.Find(3);

  EdgeServerConfig cfg;
  cfg.num_shards = 3;
  // Sized so any engine placement fits any shard count used here: the plan must never be the
  // reason a resize fails in this test.
  cfg.host_secure_budget_bytes = 96u << 20;
  cfg.frontend_threads = 2;
  cfg.workers_per_engine = 2;
  EdgeServer server(cfg, std::move(registry));

  constexpr uint32_t kNumWindows = 10;
  constexpr uint32_t kEventsPerWindow = 3000;
  auto gen_cfg = [&](const TenantSpec& spec, WorkloadKind kind, uint64_t seed) {
    GeneratorConfig g = SourceGenConfig(spec, kind, kEventsPerWindow, kNumWindows, 0, seed);
    g.batch_events = 500;
    return g;
  };
  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, gen_cfg(sensors, WorkloadKind::kIntelLab, 42)));
  sources.push_back(MakeSource(1, 1, gen_cfg(sensors, WorkloadKind::kIntelLab, 43)));
  sources.push_back(MakeSource(2, 0, gen_cfg(fleet, WorkloadKind::kTaxi, 44)));
  sources.push_back(MakeSource(3, 0, gen_cfg(join, WorkloadKind::kSynthetic, 45), 0));
  sources.push_back(MakeSource(3, 1, gen_cfg(join, WorkloadKind::kSynthetic, 46), 1));
  for (auto& src : sources) {
    ASSERT_TRUE(
        server.BindSource(src->tenant, src->id, src->channel.get(), src->pipeline_stream).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);

  // Grow, then shrink, while sources are live. Each resize drains, seals, re-homes, resumes.
  ASSERT_EQ(server.num_shards(), 3u);
  const Status grown = server.Resize(4);
  ASSERT_TRUE(grown.ok()) << grown.ToString();
  EXPECT_EQ(server.num_shards(), 4u);
  const Status shrunk = server.Resize(3);
  ASSERT_TRUE(shrunk.ok()) << shrunk.ToString();
  EXPECT_EQ(server.num_shards(), 3u);

  JoinSources(sources);
  const ServerReport report = server.Shutdown();

  // Lossless: every generated event was ingested by some engine (stall admission, no shed).
  uint64_t events_generated = 0;
  for (const auto& src : sources) {
    events_generated += src->generator->events_emitted();
  }
  EXPECT_EQ(report.TotalEventsIngested(), events_generated);
  for (const auto& sr : report.sources) {
    EXPECT_EQ(sr.frames_shed, 0u);
    EXPECT_GT(sr.frames_delivered, 0u);
  }

  // Every engine moved twice, kept its audit chain verifiable as one continued session, and
  // stayed inside its carve in every incarnation.
  ASSERT_FALSE(report.engines.empty());
  std::map<uint32_t, size_t> shard_carves;
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.restores, 2u) << e.tenant_name;
    EXPECT_EQ(e.uploads, 3u) << e.tenant_name;  // two seal-time links + the final flush
    EXPECT_TRUE(e.chain_ok) << e.tenant_name;
    EXPECT_EQ(e.runner().task_errors, 0u) << e.tenant_name;
    EXPECT_EQ(e.dispatch_errors, 0u) << e.tenant_name;
    EXPECT_EQ(e.shed_frames, 0u) << e.tenant_name;
    EXPECT_EQ(e.runner().windows_emitted, kNumWindows) << e.tenant_name;
    ASSERT_TRUE(e.verified);
    EXPECT_TRUE(e.verify.correct)
        << e.tenant_name << " shard " << e.shard << ": "
        << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
    EXPECT_EQ(e.verify.windows_verified, kNumWindows) << e.tenant_name;
    EXPECT_LE(e.peak_committed(), e.partition_bytes) << e.tenant_name;
    shard_carves[e.shard] += e.partition_bytes;
    // Windows were collected across incarnations: all present, each egressed.
    EXPECT_EQ(e.windows.size(), kNumWindows) << e.tenant_name;
  }
  for (const auto& [shard, carved] : shard_carves) {
    EXPECT_LE(carved, server.shard_partition_bytes()) << "shard " << shard;
  }
  // The join tenant stayed single-engined through both moves (never split).
  EXPECT_EQ(report.ForTenant(3).size(), 1u);
}

// An infeasible resize (per-shard partition smaller than a single engine's carve) is rejected
// by the plan before anything is drained, and the server keeps serving as if nothing happened.
TEST(EdgeServerTest, InfeasibleResizeIsRejectedWithoutDisruption) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "a", MakeWinSum(1000), 5u << 20)).ok());
  ASSERT_TRUE(registry.Add(MakeTenantSpec(2, "b", MakeWinSum(1000), 5u << 20)).ok());
  const TenantSpec a = *registry.Find(1);
  const TenantSpec b = *registry.Find(2);

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 40u << 20;
  EdgeServer server(cfg, std::move(registry));

  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, SourceGenConfig(a, WorkloadKind::kIntelLab)));
  sources.push_back(MakeSource(2, 0, SourceGenConfig(b, WorkloadKind::kIntelLab)));
  for (auto& src : sources) {
    ASSERT_TRUE(server.BindSource(src->tenant, src->id, src->channel.get()).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);

  // 40MB / 16 shards = 2.5MB per shard < one 5MB carve: infeasible for every placement.
  const Status rejected = server.Resize(16);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.num_shards(), 2u);

  JoinSources(sources);
  const ServerReport report = server.Shutdown();
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.restores, 0u);
    EXPECT_EQ(e.runner().windows_emitted, 3u) << e.tenant_name;
    EXPECT_TRUE(e.chain_ok);
    EXPECT_TRUE(e.verify.correct);
  }
  EXPECT_EQ(report.TotalEventsIngested(),
            sources[0]->generator->events_emitted() + sources[1]->generator->events_emitted());
}

// Crash/rebalance recovery on one shard: seal its engines mid-session, then restore them in
// place; the session continues losslessly and the audit chain stays green.
TEST(EdgeServerTest, ShardCheckpointRestoreRoundTripUnderLiveIngest) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 32u << 20;
  EdgeServer server(cfg, std::move(registry));

  GeneratorConfig gen = SourceGenConfig(sensors, WorkloadKind::kIntelLab, 4000, 6);
  gen.batch_events = 500;
  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, gen));
  ASSERT_TRUE(server.BindSource(1, 0, sources[0]->channel.get()).ok());
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);

  const uint32_t shard = server.RouteOf(1, 0);
  auto checkpoints = server.Checkpoint({.shard = shard, .detach = true});
  ASSERT_TRUE(checkpoints.ok()) << checkpoints.status().ToString();
  ASSERT_EQ(checkpoints->size(), 1u);
  EXPECT_EQ((*checkpoints)[0].tenant(), 1u);
  // While sealed-and-detached, the shard hosts nothing and the source stalls at the frontend.
  EXPECT_EQ(server.shard_snapshot(shard).carved_bytes, 0u);

  ASSERT_TRUE(server.Restore(shard, std::move(*checkpoints)).ok());
  JoinSources(sources);
  const ServerReport report = server.Shutdown();

  ASSERT_EQ(report.engines.size(), 1u);
  const TenantShardReport& e = report.engines[0];
  EXPECT_EQ(e.restores, 1u);
  EXPECT_EQ(e.uploads, 2u);
  EXPECT_TRUE(e.chain_ok);
  EXPECT_EQ(e.runner().task_errors, 0u);
  EXPECT_EQ(e.dispatch_errors, 0u);
  EXPECT_EQ(e.runner().windows_emitted, 6u);
  EXPECT_EQ(e.runner().events_ingested, sources[0]->generator->events_emitted());
  EXPECT_TRUE(e.verify.correct)
      << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
  EXPECT_LE(e.peak_committed(), e.partition_bytes);
}

// A sealed shard that is never restored (state migrated elsewhere, original server retired)
// must not wedge shutdown: its sources' undeliverable frames are dropped and counted.
TEST(EdgeServerTest, ShutdownAfterUnrestoredCheckpointTerminates) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 32u << 20;
  EdgeServer server(cfg, std::move(registry));

  std::vector<std::unique_ptr<TestSource>> sources;
  sources.push_back(MakeSource(1, 0, SourceGenConfig(sensors, WorkloadKind::kIntelLab)));
  ASSERT_TRUE(server.BindSource(1, 0, sources[0]->channel.get()).ok());
  ASSERT_TRUE(server.Start().ok());
  StartSources(sources);

  auto checkpoints = server.Checkpoint({.shard = server.RouteOf(1, 0), .detach = true});
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_EQ(checkpoints->size(), 1u);
  // The sealed engines leave with the checkpoints; the server shuts down without them — and
  // without hanging on the source's undeliverable frames. (Shutdown first: it closes the
  // source channel, which is what unblocks a generator stalled against the sealed shard.)
  const ServerReport report = server.Shutdown();
  JoinSources(sources);
  EXPECT_TRUE(report.engines.empty());
  ASSERT_EQ(report.sources.size(), 1u);
}

// Tamper-evident recovery at the serving layer: a checkpoint sealed before newer uploads left
// the engine (stale/fork replay) is rejected, as is restoring an engine that is already live.
TEST(EdgeServerTest, StaleOrDuplicateShardCheckpointIsRejected) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 32u << 20;
  EdgeServer server(cfg, std::move(registry));

  FrameChannel channel(256);
  ASSERT_TRUE(server.BindSource(1, 0, &channel).ok());
  ASSERT_TRUE(server.Start().ok());
  // Feed and close a short session up front; the frontends drain it into the engine.
  Generator generator(SourceGenConfig(sensors, WorkloadKind::kIntelLab, 1000, 3));
  generator.RunInto(&channel);

  const uint32_t shard = server.RouteOf(1, 0);
  auto first = server.Checkpoint({.shard = shard, .detach = true});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);
  const SealArtifact stale = (*first)[0];  // attacker keeps a copy

  ASSERT_TRUE(server.Restore(shard, std::move(*first)).ok());
  auto second = server.Checkpoint({.shard = shard, .detach = true});
  ASSERT_TRUE(second.ok());
  const SealArtifact current = (*second)[0];

  // The stale copy self-verifies but no longer continues the engine's chain.
  EXPECT_EQ(server.Restore(shard, {stale}).code(), StatusCode::kDataLoss);
  // The current seal restores.
  ASSERT_TRUE(server.Restore(shard, std::move(*second)).ok());
  // A second restore of the same seal is refused: the engine is already live.
  EXPECT_EQ(server.Restore(shard, {current}).code(), StatusCode::kFailedPrecondition);

  const ServerReport report = server.Shutdown();
  ASSERT_EQ(report.engines.size(), 1u);
  EXPECT_EQ(report.engines[0].restores, 2u);
  EXPECT_TRUE(report.engines[0].chain_ok);
  EXPECT_TRUE(report.engines[0].verify.correct)
      << (report.engines[0].verify.violations.empty()
              ? ""
              : report.engines[0].verify.violations[0]);
}

// --- the shard lifecycle table (edge_server.h), one case per (shard state, operation) ---

enum class LifecycleState { kServing, kStoppedByDetach, kStoppedByKill };
enum class LifecycleOp { kSealInPlace, kDetach, kKill, kRestoreEmpty, kRestoreArtifacts, kResize };

using LifecycleCase = std::tuple<LifecycleState, LifecycleOp>;

std::string LifecycleCaseName(const ::testing::TestParamInfo<LifecycleCase>& info) {
  static const char* const kStates[] = {"Serving", "StoppedByDetach", "StoppedByKill"};
  static const char* const kOps[] = {"SealInPlace",  "Detach",           "Kill",
                                     "RestoreEmpty", "RestoreArtifacts", "Resize"};
  return std::string(kStates[static_cast<int>(std::get<0>(info.param))]) + "_" +
         kOps[static_cast<int>(std::get<1>(info.param))];
}

class ShardLifecycleTest : public ::testing::TestWithParam<LifecycleCase> {};

// Every operation returns the table's status on a shard in each state, and afterwards the
// source holds its frames exactly when its engine is not resident on a serving shard — also
// after a follow-up seal-in-place, which must not revive a stopped shard or wake the source of
// an engine that is not there. Each case then makes the engine resident again from the seal it
// holds and checks that every emitted event was ingested and the attestation holds.
TEST_P(ShardLifecycleTest, StatusAndSourceFlowFollowTheTable) {
  const auto [state, op] = GetParam();
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 48u << 20;
  EdgeServer server(cfg, std::move(registry));
  FrameChannel channel(64);
  ASSERT_TRUE(server.BindSource(1, 0, &channel).ok());
  const uint32_t shard = server.RouteOf(1, 0);
  ASSERT_TRUE(server.Start().ok());

  // Two windows of 3,000 events in 1,000-event frames: the first is ingested before the state
  // is reached, the second probes the source after the operation.
  Generator generator(SourceGenConfig(sensors, WorkloadKind::kIntelLab, 3000, 2));
  std::vector<Frame> first;
  std::vector<Frame> probe;
  while (auto frame = generator.NextFrame()) {
    const bool first_done = !first.empty() && first.back().is_watermark;
    (first_done ? probe : first).push_back(std::move(*frame));
  }
  ASSERT_EQ(probe.size(), 4u);
  const auto push_all = [&channel](std::vector<Frame>& frames) {
    for (Frame& frame : frames) {
      ASSERT_TRUE(channel.Push(std::move(frame)));
    }
  };
  const auto drained_within = [&channel](std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (channel.size() != 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return channel.size() == 0;
  };
  // Flowing sources drain at once; a held source keeps every probe frame in its channel.
  const auto expect_flow = [&](bool flows, const char* when) {
    if (flows) {
      EXPECT_TRUE(drained_within(std::chrono::milliseconds(5000))) << when;
    } else {
      EXPECT_FALSE(drained_within(std::chrono::milliseconds(50))) << when;
      EXPECT_EQ(channel.size(), probe.size()) << when;
    }
  };
  const auto total_carved = [&server] {
    size_t carved = 0;
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      carved += server.shard_snapshot(s).carved_bytes;
    }
    return carved;
  };

  push_all(first);
  ASSERT_TRUE(drained_within(std::chrono::milliseconds(5000)));
  // The seal the case holds for its final restore. Killed shards keep the in-place seal taken
  // just before the kill: nothing reached the engine in between, so restoring it loses nothing.
  auto held =
      server.Checkpoint({.shard = shard, .detach = state == LifecycleState::kStoppedByDetach});
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_EQ(held->size(), 1u);
  if (state == LifecycleState::kStoppedByKill) {
    ASSERT_TRUE(server.KillShard(shard).ok());
  }

  const bool serving_before = state == LifecycleState::kServing;
  bool serving_after = serving_before;  // the state of `shard` after the operation
  bool resident = serving_before;       // the engine is resident (on a serving shard)
  Status status;
  switch (op) {
    case LifecycleOp::kSealInPlace: {
      auto sealed = server.Checkpoint({.shard = shard});
      status = sealed.status();
      break;
    }
    case LifecycleOp::kDetach: {
      auto sealed = server.Checkpoint({.shard = shard, .detach = true});
      status = sealed.status();
      if (sealed.ok() && !sealed->empty()) {
        held = std::move(sealed);
      }
      serving_after = resident = false;
      break;
    }
    case LifecycleOp::kKill:
      status = server.KillShard(shard);
      serving_after = resident = false;
      break;
    case LifecycleOp::kRestoreEmpty:
      status = server.Restore(shard, {});
      serving_after = true;
      break;
    case LifecycleOp::kRestoreArtifacts:
      status = server.Restore(shard, *held);
      serving_after = resident = true;
      break;
    case LifecycleOp::kResize:
      status = server.Resize(3);
      serving_after = true;
      break;
  }
  // Only two operations refuse: sealing a stopped shard in place, and restoring the seal of
  // an engine that is still live (the split-brain guard).
  const bool refused = (op == LifecycleOp::kSealInPlace && !serving_before) ||
                       (op == LifecycleOp::kRestoreArtifacts && serving_before);
  EXPECT_EQ(status.code(), refused ? StatusCode::kFailedPrecondition : StatusCode::kOk)
      << status.ToString();
  EXPECT_EQ(total_carved() > 0, resident);

  push_all(probe);
  expect_flow(resident, "after the operation");
  auto follow_up = server.Checkpoint({.shard = shard});
  EXPECT_EQ(follow_up.status().code(),
            serving_after ? StatusCode::kOk : StatusCode::kFailedPrecondition)
      << follow_up.status().ToString();
  expect_flow(resident, "after a follow-up seal in place");

  if (!resident) {
    ASSERT_TRUE(server.Restore(shard, std::move(*held)).ok());
    expect_flow(true, "after the final restore");
  }
  const ServerReport report = server.Shutdown();
  ASSERT_EQ(report.engines.size(), 1u);
  const TenantShardReport& e = report.engines[0];
  EXPECT_EQ(e.runner().events_ingested, generator.events_emitted());
  EXPECT_EQ(e.dispatch_errors, 0u);
  EXPECT_EQ(e.runner().windows_emitted, 2u);
  EXPECT_TRUE(e.chain_ok);
  ASSERT_TRUE(e.verified);
  EXPECT_TRUE(e.verify.correct) << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ShardLifecycleTest,
    ::testing::Combine(::testing::Values(LifecycleState::kServing,
                                         LifecycleState::kStoppedByDetach,
                                         LifecycleState::kStoppedByKill),
                       ::testing::Values(LifecycleOp::kSealInPlace, LifecycleOp::kDetach,
                                         LifecycleOp::kKill, LifecycleOp::kRestoreEmpty,
                                         LifecycleOp::kRestoreArtifacts, LifecycleOp::kResize)),
    LifecycleCaseName);

// --- promotion onto a multi-shard server whose sources already have engines ---

// Tenant 1's two windows of 3,000 events from one source, split after the first watermark.
struct TwoWindows {
  std::vector<Frame> first;
  std::vector<Frame> second;
  uint64_t events = 0;
};

TwoWindows MakeTwoWindows(const TenantSpec& spec) {
  Generator generator(SourceGenConfig(spec, WorkloadKind::kIntelLab, 3000, 2));
  TwoWindows windows;
  while (auto frame = generator.NextFrame()) {
    const bool first_done = !windows.first.empty() && windows.first.back().is_watermark;
    (first_done ? windows.second : windows.first).push_back(std::move(*frame));
  }
  windows.events = generator.events_emitted();
  return windows;
}

// Pushes the frames and waits until the server has taken every one of them.
void FeedAll(FrameChannel& channel, std::vector<Frame> frames) {
  for (Frame& frame : frames) {
    ASSERT_TRUE(channel.Push(std::move(frame)));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (channel.size() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(channel.size(), 0u);
}

// Ingests `frames` from `source` on a fresh primary and lifts the sealed engine off it.
SealArtifact SealOnPrimary(const EdgeServerConfig& cfg, TenantRegistry registry,
                           uint32_t source, std::vector<Frame> frames) {
  EdgeServer primary(cfg, std::move(registry));
  FrameChannel channel(64);
  SBT_CHECK(primary.BindSource(1, source, &channel).ok());
  SBT_CHECK(primary.Start().ok());
  FeedAll(channel, std::move(frames));
  auto sealed = primary.Checkpoint({.shard = primary.RouteOf(1, source), .detach = true});
  SBT_CHECK(sealed.ok() && sealed->size() == 1);
  primary.Shutdown();
  return std::move((*sealed)[0]);
}

TenantRegistry SensorsRegistry() {
  TenantRegistry registry;
  SBT_CHECK(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  return registry;
}

EdgeServerConfig TwoShardConfig() {
  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 48u << 20;
  return cfg;
}

// The first source whose engine a two-shard server homes on shard 0.
uint32_t SourceOnShardZero(const EdgeServer& server) {
  uint32_t source = 0;
  while (server.RouteOf(1, source) != 0) {
    ++source;
  }
  return source;
}

// The engine that ingested every event of both windows and verifies as one session.
void ExpectOwnsEveryEvent(const TenantShardReport& e, const TwoWindows& windows) {
  EXPECT_EQ(e.runner().events_ingested, windows.events);
  EXPECT_EQ(e.runner().windows_emitted, 2u);
  EXPECT_EQ(e.dispatch_errors, 0u);
  EXPECT_TRUE(e.chain_ok);
  ASSERT_TRUE(e.verified);
  EXPECT_TRUE(e.verify.correct) << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
}

// A promoted engine takes its sources over from bind-time placeholders on any shard. The
// standby binds a source whose placeholder lands on shard 0 and promotes the source's sealed
// engine onto shard 1 — before Start (standby warm-up), and on a live server whose placeholder
// has seen no frame yet. Every later frame must reach the promoted engine and its chain.
TEST(EdgeServerTest, PromotedEngineTakesItsSourcesFromPlaceholdersOnOtherShards) {
  const TenantRegistry session_registry = SensorsRegistry();
  for (const bool live : {false, true}) {
    SCOPED_TRACE(live ? "promoted on a live server" : "promoted before Start");
    EdgeServer standby(TwoShardConfig(), SensorsRegistry());
    const uint32_t source = SourceOnShardZero(standby);
    TwoWindows windows = MakeTwoWindows(*session_registry.Find(1));
    SealArtifact sealed =
        SealOnPrimary(TwoShardConfig(), SensorsRegistry(), source, std::move(windows.first));

    FrameChannel channel(64);
    ASSERT_TRUE(standby.BindSource(1, source, &channel).ok());
    ReplicaSession session(&session_registry);
    ASSERT_TRUE(session.Apply(std::move(sealed)).ok());
    if (live) {
      ASSERT_TRUE(standby.Start().ok());
    }
    ASSERT_TRUE(standby.Promote(session, /*shard=*/1).ok());
    if (!live) {
      ASSERT_TRUE(standby.Start().ok());
    }
    FeedAll(channel, std::move(windows.second));

    const ServerReport report = standby.Shutdown();
    const TenantShardReport* promoted = nullptr;
    for (const TenantShardReport& e : report.engines) {
      if (e.restores > 0) {
        promoted = &e;
      }
    }
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(promoted->shard, 1u);
    ExpectOwnsEveryEvent(*promoted, windows);
  }
}

// An engine with real state keeps its sources: promoting a sealed engine whose source already
// feeds a live engine on another shard is refused, and the live engine keeps ingesting.
TEST(EdgeServerTest, PromotionRefusesToTakeASourceFromALiveEngine) {
  const TenantRegistry session_registry = SensorsRegistry();
  EdgeServer standby(TwoShardConfig(), SensorsRegistry());
  const uint32_t source = SourceOnShardZero(standby);
  TwoWindows windows = MakeTwoWindows(*session_registry.Find(1));
  ReplicaSession session(&session_registry);
  ASSERT_TRUE(
      session.Apply(SealOnPrimary(TwoShardConfig(), SensorsRegistry(), source, windows.first))
          .ok());

  // An idle source bound first puts a placeholder on shard 1 and takes engine id 1, so the
  // shard-0 engine's id differs from the sealed one's and the refusal is not the split-brain
  // guard's (one engine id live twice).
  uint32_t idle_source = 0;
  while (standby.RouteOf(1, idle_source) != 1) {
    ++idle_source;
  }
  FrameChannel idle(64);
  ASSERT_TRUE(standby.BindSource(1, idle_source, &idle).ok());
  FrameChannel channel(64);
  ASSERT_TRUE(standby.BindSource(1, source, &channel).ok());
  ASSERT_TRUE(standby.Start().ok());
  FeedAll(channel, std::move(windows.first));  // the shard-0 engine ingests the first window
  EXPECT_EQ(standby.Promote(session, /*shard=*/1).code(), StatusCode::kFailedPrecondition);
  FeedAll(channel, std::move(windows.second));

  const ServerReport report = standby.Shutdown();
  ASSERT_EQ(report.engines.size(), 2u);  // nothing moved: both bind-time engines remain
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.restores, 0u);
    if (e.shard == 0) {
      ExpectOwnsEveryEvent(e, windows);
    }
  }
}

// A resize may home two engines of one tenant on the same shard (here every engine lands on
// the one shard left). Their sources are disjoint, so both are adopted side by side: neither
// is refused and dropped with its state, and every emitted event is in the report.
TEST(EdgeServerTest, ResizeOntoOneShardKeepsEveryEngineOfATenant) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec sensors = *registry.Find(1);
  EdgeServerConfig cfg;
  cfg.num_shards = 2;
  cfg.host_secure_budget_bytes = 48u << 20;
  EdgeServer server(cfg, std::move(registry));

  constexpr uint32_t kSources = 8;
  std::vector<std::unique_ptr<FrameChannel>> channels;
  std::set<uint32_t> homes;
  for (uint32_t source = 0; source < kSources; ++source) {
    channels.push_back(std::make_unique<FrameChannel>(64));
    ASSERT_TRUE(server.BindSource(1, source, channels.back().get()).ok());
    homes.insert(server.RouteOf(1, source));
  }
  ASSERT_EQ(homes.size(), 2u);  // one engine of the tenant on each shard
  ASSERT_TRUE(server.Start().ok());
  uint64_t emitted = 0;
  for (uint32_t source = 0; source < kSources; ++source) {
    Generator generator(SourceGenConfig(sensors, WorkloadKind::kIntelLab, 1000, 2, 0, source));
    generator.RunInto(channels[source].get());
    emitted += generator.events_emitted();
  }

  const Status resized = server.Resize(1);
  EXPECT_TRUE(resized.ok()) << resized.ToString();
  const ServerReport report = server.Shutdown();
  ASSERT_EQ(report.engines.size(), 2u);
  uint64_t ingested = 0;
  for (const TenantShardReport& e : report.engines) {
    EXPECT_EQ(e.shard, 0u);
    EXPECT_EQ(e.restores, 1u);
    EXPECT_EQ(e.dispatch_errors, 0u);
    ingested += e.runner().events_ingested;
    EXPECT_TRUE(e.chain_ok);
    ASSERT_TRUE(e.verified);
    EXPECT_TRUE(e.verify.correct) << (e.verify.violations.empty() ? "" : e.verify.violations[0]);
  }
  EXPECT_EQ(ingested, emitted);
}

// Regression stress for the Runner drain/submit race: Drain spinning concurrently with
// ingest + watermark submission must never miss an enqueued window close — after the final
// Drain every window is emitted, every time.
TEST(RunnerDrainTest, ConcurrentDrainNeverMissesWindowCloses) {
  DataPlaneConfig cfg = testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false);
  DataPlane dp(cfg);
  RunnerConfig rc;
  rc.knobs.worker_threads = 2;
  Runner runner(&dp, MakeWinSum(100), rc);

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      runner.Drain();
    }
  });

  constexpr uint32_t kWindows = 40;
  std::vector<Event> batch(200);
  for (uint32_t w = 0; w < kWindows; ++w) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i] = {.ts_ms = static_cast<EventTimeMs>(w * 100 + i % 100), .key = 1, .value = 1};
    }
    ASSERT_TRUE(runner
                    .IngestFrame(std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(batch.data()),
                        batch.size() * sizeof(Event)))
                    .ok());
    ASSERT_TRUE(runner.AdvanceWatermark((w + 1) * 100).ok());
    // Sequential contract: once AdvanceWatermark returned, Drain must include its closes.
    runner.Drain();
    ASSERT_EQ(runner.stats().windows_emitted, w + 1) << "window close missed";
  }
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  runner.Drain();
  EXPECT_EQ(runner.stats().windows_emitted, kWindows);
  EXPECT_EQ(runner.stats().task_errors, 0u);
  EXPECT_EQ(runner.TakeResults().size(), kWindows);
}

// Admission stalls must park on the ingest CV (woken by the shard queues' space listeners),
// not spin: with the shard queue reporting full 20 times, a stalled kStall source retries at
// the 5ms safety-net cadence, so the stall takes tens of milliseconds of *sleeping* — the old
// 100us poll burned a core to finish the same 20 rounds in ~2ms. No frame is lost either way.
TEST(EdgeServerTest, AdmissionStallParksInsteadOfSpinning) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(MakeTenantSpec(1, "stall", MakeWinSum(1000), 4u << 20)).ok());
  const TenantSpec spec = *registry.Find(1);

  EdgeServerConfig cfg;
  cfg.num_shards = 1;
  cfg.host_secure_budget_bytes = 32u << 20;
  cfg.frontend_threads = 1;  // one frontend, one source: TryPush hit counts are exact
  EdgeServer server(cfg, std::move(registry));

  auto src = MakeSource(1, 0, SourceGenConfig(spec, WorkloadKind::kIntelLab, 3000, 1));
  ASSERT_TRUE(server.BindSource(1, 0, src->channel.get()).ok());

  obs::Counter* stall_retries =
      obs::MetricsRegistry::Global().GetCounter("sbt_admission_stall_retries_total");
  const uint64_t retries_before = stall_retries->Value();

  // The first 20 shard-queue pushes report full. Hit 1 is the fresh delivery (held as
  // `pending`, not counted as a retry); hits 2..20 are 19 failed retries, each preceded by a
  // parked kFrontendIdleWait; hit 21 succeeds and the stream flows.
  testing::ScopedFailPoint full("channel.try_push", testing::ScopedFailPoint::Counted(0, 20));

  ASSERT_TRUE(server.Start().ok());
  const auto t0 = std::chrono::steady_clock::now();
  src->generator->RunInto(src->channel.get());
  const ServerReport report = server.Shutdown();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);

  EXPECT_EQ(stall_retries->Value() - retries_before, 19u);
  ASSERT_EQ(report.sources.size(), 1u);
  EXPECT_EQ(report.sources[0].admission_retries, 19u);
  EXPECT_EQ(report.sources[0].frames_shed, 0u);       // kStall holds, never drops
  EXPECT_GT(report.sources[0].frames_delivered, 0u);  // the held frame went through
  // 19 retries at the 5ms parked cadence is >= ~95ms of sleeping; 40ms is the conservative
  // floor that still rules out the old 100us spin (which finished in ~2ms).
  EXPECT_GE(elapsed.count(), 40);
  ASSERT_EQ(report.engines.size(), 1u);
  EXPECT_EQ(report.engines[0].runner().task_errors, 0u);
  EXPECT_TRUE(report.engines[0].verified && report.engines[0].verify.correct);
}

}  // namespace
}  // namespace sbt
