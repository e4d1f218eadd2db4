// Hot-standby failover tests: the event-retaining FailoverProxy's retire/replay boundary
// semantics, the authenticated replication link (continuous seal-artifact shipping with
// per-seal acks), ReplicaSession's chain discipline and promote-exactly-once rule, and the
// full chaos drill — a primary shard killed mid-window under live device-fleet TCP ingest,
// its sources re-homed onto a hot standby with zero event loss, a verifier-accepted gap-free
// audit chain, and a measured RTO.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/control/benchmarks.h"
#include "src/net/fleet.h"
#include "src/net/generator.h"
#include "src/server/edge_server.h"
#include "src/server/failover.h"
#include "src/server/ingress.h"
#include "src/server/replica.h"
#include "src/server/replication.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

// The dedicated replication credential: infrastructure, not a tenant key.
AesKey LinkKey() {
  AesKey key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xd0 + i);
  }
  return key;
}

GeneratorConfig SourceGenConfig(const TenantSpec& spec, uint32_t events_per_window,
                                uint32_t num_windows, uint32_t batch_events, uint64_t seed) {
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

bool WaitFor(const std::function<bool()>& pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- FailoverProxy boundary semantics ----------------------------------------------------

Frame DataFrame(uint8_t fill) {
  Frame f;
  f.bytes.assign(16, fill);
  return f;
}

Frame WatermarkFrame(EventTimeMs value) {
  Frame f;
  f.is_watermark = true;
  f.watermark = value;
  return f;
}

// Count-based coverage, frame by frame: Retire drops data ordinals <= covered and watermarks
// strictly before the boundary; Failover replays exactly the uncovered suffix (data > boundary,
// watermarks >= boundary — a boundary watermark may postdate the seal, and watermark replay is
// idempotent) into a fresh channel, in order, and post-failover pumping lands there too.
TEST(FailoverProxyTest, RetireTrimsAndFailoverReplaysExactlyTheUncoveredSuffix) {
  FrameChannel upstream(64);
  FailoverProxy proxy({FailoverProxy::Upstream{.tenant = 1, .source = 7, .stream = 0,
                                               .channel = &upstream}},
                      /*downstream_capacity=*/64);
  // No BindTo: nothing pops the pre-failover downstream; the retained copies are the test.
  proxy.Start();

  // Ordinals: d1=1 d2=2 wm@2 d3=3 d4=4 wm@4 d5=5.
  ASSERT_TRUE(upstream.Push(DataFrame(1)));
  ASSERT_TRUE(upstream.Push(DataFrame(2)));
  ASSERT_TRUE(upstream.Push(WatermarkFrame(100)));
  ASSERT_TRUE(upstream.Push(DataFrame(3)));
  ASSERT_TRUE(upstream.Push(DataFrame(4)));
  ASSERT_TRUE(upstream.Push(WatermarkFrame(200)));
  ASSERT_TRUE(upstream.Push(DataFrame(5)));
  const auto key = std::make_pair(TenantId{1}, uint32_t{7});
  ASSERT_TRUE(WaitFor([&] { return proxy.PumpedFrames()[key] == 5; },
                      std::chrono::milliseconds(5000)));
  EXPECT_EQ(proxy.RetainedFrames(), 7u);

  // A seal covering 2 data frames: d1, d2 drop; the watermark AT the boundary stays.
  proxy.Retire(1, 7, 2);
  EXPECT_EQ(proxy.RetainedFrames(), 5u);
  // Covering 3: the boundary watermark (ordinal 2 < 3) and d3 go.
  proxy.Retire(1, 7, 3);
  EXPECT_EQ(proxy.RetainedFrames(), 3u);
  // Retire is monotonic: a stale (lower) ack is a no-op.
  proxy.Retire(1, 7, 1);
  EXPECT_EQ(proxy.RetainedFrames(), 3u);

  // Failover with the standby having applied a seal covering 4 data frames: d4 is covered,
  // the watermark at ordinal 4 and d5 replay, in order.
  auto channels = proxy.Failover({{key, 4}});
  ASSERT_EQ(channels.size(), 1u);
  FrameChannel* fresh = channels[key];
  ASSERT_NE(fresh, nullptr);
  auto first = fresh->PopWithTimeout(std::chrono::milliseconds(1000));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->is_watermark);
  EXPECT_EQ(first->watermark, 200u);
  auto second = fresh->PopWithTimeout(std::chrono::milliseconds(1000));
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->is_watermark);
  EXPECT_EQ(second->bytes, std::vector<uint8_t>(16, 5));

  // The pump re-aimed: frames arriving after the cut land in the fresh channel.
  ASSERT_TRUE(upstream.Push(DataFrame(6)));
  auto third = fresh->PopWithTimeout(std::chrono::milliseconds(5000));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->bytes, std::vector<uint8_t>(16, 6));

  // End of the upstream stream closes the fresh channel, so the standby's frontend sees
  // end-of-stream exactly like an unproxied source.
  upstream.Close();
  ASSERT_TRUE(WaitFor([&] { return fresh->drained(); }, std::chrono::milliseconds(5000)));
  proxy.Stop();
}

// --- seal-artifact fixture ---------------------------------------------------------------

// One engine's transferable seal chain — a full seal and two deltas — produced by a throwaway
// single-shard primary running a real session (ingest interleaved between the seals, so each
// delta carries genuinely new state).
struct SealChain {
  TenantSpec spec;
  SealArtifact full;
  SealArtifact delta1;
  SealArtifact delta2;
};

SealChain MakeSealChain() {
  SealChain chain{.spec = MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20)};
  TenantRegistry registry;
  EXPECT_TRUE(registry.Add(chain.spec).ok());
  EdgeServerConfig cfg;
  cfg.num_shards = 1;
  cfg.host_secure_budget_bytes = 16u << 20;
  cfg.workers_per_engine = 1;
  EdgeServer server(cfg, std::move(registry));
  FrameChannel channel(512);
  EXPECT_TRUE(server.BindSource(1, 0, &channel).ok());
  EXPECT_TRUE(server.Start().ok());

  Generator gen(SourceGenConfig(chain.spec, /*events_per_window=*/600, /*num_windows=*/3,
                                /*batch_events=*/200, /*seed=*/42));
  std::vector<Frame> frames;
  while (auto f = gen.NextFrame()) {
    frames.push_back(std::move(*f));
  }
  const size_t third = frames.size() / 3;
  auto push_range = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      Frame copy = frames[i];
      EXPECT_TRUE(channel.Push(std::move(copy)));
    }
  };
  auto seal_one = [&](SealMode mode) {
    auto artifacts = server.Checkpoint({.shard = 0, .mode = mode});
    EXPECT_TRUE(artifacts.ok()) << artifacts.status().ToString();
    EXPECT_EQ(artifacts->size(), 1u);
    return std::move((*artifacts)[0]);
  };
  push_range(0, third);
  chain.full = seal_one(SealMode::kFull);
  push_range(third, 2 * third);
  chain.delta1 = seal_one(SealMode::kDelta);
  push_range(2 * third, frames.size());
  channel.Close();
  chain.delta2 = seal_one(SealMode::kDelta);
  (void)server.Shutdown();

  EXPECT_EQ(chain.full.sealed.mode, SealMode::kFull);
  EXPECT_EQ(chain.delta1.sealed.mode, SealMode::kDelta);
  EXPECT_EQ(chain.delta2.sealed.mode, SealMode::kDelta);
  return chain;
}

// --- ReplicaSession chain discipline -----------------------------------------------------

TEST(ReplicaSessionTest, DeltasApplyInChainOrderAndPromoteIsExactlyOnce) {
  const SealChain chain = MakeSealChain();
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(chain.spec).ok());

  // A delta with no established slot has no base to extend.
  ReplicaSession orphan(&registry);
  EXPECT_FALSE(orphan.Apply(chain.delta1).ok());

  // A delta applied out of order grafts onto the wrong chain position: rejected — and
  // validate-then-mutate means the rejection leaves the slot byte-intact, so the CORRECT
  // successor delta still applies to the same session afterwards.
  ReplicaSession session(&registry);
  ASSERT_TRUE(session.Apply(chain.full).ok());
  EXPECT_EQ(session.Apply(chain.delta2).code(), StatusCode::kDataLoss);
  ASSERT_TRUE(session.Apply(chain.delta1).ok());
  ASSERT_TRUE(session.Apply(chain.delta2).ok());
  EXPECT_EQ(session.engines(), 1u);
  const auto covered = session.CoveredFrames();
  EXPECT_EQ(covered.at({1, 0}), chain.delta2.source_frames.at(0));

  // Promote-exactly-once: the second take, and any apply after the take, are refused — the
  // poison that makes split-brain impossible through this API.
  auto taken = session.TakeEngines();
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ((*taken)[0].identity.engine_id, chain.full.engine_id());
  EXPECT_EQ(session.TakeEngines().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Apply(chain.full).code(), StatusCode::kFailedPrecondition);
}

// --- the replication link ----------------------------------------------------------------

// The publisher's handshake runs lazily inside the first Publish, so a test's Connect must be
// concurrent with it.
Status ConnectDuring(ReplicationSubscriber& sub, uint16_t port,
                     const std::function<void()>& publish_side) {
  Status connected = OkStatus();
  std::thread connector([&] { connected = sub.Connect(port); });
  publish_side();
  connector.join();
  return connected;
}

TEST(ReplicationLinkTest, SealChainStreamsAppliesAndAcks) {
  const SealChain chain = MakeSealChain();
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(chain.spec).ok());

  ReplicationPublisher publisher(LinkKey());
  ASSERT_TRUE(publisher.Start().ok());
  ReplicaSession session(&registry);
  ReplicationSubscriber subscriber(&session, LinkKey());

  Status first = OkStatus();
  const Status connected = ConnectDuring(subscriber, publisher.port(),
                                         [&] { first = publisher.Publish(chain.full); });
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_TRUE(first.ok()) << first.ToString();
  ASSERT_TRUE(publisher.Publish(chain.delta1).ok());
  ASSERT_TRUE(publisher.Publish(chain.delta2).ok());

  // Publish is synchronous-until-ack: by the time it returns, the standby has applied.
  EXPECT_EQ(publisher.seals_published(), 3u);
  EXPECT_EQ(subscriber.seals_acked(), 3u);
  EXPECT_EQ(session.seals_applied(), 3u);
  EXPECT_EQ(session.engines(), 1u);
  EXPECT_TRUE(subscriber.last_error().ok());
  EXPECT_EQ(session.CoveredFrames().at({1, 0}), chain.delta2.source_frames.at(0));
  subscriber.Stop();
  publisher.Stop();
}

TEST(ReplicationLinkTest, CorruptArtifactIsRejectedWithoutAnAck) {
  const SealChain chain = MakeSealChain();
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(chain.spec).ok());

  ReplicationPublisher publisher(
      LinkKey(), ReplicationPublisher::Options{.timeout = std::chrono::milliseconds(1500)});
  ASSERT_TRUE(publisher.Start().ok());
  ReplicaSession session(&registry);
  ReplicationSubscriber subscriber(&session, LinkKey());

  Status first = OkStatus();
  ASSERT_TRUE(ConnectDuring(subscriber, publisher.port(),
                            [&] { first = publisher.Publish(chain.full); })
                  .ok());
  ASSERT_TRUE(first.ok());

  // A tampered seal fails verification at Apply; the standby sends no ack (a corrupt stream
  // must not be silently absorbed), so the blocked Publish surfaces the failure to the
  // primary's operator.
  SealArtifact corrupt = chain.delta1;
  corrupt.sealed.ciphertext[corrupt.sealed.ciphertext.size() / 2] ^= 0x01;
  EXPECT_FALSE(publisher.Publish(corrupt).ok());
  EXPECT_FALSE(subscriber.last_error().ok());
  EXPECT_EQ(session.seals_applied(), 1u);
  EXPECT_EQ(subscriber.seals_acked(), 1u);
  subscriber.Stop();
  publisher.Stop();
}

TEST(ReplicationLinkTest, WrongLinkKeyFailsTheMutualHandshake) {
  const SealChain chain = MakeSealChain();
  TenantRegistry registry;
  ASSERT_TRUE(registry.Add(chain.spec).ok());

  ReplicationPublisher publisher(
      LinkKey(), ReplicationPublisher::Options{.timeout = std::chrono::milliseconds(1500)});
  ASSERT_TRUE(publisher.Start().ok());
  ReplicaSession session(&registry);
  // A tenant's device credential must not authenticate the replication link.
  ReplicationSubscriber imposter(&session, chain.spec.mac_key);

  Status first = OkStatus();
  const Status connected = ConnectDuring(imposter, publisher.port(),
                                         [&] { first = publisher.Publish(chain.full); });
  EXPECT_FALSE(connected.ok());
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(session.seals_applied(), 0u);
  imposter.Stop();
  publisher.Stop();
}

// The publisher's challenges start unpredictably too: a standby handshake recorded against one
// primary process cannot be replayed to a restarted one, where an impostor could otherwise ack
// seals the real standby never applied.
TEST(ReplicationLinkTest, FreshPublishersIssueDifferentChallenges) {
  wire::Hello hello;  // the standby's identity: tenant 0, source 0
  hello.client_nonce = 7;
  std::vector<uint64_t> challenges;
  for (int i = 0; i < 2; ++i) {
    ReplicationPublisher publisher(LinkKey());
    ASSERT_TRUE(publisher.Start().ok());
    Status published = OkStatus();
    std::thread publish([&] { published = publisher.Publish(SealArtifact{}); });
    const auto challenge = testing::HelloChallenge(publisher.port(), hello);
    publish.join();
    EXPECT_FALSE(published.ok());  // the peer hung up instead of authenticating
    publisher.Stop();
    ASSERT_TRUE(challenge.has_value());
    challenges.push_back(*challenge);
  }
  EXPECT_NE(challenges[0], challenges[1]);
}

// --- the chaos drill ---------------------------------------------------------------------

// Kill the primary's only shard mid-window under live device-fleet TCP ingest, with continuous
// delta checkpoints streaming to a hot standby the whole time. The standby promotes the
// replica session, adopts the failed shard's sources through the proxy's replay cut, and the
// combined run loses nothing: every event the fleet sent is ingested exactly once, the
// engine's audit chain verifies gap-free across the failover, and the promotion RTO (state
// already applied — runner construction plus source re-pointing) stays within budget.
TEST(EdgeFailoverTest, HotStandbyFailoverUnderLiveTcpIngestLosesNothing) {
  constexpr size_t kDevices = 4;
  constexpr uint32_t kEventsPerWindow = 400;
  constexpr uint32_t kWindows = 10;
  constexpr uint32_t kBatch = 100;

  const TenantSpec spec = MakeTenantSpec(1, "sensors", MakeWinSum(1000), 4u << 20);
  TenantRegistry primary_registry;
  TenantRegistry standby_registry;
  TenantRegistry ingress_registry;   // outlives the frontend
  TenantRegistry session_registry;   // outlives the replica session
  for (TenantRegistry* r :
       {&primary_registry, &standby_registry, &ingress_registry, &session_registry}) {
    ASSERT_TRUE(r->Add(spec).ok());
  }

  EdgeServerConfig server_cfg;
  server_cfg.num_shards = 1;
  server_cfg.host_secure_budget_bytes = 16u << 20;
  server_cfg.frontend_threads = 1;
  server_cfg.workers_per_engine = 1;
  EdgeServer primary(server_cfg, std::move(primary_registry));
  EdgeServer standby(server_cfg, std::move(standby_registry));

  // Ingress: the device fleet's TCP sessions coalesce into group channels, which feed the
  // serving server THROUGH the failover proxy (the retaining tee).
  IngressConfig in_cfg;
  in_cfg.num_shards = 1;
  in_cfg.coalesce_events = 512;
  in_cfg.channel_capacity = 8;
  IngressFrontend frontend(in_cfg, &ingress_registry);
  for (size_t i = 0; i < kDevices; ++i) {
    ASSERT_TRUE(frontend.Provision(1, static_cast<uint32_t>(i)).ok());
  }
  std::vector<FailoverProxy::Upstream> upstreams;
  std::map<std::pair<TenantId, uint32_t>, uint16_t> stream_of;
  for (const IngressFrontend::GroupBinding& gb : frontend.GroupBindings()) {
    upstreams.push_back(FailoverProxy::Upstream{.tenant = gb.tenant, .source = gb.source,
                                                .stream = gb.stream, .channel = gb.channel});
    stream_of[{gb.tenant, gb.source}] = gb.stream;
  }
  ASSERT_FALSE(upstreams.empty());
  FailoverProxy proxy(std::move(upstreams), /*downstream_capacity=*/8);
  ASSERT_TRUE(proxy.BindTo(&primary).ok());
  ASSERT_TRUE(primary.Start().ok());
  proxy.Start();
  ASSERT_TRUE(frontend.Start().ok());

  // The replication link: primary publishes every seal; the standby's session pre-applies.
  ReplicationPublisher publisher(LinkKey());
  ASSERT_TRUE(publisher.Start().ok());
  ReplicaSession session(&session_registry);
  ReplicationSubscriber subscriber(&session, LinkKey());
  Status connected = OkStatus();
  std::thread connector([&] { connected = subscriber.Connect(publisher.port()); });

  // The fleet drives kDevices * kWindows * kEventsPerWindow events over loopback TCP.
  FleetConfig fleet_cfg;
  fleet_cfg.tcp_port = frontend.tcp_port();
  fleet_cfg.threads = 2;
  DeviceFleet fleet(fleet_cfg, [&] {
    std::vector<DeviceConfig> devices;
    for (size_t i = 0; i < kDevices; ++i) {
      DeviceConfig dc;
      dc.tenant = 1;
      dc.source = static_cast<uint32_t>(i);
      dc.gen = SourceGenConfig(spec, kEventsPerWindow, kWindows, kBatch,
                               /*seed=*/100 + static_cast<uint32_t>(i));
      dc.mac_key = spec.mac_key;
      devices.push_back(std::move(dc));
    }
    return devices;
  }());
  Result<FleetReport> fleet_report = FleetReport{};
  std::thread fleet_thread([&] { fleet_report = fleet.Run(); });

  // Continuous checkpointing: seal-in-place deltas (first falls back to full), each published
  // synchronously (acked = applied on the standby), each ack retiring the proxy's retained
  // frames it covers. Three rounds, then the chaos.
  uint64_t published = 0;
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    auto artifacts = primary.Checkpoint({.shard = 0, .mode = SealMode::kDelta});
    ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
    for (const SealArtifact& artifact : *artifacts) {
      ASSERT_TRUE(publisher.Publish(artifact).ok());
      ++published;
      for (const auto& [source, frames] : artifact.source_frames) {
        proxy.Retire(artifact.tenant(), source, frames);
      }
    }
  }
  connector.join();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  EXPECT_EQ(session.seals_applied(), published);

  // Chaos: the primary's only shard dies with everything it had not sealed. Its sources stall;
  // the replication stream stops; the primary is run down (its report must show the engines
  // gone — nothing is double-counted below).
  ASSERT_TRUE(primary.KillShard(0).ok());
  subscriber.Stop();
  publisher.Stop();
  const ServerReport primary_report = primary.Shutdown();
  EXPECT_TRUE(primary_report.engines.empty());

  // Failover: cut the proxy over to fresh channels seeded with exactly the frames the
  // standby's applied seals do NOT cover, bind them on the standby, promote the pre-applied
  // engines, and start serving. This is the RTO window — none of it scales with state size.
  const auto t0 = std::chrono::steady_clock::now();
  const auto covered = session.CoveredFrames();
  auto channels = proxy.Failover(covered);
  for (const auto& [key, channel] : channels) {
    ASSERT_TRUE(standby.BindSource(key.first, key.second, channel, stream_of[key]).ok());
  }
  ASSERT_TRUE(standby.Promote(session, /*shard=*/0).ok());
  ASSERT_TRUE(standby.Start().ok());
  const auto rto = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // Promotion is runner construction plus source re-pointing; seconds would mean a restore
  // pipeline snuck back in. Generous bound for sanitizer/CI machines.
  EXPECT_LT(rto.count(), 5000) << "promotion RTO regressed";
  ::testing::Test::RecordProperty("failover_rto_ms", static_cast<int>(rto.count()));

  // A promoted session is spent: re-homing the same engines twice would be split-brain.
  EXPECT_EQ(standby.Promote(session, 0).code(), StatusCode::kFailedPrecondition);

  // The fleet finishes against the standby; end-of-stream propagates through the proxy.
  fleet_thread.join();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  ASSERT_TRUE(frontend.WaitAllDone(std::chrono::milliseconds(60000)));
  frontend.Stop();
  const ServerReport standby_report = standby.Shutdown();
  proxy.Stop();

  // Zero event loss across the kill: runner counters are cumulative across seal/promote (they
  // ride inside the sealed state), so the standby's total must equal everything the fleet sent
  // — events sealed before the kill, the replayed uncovered suffix, and the post-failover tail,
  // each ingested exactly once.
  ASSERT_EQ(standby_report.engines.size(), 1u);
  const TenantShardReport& engine = standby_report.engines[0];
  EXPECT_EQ(fleet_report->events_sent,
            static_cast<uint64_t>(kDevices) * kEventsPerWindow * kWindows);
  EXPECT_EQ(engine.runner().events_ingested, fleet_report->events_sent);
  EXPECT_EQ(engine.runner().task_errors, 0u);
  EXPECT_EQ(engine.shed_frames, 0u);
  EXPECT_GE(engine.restores, 1u);

  // The attestation survives the failover: every upload MAC verifies, the hash chain is
  // continuous across the promote splice, and the decoded chain replays as one complete
  // session against the tenant's pipeline declaration.
  EXPECT_TRUE(engine.chain_ok) << "audit chain broke across failover";
  ASSERT_TRUE(engine.verified);
  EXPECT_TRUE(engine.verify.correct)
      << (engine.verify.violations.empty() ? "" : engine.verify.violations[0]);
  EXPECT_EQ(engine.verify.windows_verified, kWindows);
}

}  // namespace
}  // namespace sbt
