#include "perfbench/src/stack.h"

#include <cstdio>
#include <future>
#include <set>
#include <thread>

#include "src/server/shard_router.h"

namespace perfbench {
namespace {

constexpr int64_t kHandshakeDeadlineUs = 10'000'000;

sbt::AesKey LinkKey() {
  sbt::AesKey key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xd0 + i);
  }
  return key;
}

// Runs `call` and tags the threads it created with `group` (traced runs only).
template <typename F>
auto Tagged(ThreadGroups* groups, const char* group, F&& call) {
  const std::set<int> before = groups != nullptr ? ListTasks() : std::set<int>{};
  auto result = call();
  if (groups != nullptr) {
    groups->TagNew(before, group);
  }
  return result;
}

}  // namespace

void FailRun(const std::string& why, size_t attempted) {
  std::fprintf(stderr, "perfbench: run failed: %s\n", why.c_str());
  std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {}}\n",
              attempted, attempted);
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

sbt::Result<std::unique_ptr<Stack>> SetUp(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  auto st = std::make_unique<Stack>();
  sbt::TenantRegistry server_registry;
  std::map<uint32_t, std::set<sbt::TenantId>> engines_per_shard;
  for (const TenantPlan& plan : spec.tenants) {
    const sbt::TenantSpec tenant = sbt::MakeTenantSpec(
        plan.id, plan.name, PipelineFor(plan.op, spec.window_ms), spec.quota_bytes);
    SBT_RETURN_IF_ERROR(server_registry.Add(tenant));
    SBT_RETURN_IF_ERROR(st->ingress_registry.Add(tenant));
    SBT_RETURN_IF_ERROR(st->replica_registry.Add(tenant));
    for (uint32_t d : plan.devices) {
      engines_per_shard[EngineShardOf(plan.id, d, spec.num_shards)].insert(plan.id);
    }
  }
  size_t max_engines = 1;
  for (const auto& [shard, tenants] : engines_per_shard) {
    max_engines = std::max(max_engines, tenants.size());
  }

  sbt::EdgeServerConfig cfg;
  cfg.num_shards = spec.num_shards;
  cfg.host_secure_budget_bytes = max_engines * spec.quota_bytes * spec.num_shards;
  cfg.workers_per_engine = spec.workers_per_engine;
  cfg.switch_cost = sbt::WorldSwitchConfig{};  // the cost model on, as deployed
  // The benchmark runs the cloud-side verifier itself (report.cc).
  cfg.verify_audit_on_shutdown = false;
  st->server = std::make_unique<sbt::EdgeServer>(cfg, std::move(server_registry));

  sbt::IngressConfig icfg;  // default coalescing target
  icfg.num_shards = spec.num_shards;
  st->ingress = std::make_unique<sbt::IngressFrontend>(icfg, &st->ingress_registry);
  const sbt::ShardRouter router(spec.num_shards);
  for (const TenantPlan& plan : spec.tenants) {
    for (uint32_t d : plan.devices) {
      SBT_RETURN_IF_ERROR(st->ingress->Provision(plan.id, d));
      // The benchmark's engine map must agree with the server's routing.
      if (st->server->RouteOf(plan.id, router.Route(plan.id, d) * 64) !=
          EngineShardOf(plan.id, d, spec.num_shards)) {
        return sbt::Internal("engine map disagrees with EdgeServer::RouteOf");
      }
      DeviceRun run;
      run.plan = &plan;
      run.spec = st->ingress_registry.Find(plan.id);
      run.id = d;
      run.shard = EngineShardOf(plan.id, d, spec.num_shards);
      run.link = std::make_unique<DeviceLink>(plan.id, d, run.spec->mac_key);
      st->devices.push_back(std::move(run));
    }
  }
  SBT_RETURN_IF_ERROR(
      Tagged(ctx.groups, "control", [&] { return st->ingress->BindTo(st->server.get()); }));
  {
    SpanScope span(ctx.spans, "server.start", 0, 0, -1);
    SBT_RETURN_IF_ERROR(Tagged(ctx.groups, "server.edge", [&] { return st->server->Start(); }));
  }
  {
    SpanScope span(ctx.spans, "ingress.start", 0, 0, -1);
    SBT_RETURN_IF_ERROR(
        Tagged(ctx.groups, "server.ingress", [&] { return st->ingress->Start(); }));
  }

  if (spec.persistent_sessions) {
    for (DeviceRun& d : st->devices) {
      SpanScope span(ctx.spans, "session.handshake", d.plan->id, d.shard, -1);
      SBT_RETURN_IF_ERROR(d.link->Connect(st->ingress->tcp_port(), d.id,
                                          sbt::NowUs() + kHandshakeDeadlineUs));
    }
  }

  if (spec.seal_every_ms > 0) {
    sbt::ReplicationPublisher::Options popts;
    popts.timeout = std::chrono::milliseconds(10000);
    st->publisher = std::make_unique<sbt::ReplicationPublisher>(LinkKey(), popts);
    SBT_RETURN_IF_ERROR(st->publisher->Start());
    sbt::ReplicaSession::Options ropts;
    ropts.switch_cost = cfg.switch_cost;
    st->replica = std::make_unique<sbt::ReplicaSession>(&st->replica_registry, ropts);
    st->subscriber = std::make_unique<sbt::ReplicationSubscriber>(st->replica.get(), LinkKey());
    const std::set<int> before = ctx.groups != nullptr ? ListTasks() : std::set<int>{};
    sbt::Status connected = sbt::OkStatus();
    // The publisher accepts the standby inside its first Publish, so connect concurrently.
    std::thread connector([&] { connected = st->subscriber->Connect(st->publisher->port()); });
    for (uint32_t shard = 0; shard < spec.num_shards; ++shard) {
      SealShard(ctx, *st, shard, -1);
    }
    connector.join();
    if (ctx.groups != nullptr) {
      ctx.groups->TagNew(before, "server.replication");
    }
    SBT_RETURN_IF_ERROR(connected);
    if (st->seal_failures > 0) {
      return sbt::Internal("first seal failed: " + st->errors.front());
    }
  }
  return st;
}

void AttachStreams(const RunContext& ctx, Stack& stack) {
  for (DeviceRun& d : stack.devices) {
    d.stream = std::make_unique<DeviceStream>(*d.spec, d.plan->op, ctx.spec->window_ms,
                                              ctx.spec->events_per_device_window,
                                              DeviceSeed(ctx.seed, d.plan->id, d.id));
  }
}

void TearDown(Stack& stack) {
  for (DeviceRun& d : stack.devices) {
    d.link->Abort();
  }
  stack.ingress->Stop();
  int64_t unused = 0;
  (void)ShutdownWithin(*stack.server, 30'000'000, &unused, 1);
  if (stack.subscriber != nullptr) {
    stack.subscriber->Stop();
    stack.publisher->Stop();
  }
}

void SealShard(const RunContext& ctx, Stack& stack, uint32_t shard, int64_t window) {
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = sbt::NowUs();
  sbt::Result<std::vector<sbt::SealArtifact>> artifacts = [&] {
    SpanScope span(ctx.spans, "server.checkpoint", 0, shard, window);
    return Tagged(ctx.groups, "server.edge", [&] {
      if (ctx.groups != nullptr) {
        ctx.groups->Sample();  // the dispatcher this seal replaces keeps its final reading
      }
      return stack.server->Checkpoint({.shard = shard, .mode = sbt::SealMode::kDelta});
    });
  }();
  stack.checkpoint_ms.push_back(static_cast<double>(sbt::NowUs() - t0) / 1e3);
  if (!artifacts.ok()) {
    ++stack.seal_failures;
    stack.errors.push_back("checkpoint: " + artifacts.status().ToString());
    stack.seal_thread_cpu_ns += ThreadCpuNs() - cpu0;
    return;
  }
  for (const sbt::SealArtifact& artifact : *artifacts) {
    const int64_t p0 = sbt::NowUs();
    sbt::Status published = [&] {
      SpanScope span(ctx.spans, "replication.publish", artifact.tenant(), shard, window);
      return stack.publisher->Publish(artifact);
    }();
    stack.publish_ms.push_back(static_cast<double>(sbt::NowUs() - p0) / 1e3);
    if (!published.ok()) {
      ++stack.seal_failures;
      stack.errors.push_back("publish: " + published.ToString());
      continue;
    }
    ++stack.seals_published;
    auto& chain = stack.shipped[EngineKey{artifact.tenant(), shard}];
    chain.insert(chain.end(), artifact.uploads.begin(), artifact.uploads.end());
  }
  stack.seal_thread_cpu_ns += ThreadCpuNs() - cpu0;
  if (ctx.spans != nullptr) {
    // Sizing the artifacts re-encodes them: benchmark work, outside the timed calls above.
    for (const sbt::SealArtifact& artifact : *artifacts) {
      stack.seal_bytes += sbt::EncodeSealArtifact(artifact).size();
    }
  }
}

sbt::ServerReport ShutdownWithin(sbt::EdgeServer& server, int64_t timeout_us,
                                 int64_t* thread_cpu_ns, size_t attempted) {
  std::promise<sbt::ServerReport> promise;
  std::future<sbt::ServerReport> done = promise.get_future();
  std::thread runner([&] {
    const int64_t cpu0 = ThreadCpuNs();
    sbt::ServerReport report = server.Shutdown();
    *thread_cpu_ns = ThreadCpuNs() - cpu0;
    promise.set_value(std::move(report));
  });
  if (done.wait_for(std::chrono::microseconds(timeout_us)) != std::future_status::ready) {
    FailRun("EdgeServer::Shutdown did not finish before its deadline (wedged engine?)",
            attempted);
  }
  runner.join();
  return done.get();
}

}  // namespace perfbench
