// The serving stack one benchmark set-up builds, and the measured phase that drives it.
//
// One process holds everything: the benchmark's paced simulated devices speaking the wire protocol
// over loopback TCP, IngressFrontend, EdgeServer shards with their Runner/DataPlane engines,
// egress, and (replicated_mix) delta seals published to a hot-standby ReplicaSession. The
// cloud-side verifier runs afterwards, in report.cc.

#ifndef PERFBENCH_SRC_STACK_H_
#define PERFBENCH_SRC_STACK_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/device.h"
#include "perfbench/src/proc.h"
#include "perfbench/src/workload.h"
#include "src/server/edge_server.h"
#include "src/server/ingress.h"
#include "src/server/replica.h"
#include "src/server/replication.h"

namespace perfbench {

// A benchmark span around one call into a layer, keyed by (tenant, engine shard, window);
// window -1 when the call is not about one window. Kept in memory, written out at the end.
struct Span {
  const char* name = "";
  uint32_t tenant = 0;
  uint32_t engine = 0;
  int64_t window = -1;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int tid = 0;
};
using SpanLog = std::vector<Span>;

// Records a span into `log` on destruction; a null log (untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint32_t tenant, uint32_t engine, int64_t window)
      : log_(log) {
    if (log_ != nullptr) {
      span_ = Span{name, tenant, engine, window, sbt::NowUs(), 0, CurrentTid()};
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      span_.end_us = sbt::NowUs();
      log_->push_back(span_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

struct EngineKey {
  sbt::TenantId tenant = 0;
  uint32_t shard = 0;
  auto operator<=>(const EngineKey&) const = default;
};

// One simulated device and everything the benchmark records about what it sent.
struct DeviceRun {
  const TenantPlan* plan = nullptr;
  const sbt::TenantSpec* spec = nullptr;
  uint32_t id = 0;
  uint32_t shard = 0;  // its engine's shard
  std::unique_ptr<DeviceLink> link;
  std::unique_ptr<DeviceStream> stream;
  std::vector<WindowRef> refs;        // per window sent
  std::vector<int64_t> wm_sent_us;    // per window: when its closing watermark was written
  uint64_t events = 0;
  uint64_t frames = 0;
};

struct Stack {
  sbt::TenantRegistry ingress_registry;
  sbt::TenantRegistry replica_registry;
  std::unique_ptr<sbt::EdgeServer> server;
  std::unique_ptr<sbt::IngressFrontend> ingress;
  std::unique_ptr<sbt::ReplicationPublisher> publisher;
  std::unique_ptr<sbt::ReplicaSession> replica;
  std::unique_ptr<sbt::ReplicationSubscriber> subscriber;
  std::vector<DeviceRun> devices;

  // Replication bookkeeping: uploads carried inside seal artifacts (the chain links the
  // verifier must accept before the final upload), and per-call timings.
  std::map<EngineKey, std::vector<sbt::AuditUpload>> shipped;
  uint64_t seals_published = 0;
  uint64_t seal_failures = 0;
  uint64_t seal_bytes = 0;  // encoded artifact bytes (traced runs only)
  std::vector<double> checkpoint_ms;
  std::vector<double> publish_ms;
  int64_t seal_thread_cpu_ns = 0;  // the control thread's CPU inside Checkpoint/Publish
  std::vector<std::string> errors;
};

// Per-run context shared by set-up and the measured phase.
struct RunContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  SpanLog* spans = nullptr;       // null when untraced
  ThreadGroups* groups = nullptr; // null when untraced
  const cpu_set_t* generator_cpus = nullptr;  // where sender threads run (null: anywhere)
};

// Builds, starts and connects one stack: provision every device, construct and start
// EdgeServer and IngressFrontend, open the persistent sessions and, for replicated_mix,
// connect the standby and apply its first seal of every shard. Device streams are attached
// separately (AttachStreams) because generating inputs is not deployment work.
sbt::Result<std::unique_ptr<Stack>> SetUp(const RunContext& ctx);
void AttachStreams(const RunContext& ctx, Stack& stack);
// Drops an idle stack (a set-up that was only timed).
void TearDown(Stack& stack);

// Delta-seals one shard in place and publishes every artifact to the standby.
void SealShard(const RunContext& ctx, Stack& stack, uint32_t shard, int64_t window);

// Runs EdgeServer::Shutdown under a deadline; a wedge prints a failed result and exits.
sbt::ServerReport ShutdownWithin(sbt::EdgeServer& server, int64_t timeout_us,
                                 int64_t* thread_cpu_ns, size_t attempted);

// Prints a failed result line and exits non-zero (a wedged wait).
[[noreturn]] void FailRun(const std::string& why, size_t attempted);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STACK_H_
