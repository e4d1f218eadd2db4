// The three workloads, the seeded per-device event streams that feed them, and the reference
// results the benchmark computes from the same generated events.
//
//   bulk_saturate  closed loop. One Distinct tenant, four persistent sessions sending 25k-event
//                  encrypted frames as fast as their sockets accept them, in lockstep per
//                  window; a window (1M events, 12 MB) is the loop's request, and the next one
//                  starts once the server's exported queues have drained (see measure.cc). The
//                  only workload run at capacity: it measures the headline rate. Sort/merge,
//                  AES-CTR and uArray memory dominate; handshakes, world switches and audit
//                  records per event are few.
//   sensor_herd    open loop. 400 WinSum devices (one shard) all wake at every 100 ms window
//                  boundary and take turns, at most four sessions open at once; each
//                  opens a fresh authenticated session, uploads 10 readings and a watermark,
//                  and says Bye. Session set-up and many-to-one coalescing dominate; per-event
//                  compute is trivial, so ingress changes show here and data-plane ones do not.
//   replicated_mix open loop. WinSum, TopK and Power tenants (12- and 16-byte events) on two
//                  shards at 2.4 M events/s, four persistent sessions, one worker per engine.
//                  Every shard is delta-sealed every 150 ms on the generator's clock and each
//                  artifact is published to a hot standby. World switches, tickets, audit
//                  records and seals dominate; seals interleave with serving.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/control/pipeline.h"
#include "src/crypto/aes128.h"
#include "src/net/workloads.h"
#include "src/server/tenant.h"

namespace perfbench {

enum class Op : uint8_t { kDistinct, kWinSum, kTopK, kPower };

struct TenantPlan {
  sbt::TenantId id = 0;
  std::string name;
  Op op = Op::kWinSum;
  std::vector<uint32_t> devices;  // the tenant's device (source) ids
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = true;
  bool persistent_sessions = true;  // false: a fresh session per device per window
  uint32_t num_shards = 2;
  uint32_t window_ms = 100;         // event-time window; also the open-loop schedule period
  uint32_t events_per_device_window = 64;
  uint32_t frame_events = 64;       // events per device data frame
  size_t quota_bytes = 16u << 20;   // secure carve per engine
  int workers_per_engine = 1;
  uint32_t seal_every_ms = 0;       // 0: no replication
  double tail_pct = 95;             // fixed per workload (see TailPercentile)
  // Load runs this long before the measured seconds; its windows are checked like all others
  // but left out of the latency percentiles (an idle host needs about a second to warm up).
  uint32_t warmup_ms = 1000;
  std::vector<TenantPlan> tenants;
};

// Fresh set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 41;

// nullopt for an unknown workload name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name);

sbt::Pipeline PipelineFor(Op op, uint32_t window_ms);

// The engine shard a device's frames land on: the ingress groups devices by (tenant, stream,
// ingress shard) and the server homes each group source with the same jump hash.
uint32_t EngineShardOf(sbt::TenantId tenant, uint32_t device, uint32_t num_shards);

// Reference aggregate of one window over a set of devices, folded from plaintext events.
struct WindowRef {
  uint64_t events = 0;
  int64_t sum = 0;                                  // WinSum
  std::vector<uint64_t> keys;                       // Distinct: bitset of taxi ids
  std::vector<std::vector<int32_t>> top;            // TopK: per key, largest values
  std::vector<std::pair<int64_t, int64_t>> plugs;   // Power: per plug, (sum, count)

  void Fold(Op op, const uint8_t* plain, size_t count);
  // Drops TopK values that can no longer be among a key's K largest.
  void Trim(Op op);
  void Merge(Op op, const WindowRef& other);
  // Compares one decrypted egress blob with this reference.
  bool Matches(Op op, const std::vector<uint8_t>& plain) const;
};

// One device's seeded event stream: plaintext from the repo's workload generator, folded into
// the reference, then AES-CTR encrypted with the tenant's ingress key at the device's running
// keystream offset — exactly what a provisioned sensor would send.
class DeviceStream {
 public:
  DeviceStream(const sbt::TenantSpec& spec, Op op, uint32_t window_ms,
               uint32_t events_per_window, uint64_t seed);

  // Replaces `frame` with `count` events of `window` starting at event `first`, folds them
  // into `ref`, and returns the frame's keystream offset.
  uint64_t Fill(uint32_t window, uint32_t first, uint32_t count, std::vector<uint8_t>* frame,
                WindowRef* ref);

 private:
  Op op_;
  sbt::WorkloadGenerator gen_;
  sbt::Aes128Ctr cipher_;
  uint64_t ctr_ = 0;
};

// Per-device seed derived from the workload seed (splitmix64 over the device's identity).
uint64_t DeviceSeed(uint64_t workload_seed, sbt::TenantId tenant, uint32_t device);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
