#include "perfbench/src/workload.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

#include "src/common/event.h"
#include "src/control/benchmarks.h"
#include "src/primitives/kv.h"
#include "src/server/shard_router.h"

namespace perfbench {
namespace {

constexpr uint32_t kTaxiIds = 11000;  // WorkloadKind::kTaxi's id space
constexpr uint32_t kTopKKeys = 500;
constexpr uint32_t kTopK = 10;
constexpr uint32_t kHouses = 40;
constexpr uint32_t kPlugsPerHouse = 50;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

sbt::WorkloadConfig WorkloadConfigFor(Op op, uint32_t window_ms, uint32_t events_per_window,
                                      uint64_t seed) {
  sbt::WorkloadConfig wl;
  wl.seed = seed;
  wl.window_ms = window_ms;
  wl.events_per_window = events_per_window;
  switch (op) {
    case Op::kDistinct:
      wl.kind = sbt::WorkloadKind::kTaxi;
      break;
    case Op::kWinSum:
      wl.kind = sbt::WorkloadKind::kIntelLab;
      break;
    case Op::kTopK:
      wl.kind = sbt::WorkloadKind::kSynthetic;
      wl.num_keys = kTopKKeys;
      break;
    case Op::kPower:
      wl.kind = sbt::WorkloadKind::kPowerGrid;
      wl.num_houses = kHouses;
      wl.plugs_per_house = kPlugsPerHouse;
      break;
  }
  return wl;
}

// Whether tenant `t`'s two ingress groups (one per ingress shard) land on different engine
// shards, so the tenant runs one engine per shard.
bool SpreadsOverShards(sbt::TenantId t, uint32_t num_shards) {
  const sbt::ShardRouter router(num_shards);
  return router.Route(t, 0) != router.Route(t, 64);
}

sbt::TenantId FirstSpreadingTenant(sbt::TenantId from, uint32_t num_shards) {
  sbt::TenantId t = from;
  while (!SpreadsOverShards(t, num_shards)) {
    ++t;
  }
  return t;
}

// The first `count` device ids whose ingress shard is `ingress_shard`.
std::vector<uint32_t> DevicesOnIngressShard(sbt::TenantId t, uint32_t ingress_shard,
                                            size_t count, uint32_t num_shards) {
  const sbt::ShardRouter router(num_shards);
  std::vector<uint32_t> out;
  for (uint32_t d = 0; out.size() < count; ++d) {
    if (router.Route(t, d) == ingress_shard) {
      out.push_back(d);
    }
  }
  return out;
}

void SortDescending(std::vector<int32_t>& v) { std::sort(v.begin(), v.end(), std::greater<>()); }

}  // namespace

uint64_t DeviceSeed(uint64_t workload_seed, sbt::TenantId tenant, uint32_t device) {
  return SplitMix64(SplitMix64(workload_seed) ^ ((static_cast<uint64_t>(tenant) << 32) | device));
}

uint32_t EngineShardOf(sbt::TenantId tenant, uint32_t device, uint32_t num_shards) {
  const sbt::ShardRouter router(num_shards);
  const uint32_t group_source = router.Route(tenant, device) * 64;  // stream 0
  return router.Route(tenant, group_source);
}

sbt::Pipeline PipelineFor(Op op, uint32_t window_ms) {
  switch (op) {
    case Op::kDistinct:
      return sbt::MakeDistinct(window_ms);
    case Op::kWinSum:
      return sbt::MakeWinSum(window_ms);
    case Op::kTopK:
      return sbt::MakeTopK(window_ms, kTopK);
    case Op::kPower:
      return sbt::MakePower(window_ms);
  }
  return sbt::MakeWinSum(window_ms);
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "bulk_saturate") {
    w.open_loop = false;
    w.window_ms = 1000;
    w.events_per_device_window = 250000;  // 1M events (12 MB) per window across the devices
    w.frame_events = 25000;
    w.quota_bytes = 128u << 20;  // must hold the in-flight windows (edge_server.h's wedge)
    w.workers_per_engine = 2;    // one worker per engine leaves the window latency unsteady
    w.tail_pct = 90;
    const sbt::TenantId t = FirstSpreadingTenant(1, w.num_shards);
    TenantPlan plan{.id = t, .name = "distinct", .op = Op::kDistinct};
    for (uint32_t shard = 0; shard < w.num_shards; ++shard) {
      for (uint32_t d : DevicesOnIngressShard(t, shard, 2, w.num_shards)) {
        plan.devices.push_back(d);
      }
    }
    w.tenants.push_back(plan);
    return w;
  }
  if (name == "sensor_herd") {
    // One engine: both engines of a two-shard herd close on the same last sessions, so their
    // latencies would be pairs of one sample and the tail would rest on half as many.
    w.num_shards = 1;
    w.tail_pct = 90;
    w.persistent_sessions = false;
    w.window_ms = 100;
    // 400 x 10 readings fit one coalesced batch (the ingress's default target is 4096 events).
    // With several batches per window, how many of them sit in secure memory at once is a race
    // between the dispatcher's ingest and the worker's chains, and the run's secure-memory peak
    // swung between 4 and 8 pages (0.25 to 0.5 MB) from run to run with the host's state.
    w.events_per_device_window = 10;
    w.frame_events = 10;
    TenantPlan plan{.id = 1, .name = "winsum", .op = Op::kWinSum};
    for (uint32_t d = 0; d < 400; ++d) {
      plan.devices.push_back(d);
    }
    w.tenants.push_back(plan);
    return w;
  }
  if (name == "replicated_mix") {
    w.window_ms = 200;
    w.events_per_device_window = 120000;  // 4 devices x 600k events/s = 2.4 M events/s
    w.frame_events = 1000;
    w.quota_bytes = 32u << 20;
    w.seal_every_ms = 150;
    // About one run in seven starts with most results 50 to 90 ms later than usual (delivery
    // to the engine is slow, the close is not) and stays so for 2.4 to 4.2 s before dropping
    // back in one step; it happened with sealing held back for the first second too. A 1 s
    // warm-up left that spell in the latency percentiles of those runs.
    w.warmup_ms = 6000;
    const sbt::TenantId winsum = FirstSpreadingTenant(1, w.num_shards);
    TenantPlan ws{.id = winsum, .name = "winsum", .op = Op::kWinSum};
    for (uint32_t shard = 0; shard < w.num_shards; ++shard) {
      ws.devices.push_back(DevicesOnIngressShard(winsum, shard, 1, w.num_shards)[0]);
    }
    // TopK and Power on different shards, so each shard hosts two engines.
    const sbt::TenantId topk = winsum + 1;
    sbt::TenantId power = topk + 1;
    while (EngineShardOf(power, 0, w.num_shards) == EngineShardOf(topk, 0, w.num_shards)) {
      ++power;
    }
    w.tenants.push_back(ws);
    w.tenants.push_back(TenantPlan{.id = topk, .name = "topk", .op = Op::kTopK, .devices = {0}});
    w.tenants.push_back(
        TenantPlan{.id = power, .name = "power", .op = Op::kPower, .devices = {0}});
    return w;
  }
  return std::nullopt;
}

void WindowRef::Fold(Op op, const uint8_t* plain, size_t count) {
  events += count;
  switch (op) {
    case Op::kWinSum:
      for (size_t i = 0; i < count; ++i) {
        sbt::Event e;
        std::memcpy(&e, plain + i * sizeof(e), sizeof(e));
        sum += e.value;
      }
      break;
    case Op::kDistinct:
      keys.resize((kTaxiIds + 63) / 64);
      for (size_t i = 0; i < count; ++i) {
        sbt::Event e;
        std::memcpy(&e, plain + i * sizeof(e), sizeof(e));
        keys[e.key / 64] |= uint64_t{1} << (e.key % 64);
      }
      break;
    case Op::kTopK:
      top.resize(kTopKKeys);
      for (size_t i = 0; i < count; ++i) {
        sbt::Event e;
        std::memcpy(&e, plain + i * sizeof(e), sizeof(e));
        top[e.key].push_back(e.value);
      }
      break;
    case Op::kPower:
      plugs.resize(kHouses * kPlugsPerHouse);
      for (size_t i = 0; i < count; ++i) {
        sbt::PowerEvent e;
        std::memcpy(&e, plain + i * sizeof(e), sizeof(e));
        auto& cell = plugs[e.house * kPlugsPerHouse + e.plug];
        cell.first += e.power;
        ++cell.second;
      }
      break;
  }
}

void WindowRef::Trim(Op op) {
  if (op != Op::kTopK) {
    return;
  }
  for (std::vector<int32_t>& values : top) {
    if (values.size() > kTopK) {
      std::nth_element(values.begin(), values.begin() + kTopK, values.end(), std::greater<>());
      values.resize(kTopK);
    }
  }
}

void WindowRef::Merge(Op op, const WindowRef& other) {
  events += other.events;
  sum += other.sum;
  if (keys.size() < other.keys.size()) {
    keys.resize(other.keys.size());
  }
  for (size_t i = 0; i < other.keys.size(); ++i) {
    keys[i] |= other.keys[i];
  }
  if (top.size() < other.top.size()) {
    top.resize(other.top.size());
  }
  for (size_t k = 0; k < other.top.size(); ++k) {
    top[k].insert(top[k].end(), other.top[k].begin(), other.top[k].end());
  }
  if (plugs.size() < other.plugs.size()) {
    plugs.resize(other.plugs.size());
  }
  for (size_t p = 0; p < other.plugs.size(); ++p) {
    plugs[p].first += other.plugs[p].first;
    plugs[p].second += other.plugs[p].second;
  }
  Trim(op);
}

bool WindowRef::Matches(Op op, const std::vector<uint8_t>& plain) const {
  switch (op) {
    case Op::kWinSum: {
      int64_t got = 0;
      if (plain.size() != sizeof(got)) {
        return false;
      }
      std::memcpy(&got, plain.data(), sizeof(got));
      return got == sum;
    }
    case Op::kDistinct: {
      uint64_t got = 0;
      if (plain.size() != sizeof(got)) {
        return false;
      }
      std::memcpy(&got, plain.data(), sizeof(got));
      uint64_t expected = 0;
      for (uint64_t word : keys) {
        expected += static_cast<uint64_t>(std::popcount(word));
      }
      return got == expected;
    }
    case Op::kTopK: {
      if (plain.size() % sizeof(sbt::PackedKV) != 0) {
        return false;
      }
      std::map<uint32_t, std::vector<int32_t>> got;
      for (size_t i = 0; i < plain.size(); i += sizeof(sbt::PackedKV)) {
        sbt::PackedKV kv;
        std::memcpy(&kv, plain.data() + i, sizeof(kv));
        got[sbt::UnpackKey(kv)].push_back(sbt::UnpackValue(kv));
      }
      size_t keys_expected = 0;
      for (uint32_t k = 0; k < top.size(); ++k) {
        if (top[k].empty()) {
          continue;
        }
        ++keys_expected;
        auto it = got.find(k);
        if (it == got.end()) {
          return false;
        }
        std::vector<int32_t> want = top[k];
        SortDescending(want);
        SortDescending(it->second);
        if (it->second != want) {
          return false;
        }
      }
      return got.size() == keys_expected;
    }
    case Op::kPower: {
      // Per-plug average, plugs above the mean of averages, counted per house.
      int64_t total = 0;
      int64_t present = 0;
      for (const auto& [s, c] : plugs) {
        if (c > 0) {
          total += s / c;
          ++present;
        }
      }
      std::map<uint32_t, int64_t> expected;
      for (size_t p = 0; p < plugs.size(); ++p) {
        const auto& [s, c] = plugs[p];
        if (c > 0 && (s / c) * present > total) {
          ++expected[static_cast<uint32_t>(p / kPlugsPerHouse)];
        }
      }
      if (plain.size() % sizeof(sbt::KeyValue) != 0) {
        return false;
      }
      std::map<uint32_t, int64_t> got;
      for (size_t i = 0; i < plain.size(); i += sizeof(sbt::KeyValue)) {
        sbt::KeyValue kv;
        std::memcpy(&kv, plain.data() + i, sizeof(kv));
        got[kv.key] = kv.value;
      }
      return got == expected;
    }
  }
  return false;
}

DeviceStream::DeviceStream(const sbt::TenantSpec& spec, Op op, uint32_t window_ms,
                           uint32_t events_per_window, uint64_t seed)
    : op_(op),
      gen_(WorkloadConfigFor(op, window_ms, events_per_window, seed)),
      cipher_(spec.ingress_key, std::span<const uint8_t>(spec.ingress_nonce.data(), 12)) {}

uint64_t DeviceStream::Fill(uint32_t window, uint32_t first, uint32_t count,
                            std::vector<uint8_t>* frame, WindowRef* ref) {
  frame->clear();
  gen_.FillFrame(window, first, count, frame);
  ref->Fold(op_, frame->data(), count);
  const uint64_t offset = ctr_;
  cipher_.Crypt(std::span<uint8_t>(frame->data(), frame->size()), offset);
  ctr_ += frame->size();
  return offset;
}

}  // namespace perfbench
