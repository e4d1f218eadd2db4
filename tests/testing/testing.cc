#include "tests/testing/testing.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/rng.h"
#include "src/crypto/aes128.h"
#include "src/tz/world_switch.h"

namespace sbt {
namespace testing {

std::vector<Event> MakeEvents(size_t n, uint32_t keys, uint32_t window_ms, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    events[i].ts_ms = static_cast<EventTimeMs>(i * window_ms * 2 / n);  // spans 2 windows
    events[i].key = static_cast<uint32_t>(rng.NextBelow(keys));
    events[i].value = static_cast<int32_t>(rng.NextBelow(1000));
  }
  return events;
}

std::vector<Event> ConstantEvents(size_t n, uint32_t key, int32_t value) {
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    events[i] = {.ts_ms = 0, .key = key, .value = value};
  }
  return events;
}

std::span<const uint8_t> AsBytes(const std::vector<Event>& events) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(events.data()),
                                  events.size() * sizeof(Event));
}

std::vector<Event> RegenerateEvents(const GeneratorConfig& cfg, uint64_t seed_offset) {
  GeneratorConfig copy = cfg;
  copy.encrypt = false;
  copy.workload.seed += seed_offset;
  Generator gen(copy);
  std::vector<Event> events;
  while (auto frame = gen.NextFrame()) {
    if (frame->is_watermark) {
      continue;
    }
    const size_t n = frame->bytes.size() / sizeof(Event);
    const size_t start = events.size();
    events.resize(start + n);
    std::memcpy(events.data() + start, frame->bytes.data(), n * sizeof(Event));
  }
  return events;
}

TzPartitionConfig SmallTzPartition(size_t pool_mb) {
  TzPartitionConfig cfg;
  cfg.secure_dram_bytes = pool_mb << 20;
  cfg.secure_page_bytes = 64u << 10;
  cfg.group_reserve_bytes = pool_mb << 20;
  return cfg;
}

DataPlaneConfig SmallDataPlaneConfig(bool decrypt_ingress) {
  DataPlaneConfig cfg;
  cfg.partition.secure_dram_bytes = 64u << 20;
  cfg.partition.secure_page_bytes = 64u << 10;
  cfg.partition.group_reserve_bytes = 64u << 20;
  cfg.switch_cost = WorldSwitchConfig::Disabled();
  cfg.decrypt_ingress = decrypt_ingress;
  for (size_t i = 0; i < kAesKeySize; ++i) {
    cfg.ingress_key[i] = static_cast<uint8_t>(i + 1);
    cfg.egress_key[i] = static_cast<uint8_t>(2 * i + 1);
    cfg.mac_key[i] = static_cast<uint8_t>(3 * i + 7);
  }
  cfg.ingress_nonce.fill(0x11);
  cfg.egress_nonce.fill(0x22);
  return cfg;
}

HarnessOptions SmallHarnessOptions(EngineVersion version) {
  HarnessOptions opts;
  opts.version = version;
  opts.engine.secure_pool_mb = 128;
  opts.engine.knobs.worker_threads = 4;
  opts.generator.batch_events = 10000;
  opts.generator.num_windows = 3;
  opts.generator.workload.events_per_window = 30000;
  opts.generator.workload.window_ms = 1000;
  opts.generator.workload.seed = 42;
  return opts;
}

namespace {
// Deterministic lane-spreading for synthetic parallel hints.
size_t LaneOf(size_t i) { return (i * 2654435761u) % 8; }
}  // namespace

std::vector<AuditRecord> SyntheticAuditRecords(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<AuditRecord> records;
  uint32_t next_id = 1;
  uint32_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    AuditRecord r;
    ts += static_cast<uint32_t>(rng.NextBelow(5));
    r.ts_ms = ts;
    const uint64_t kind = rng.NextBelow(10);
    if (kind == 0) {
      r.op = PrimitiveOp::kIngress;
      r.outputs = {next_id++};
    } else if (kind == 1) {
      r.op = PrimitiveOp::kWatermark;
      r.watermark = ts * 10;
    } else if (kind == 2) {
      r.op = PrimitiveOp::kSegment;
      r.inputs = {next_id - 1};
      for (int o = 0; o < 3; ++o) {
        r.outputs.push_back(next_id++);
        r.win_nos.push_back(static_cast<uint16_t>(i / 50 + o));
      }
      r.hints.push_back(AuditHint::Parallel(static_cast<uint32_t>(LaneOf(i))));
    } else {
      r.op = (kind < 6) ? PrimitiveOp::kSort : PrimitiveOp::kSumCnt;
      r.inputs = {next_id - 1};
      r.outputs = {next_id++};
      if (kind == 3) {
        r.hints.push_back(AuditHint::After(next_id - 2));
      }
    }
    r.stream = static_cast<uint16_t>(rng.NextBelow(2));
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<AuditRecord> HonestAuditSession() {
  std::vector<AuditRecord> r;
  r.push_back({.op = PrimitiveOp::kIngress, .ts_ms = 1, .outputs = {1}});
  r.push_back({.op = PrimitiveOp::kSegment,
               .ts_ms = 2,
               .inputs = {1},
               .outputs = {10, 11},
               .win_nos = {0, 1}});
  r.push_back({.op = PrimitiveOp::kSort, .ts_ms = 3, .inputs = {10}, .outputs = {20}});
  r.push_back({.op = PrimitiveOp::kSort, .ts_ms = 4, .inputs = {11}, .outputs = {21}});
  r.push_back({.op = PrimitiveOp::kWatermark, .ts_ms = 50, .watermark = 1000});
  r.push_back({.op = PrimitiveOp::kMergeN, .ts_ms = 55, .inputs = {20}, .outputs = {30}});
  r.push_back({.op = PrimitiveOp::kSum, .ts_ms = 60, .inputs = {30}, .outputs = {31}});
  r.push_back({.op = PrimitiveOp::kEgress, .ts_ms = 80, .inputs = {31}});
  return r;
}

VerifierPipelineSpec HonestAuditSpec() {
  VerifierPipelineSpec spec;
  spec.window_size_ms = 1000;
  spec.per_batch_chain = {PrimitiveOp::kSort};
  spec.per_window_stages = {
      WindowStage{.op = PrimitiveOp::kMergeN, .input_stages = {-1}},
      WindowStage{.op = PrimitiveOp::kSum, .input_stages = {0}},
  };
  return spec;
}

void TamperDropEgress(std::vector<AuditRecord>& records) { records.pop_back(); }

void TamperStallWindow(std::vector<AuditRecord>& records) {
  records.erase(records.begin() + 6);  // remove Sum: MergeN output stalls
}

void TamperSubstituteInput(std::vector<AuditRecord>& records) {
  // The MergeN "forgets" contribution 20 and merges a fabricated id instead.
  records[5].inputs = {99};
  records.insert(records.begin() + 5,
                 AuditRecord{.op = PrimitiveOp::kIngress, .ts_ms = 54, .outputs = {99}});
}

void TamperWrongOperator(std::vector<AuditRecord>& records) {
  records[2].op = PrimitiveOp::kSample;  // declared Sort, executed Sample
}

void TamperFabricatedReference(std::vector<AuditRecord>& records) {
  records[6].inputs.push_back(0xdead);  // Sum consumes an id nobody produced
}

void TamperDoubleProduction(std::vector<AuditRecord>& records) {
  records.push_back({.op = PrimitiveOp::kIngress, .ts_ms = 90, .outputs = {20}});
}

void TamperUndeclaredEgress(std::vector<AuditRecord>& records) {
  // Exfiltrate the raw sorted window-1 data (never reached the declared egress stage).
  records.push_back({.op = PrimitiveOp::kEgress, .ts_ms = 95, .inputs = {21}});
}

void TamperEarlyProcessing(std::vector<AuditRecord>& records) {
  // Window 1 is processed although no watermark closed it.
  records.push_back({.op = PrimitiveOp::kMergeN, .ts_ms = 90, .inputs = {21}, .outputs = {40}});
}

bool ReadWireReply(const net::Socket& sock, wire::MsgType* type, std::vector<uint8_t>* body) {
  auto read_exact = [&](std::span<uint8_t> buf) {
    size_t off = 0;
    while (off < buf.size()) {
      const ssize_t rc = ::read(sock.fd(), buf.data() + off, buf.size() - off);
      if (rc <= 0) {
        if (rc < 0 && errno == EINTR) {
          continue;
        }
        return false;
      }
      off += static_cast<size_t>(rc);
    }
    return true;
  };
  uint8_t prefix[wire::kLengthPrefixBytes];
  if (!read_exact(std::span<uint8_t>(prefix, sizeof(prefix)))) {
    return false;
  }
  uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof(len));
  if (len < 1 || len > wire::kMaxMessageBytes) {
    return false;
  }
  std::vector<uint8_t> payload(len);
  if (!read_exact(payload)) {
    return false;
  }
  *type = static_cast<wire::MsgType>(payload[0]);
  body->assign(payload.begin() + 1, payload.end());
  return true;
}

std::optional<uint64_t> HelloChallenge(uint16_t port, const wire::Hello& hello) {
  auto sock = net::TcpConnect(port);
  if (!sock.ok()) {
    return std::nullopt;
  }
  // A server that never answers fails the caller's check instead of hanging the test.
  const timeval reply_timeout{.tv_sec = 10, .tv_usec = 0};
  (void)::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVTIMEO, &reply_timeout, sizeof(reply_timeout));
  std::vector<uint8_t> out;
  wire::AppendHello(&out, hello);
  if (!net::WriteAll(*sock, out).ok()) {
    return std::nullopt;
  }
  wire::MsgType type;
  std::vector<uint8_t> body;
  if (!ReadWireReply(*sock, &type, &body) || type != wire::MsgType::kChallenge) {
    return std::nullopt;
  }
  return wire::DecodeChallenge(body);
}

}  // namespace testing
}  // namespace sbt
