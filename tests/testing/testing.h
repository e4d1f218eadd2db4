// Shared test support: deterministic RNG-seeded event generation, small pipeline /
// data-plane / harness builders, and audit-stream helpers (honest sessions plus
// tamper mutations) used across the suites. Factored out of per-suite fixture code
// so every suite exercises the same deterministic inputs.

#ifndef TESTS_TESTING_TESTING_H_
#define TESTS_TESTING_TESTING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/attest/audit_record.h"
#include "src/attest/verifier.h"
#include "src/common/event.h"
#include "src/common/failpoint.h"
#include "src/control/harness.h"
#include "src/core/data_plane.h"
#include "src/net/generator.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/tz/tzasc.h"

namespace sbt {
namespace testing {

// --- deterministic fault injection --------------------------------------------

// RAII arm/disarm of one fail point (src/common/failpoint.h). Schedules are deterministic:
// either counted (skip N hits, fail the next M, optionally repeating) or a seeded Bernoulli
// draw — the same seed always fails the same hits.
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, FailPointSpec spec) : name_(std::move(name)) {
    FailPoints::Arm(name_, spec);
  }
  ~ScopedFailPoint() { FailPoints::Disarm(name_); }
  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

  uint64_t hits() const { return FailPoints::Hits(name_); }

  // Counted schedule: fail hits [skip, skip+fail), repeating every `period` hits if nonzero.
  static FailPointSpec Counted(uint64_t skip, uint64_t fail = 1, uint64_t period = 0) {
    return FailPointSpec{.skip = skip, .fail = fail, .period = period};
  }
  // Seeded Bernoulli: each hit fails with probability num/den.
  static FailPointSpec Seeded(uint64_t seed, uint64_t num, uint64_t den) {
    return FailPointSpec{.prob_num = num, .prob_den = den, .seed = seed};
  }

 private:
  std::string name_;
};

// --- deterministic event generation -------------------------------------------

// `n` events spread uniformly over two `window_ms` windows, keys/values drawn from
// a fixed-seed Xoshiro256. Same arguments => identical bytes, on every platform.
std::vector<Event> MakeEvents(size_t n, uint32_t keys = 8, uint32_t window_ms = 1000,
                              uint64_t seed = 55);

// `n` identical events (ts 0), for capacity/backpressure tests where the payload
// content is irrelevant.
std::vector<Event> ConstantEvents(size_t n, uint32_t key = 1, int32_t value = 1);

// Raw-byte view of an event vector, as the ingest path consumes it.
std::span<const uint8_t> AsBytes(const std::vector<Event>& events);

// Regenerates the generator's event stream in plaintext (same seed => same events),
// for computing reference results against harness output.
std::vector<Event> RegenerateEvents(const GeneratorConfig& cfg, uint64_t seed_offset = 0);

// --- small pipeline builders --------------------------------------------------

// Secure-world partition sized for unit tests: `pool_mb` MB of secure DRAM and
// group reserve, 64KB pages.
TzPartitionConfig SmallTzPartition(size_t pool_mb = 8);

// Data-plane config small enough for unit tests: 64MB secure pool, world-switch
// cost modeling disabled, fixed ingress/egress/mac keys.
DataPlaneConfig SmallDataPlaneConfig(bool decrypt_ingress = false);

// Harness options for a 3-window, 30k-events-per-window run (seconds, not minutes).
HarnessOptions SmallHarnessOptions(EngineVersion version = EngineVersion::kStreamBoxTz);

// --- audit-stream helpers -----------------------------------------------------

// Synthetic audit-record stream with a realistic op mix (ingress / watermark /
// segment / sort / sumcnt), deterministic per seed. Used by compression tests.
std::vector<AuditRecord> SyntheticAuditRecords(size_t n, uint64_t seed);

// A small honest session: one batch segmented into two windows; window 0 closed
// and fully processed; window 1 in flight. Record layout:
//   [0] Ingress->1  [1] Segment 1->{10,11}  [2] Sort 10->20  [3] Sort 11->21
//   [4] Watermark@1000  [5] MergeN 20->30  [6] Sum 30->31  [7] Egress 31
std::vector<AuditRecord> HonestAuditSession();

// The verifier spec matching HonestAuditSession.
VerifierPipelineSpec HonestAuditSpec();

// Tamper mutations, each modeling one attack class from §6 of the paper. All take
// an honest stream and corrupt it in place.
void TamperDropEgress(std::vector<AuditRecord>& records);          // drop result
void TamperStallWindow(std::vector<AuditRecord>& records);         // unprocessed window data
void TamperSubstituteInput(std::vector<AuditRecord>& records);     // partial data
void TamperWrongOperator(std::vector<AuditRecord>& records);       // op substitution
void TamperFabricatedReference(std::vector<AuditRecord>& records); // consume unproduced id
void TamperDoubleProduction(std::vector<AuditRecord>& records);    // re-emit existing id
void TamperUndeclaredEgress(std::vector<AuditRecord>& records);    // exfiltrate raw data
void TamperEarlyProcessing(std::vector<AuditRecord>& records);     // process before watermark

// Blocking read of one framed server reply off a (blocking) client socket.
bool ReadWireReply(const net::Socket& sock, wire::MsgType* type, std::vector<uint8_t>* body);

// Connects to a handshake server on loopback `port`, sends `hello`, and returns the server
// nonce of the Challenge it answers with (nullopt on any other reply); then hangs up.
std::optional<uint64_t> HelloChallenge(uint16_t port, const wire::Hello& hello);

}  // namespace testing
}  // namespace sbt

#endif  // TESTS_TESTING_TESTING_H_
