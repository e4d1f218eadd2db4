// The benchmark's simulated device: one device speaking the ingress wire protocol
// (src/net/wire.h) over loopback TCP, built on the public wire, session and socket functions
// the way src/net/fleet.cc is. Unlike DeviceFleet it has no scheduling of its own: the caller
// decides when each message is due, so the same link serves the closed loop and the paced
// open loops. The handshake is a non-blocking state machine, so one sender thread can keep
// several sessions in flight. Every wait has a deadline, so a wedged server fails the run
// instead of hanging it.

#ifndef PERFBENCH_SRC_DEVICE_H_
#define PERFBENCH_SRC_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/crypto/aes128.h"
#include "src/crypto/session.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace perfbench {

class DeviceLink {
 public:
  DeviceLink(uint32_t tenant, uint32_t source, const sbt::AesKey& mac_key)
      : tenant_(tenant), source_(source), mac_key_(mac_key) {}

  // TCP connect and Hello; follow with AdvanceHandshake until it reports done.
  sbt::Status BeginConnect(uint16_t port, uint64_t client_nonce);
  // Reads whatever the server sent and answers it, without blocking. Sets *done once the
  // server's Accept tag verified (the session is open).
  sbt::Status AdvanceHandshake(bool* done);
  // BeginConnect + AdvanceHandshake until open. The device polls for the server's replies
  // without sleeping: it is its own machine, so its side of a round trip must not add this
  // host's thread wake-up latency.
  sbt::Status Connect(uint16_t port, uint64_t client_nonce, sbt::ProcTimeUs deadline_us);

  // The message sequence number survives reconnects, as the server requires.
  sbt::Status SendData(uint64_t ctr_offset, std::span<const uint8_t> payload,
                       sbt::ProcTimeUs deadline_us);
  sbt::Status SendWatermark(uint64_t value, sbt::ProcTimeUs deadline_us);
  // Bye{final=false} is a churn disconnect; Bye{final=true} ends the device's stream.
  sbt::Status Bye(bool final, sbt::ProcTimeUs deadline_us);
  // One short session's whole upload in a single write: Data, Watermark and Bye. Follow with
  // AdvanceClose until it reports closed.
  sbt::Status Upload(uint64_t ctr_offset, std::span<const uint8_t> payload, uint64_t watermark,
                     bool final, sbt::ProcTimeUs deadline_us);
  // Without blocking: once the server has closed its end (it does after a Bye, having
  // processed everything before it), resets the connection and sets *closed. Leaving the
  // close to the server and resetting afterwards leaves no TIME_WAIT socket behind, so a
  // herd's thousands of short sessions do not slow later connects and later runs.
  sbt::Status AdvanceClose(bool* closed);
  // Drops the connection without a Bye (set-up teardown).
  void Abort() { sock_.Close(); }

  int fd() const { return sock_.fd(); }
  // Time spent waiting for the socket to accept bytes: the server's TCP pushback.
  int64_t blocked_us() const { return blocked_us_; }

 private:
  enum class Phase : uint8_t { kClosed, kAwaitChallenge, kAwaitAccept, kOpen };

  // Writes `out_` completely, waiting (bounded) whenever the send buffer is full.
  sbt::Status Flush(sbt::ProcTimeUs deadline_us);

  uint32_t tenant_;
  uint32_t source_;
  sbt::AesKey mac_key_;
  sbt::net::Socket sock_;
  Phase phase_ = Phase::kClosed;
  sbt::wire::Hello hello_;
  sbt::SessionKey key_{};
  std::vector<uint8_t> transcript_;
  std::vector<uint8_t> in_;
  uint64_t seq_ = 0;
  std::vector<uint8_t> out_;
  int64_t blocked_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DEVICE_H_
