// The replication link: continuous seal-artifact shipping from a primary EdgeServer to a
// hot-standby ReplicaSession, over the same authenticated wire layer the ingress path uses.
//
//   primary                                  standby
//     ReplicationPublisher (listens)           ReplicationSubscriber (connects)
//                    <- Hello{0, 0, client_nonce}
//     Challenge{server_nonce} ->
//                    <- Auth{tag}                       (link key, src/crypto/session.h)
//     Accept{tag} ->
//     Seal{EncodeSealArtifact(...)} ->         DecodeSealArtifact -> ReplicaSession::Apply
//                    <- SealAck{engine_id, chain_seq}
//     Seal ... (one frame per sealed engine, for as long as the primary keeps sealing)
//
// The link authenticates with a dedicated replication key, not a tenant key: the standby is
// infrastructure, not a tenant, and a compromised device credential must not let an attacker
// impersonate either end of the replication stream. The artifact bodies need no additional
// protection — everything security-relevant inside them rides in the seal's ciphertext or
// under the tenant chain MACs, so the wire never carries secure-world plaintext (the
// availability invariant DESIGN.md states; a tampered artifact fails verification at Apply).
//
// Publish() is synchronous: it sends one artifact and blocks until the standby's SealAck for
// it arrives. That makes the primary's checkpoint cadence self-clocking (a slow standby slows
// sealing, never grows an unbounded send queue) and gives the caller a precise retire point —
// an acked artifact is durably applied, so replay buffers (src/server/failover.h) may drop
// everything it covers.
//
// Threading: the publisher is driven entirely by its caller's control thread (accept and
// handshake happen lazily inside the first Publish). The subscriber owns one receive thread;
// Apply runs on it, which ReplicaSession permits.

#ifndef SRC_SERVER_REPLICATION_H_
#define SRC_SERVER_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/aes128.h"
#include "src/net/socket.h"
#include "src/server/replica.h"

namespace sbt {

class ReplicationPublisher {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral; bound port via port() after Start
    // How long Publish waits for the standby to connect / handshake / ack before failing.
    std::chrono::milliseconds timeout{5000};
  };

  explicit ReplicationPublisher(AesKey link_key) : ReplicationPublisher(link_key, Options()) {}
  ReplicationPublisher(AesKey link_key, Options options);
  ~ReplicationPublisher();

  ReplicationPublisher(const ReplicationPublisher&) = delete;
  ReplicationPublisher& operator=(const ReplicationPublisher&) = delete;

  // Binds the listener (no standby need be up yet).
  Status Start();
  uint16_t port() const { return port_; }

  // Ships one artifact and blocks until the standby acks it (having applied it). The first
  // call also accepts and authenticates the standby connection. kDeadlineExceeded if no
  // standby connects or responds in time, kFailedPrecondition if it disconnects (e.g. its
  // Apply rejected the artifact), kDataLoss if the ack does not match the artifact. On any
  // failure the connection is dropped; the next Publish re-accepts.
  Status Publish(const SealArtifact& artifact);

  uint64_t seals_published() const { return seals_published_; }

  void Stop();

 private:
  Status EnsurePeer();

  const AesKey link_key_;
  const Options options_;
  net::Socket listener_;
  uint16_t port_ = 0;
  net::Socket peer_;
  std::vector<uint8_t> recv_buffer_;
  // Handshake challenge counter; starts unpredictably per publisher, so a standby handshake
  // recorded against one primary process does not verify against a restarted one (where an
  // impostor could then ack seals the real standby never applied).
  uint64_t next_server_nonce_;
  uint64_t seals_published_ = 0;
  bool started_ = false;
};

class ReplicationSubscriber {
 public:
  struct Options {
    std::chrono::milliseconds handshake_timeout{5000};
  };

  // `session` must outlive the subscriber; every received artifact is Apply()'d to it.
  ReplicationSubscriber(ReplicaSession* session, AesKey link_key)
      : ReplicationSubscriber(session, link_key, Options()) {}
  ReplicationSubscriber(ReplicaSession* session, AesKey link_key, Options options);
  ~ReplicationSubscriber();

  ReplicationSubscriber(const ReplicationSubscriber&) = delete;
  ReplicationSubscriber& operator=(const ReplicationSubscriber&) = delete;

  // Connects to the publisher, runs the client handshake, and spawns the receive thread.
  Status Connect(uint16_t port);

  // Closes the link and joins the receive thread. Idempotent.
  void Stop();

  // Artifacts received, applied, and acked on this link.
  uint64_t seals_acked() const { return seals_acked_.load(std::memory_order_relaxed); }
  // First error that stopped the receive loop (OkStatus while healthy or after a clean close).
  Status last_error() const;

 private:
  void ReceiveLoop();

  ReplicaSession* session_;
  const AesKey link_key_;
  const Options options_;
  net::Socket sock_;
  std::thread receiver_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> seals_acked_{0};
  mutable std::mutex mu_;
  Status last_error_;  // guarded by mu_
};

}  // namespace sbt

#endif  // SRC_SERVER_REPLICATION_H_
