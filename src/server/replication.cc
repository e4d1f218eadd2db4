#include "src/server/replication.h"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/crypto/session.h"
#include "src/net/wire.h"

namespace sbt {
namespace {

enum class ReadOutcome : uint8_t {
  kMessage = 0,
  kMalformed = 1,
  kTimeout = 2,
  kClosed = 3,   // peer closed or transport error: the link is down
  kStopped = 4,  // local Stop() raced the read
};

// Longest single wait on a socket: bounds how long the subscriber's reader takes to notice a
// local Stop(), which it checks between waits (as promptly as the 1 ms sleep this replaced).
constexpr auto kWaitSlice = std::chrono::milliseconds(1);

// Waits until `sock` is readable (for a listener: a connection is pending), the deadline
// passes, or one wait slice ends — whichever comes first. Callers re-check their own exit
// conditions and call again.
void WaitReadable(const net::Socket& sock, std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  pollfd pfd{.fd = sock.fd(), .events = POLLIN, .revents = 0};
  (void)::poll(&pfd, 1, static_cast<int>(std::clamp(left, std::chrono::milliseconds(0),
                                                    kWaitSlice).count()));
}

// Blocking receive of the next complete wire message into `buffer` (the message body is a view
// into it; the caller erases `out->consumed` bytes once done). Nonblocking sockets underneath;
// an empty socket is waited on until it turns readable.
ReadOutcome ReadMessage(const net::Socket& sock, std::vector<uint8_t>* buffer,
                        wire::StreamMessage* out,
                        std::chrono::steady_clock::time_point deadline,
                        const std::atomic<bool>* stop) {
  uint8_t chunk[16 * 1024];
  while (true) {
    switch (wire::ExtractMessage(std::span<const uint8_t>(buffer->data(), buffer->size()),
                                 out)) {
      case wire::ExtractResult::kMessage:
        return ReadOutcome::kMessage;
      case wire::ExtractResult::kMalformed:
        return ReadOutcome::kMalformed;
      case wire::ExtractResult::kNeedMore:
        break;
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return ReadOutcome::kStopped;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return ReadOutcome::kTimeout;
    }
    size_t n = 0;
    switch (net::ReadSome(sock, std::span<uint8_t>(chunk, sizeof(chunk)), &n)) {
      case net::IoResult::kOk:
        buffer->insert(buffer->end(), chunk, chunk + n);
        break;
      case net::IoResult::kWouldBlock:
        WaitReadable(sock, deadline);
        break;
      case net::IoResult::kClosed:
      case net::IoResult::kError:
        return ReadOutcome::kClosed;
    }
  }
}

Status AsStatus(ReadOutcome outcome) {
  switch (outcome) {
    case ReadOutcome::kMessage:
      return OkStatus();
    case ReadOutcome::kMalformed:
      return DataLoss("malformed replication message");
    case ReadOutcome::kTimeout:
      return DeadlineExceeded("replication peer did not respond in time");
    case ReadOutcome::kClosed:
      return FailedPrecondition("replication peer closed the connection");
    case ReadOutcome::kStopped:
      return FailedPrecondition("replication link stopping");
  }
  return Internal("unreachable");
}

}  // namespace

// --- publisher --------------------------------------------------------------------------

ReplicationPublisher::ReplicationPublisher(AesKey link_key, Options options)
    : link_key_(link_key), options_(options), next_server_nonce_(UnpredictableSeed()) {}

ReplicationPublisher::~ReplicationPublisher() { Stop(); }

Status ReplicationPublisher::Start() {
  if (started_) {
    return FailedPrecondition("publisher already started");
  }
  SBT_ASSIGN_OR_RETURN(listener_, net::TcpListen(options_.port, &port_));
  SBT_RETURN_IF_ERROR(net::SetNonBlocking(listener_));
  started_ = true;
  return OkStatus();
}

Status ReplicationPublisher::EnsurePeer() {
  if (peer_.valid()) {
    return OkStatus();
  }
  const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
  net::Socket accepted;
  while (true) {
    const net::IoResult r = net::TcpAccept(listener_, &accepted);
    if (r == net::IoResult::kOk) {
      break;
    }
    if (r == net::IoResult::kError) {
      return Internal("replication accept failed");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return DeadlineExceeded("no standby connected to the replication port");
    }
    WaitReadable(listener_, deadline);
  }

  // Server side of the standard handshake, under the dedicated replication key. The standby
  // identifies as (tenant 0, source 0) — not a provisioned device; a device credential cannot
  // produce a valid tag here.
  std::vector<uint8_t> buffer;
  wire::StreamMessage msg;
  SBT_RETURN_IF_ERROR(AsStatus(ReadMessage(accepted, &buffer, &msg, deadline, nullptr)));
  const auto hello = wire::DecodeHello(msg.body);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(msg.consumed));
  if (msg.type != wire::MsgType::kHello || !hello.has_value() || hello->tenant != 0 ||
      hello->source != 0) {
    return PermissionDenied("replication peer sent a bad hello");
  }
  const uint64_t server_nonce = next_server_nonce_++;
  const SessionKey key = DeriveSessionKey(link_key_, 0, 0, hello->client_nonce, server_nonce);
  const auto transcript = wire::HandshakeTranscript(*hello, server_nonce);
  std::vector<uint8_t> out;
  wire::AppendChallenge(&out, server_nonce);
  SBT_RETURN_IF_ERROR(net::WriteAll(accepted, out));
  SBT_RETURN_IF_ERROR(AsStatus(ReadMessage(accepted, &buffer, &msg, deadline, nullptr)));
  const auto tag = wire::DecodeTag(msg.body);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(msg.consumed));
  if (msg.type != wire::MsgType::kAuth || !tag.has_value() ||
      !SessionTagEqual(*tag, SessionMac(key, wire::kAuthLabel, transcript))) {
    out.clear();
    wire::AppendReject(&out);
    (void)net::WriteAll(accepted, out);
    return PermissionDenied("replication peer failed authentication");
  }
  out.clear();
  wire::AppendAccept(&out, SessionMac(key, wire::kAcceptLabel, transcript));
  SBT_RETURN_IF_ERROR(net::WriteAll(accepted, out));
  peer_ = std::move(accepted);
  recv_buffer_ = std::move(buffer);
  return OkStatus();
}

Status ReplicationPublisher::Publish(const SealArtifact& artifact) {
  if (!started_) {
    return FailedPrecondition("Publish before Start");
  }
  SBT_RETURN_IF_ERROR(EnsurePeer());
  const std::vector<uint8_t> body = EncodeSealArtifact(artifact);
  if (body.size() + 1 > wire::kMaxMessageBytes) {
    return InvalidArgument("seal artifact exceeds one replication frame");
  }
  std::vector<uint8_t> out;
  wire::AppendSeal(&out, std::span<const uint8_t>(body.data(), body.size()));
  const Status sent = net::WriteAll(peer_, out);
  if (!sent.ok()) {
    peer_.Close();  // reconnectable: the next Publish re-accepts
    return sent;
  }
  const auto deadline = std::chrono::steady_clock::now() + options_.timeout;
  wire::StreamMessage msg;
  const Status got = AsStatus(ReadMessage(peer_, &recv_buffer_, &msg, deadline, nullptr));
  if (!got.ok()) {
    peer_.Close();
    return got;
  }
  const auto ack = wire::DecodeSealAck(msg.body);
  recv_buffer_.erase(recv_buffer_.begin(),
                     recv_buffer_.begin() + static_cast<ptrdiff_t>(msg.consumed));
  if (msg.type != wire::MsgType::kSealAck || !ack.has_value()) {
    peer_.Close();
    return DataLoss("replication peer sent a bad ack");
  }
  if (ack->engine_id != artifact.engine_id() ||
      ack->chain_seq != artifact.identity().chain_seq) {
    peer_.Close();
    return DataLoss("replication ack does not match the published seal");
  }
  ++seals_published_;
  return OkStatus();
}

void ReplicationPublisher::Stop() {
  peer_.Close();
  listener_.Close();
  started_ = false;
}

// --- subscriber -------------------------------------------------------------------------

ReplicationSubscriber::ReplicationSubscriber(ReplicaSession* session, AesKey link_key,
                                             Options options)
    : session_(session), link_key_(link_key), options_(options) {}

ReplicationSubscriber::~ReplicationSubscriber() { Stop(); }

Status ReplicationSubscriber::Connect(uint16_t port) {
  if (sock_.valid()) {
    return FailedPrecondition("subscriber already connected");
  }
  SBT_ASSIGN_OR_RETURN(sock_, net::TcpConnect(port));
  SBT_RETURN_IF_ERROR(net::SetNonBlocking(sock_));
  SBT_RETURN_IF_ERROR(net::SetNodelay(sock_));

  const auto deadline = std::chrono::steady_clock::now() + options_.handshake_timeout;
  wire::Hello hello;
  hello.client_nonce = 0x5342545355425343ull;  // fixed is fine: the server nonce varies
  std::vector<uint8_t> out;
  wire::AppendHello(&out, hello);
  SBT_RETURN_IF_ERROR(net::WriteAll(sock_, out));
  std::vector<uint8_t> buffer;
  wire::StreamMessage msg;
  SBT_RETURN_IF_ERROR(AsStatus(ReadMessage(sock_, &buffer, &msg, deadline, nullptr)));
  const auto nonce = wire::DecodeChallenge(msg.body);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(msg.consumed));
  if (msg.type != wire::MsgType::kChallenge || !nonce.has_value()) {
    return PermissionDenied("replication publisher sent a bad challenge");
  }
  const SessionKey key = DeriveSessionKey(link_key_, 0, 0, hello.client_nonce, *nonce);
  const auto transcript = wire::HandshakeTranscript(hello, *nonce);
  out.clear();
  wire::AppendAuth(&out, SessionMac(key, wire::kAuthLabel, transcript));
  SBT_RETURN_IF_ERROR(net::WriteAll(sock_, out));
  SBT_RETURN_IF_ERROR(AsStatus(ReadMessage(sock_, &buffer, &msg, deadline, nullptr)));
  const auto tag = wire::DecodeTag(msg.body);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(msg.consumed));
  // Mutual: the publisher proved the link key before any artifact is accepted from it.
  if (msg.type != wire::MsgType::kAccept || !tag.has_value() ||
      !SessionTagEqual(*tag, SessionMac(key, wire::kAcceptLabel, transcript))) {
    return PermissionDenied("replication publisher failed authentication");
  }
  receiver_ = std::thread([this, carry = std::move(buffer)]() mutable {
    // Bytes read past the handshake belong to the stream; seed the loop's buffer with them.
    std::vector<uint8_t> buf = std::move(carry);
    while (!stop_.load(std::memory_order_relaxed)) {
      wire::StreamMessage m;
      const ReadOutcome got = ReadMessage(
          sock_, &buf, &m, std::chrono::steady_clock::now() + std::chrono::hours(24), &stop_);
      if (got != ReadOutcome::kMessage) {
        // A closed link or a local Stop is a clean end of the stream; anything else is an
        // error worth surfacing.
        if (got != ReadOutcome::kClosed && got != ReadOutcome::kStopped) {
          std::lock_guard<std::mutex> lock(mu_);
          last_error_ = AsStatus(got);
        }
        return;
      }
      if (m.type == wire::MsgType::kBye) {
        return;
      }
      if (m.type != wire::MsgType::kSeal) {
        std::lock_guard<std::mutex> lock(mu_);
        last_error_ = DataLoss("unexpected replication message type");
        return;
      }
      auto artifact = DecodeSealArtifact(m.body);
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(m.consumed));
      if (!artifact.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        last_error_ = artifact.status();
        return;
      }
      wire::SealAck ack;
      ack.engine_id = artifact->engine_id();
      ack.chain_seq = artifact->identity().chain_seq;
      const Status applied = session_->Apply(std::move(*artifact));
      if (!applied.ok()) {
        // No ack for a rejected artifact: the publisher's blocked Publish fails and the
        // operator investigates — a corrupt stream must not be silently absorbed.
        SBT_LOG(Error) << "replication apply failed: " << applied.ToString();
        std::lock_guard<std::mutex> lock(mu_);
        last_error_ = applied;
        return;
      }
      std::vector<uint8_t> reply;
      wire::AppendSealAck(&reply, ack);
      // Counted before it leaves: once the publisher has read the ack, the count includes it.
      // A failed write takes the count back (the link is down).
      seals_acked_.fetch_add(1, std::memory_order_relaxed);
      if (!net::WriteAll(sock_, reply).ok()) {
        seals_acked_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  return OkStatus();
}

void ReplicationSubscriber::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (receiver_.joinable()) {
    receiver_.join();
  }
  sock_.Close();
}

Status ReplicationSubscriber::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

}  // namespace sbt
