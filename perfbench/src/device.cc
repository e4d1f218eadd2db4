#include "perfbench/src/device.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace perfbench {
namespace {

// Waits until `fd` can take more bytes or the deadline passes.
sbt::Status WaitWritable(int fd, sbt::ProcTimeUs deadline_us) {
  for (;;) {
    const sbt::ProcTimeUs left_us = deadline_us - sbt::NowUs();
    if (left_us <= 0) {
      return sbt::DeadlineExceeded("device: server did not accept bytes before the deadline");
    }
    pollfd p{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(std::min<sbt::ProcTimeUs>(left_us / 1000 + 1, 1000));
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) {
      return sbt::OkStatus();
    }
    if (rc < 0 && errno != EINTR) {
      return sbt::Internal(std::string("device: poll: ") + std::strerror(errno));
    }
  }
}

// TCP connect to 127.0.0.1:`port` from a loopback address of the device's own, 127.1.x.y. A
// real device is its own host; sharing one source address, a herd's short sessions would pile
// up enough TIME_WAIT sockets to make every later connect() search for a free port.
sbt::Result<sbt::net::Socket> ConnectFromOwnAddress(uint16_t port, uint32_t source) {
  sbt::net::Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) {
    return sbt::Internal(std::string("device: socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl((127u << 24) | (1u << 16) | (source & 0xffffu));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&local), sizeof(local)) != 0) {
    return sbt::Internal(std::string("device: bind: ") + std::strerror(errno));
  }
  sockaddr_in remote{};
  remote.sin_family = AF_INET;
  remote.sin_port = htons(port);
  remote.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&remote), sizeof(remote));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return sbt::Internal(std::string("device: connect: ") + std::strerror(errno));
  }
  SBT_RETURN_IF_ERROR(sbt::net::SetNodelay(sock));
  return sock;
}

}  // namespace

sbt::Status DeviceLink::Flush(sbt::ProcTimeUs deadline_us) {
  size_t off = 0;
  while (off < out_.size()) {
    const ssize_t rc = ::send(sock_.fd(), out_.data() + off, out_.size() - off,
                              MSG_DONTWAIT | MSG_NOSIGNAL);
    if (rc > 0) {
      off += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const sbt::ProcTimeUs t0 = sbt::NowUs();
      const sbt::Status ready = WaitWritable(sock_.fd(), deadline_us);
      blocked_us_ += sbt::NowUs() - t0;
      if (!ready.ok()) {
        return ready;
      }
      continue;
    }
    return sbt::Internal(std::string("device: send: ") + std::strerror(errno));
  }
  out_.clear();
  return sbt::OkStatus();
}

sbt::Status DeviceLink::BeginConnect(uint16_t port, uint64_t client_nonce) {
  SBT_ASSIGN_OR_RETURN(sock_, ConnectFromOwnAddress(port, source_));
  hello_ = sbt::wire::Hello{.tenant = tenant_, .source = source_, .stream = 0,
                            .client_nonce = client_nonce};
  in_.clear();
  sbt::wire::AppendHello(&out_, hello_);
  phase_ = Phase::kAwaitChallenge;
  // A few dozen bytes into an empty send buffer: never waits.
  return Flush(sbt::NowUs() + 1'000'000);
}

sbt::Status DeviceLink::AdvanceHandshake(bool* done) {
  *done = phase_ == Phase::kOpen;
  uint8_t chunk[256];
  for (;;) {
    const ssize_t rc = ::recv(sock_.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (rc > 0) {
      in_.insert(in_.end(), chunk, chunk + rc);
      continue;
    }
    if (rc == 0) {
      return sbt::FailedPrecondition("device: server closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno != EINTR) {
      return sbt::Internal(std::string("device: recv: ") + std::strerror(errno));
    }
  }
  while (!*done) {
    sbt::wire::StreamMessage msg;
    const sbt::wire::ExtractResult r = sbt::wire::ExtractMessage(in_, &msg);
    if (r == sbt::wire::ExtractResult::kNeedMore) {
      return sbt::OkStatus();
    }
    if (r == sbt::wire::ExtractResult::kMalformed) {
      return sbt::DataLoss("device: malformed handshake reply");
    }
    if (phase_ == Phase::kAwaitChallenge) {
      const auto nonce = sbt::wire::DecodeChallenge(msg.body);
      if (msg.type != sbt::wire::MsgType::kChallenge || !nonce.has_value()) {
        return sbt::PermissionDenied("device: handshake rejected at hello");
      }
      key_ = sbt::DeriveSessionKey(mac_key_, tenant_, source_, hello_.client_nonce, *nonce);
      transcript_ = sbt::wire::HandshakeTranscript(hello_, *nonce);
      sbt::wire::AppendAuth(&out_, sbt::SessionMac(key_, sbt::wire::kAuthLabel, transcript_));
      phase_ = Phase::kAwaitAccept;
    } else {
      const auto tag = sbt::wire::DecodeTag(msg.body);
      if (msg.type != sbt::wire::MsgType::kAccept || !tag.has_value() ||
          !sbt::SessionTagEqual(*tag,
                                sbt::SessionMac(key_, sbt::wire::kAcceptLabel, transcript_))) {
        return sbt::PermissionDenied("device: handshake rejected at auth");
      }
      phase_ = Phase::kOpen;
      *done = true;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<long>(msg.consumed));
    if (!out_.empty()) {
      SBT_RETURN_IF_ERROR(Flush(sbt::NowUs() + 1'000'000));
    }
  }
  return sbt::OkStatus();
}

sbt::Status DeviceLink::Connect(uint16_t port, uint64_t client_nonce,
                                sbt::ProcTimeUs deadline_us) {
  SBT_RETURN_IF_ERROR(BeginConnect(port, client_nonce));
  bool done = false;
  for (;;) {
    SBT_RETURN_IF_ERROR(AdvanceHandshake(&done));
    if (done) {
      return sbt::OkStatus();
    }
    if (sbt::NowUs() > deadline_us) {
      return sbt::DeadlineExceeded("device: handshake did not finish before the deadline");
    }
    std::this_thread::yield();
  }
}

sbt::Status DeviceLink::SendData(uint64_t ctr_offset, std::span<const uint8_t> payload,
                                 sbt::ProcTimeUs deadline_us) {
  sbt::wire::AppendData(&out_, seq_++, ctr_offset, payload);
  return Flush(deadline_us);
}

sbt::Status DeviceLink::SendWatermark(uint64_t value, sbt::ProcTimeUs deadline_us) {
  sbt::wire::AppendWatermark(&out_, seq_++, value);
  return Flush(deadline_us);
}

sbt::Status DeviceLink::Bye(bool final, sbt::ProcTimeUs deadline_us) {
  sbt::wire::AppendBye(&out_, final);
  const sbt::Status s = Flush(deadline_us);
  sock_.Close();
  phase_ = Phase::kClosed;
  return s;
}

sbt::Status DeviceLink::Upload(uint64_t ctr_offset, std::span<const uint8_t> payload,
                               uint64_t watermark, bool final, sbt::ProcTimeUs deadline_us) {
  sbt::wire::AppendData(&out_, seq_++, ctr_offset, payload);
  sbt::wire::AppendWatermark(&out_, seq_++, watermark);
  sbt::wire::AppendBye(&out_, final);
  return Flush(deadline_us);
}

sbt::Status DeviceLink::AdvanceClose(bool* closed) {
  *closed = false;
  uint8_t byte = 0;
  const ssize_t rc = ::recv(sock_.fd(), &byte, 1, MSG_DONTWAIT);
  if (rc > 0) {
    return sbt::DataLoss("device: unexpected bytes after Bye");
  }
  if (rc < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR
               ? sbt::OkStatus()
               : sbt::Internal(std::string("device: recv: ") + std::strerror(errno));
  }
  const linger reset{1, 0};
  (void)::setsockopt(sock_.fd(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  sock_.Close();
  phase_ = Phase::kClosed;
  *closed = true;
  return sbt::OkStatus();
}

}  // namespace perfbench
