#include "src/server/ingress.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace sbt {

// --- SourceSequencer --------------------------------------------------------------------

SourceSequencer::SourceSequencer(uint16_t stream, size_t event_size, size_t coalesce_events,
                                 size_t channel_capacity)
    : stream_(stream),
      event_size_(event_size),
      coalesce_events_(std::max<size_t>(1, coalesce_events)),
      channel_(channel_capacity) {
  SBT_CHECK(event_size_ > 0);
}

void SourceSequencer::AddSource(uint32_t source) {
  // A group that gained a second device after its first delivery would have packed some
  // frames on arrival and buffer the rest: registration closes at the first delivery.
  SBT_CHECK(!finalized_ && !delivered_);
  auto [it, inserted] = states_.emplace(source, SourceState{});
  SBT_CHECK(inserted);
  it->second.frontier_it = frontiers_.insert(0);
}

void SourceSequencer::BumpFrontier(SourceState& st, EventTimeMs value) {
  frontiers_.erase(st.frontier_it);
  st.frontier_it = frontiers_.insert(value);
  st.frontier = value;
}

void SourceSequencer::OnData(uint32_t source, std::span<const uint8_t> bytes,
                             uint64_t ctr_offset) {
  auto it = states_.find(source);
  SBT_CHECK(it != states_.end() && !it->second.done);
  delivered_ = true;
  if (states_.size() == 1) {
    // One device: no other device's watermark can move this frame's place in the flush order,
    // so it packs now, exactly as FlushUpTo would pack it at the rung's watermark. A batch
    // leaves as soon as the coalesce target cuts it; only the open partial batch waits.
    Pack(bytes, ctr_offset);
    return;
  }
  Frame f;
  f.bytes.assign(bytes.begin(), bytes.end());
  f.ctr_offset = ctr_offset;
  it->second.buffer.push_back(std::move(f));
}

void SourceSequencer::OnWatermark(uint32_t source, EventTimeMs value) {
  auto it = states_.find(source);
  SBT_CHECK(it != states_.end() && !it->second.done);
  delivered_ = true;
  SourceState& st = it->second;
  if (value <= st.frontier) {
    return;  // regressed or repeated watermark: progress is monotone, drop it
  }
  Frame marker;
  marker.is_watermark = true;
  marker.watermark = value;
  st.buffer.push_back(std::move(marker));
  BumpFrontier(st, value);
  const EventTimeMs group_min = *frontiers_.begin();
  if (group_min > emitted_min_ && group_min != kEventTimeMax) {
    FlushUpTo(group_min);
  }
}

void SourceSequencer::OnDone(uint32_t source) {
  auto it = states_.find(source);
  SBT_CHECK(it != states_.end());
  delivered_ = true;
  SourceState& st = it->second;
  if (st.done) {
    return;
  }
  st.done = true;
  st.final_frontier = st.frontier;
  // A done source no longer gates the group: its frontier leaves the minimum.
  BumpFrontier(st, kEventTimeMax);
  ++done_count_;
  if (done_count_ == states_.size()) {
    Finalize();
    return;
  }
  const EventTimeMs group_min = *frontiers_.begin();
  if (group_min > emitted_min_ && group_min != kEventTimeMax) {
    FlushUpTo(group_min);
  }
}

void SourceSequencer::FlushUpTo(EventTimeMs group_min) {
  // Ascending device id: the one fixed flush order that makes batch contents independent of
  // arrival interleaving across devices.
  for (auto& [id, st] : states_) {
    // Everything up to (and including) this device's LAST in-band watermark <= group_min is
    // covered; later frames belong to rungs the group has not reached.
    size_t covered = 0;
    for (size_t i = 0; i < st.buffer.size(); ++i) {
      if (st.buffer[i].is_watermark && st.buffer[i].watermark <= group_min) {
        covered = i + 1;
      }
    }
    for (size_t i = 0; i < covered; ++i) {
      Frame& f = st.buffer.front();
      if (!f.is_watermark) {
        Pack(f.bytes, f.ctr_offset);
      }
      st.buffer.pop_front();
    }
  }
  CutBatch();
  PushWatermark(group_min);
  emitted_min_ = group_min;
}

void SourceSequencer::Finalize() {
  EventTimeMs final_wm = kEventTimeMax;
  for (auto& [id, st] : states_) {
    for (Frame& f : st.buffer) {
      if (!f.is_watermark) {
        Pack(f.bytes, f.ctr_offset);
      }
    }
    st.buffer.clear();
    final_wm = std::min(final_wm, st.final_frontier);
  }
  CutBatch();
  if (final_wm > emitted_min_ && final_wm != kEventTimeMax) {
    PushWatermark(final_wm);
    emitted_min_ = final_wm;
  }
  channel_.Close();
  finalized_ = true;
}

void SourceSequencer::Abort() {
  channel_.Close();
  finalized_ = true;
}

void SourceSequencer::Pack(std::span<const uint8_t> bytes, uint64_t ctr_offset) {
  const size_t n = bytes.size();
  if (n == 0) {
    return;
  }
  const size_t events = n / event_size_;
  events_in_ += events;
  if (cur_events_ > 0 && cur_events_ + events > coalesce_events_) {
    CutBatch();
  }
  if (cur_events_ == 0) {
    // One allocation per batch: the target size, or this frame alone if it is larger.
    cur_bytes_.reserve(std::max(coalesce_events_ * event_size_, n));
  }
  if (!cur_segments_.empty() &&
      cur_segments_.back().ctr_offset + cur_segments_.back().byte_len == ctr_offset) {
    // Keystream-contiguous with the previous run (same device's next frame, or a sibling
    // device continuing the shared tenant keystream): one segment, one decrypt call.
    cur_segments_.back().byte_len += n;
  } else {
    cur_segments_.push_back(FrameSegment{cur_bytes_.size(), n, ctr_offset});
  }
  cur_bytes_.insert(cur_bytes_.end(), bytes.begin(), bytes.end());
  cur_events_ += events;
}

void SourceSequencer::CutBatch() {
  if (cur_events_ == 0) {
    return;
  }
  Frame f;
  f.bytes = std::move(cur_bytes_);
  f.stream = stream_;
  f.segments = std::move(cur_segments_);
  f.ctr_offset = f.segments.front().ctr_offset;
  cur_bytes_ = {};
  cur_segments_ = {};
  cur_events_ = 0;
  ++batches_out_;
  (void)channel_.Push(std::move(f));  // false only when aborted mid-shutdown
}

void SourceSequencer::PushWatermark(EventTimeMs value) {
  Frame f;
  f.is_watermark = true;
  f.watermark = value;
  f.stream = stream_;
  (void)channel_.Push(std::move(f));
}

// --- IngressFrontend --------------------------------------------------------------------

namespace {

// Cookie space for the poller: listener and UDP socket get reserved cookies below the first
// possible real fd (0-2 are the std streams).
constexpr uint64_t kCookieTcpListener = 1;
constexpr uint64_t kCookieUdp = 2;

constexpr size_t kReadChunk = 64 << 10;

}  // namespace

struct IngressFrontend::Group {
  TenantId tenant = 0;
  uint16_t stream = 0;
  uint32_t group_source_id = 0;
  std::unique_ptr<SourceSequencer> seq;
};

struct IngressFrontend::Device {
  TenantId tenant = 0;
  uint32_t source = 0;
  uint16_t stream = 0;
  size_t event_size = 0;
  Group* group = nullptr;
  AesKey mac_key{};
  SessionKey dgram_key{};
  bool done = false;

  // TCP: device-lifetime message sequence (survives reconnect churn).
  uint64_t next_seq = 0;

  // UDP reassembly.
  struct PendingMsg {
    wire::DgramKind kind = wire::DgramKind::kData;
    uint64_t ctr_offset = 0;
    uint64_t watermark = 0;
    std::vector<uint8_t> payload;
  };
  uint64_t dg_expected = 0;
  std::map<uint64_t, PendingMsg> dg_future;
};

struct IngressFrontend::Conn {
  enum class State : uint8_t { kAwaitHello, kAwaitAuth, kStreaming };
  net::Socket sock;
  State state = State::kAwaitHello;
  std::vector<uint8_t> inbuf;
  Device* dev = nullptr;
  wire::Hello hello;
  uint64_t server_nonce = 0;
  SessionKey session_key{};
};

IngressFrontend::IngressFrontend(IngressConfig config, const TenantRegistry* registry)
    : config_(config),
      registry_(registry),
      grouping_(config.num_shards),
      next_server_nonce_(UnpredictableSeed()) {
  SBT_CHECK(registry_ != nullptr);
}

IngressFrontend::~IngressFrontend() { Stop(); }

Status IngressFrontend::Provision(TenantId tenant, uint32_t source, uint16_t stream) {
  if (bound_) {
    return FailedPrecondition("Provision after BindTo");
  }
  const TenantSpec* spec = registry_->Find(tenant);
  if (spec == nullptr) {
    return NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (stream >= spec->pipeline.num_streams()) {
    return InvalidArgument("pipeline stream out of range");
  }
  const uint64_t dev_key = DeviceKey(tenant, source);
  if (devices_.count(dev_key) != 0) {
    return InvalidArgument("device provisioned twice");
  }

  // Group home: a stable hash of the device id, so the group population is a pure function of
  // the provisioned fleet. Group source ids pack (shard, stream) and never collide with each
  // other; they are what the EdgeServer sees as "sources".
  SBT_CHECK(spec->pipeline.num_streams() <= 64);
  const uint32_t shard = grouping_.Route(tenant, source);
  const uint32_t group_source_id = shard * 64 + stream;
  const uint64_t group_key = DeviceKey(tenant, group_source_id);
  auto git = groups_.find(group_key);
  if (git == groups_.end()) {
    auto group = std::make_unique<Group>();
    group->tenant = tenant;
    group->stream = stream;
    group->group_source_id = group_source_id;
    group->seq = std::make_unique<SourceSequencer>(stream, spec->pipeline.event_size(),
                                                   config_.coalesce_events,
                                                   config_.channel_capacity);
    git = groups_.emplace(group_key, std::move(group)).first;
  }
  git->second->seq->AddSource(source);

  auto dev = std::make_unique<Device>();
  dev->tenant = tenant;
  dev->source = source;
  dev->stream = stream;
  dev->event_size = spec->pipeline.event_size();
  dev->group = git->second.get();
  dev->mac_key = spec->mac_key;
  // The boot nonce scopes datagram MACs to this deployment epoch: a packet captured before a
  // restart that rotates the nonce fails its MAC afterwards, instead of replaying into the
  // reset seq window. Only DrainUdp reads the key, so a TCP-only frontend skips the HMAC.
  if (config_.enable_udp) {
    dev->dgram_key =
        DeriveSessionKey(spec->mac_key, tenant, source, 0, config_.dgram_boot_nonce);
  }
  devices_.emplace(dev_key, std::move(dev));
  ++provisioned_;
  return OkStatus();
}

Status IngressFrontend::BindTo(EdgeServer* server) {
  if (bound_) {
    return FailedPrecondition("BindTo called twice");
  }
  for (auto& [key, group] : groups_) {
    SBT_RETURN_IF_ERROR(server->BindSource(group->tenant, group->group_source_id,
                                           group->seq->channel(), group->stream));
  }
  bound_ = true;
  return OkStatus();
}

std::vector<IngressFrontend::GroupBinding> IngressFrontend::GroupBindings() {
  std::vector<GroupBinding> out;
  out.reserve(groups_.size());
  for (auto& [key, group] : groups_) {
    out.push_back(GroupBinding{.tenant = group->tenant,
                               .source = group->group_source_id,
                               .stream = group->stream,
                               .channel = group->seq->channel()});
  }
  bound_ = true;
  return out;
}

Status IngressFrontend::Start() {
  if (started_) {
    return FailedPrecondition("Start called twice");
  }
  if (!poller_.valid()) {
    return Internal("epoll unavailable");
  }
  SBT_ASSIGN_OR_RETURN(tcp_listener_, net::TcpListen(config_.tcp_port, &tcp_port_));
  SBT_RETURN_IF_ERROR(poller_.Add(tcp_listener_.fd(), kCookieTcpListener));
  if (config_.enable_udp) {
    SBT_ASSIGN_OR_RETURN(udp_socket_, net::UdpBind(config_.udp_port, &udp_port_));
    SBT_RETURN_IF_ERROR(poller_.Add(udp_socket_.fd(), kCookieUdp));
  }
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  io_thread_ = std::thread([this] { IoLoop(); });
  return OkStatus();
}

bool IngressFrontend::AllSourcesDone() const {
  return done_devices_.load(std::memory_order_acquire) == provisioned_;
}

bool IngressFrontend::WaitAllDone(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!AllSourcesDone()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void IngressFrontend::Stop() {
  if (started_) {
    stop_.store(true, std::memory_order_relaxed);
    // The IO thread can be parked inside a blocking channel Push (admission backpressure)
    // where it never observes stop_. Closing the group channels first makes Push return
    // false and unblocks it; Close is thread-safe, idempotent, and queued frames stay
    // poppable, so a draining server still sees everything already admitted.
    for (auto& [key, group] : groups_) {
      group->seq->channel()->Close();
    }
    if (io_thread_.joinable()) {
      io_thread_.join();
    }
    conns_.clear();
    started_ = false;
  }
  // Close whatever did not finalize so a server Shutdown never hangs on an open channel.
  for (auto& [key, group] : groups_) {
    if (!group->seq->finalized()) {
      group->seq->Abort();
    }
  }
}

IngressFrontend::Device* IngressFrontend::FindDevice(TenantId tenant, uint32_t source) {
  auto it = devices_.find(DeviceKey(tenant, source));
  return it == devices_.end() ? nullptr : it->second.get();
}

void IngressFrontend::DeliverLocalData(TenantId tenant, uint32_t source,
                                       std::span<const uint8_t> bytes, uint64_t ctr_offset) {
  Device* dev = FindDevice(tenant, source);
  SBT_CHECK(dev != nullptr);
  stats_.frames.fetch_add(1, std::memory_order_relaxed);
  stats_.events.fetch_add(bytes.size() / dev->event_size, std::memory_order_relaxed);
  dev->group->seq->OnData(source, bytes, ctr_offset);
}

void IngressFrontend::DeliverLocalWatermark(TenantId tenant, uint32_t source,
                                            EventTimeMs value) {
  Device* dev = FindDevice(tenant, source);
  SBT_CHECK(dev != nullptr);
  dev->group->seq->OnWatermark(source, value);
}

void IngressFrontend::DeliverLocalDone(TenantId tenant, uint32_t source) {
  Device* dev = FindDevice(tenant, source);
  SBT_CHECK(dev != nullptr);
  MarkDone(dev);
}

void IngressFrontend::MarkDone(Device* dev) {
  if (dev->done) {
    return;
  }
  dev->done = true;
  dev->group->seq->OnDone(dev->source);
  done_devices_.fetch_add(1, std::memory_order_release);
}

IngressFrontend::Stats IngressFrontend::stats() const {
  Stats s;
  s.sessions_accepted = stats_.sessions_accepted.load(std::memory_order_relaxed);
  s.sessions_rejected = stats_.sessions_rejected.load(std::memory_order_relaxed);
  s.frames = stats_.frames.load(std::memory_order_relaxed);
  s.events = stats_.events.load(std::memory_order_relaxed);
  s.dup_frames = stats_.dup_frames.load(std::memory_order_relaxed);
  s.reordered_dgrams = stats_.reordered_dgrams.load(std::memory_order_relaxed);
  s.skipped_dgrams = stats_.skipped_dgrams.load(std::memory_order_relaxed);
  // Sequencer counters are IO-thread (or local-thread) state: safe after Stop()/finalize.
  for (const auto& [key, group] : groups_) {
    s.batches += group->seq->batches_out();
  }
  return s;
}

// --- IO thread --------------------------------------------------------------------------

void IngressFrontend::IoLoop() {
  std::vector<net::Poller::Event> events;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!poller_.Wait(&events, /*timeout_ms=*/50).ok()) {
      return;
    }
    for (const auto& ev : events) {
      if (ev.data == kCookieTcpListener) {
        AcceptPending();
      } else if (ev.data == kCookieUdp) {
        DrainUdp();
      } else {
        const int fd = static_cast<int>(ev.data);
        auto it = conns_.find(fd);
        if (it == conns_.end()) {
          continue;  // closed earlier this wait round
        }
        if (ev.readable) {
          HandleConnReadable(it->second.get());
        } else if (ev.hangup) {
          CloseConn(fd);
        }
      }
    }
  }
}

void IngressFrontend::AcceptPending() {
  for (;;) {
    net::Socket sock;
    const net::IoResult r = net::TcpAccept(tcp_listener_, &sock);
    if (r == net::IoResult::kWouldBlock) {
      return;
    }
    if (r == net::IoResult::kError) {
      // Persistent accept failure (EMFILE under fleet fd churn) leaves the pending
      // connection queued, so level-triggered epoll re-fires immediately. Back off briefly
      // instead of spinning the IO thread at 100%; the retry rides the next poll round.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return;
    }
    const int fd = sock.fd();
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    if (!poller_.Add(fd, static_cast<uint64_t>(fd)).ok()) {
      continue;  // conn destructor closes the socket
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void IngressFrontend::HandleConnReadable(Conn* conn) {
  const int fd = conn->sock.fd();
  uint8_t chunk[kReadChunk];
  // Read until EAGAIN or EOF: the socket's readiness is fully consumed in this wakeup, so
  // level-triggered epoll owes us nothing and no separate EOF probe (which could swallow a
  // byte of the next message) is needed.
  bool peer_gone = false;
  for (;;) {
    size_t n = 0;
    const net::IoResult r = net::ReadSome(conn->sock, std::span<uint8_t>(chunk, sizeof(chunk)), &n);
    if (r == net::IoResult::kOk) {
      conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + n);
      continue;
    }
    if (r != net::IoResult::kWouldBlock) {
      // Peer closed (graceful churn disconnect) or errored: drain what we already buffered,
      // then drop the connection. Device state survives for the reconnect.
      peer_gone = true;
    }
    break;
  }

  size_t off = 0;
  bool close = false;
  for (;;) {
    wire::StreamMessage msg;
    const auto r = wire::ExtractMessage(
        std::span<const uint8_t>(conn->inbuf).subspan(off), &msg);
    if (r == wire::ExtractResult::kNeedMore) {
      break;
    }
    if (r == wire::ExtractResult::kMalformed) {
      close = true;
      break;
    }
    if (!HandleMessage(conn, msg)) {
      close = true;
      break;
    }
    off += msg.consumed;
  }
  if (off > 0) {
    conn->inbuf.erase(conn->inbuf.begin(), conn->inbuf.begin() + static_cast<long>(off));
  }

  if (close || peer_gone) {
    CloseConn(fd);
  }
}

bool IngressFrontend::HandleMessage(Conn* conn, const wire::StreamMessage& msg) {
  switch (conn->state) {
    case Conn::State::kAwaitHello: {
      if (msg.type != wire::MsgType::kHello) {
        return false;
      }
      const auto hello = wire::DecodeHello(msg.body);
      if (!hello.has_value()) {
        return false;
      }
      Device* dev = FindDevice(hello->tenant, hello->source);
      // A device that already delivered its end-of-stream (Bye{final} or UDP kDone) has left
      // the group's watermark accounting; rejecting the reconnect here keeps remote input
      // from ever reaching the sequencer's done-state invariants.
      if (dev == nullptr || dev->stream != hello->stream || dev->done) {
        std::vector<uint8_t> out;
        wire::AppendReject(&out);
        (void)net::WriteAll(conn->sock, out);
        stats_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      conn->hello = *hello;
      conn->dev = dev;
      conn->server_nonce = next_server_nonce_++;
      conn->session_key = DeriveSessionKey(dev->mac_key, hello->tenant, hello->source,
                                           hello->client_nonce, conn->server_nonce);
      std::vector<uint8_t> out;
      wire::AppendChallenge(&out, conn->server_nonce);
      if (!net::WriteAll(conn->sock, out).ok()) {
        return false;
      }
      conn->state = Conn::State::kAwaitAuth;
      return true;
    }
    case Conn::State::kAwaitAuth: {
      if (msg.type != wire::MsgType::kAuth) {
        return false;
      }
      const auto tag = wire::DecodeTag(msg.body);
      const auto transcript = wire::HandshakeTranscript(conn->hello, conn->server_nonce);
      const SessionTag expect =
          SessionMac(conn->session_key, wire::kAuthLabel, transcript);
      if (!tag.has_value() || !SessionTagEqual(*tag, expect)) {
        // Wrong tenant key (or a forgery): rejected at the door, before any payload reaches
        // the data plane under a mismatched ingress key.
        std::vector<uint8_t> out;
        wire::AppendReject(&out);
        (void)net::WriteAll(conn->sock, out);
        stats_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      std::vector<uint8_t> out;
      wire::AppendAccept(&out, SessionMac(conn->session_key, wire::kAcceptLabel, transcript));
      if (!net::WriteAll(conn->sock, out).ok()) {
        return false;
      }
      conn->state = Conn::State::kStreaming;
      stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    case Conn::State::kStreaming: {
      Device* dev = conn->dev;
      if (dev->done) {
        // End-of-stream already delivered — possibly via a UDP kDone or a Bye pipelined
        // ahead on another connection while this session was live. Dropping the connection
        // loses only this sender; the sequencer's !done invariant stays unreachable from
        // remote input.
        return false;
      }
      switch (msg.type) {
        case wire::MsgType::kData: {
          const auto data = wire::DecodeData(msg.body);
          if (!data.has_value()) {
            return false;
          }
          if (data->seq < dev->next_seq) {
            stats_.dup_frames.fetch_add(1, std::memory_order_relaxed);
            return true;  // churn retransmit: already delivered, drop
          }
          if (data->seq > dev->next_seq) {
            return false;  // a hole on a reliable transport is a protocol violation
          }
          if (data->payload.empty() || data->payload.size() % dev->event_size != 0) {
            return false;
          }
          ++dev->next_seq;
          stats_.frames.fetch_add(1, std::memory_order_relaxed);
          stats_.events.fetch_add(data->payload.size() / dev->event_size,
                                  std::memory_order_relaxed);
          dev->group->seq->OnData(dev->source, data->payload, data->ctr_offset);
          return true;
        }
        case wire::MsgType::kWatermark: {
          const auto wm = wire::DecodeWatermark(msg.body);
          if (!wm.has_value()) {
            return false;
          }
          if (wm->seq < dev->next_seq) {
            stats_.dup_frames.fetch_add(1, std::memory_order_relaxed);
            return true;
          }
          if (wm->seq > dev->next_seq) {
            return false;
          }
          ++dev->next_seq;
          dev->group->seq->OnWatermark(dev->source, static_cast<EventTimeMs>(wm->value));
          return true;
        }
        case wire::MsgType::kBye: {
          const auto bye = wire::DecodeBye(msg.body);
          if (bye.has_value() && bye->final) {
            MarkDone(dev);
          }
          return false;  // close the connection either way; device state persists
        }
        default:
          return false;
      }
    }
  }
  return false;
}

void IngressFrontend::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  (void)poller_.Remove(fd);
  conns_.erase(it);
}

// --- UDP --------------------------------------------------------------------------------

void IngressFrontend::DrainUdp() {
  uint8_t buf[kReadChunk];
  for (;;) {
    size_t n = 0;
    if (net::UdpRecv(udp_socket_, std::span<uint8_t>(buf, sizeof(buf)), &n) !=
        net::IoResult::kOk) {
      return;
    }
    const auto dgram = wire::DecodeDgram(
        std::span<const uint8_t>(buf, n),
        [this](uint32_t tenant, uint32_t source) -> const SessionKey* {
          Device* dev = FindDevice(tenant, source);
          return dev == nullptr ? nullptr : &dev->dgram_key;
        });
    if (!dgram.has_value()) {
      stats_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
      continue;  // truncated, unknown device, or bad MAC: drop the packet
    }
    HandleDgram(*dgram);
  }
}

void IngressFrontend::HandleDgram(const wire::Dgram& dgram) {
  Device* dev = FindDevice(dgram.tenant, dgram.source);
  if (dev == nullptr || dev->stream != dgram.stream || dev->done) {
    return;
  }
  if (dgram.kind == wire::DgramKind::kData &&
      (dgram.payload.empty() || dgram.payload.size() % dev->event_size != 0)) {
    return;
  }
  if (dgram.seq < dev->dg_expected) {
    stats_.dup_frames.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (dgram.seq == dev->dg_expected) {
    DeliverInOrder(dev, dgram);
    ++dev->dg_expected;
  } else {
    // Future packet: hold it for reordering. A duplicate of a held packet is dropped; a full
    // hold buffer declares the gap lost and skips ahead (loss tolerance, not blocking).
    if (dev->dg_future.count(dgram.seq) != 0) {
      stats_.dup_frames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Device::PendingMsg pending;
    pending.kind = dgram.kind;
    pending.ctr_offset = dgram.ctr_offset;
    pending.watermark = dgram.watermark;
    pending.payload.assign(dgram.payload.begin(), dgram.payload.end());
    dev->dg_future.emplace(dgram.seq, std::move(pending));
    stats_.reordered_dgrams.fetch_add(1, std::memory_order_relaxed);
    if (dev->dg_future.size() > config_.max_dgram_reorder) {
      const uint64_t next_held = dev->dg_future.begin()->first;
      stats_.skipped_dgrams.fetch_add(next_held - dev->dg_expected,
                                      std::memory_order_relaxed);
      dev->dg_expected = next_held;
    }
  }
  // Drain every held packet that became in-order.
  auto it = dev->dg_future.begin();
  while (!dev->done && it != dev->dg_future.end() && it->first == dev->dg_expected) {
    wire::Dgram held;
    held.tenant = dev->tenant;
    held.source = dev->source;
    held.stream = dev->stream;
    held.kind = it->second.kind;
    held.seq = it->first;
    held.ctr_offset = it->second.ctr_offset;
    held.watermark = it->second.watermark;
    held.payload = it->second.payload;
    DeliverInOrder(dev, held);
    ++dev->dg_expected;
    it = dev->dg_future.erase(it);
    if (dev->done) {
      break;
    }
  }
}

void IngressFrontend::DeliverInOrder(Device* dev, const wire::Dgram& dgram) {
  switch (dgram.kind) {
    case wire::DgramKind::kData:
      stats_.frames.fetch_add(1, std::memory_order_relaxed);
      stats_.events.fetch_add(dgram.payload.size() / dev->event_size,
                              std::memory_order_relaxed);
      dev->group->seq->OnData(dev->source, dgram.payload, dgram.ctr_offset);
      break;
    case wire::DgramKind::kWatermark:
      dev->group->seq->OnWatermark(dev->source, static_cast<EventTimeMs>(dgram.watermark));
      break;
    case wire::DgramKind::kDone:
      MarkDone(dev);
      break;
  }
}

}  // namespace sbt
