// Network ingress: the bridge from the wire protocol (src/net/wire.h) to the EdgeServer's
// FrameChannel admission path. Two layers:
//
//  SourceSequencer — the deterministic coalescer. Many low-rate device streams of one
//  (tenant, stream, shard) group merge into ONE logical source presented to the EdgeServer.
//  Frames buffer per device until the group watermark — the minimum over every device's
//  in-band watermark frontier — advances; then every device's covered frames flush in
//  ascending device-id order, packed into large coalesced batches (FrameSegment per keystream
//  run), followed by one group watermark. Flushed content is a pure function of the per-device
//  streams: arrival interleaving across devices moves nothing, because a device's frames only
//  flush once ALL devices have covered the rung, and flush order is fixed. This is what makes
//  the audit chain and egress of a server fed over TCP byte-identical to one fed in-process
//  from the same per-device streams. A group of ONE device has no interleaving to wait out:
//  its frames pack on arrival and each batch leaves as soon as the coalesce target cuts it,
//  so only the open partial batch waits for the watermark. The pushed frames are the same
//  bytes, segments and cut points the buffered flush would produce at that watermark.
//
//  IngressFrontend — session table plus transports. Devices are provisioned up front
//  (tenant, source, stream), giving each a group home and a datagram key (UDP only); unknown or
//  wrong-tenant devices fail the handshake. One IO thread multiplexes the TCP listener, all
//  connections, and the UDP socket via epoll. TCP: framed messages, strict per-device seq
//  (duplicates dropped, holes fatal to the connection), churn-safe — device state survives
//  reconnects. UDP: per-packet MACs, seq-based dedup and a bounded reorder buffer; gaps are
//  skipped after the buffer fills (loss the analytics contract tolerates). Backpressure is the
//  blocking channel push: a full group channel stalls the IO thread, TCP receive windows fill,
//  and senders block — flow control end to end without a protocol ack.
//
// Threading: SourceSequencer is thread-compatible (one driving thread). IngressFrontend's
// Provision/BindTo happen before Start; after Start only the IO thread touches session or
// sequencer state. Local delivery (DeliverLocal*) is the no-socket path for equivalence
// baselines and must not be mixed with a started listener.

#ifndef SRC_SERVER_INGRESS_H_
#define SRC_SERVER_INGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/crypto/session.h"
#include "src/net/channel.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/server/edge_server.h"
#include "src/server/shard_router.h"
#include "src/server/tenant.h"

namespace sbt {

// Deterministic many-to-one coalescer for one (tenant, stream, shard) group. Not thread-safe:
// one driving thread (the ingress IO thread, or a test loop).
class SourceSequencer {
 public:
  SourceSequencer(uint16_t stream, size_t event_size, size_t coalesce_events,
                  size_t channel_capacity);

  FrameChannel* channel() { return &channel_; }

  // Registration happens before any delivery (checked: a single-device group packs on
  // arrival, so a late second device would mix the two flush rules); device ids must be
  // unique within the group.
  void AddSource(uint32_t source);

  // Per-device stream events, in that device's order. OnData copies `bytes` (into the open
  // batch, or into the device's buffer). OnData/OnWatermark may block on the group channel
  // (admission backpressure). OnDone is the device's end-of-stream; once every registered
  // device is done the sequencer flushes remainders, emits the final group watermark, and
  // closes the channel.
  void OnData(uint32_t source, std::span<const uint8_t> bytes, uint64_t ctr_offset);
  void OnWatermark(uint32_t source, EventTimeMs value);
  void OnDone(uint32_t source);

  // Closes the channel without waiting for stragglers (unclean shutdown only — determinism
  // holds only for streams that ran to completion).
  void Abort();

  bool finalized() const { return finalized_; }
  size_t sources() const { return states_.size(); }
  uint64_t events_in() const { return events_in_; }
  uint64_t batches_out() const { return batches_out_; }

 private:
  struct SourceState {
    std::deque<Frame> buffer;                    // data frames + in-band watermark markers
    EventTimeMs frontier = 0;                    // last watermark seen (kEventTimeMax if done)
    EventTimeMs final_frontier = 0;              // frontier at OnDone (final watermark input)
    bool done = false;
    std::multiset<EventTimeMs>::iterator frontier_it;
  };

  void BumpFrontier(SourceState& st, EventTimeMs value);
  void FlushUpTo(EventTimeMs group_min);
  void Finalize();
  // Coalescing packer: appends one device frame to the open batch, cutting at the event
  // target; merges keystream-contiguous runs into one segment.
  void Pack(std::span<const uint8_t> bytes, uint64_t ctr_offset);
  void CutBatch();
  void PushWatermark(EventTimeMs value);

  const uint16_t stream_;
  const size_t event_size_;
  const size_t coalesce_events_;
  FrameChannel channel_;

  std::map<uint32_t, SourceState> states_;  // ascending device id = flush order
  std::multiset<EventTimeMs> frontiers_;
  EventTimeMs emitted_min_ = 0;
  size_t done_count_ = 0;
  bool delivered_ = false;  // any OnData/OnWatermark/OnDone seen: registration is closed
  bool finalized_ = false;

  std::vector<uint8_t> cur_bytes_;
  std::vector<FrameSegment> cur_segments_;
  size_t cur_events_ = 0;

  uint64_t events_in_ = 0;
  uint64_t batches_out_ = 0;
};

struct IngressConfig {
  uint16_t tcp_port = 0;        // 0 = ephemeral; bound port via tcp_port() after Start
  bool enable_udp = false;
  uint16_t udp_port = 0;
  // Must equal EdgeServerConfig::num_shards so groups align with the server's shard homes.
  uint32_t num_shards = 4;
  size_t coalesce_events = 4096;    // target events per coalesced batch
  size_t channel_capacity = 16;     // group channel depth (frames)
  size_t max_dgram_reorder = 64;    // out-of-order datagrams held per device before gap-skip
  // Per-deployment-epoch randomizer mixed into every datagram key, advertised to devices
  // out-of-band with the rest of their provisioning. Rotating it on restart invalidates
  // captured datagrams from earlier epochs, which the (per-process) seq dedup alone cannot:
  // dg_expected resets with the process. 0 = static keys (replay across restarts accepted).
  uint64_t dgram_boot_nonce = 0;
};

// Session-table + transport frontend. Lifecycle: Provision* -> BindTo -> Start -> (traffic)
// -> AllSourcesDone -> Stop. Or skip Start and drive DeliverLocal* for the in-process path.
class IngressFrontend {
 public:
  IngressFrontend(IngressConfig config, const TenantRegistry* registry);
  ~IngressFrontend();

  IngressFrontend(const IngressFrontend&) = delete;
  IngressFrontend& operator=(const IngressFrontend&) = delete;

  // Declares one device. Creates its group (and group channel) on first contact; derives its
  // datagram key when UDP is on. Must precede BindTo.
  Status Provision(TenantId tenant, uint32_t source, uint16_t stream = 0);

  // Binds every group channel as a server source. Must precede server->Start().
  Status BindTo(EdgeServer* server);

  // The proxy-interposition alternative to BindTo: hands out every group's (tenant, server
  // source id, stream, channel) so a FailoverProxy (src/server/failover.h) can sit between the
  // sequencers and the serving EdgeServer. Freezes provisioning exactly like BindTo; call one
  // or the other, once.
  struct GroupBinding {
    TenantId tenant = 0;
    uint32_t source = 0;  // group source id: what the EdgeServer binds
    uint16_t stream = 0;
    FrameChannel* channel = nullptr;
  };
  std::vector<GroupBinding> GroupBindings();

  // Opens sockets and spawns the IO thread.
  Status Start();
  uint16_t tcp_port() const { return tcp_port_; }
  uint16_t udp_port() const { return udp_port_; }

  // True once every provisioned device has delivered its end-of-stream (every group channel
  // closed). WaitAllDone polls with a deadline; false on timeout.
  bool AllSourcesDone() const;
  bool WaitAllDone(std::chrono::milliseconds timeout);

  // Joins the IO thread and closes any group channel still open (so a server Shutdown never
  // hangs on an aborted run).
  void Stop();

  // In-process delivery path: same grouping, same sequencers, no sockets. Single-threaded;
  // never mix with Start().
  void DeliverLocalData(TenantId tenant, uint32_t source, std::span<const uint8_t> bytes,
                        uint64_t ctr_offset);
  void DeliverLocalWatermark(TenantId tenant, uint32_t source, EventTimeMs value);
  void DeliverLocalDone(TenantId tenant, uint32_t source);

  struct Stats {
    uint64_t sessions_accepted = 0;
    uint64_t sessions_rejected = 0;
    uint64_t frames = 0;          // data frames admitted to sequencers
    uint64_t events = 0;
    uint64_t dup_frames = 0;      // TCP duplicate seq + UDP duplicate datagrams
    uint64_t reordered_dgrams = 0;
    uint64_t skipped_dgrams = 0;  // gap-skipped (lost) datagrams
    uint64_t batches = 0;         // coalesced batches pushed to the server
  };
  Stats stats() const;

 private:
  struct Group;
  struct Device;
  struct Conn;

  uint64_t DeviceKey(TenantId tenant, uint32_t source) const {
    return (static_cast<uint64_t>(tenant) << 32) | source;
  }
  Device* FindDevice(TenantId tenant, uint32_t source);
  void IoLoop();
  void AcceptPending();
  void HandleConnReadable(Conn* conn);
  // One parsed TCP message; false = protocol violation, drop the connection.
  bool HandleMessage(Conn* conn, const wire::StreamMessage& msg);
  void DrainUdp();
  void HandleDgram(const wire::Dgram& dgram);
  void DeliverInOrder(Device* dev, const wire::Dgram& dgram);
  void CloseConn(int fd);
  void MarkDone(Device* dev);

  const IngressConfig config_;
  const TenantRegistry* registry_;
  ShardRouter grouping_;

  std::map<uint64_t, std::unique_ptr<Group>> groups_;    // key: tenant<<32 | group source id
  std::map<uint64_t, std::unique_ptr<Device>> devices_;  // key: tenant<<32 | device source id
  bool bound_ = false;
  bool started_ = false;

  net::Socket tcp_listener_;
  net::Socket udp_socket_;
  uint16_t tcp_port_ = 0;
  uint16_t udp_port_ = 0;
  net::Poller poller_;
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::thread io_thread_;
  std::atomic<bool> stop_{false};
  // Handshake challenge counter, incremented per hello. Its start is drawn unpredictably per
  // frontend, so a restarted process re-issues a challenge that a recorded Hello+Auth answered
  // only with negligible probability (device seq windows reset with the process, so such a
  // replay would be admitted).
  uint64_t next_server_nonce_;

  std::atomic<size_t> done_devices_{0};
  size_t provisioned_ = 0;

  // IO-thread counters, mirrored into atomics for stats() readers on other threads.
  struct AtomicStats {
    std::atomic<uint64_t> sessions_accepted{0};
    std::atomic<uint64_t> sessions_rejected{0};
    std::atomic<uint64_t> frames{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> dup_frames{0};
    std::atomic<uint64_t> reordered_dgrams{0};
    std::atomic<uint64_t> skipped_dgrams{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace sbt

#endif  // SRC_SERVER_INGRESS_H_
