// Cluster network substrate.
//
// Models a full-mesh (switched) cluster of `n` machines, each with a
// full-duplex NIC. A message of S bytes from a to b:
//
//   1. serializes on a's TX channel:  [tx_start, tx_start + S/rate_tx)
//   2. propagates for `latency`
//   3. serializes on b's RX channel:  [rx_start, rx_start + S/rate_rx)
//   4. is delivered into b's inbox at rx_end
//
// Channels serve reservations FIFO (tx_start = max(now, channel free time)),
// which is exactly the behaviour of a kernel socket send queue; priority
// scheduling in P3 happens *above* this layer by deciding what to post next,
// as in the paper's producer/consumer design. Messages between colocated
// processes (src == dst) use a per-node loopback channel and never touch the
// NIC.
//
// Per-node rates support heterogeneous clusters and `tc qdisc`-style
// throttling mid-experiment (Section 5.3 uses this to sweep bandwidth).
//
// With an active `Topology` the flat mesh becomes racks behind ToR switches:
// a remote message serializes on the source NIC, hops to its ToR, and — when
// the destination sits in another rack — queues at the shared ToR uplink,
// crosses the spine, queues again at the destination rack's downlink, then
// serializes on the destination NIC. The uplink/downlink ports are served
// one transfer at a time in *priority* order (smaller `Message::priority`
// first; FIFO tie-break on arrival), so P3's slice priority contends at the
// oversubscribed switch port, not just at the sender's NIC. An inactive
// topology (the default) keeps the flat code path untouched.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "net/faults.h"
#include "net/message.h"
#include "net/monitor.h"
#include "net/topology.h"
#include "obs/tracer.h"
#include "sim/queue.h"
#include "sim/simulator.h"

namespace p3::net {

struct NetworkConfig {
  BitsPerSec rate = gbps(10);            ///< per-NIC TX (egress) rate
  /// RX (ingress) rate; 0 = same as `rate`. The paper throttles with
  /// `tc qdisc`, which shapes egress only — set this to the physical line
  /// rate (e.g. 100 Gbps InfiniBand) to reproduce that setup.
  BitsPerSec rx_rate = 0;
  TimeS latency = us(25);                ///< one-way propagation delay
  BitsPerSec loopback_rate = gbps(400);  ///< colocated worker<->server path
  TimeS loopback_latency = us(2);
  /// Rack-scale shape; inactive (flat) by default. Uplink capacities are
  /// derived once at construction from `rate` (or `topology.uplink_rate`),
  /// so later `set_node_rate` calls re-shape NICs only.
  Topology topology;
};

class Network {
 public:
  Network(sim::Simulator& sim, int n_nodes, NetworkConfig config);

  int nodes() const { return static_cast<int>(nics_.size()); }
  sim::Simulator& simulator() { return *sim_; }
  const NetworkConfig& config() const { return config_; }

  /// Post a message for transmission. Reserves the channels immediately
  /// (FIFO) and schedules delivery into `inbox(dst)`. Returns the time at
  /// which the sender's TX serialization completes — the moment a blocking
  /// send() call would return.
  TimeS post(Message m);

  /// Awaitable blocking send: posts and suspends until TX completes.
  auto send(Message m) {
    const TimeS done = post(std::move(m));
    return sim_->sleep_until(done);
  }

  /// Destination queues; protocol demux loops pop from these.
  sim::Queue<Message>& inbox(int node) {
    return *inboxes_.at(static_cast<std::size_t>(node));
  }

  /// `tc qdisc`-style rate limiting of one node's egress; rx_rate 0 keeps
  /// the node's current ingress rate.
  void set_node_rate(int node, BitsPerSec tx_rate, BitsPerSec rx_rate = 0);
  BitsPerSec node_rate(int node) const;     ///< TX rate
  BitsPerSec node_rx_rate(int node) const;  ///< RX rate

  /// Earliest time the node's TX channel is free (== now when idle).
  TimeS tx_free_at(int node) const;

  /// Optional observers.
  void attach_monitor(UtilizationMonitor* monitor) { monitor_ = monitor; }
  /// Record TX/RX/drop spans (lanes "n<i>.tx" etc.) and, for messages
  /// carrying a trace_id, flow arrows from sender TX to receiver RX.
  void attach_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Attach a fault injector (nullptr = perfectly reliable wire). Faults
  /// apply to remote messages only; the sender still pays TX serialization
  /// for a dropped message (the bits left the NIC and died in the fabric).
  void attach_faults(FaultInjector* faults) { faults_ = faults; }

  /// Counters for conservation checks in tests.
  std::int64_t messages_posted() const { return posted_; }
  std::int64_t messages_delivered() const { return delivered_; }
  /// Messages lost to injected faults (posted == delivered + dropped once
  /// the simulation quiesces).
  std::int64_t messages_dropped() const { return dropped_; }
  Bytes bytes_posted() const { return bytes_posted_; }
  /// Bytes that actually crossed a NIC (excludes loopback).
  Bytes bytes_posted_remote() const { return bytes_remote_; }
  Bytes bytes_dropped() const { return bytes_dropped_; }
  /// Ground-truth safety audit: deliveries that landed while an attached
  /// fault plan's partition severed their link. The partition plane drops
  /// such messages at TX time or during the RX window, so this must stay 0;
  /// `trace_report --partition` exits 2 if it ever is not.
  std::int64_t cross_partition_deliveries() const {
    return cross_partition_deliveries_;
  }

  // --- hierarchical topology (no-ops / zeros when the topology is flat) ---

  bool topology_active() const { return hier_; }
  const Topology& topology() const { return topo_; }
  int n_racks() const { return topo_.n_racks(); }
  /// Rack holding `node`; -1 on a flat network.
  int rack_of(int node) const;

  /// Times a switch port, on becoming free, served a transfer that was
  /// enqueued *after* a strictly-lower-priority transfer still waiting —
  /// the P3 overtake, observed at switch granularity.
  std::int64_t uplink_overtakes() const { return overtakes_; }
  /// Times a port began serving a transfer while a strictly-higher-priority
  /// transfer sat queued behind it. Zero by construction under priority
  /// service; meaningful under `Topology::fifo_ports`.
  std::int64_t uplink_priority_inversions() const { return inversions_; }

  /// Per-rack switch-tier stats for gauges and tests.
  struct RackStats {
    Bytes up_bytes = 0;            ///< bytes served by the ToR uplink
    Bytes down_bytes = 0;          ///< bytes served by the rack downlink
    std::int64_t up_peak_queue = 0;    ///< peak transfers waiting at uplink
    std::int64_t down_peak_queue = 0;  ///< peak transfers waiting at downlink
    TimeS up_busy = 0;             ///< uplink serving time
    TimeS down_busy = 0;           ///< downlink serving time
  };
  RackStats rack_stats(int rack) const;
  /// Total bytes that crossed any ToR uplink into the spine.
  Bytes tor_uplink_bytes() const;

 private:
  struct Nic {
    BitsPerSec tx_rate;
    BitsPerSec rx_rate;
    TimeS tx_free = 0.0;
    TimeS rx_free = 0.0;
    TimeS loop_free = 0.0;
  };

  /// Delivery event on the transfer hot path: 16 bytes, fits EventFn's
  /// inline buffer (capturing the 80-byte Message directly would force a
  /// heap allocation per in-flight message).
  struct DeliverFn {
    Network* net;
    Message* msg;
    void operator()() const { net->deliver(msg); }
  };

  /// Park `m` in the in-flight pool (pointers stable, slots recycled after
  /// delivery — sustained traffic does no per-message allocation).
  Message* acquire(Message&& m);
  void release(Message* msg);
  void deliver(Message* msg);

  /// A transfer waiting for (or holding) a switch port.
  struct PortJob {
    Message* msg;
    std::int64_t seq;  ///< port arrival order; FIFO tie-break
  };
  /// One shared ToR uplink or rack downlink: serves one transfer at a time,
  /// picking the next by (priority, arrival) — or pure arrival order under
  /// `Topology::fifo_ports`.
  struct SwitchPort {
    BitsPerSec rate = 0;
    bool busy = false;
    std::vector<PortJob> queue;
    Bytes bytes = 0;
    std::int64_t peak_queue = 0;
    TimeS busy_time = 0;
  };

  /// Multi-hop path for remote messages on an active topology. Same fault
  /// model as the flat path: drop/crash evaluated at source TX, pause/down/
  /// severed at the destination RX window.
  TimeS post_hier(Message m);
  void port_enqueue(int rack, bool up, Message* msg);
  void port_start(int rack, bool up, PortJob job);
  void port_done(int rack, bool up, Message* msg);
  void arrive_rx(Message* msg);
  SwitchPort& port(int rack, bool up) {
    return (up ? up_ports_ : down_ports_)[static_cast<std::size_t>(rack)];
  }
  void drop_at_rx(Message* msg, TimeS rx_start, TimeS rx_end);

  sim::Simulator* sim_;
  NetworkConfig config_;
  std::vector<Nic> nics_;
  std::vector<std::unique_ptr<sim::Queue<Message>>> inboxes_;
  std::deque<Message> pool_;     ///< in-flight message slots
  std::vector<Message*> free_;   ///< recycled pool slots
  UtilizationMonitor* monitor_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::int64_t next_flow_ = 0;  ///< flow-arrow ids for traced messages
  // Hierarchical-topology state; empty/false on a flat network.
  bool hier_ = false;
  Topology topo_;
  std::vector<int> rack_of_;  ///< node -> rack
  std::vector<SwitchPort> up_ports_;
  std::vector<SwitchPort> down_ports_;
  std::int64_t port_seq_ = 0;
  std::int64_t overtakes_ = 0;
  std::int64_t inversions_ = 0;
  /// Flow-arrow ids for traced in-flight messages on the multi-hop path
  /// (the flat path emits both ends inside post()).
  std::unordered_map<const Message*, std::int64_t> hier_flows_;
  std::int64_t posted_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t cross_partition_deliveries_ = 0;
  Bytes bytes_posted_ = 0;
  Bytes bytes_remote_ = 0;
  Bytes bytes_dropped_ = 0;
};

/// Human-readable label for timeline spans ("push L3", "param L1", ...).
std::string message_label(const Message& m);

}  // namespace p3::net
