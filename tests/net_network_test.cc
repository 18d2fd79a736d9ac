#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/sync.h"
#include "trace/timeline.h"

namespace p3::net {
namespace {

NetworkConfig test_config(BitsPerSec rate = gbps(1), TimeS latency = 0.0) {
  NetworkConfig cfg;
  cfg.rate = rate;
  cfg.latency = latency;
  cfg.loopback_rate = gbps(400);
  cfg.loopback_latency = 0.0;
  return cfg;
}

Message msg(int src, int dst, Bytes bytes, MsgKind kind = MsgKind::kPushGradient) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.kind = kind;
  return m;
}

TEST(Network, SingleTransferTiming) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  // 125 MB at 1 Gbps = 1 s TX + 1 s RX (store and forward).
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 1.0);
  std::vector<TimeS> arrival;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out.push_back(n.simulator().now());
  }(net, arrival));
  sim.run();
  ASSERT_EQ(arrival.size(), 1u);
  EXPECT_DOUBLE_EQ(arrival[0], 2.0);
}

TEST(Network, LatencyAddsToDelivery) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(8), 0.5));
  net.post(msg(0, 1, 1'000'000'000));  // 1 GB @8 Gbps = 1 s each side
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 2.5);  // 1 TX + 0.5 latency + 1 RX
}

TEST(Network, TxSerializesFifo) {
  sim::Simulator sim;
  Network net(sim, 3, test_config(gbps(1), 0.0));
  const TimeS t1 = net.post(msg(0, 1, 125'000'000));
  const TimeS t2 = net.post(msg(0, 2, 125'000'000));
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);  // second message waits for the first
}

TEST(Network, IncastSerializesOnReceiverRx) {
  sim::Simulator sim;
  Network net(sim, 3, test_config(gbps(1), 0.0));
  // Two senders to one receiver: TX in parallel, RX serialized.
  net.post(msg(1, 0, 125'000'000));
  net.post(msg(2, 0, 125'000'000));
  std::vector<TimeS> arrivals;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 2; ++i) {
      (void)co_await n.inbox(0).pop();
      out.push_back(n.simulator().now());
    }
  }(net, arrivals));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 2.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 3.0);  // RX busy until 2.0, then 1 more sec
}

TEST(Network, FullDuplexDoesNotContend) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  // 0->1 and 1->0 simultaneously: both complete as if alone.
  net.post(msg(0, 1, 125'000'000));
  net.post(msg(1, 0, 125'000'000));
  std::vector<TimeS> arrivals(2, -1.0);
  for (int node = 0; node < 2; ++node) {
    sim.spawn([](Network& n, std::vector<TimeS>& out, int nd) -> sim::Task {
      (void)co_await n.inbox(nd).pop();
      out[static_cast<std::size_t>(nd)] = n.simulator().now();
    }(net, arrivals, node));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(arrivals[0], 2.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 2.0);
}

TEST(Network, LoopbackBypassesNic) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 10.0));  // huge latency
  net.post(msg(0, 0, 125'000'000));
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(0).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  // 125 MB over 400 Gbps loopback = 2.5 ms; NIC latency not applied.
  EXPECT_NEAR(arrival, 0.0025, 1e-9);
  // NIC stays free.
  EXPECT_DOUBLE_EQ(net.tx_free_at(0), sim.now());
}

TEST(Network, PerNodeRateThrottling) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(10), 0.0));
  net.set_node_rate(0, gbps(1));  // tc qdisc on node 0 only
  EXPECT_DOUBLE_EQ(net.node_rate(0), gbps(1));
  EXPECT_DOUBLE_EQ(net.node_rate(1), gbps(10));
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 1.0);  // throttled TX
}

TEST(Network, SetNodeRateMidTransferHonorsReservations) {
  // Mid-experiment `tc` throttling: a rate change applies to messages
  // posted afterwards, but channel time already reserved by an in-flight
  // transfer is honored — the new transfer queues behind it.
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(10), 0.0));
  // In flight at 10 Gbps: TX [0, 0.1], RX [0.1, 0.2].
  const TimeS first_tx = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(first_tx, 0.1);
  net.set_node_rate(0, gbps(1));  // throttle while the transfer is running
  // The second message starts where the first reservation ends and
  // serializes at the new rate.
  const TimeS second_tx = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(second_tx, 0.1 + 1.0);
  std::vector<TimeS> arrivals;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 2; ++i) {
      (void)co_await n.inbox(1).pop();
      out.push_back(n.simulator().now());
    }
  }(net, arrivals));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // First delivery is unchanged by the throttle (RX rate untouched)...
  EXPECT_DOUBLE_EQ(arrivals[0], 0.2);
  // ...second RX starts after its slow TX and runs at node 1's RX rate.
  EXPECT_DOUBLE_EQ(arrivals[1], 1.2);
}

TEST(Network, BlockingSendResumesAtTxCompletion) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  std::vector<TimeS> send_returns;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      co_await n.send(msg(0, 1, 125'000'000));
      out.push_back(n.simulator().now());
    }
  }(net, send_returns));
  sim.run();
  // Blocking sends: each returns when its TX finishes, i.e. paced at 1 s.
  EXPECT_EQ(send_returns, (std::vector<TimeS>{1.0, 2.0, 3.0}));
}

TEST(Network, CountsAndConservation) {
  sim::Simulator sim;
  Network net(sim, 4, test_config());
  for (int i = 1; i < 4; ++i) net.post(msg(0, i, 1000));
  EXPECT_EQ(net.messages_posted(), 3);
  EXPECT_EQ(net.bytes_posted(), 3000);
  sim.run();
  EXPECT_EQ(net.messages_delivered(), 3);
}

TEST(Network, InvalidMessagesThrow) {
  sim::Simulator sim;
  Network net(sim, 2, test_config());
  EXPECT_THROW(net.post(msg(0, 5, 100)), std::out_of_range);
  EXPECT_THROW(net.post(msg(-1, 1, 100)), std::out_of_range);
  EXPECT_THROW(net.post(msg(0, 1, 0)), std::invalid_argument);
}

TEST(Network, MonitorRecordsBothDirections) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  UtilizationMonitor mon(2, 0.010);
  net.attach_monitor(&mon);
  net.post(msg(0, 1, 125'000'000));  // 1 s TX, 1 s RX
  sim.run();
  EXPECT_NEAR(mon.total_bytes(0, Direction::kOut), 125e6, 1.0);
  EXPECT_NEAR(mon.total_bytes(1, Direction::kIn), 125e6, 1.0);
  EXPECT_NEAR(mon.total_bytes(0, Direction::kIn), 0.0, 1e-9);
  // Rate during the busy second should be ~1 Gbps.
  EXPECT_NEAR(mon.bin_rate(0, Direction::kOut, 50), gbps(1), gbps(0.01));
}

TEST(Network, TimelineRecordsSpans) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  trace::Timeline tl;
  net.attach_tracer(&tl.tracer());
  Message m = msg(0, 1, 125'000'000);
  m.layer = 2;
  net.post(m);
  sim.run();
  auto tx = tl.lane_spans("n0.tx");
  ASSERT_EQ(tx.size(), 1u);
  EXPECT_DOUBLE_EQ(tx[0].start, 0.0);
  EXPECT_DOUBLE_EQ(tx[0].end, 1.0);
  EXPECT_EQ(tx[0].label, "gL2");
  auto rx = tl.lane_spans("n1.rx");
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_DOUBLE_EQ(rx[0].start, 1.0);
  EXPECT_DOUBLE_EQ(rx[0].end, 2.0);
}

TEST(MessageLabel, CoversAllKinds) {
  Message m;
  m.layer = 1;
  m.kind = MsgKind::kPushGradient;
  EXPECT_EQ(message_label(m), "gL1");
  m.kind = MsgKind::kNotify;
  EXPECT_EQ(message_label(m), "nL1");
  m.kind = MsgKind::kPullRequest;
  EXPECT_EQ(message_label(m), "qL1");
  m.kind = MsgKind::kParams;
  EXPECT_EQ(message_label(m), "pL1");
}

}  // namespace
}  // namespace p3::net
