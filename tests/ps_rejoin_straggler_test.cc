// Bounded-staleness rejoin composed with the straggler plane: a worker
// that crashes and restarts re-enters aggregation under the rejoin_slack
// window while its NIC is simultaneously frozen (NodePause) and degraded
// (bandwidth dip + extra latency). Until now the rejoin_slack rule was
// exercised only under clean restarts; these tests pin down that a
// straggling rejoiner still converges exactly-once and — under DSSP — the
// staleness-gate audits stay clean while the rejoiner catches up.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "model/zoo.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

model::Workload small_workload() {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

/// Crash+restart of worker 2 with its recovery window straddled by a NIC
/// freeze and a bandwidth/latency degradation — the rejoin handshake and
/// the catch-up pulls both run through a struggling NIC.
ClusterConfig straggling_rejoin_config(SyncMethod method,
                                       std::int64_t rejoin_slack) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.dedicated_servers = true;  // crash a pure worker node
  cfg.replication = 1;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.rejoin_slack = rejoin_slack;
  cfg.max_sim_time = 60.0;

  net::NodeCrash crash;
  crash.node = 2;
  crash.at = 0.05;
  crash.restart_after = 0.04;  // back at 0.09
  cfg.faults.crashes.push_back(crash);

  net::NodePause pause;  // NIC frozen right as the rejoin handshake starts
  pause.node = 2;
  pause.start = 0.09;
  pause.duration = 0.05;
  cfg.faults.pauses.push_back(pause);

  net::Degradation deg;  // and the catch-up window runs on a crippled NIC
  deg.node = 2;
  deg.start = 0.14;
  deg.end = 0.40;
  deg.bandwidth_factor = 0.25;
  deg.extra_latency = us(200);
  cfg.faults.degradations.push_back(deg);
  return cfg;
}

void expect_converged(const Cluster& cluster, std::int64_t iterations) {
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w = 0; w < 4; ++w) {
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

class StragglingRejoin : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(StragglingRejoin, RejoinUnderPauseAndDegradationConverges) {
  ClusterConfig cfg = straggling_rejoin_config(GetParam(), /*rejoin_slack=*/1);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "recovery.crashes"), 1);
  EXPECT_EQ(counter(result, "recovery.restarts"), 1);
  EXPECT_EQ(counter(result, "recovery.worker_rejoins"), 1);
  EXPECT_GT(result.metrics.at<obs::Gauge>("recovery.rejoin_lag_s").max(), 0.0);
  expect_converged(cluster, iterations);
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(SyncMethods, StragglingRejoin,
                         ::testing::Values(SyncMethod::kBaseline,
                                           SyncMethod::kP3,
                                           SyncMethod::kDSSP));

TEST(StragglingRejoin, WiderSlackStillExactlyOnce) {
  // A looser slack window admits the straggling rejoiner into aggregation
  // later; the ledger must still apply each of its rounds exactly once
  // (an overshoot would show as slice_version > iterations).
  ClusterConfig cfg =
      straggling_rejoin_config(SyncMethod::kP3, /*rejoin_slack=*/3);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "recovery.worker_rejoins"), 1);
  expect_converged(cluster, iterations);
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(StragglingRejoin, DsspAuditsStayCleanWhileRejoinerCatchesUp) {
  // The DSSP-specific composition: the rejoiner re-enters the clock roster
  // below the released floor (the monotone floor narrows future advances
  // rather than retracting releases), so the violation and wedge audits
  // must both stay zero even though its NIC is frozen, then degraded,
  // through the whole catch-up.
  ClusterConfig cfg =
      straggling_rejoin_config(SyncMethod::kDSSP, /*rejoin_slack=*/2);
  cfg.staleness.s_max = 3;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "recovery.worker_rejoins"), 1);
  EXPECT_EQ(counter(result, "dssp.staleness_violations"), 0);
  EXPECT_EQ(counter(result, "dssp.gate_wedge_ticks"), 0);
  expect_converged(cluster, iterations);
  EXPECT_TRUE(cluster.simulator().idle());
}

}  // namespace
}  // namespace p3::ps
