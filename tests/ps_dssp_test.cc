// DSSP end to end: the adaptive staleness gate lets fast workers run ahead
// within the bound, and PROTOCOL.md invariant 13 holds under every chaos
// plane — a dead or fenced straggler never wedges the fleet, rejoiners
// enter at the rejoin_slack floor, drained nodes hand their clock off, and
// the ground-truth audits (`staleness_violations`, `gate_wedge_ticks`)
// stay zero throughout. Same-seed DSSP chaos runs are bit-identical at any
// runner thread count.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "metrics_equal.h"
#include "model/zoo.h"
#include "runner/parallel.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

model::Workload small_workload(int layers = 4, std::int64_t params = 120'000,
                               TimeS compute = 0.020) {
  model::Workload w;
  w.model = model::toy_uniform(layers, params);
  w.batch_per_worker = 4;
  w.iter_compute_time = compute;
  return w;
}

ClusterConfig dssp_config(int workers = 4) {
  ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.method = SyncMethod::kDSSP;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;  // fail fast if the gate wedges
  return cfg;
}

/// Invariant-13 audits plus exactly-once convergence for the listed
/// workers: no gate release ever outran the true min-clock floor, no audit
/// tick found the fleet wedged, and every slice applied each round once.
void expect_dssp_clean(const Cluster& cluster, const RunResult& result,
                       int layers, std::int64_t iterations,
                       const std::vector<int>& live_workers) {
  EXPECT_EQ(counter(result, "dssp.staleness_violations"), 0);
  EXPECT_EQ(counter(result, "dssp.gate_wedge_ticks"), 0);
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w : live_workers) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-free plane: DSSP arms the membership plane on its own, completes,
// and the audits are clean.
// ---------------------------------------------------------------------------

TEST(Dssp, FaultFreeRunCompletesWithCleanAudits) {
  ClusterConfig cfg = dssp_config();
  Cluster cluster(small_workload(), cfg);
  EXPECT_TRUE(cluster.dssp_armed());
  EXPECT_TRUE(cluster.membership_armed());  // gate liveness needs views
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2, 3});
  EXPECT_GT(counter(result, "recovery.heartbeats_sent"), 0);
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

TEST(Dssp, OtherMethodsStayDisarmed) {
  ClusterConfig cfg = dssp_config();
  cfg.method = SyncMethod::kP3;
  cfg.replication = 1;
  cfg.staleness.s_max = 7;  // ignored by non-DSSP methods
  Cluster cluster(small_workload(), cfg);
  EXPECT_FALSE(cluster.dssp_armed());
  const auto result = cluster.run(1, 3);
  cluster.drain();
  EXPECT_EQ(counter(result, "dssp.gate_blocks"), 0);
  EXPECT_EQ(counter(result, "dssp.staleness_violations"), 0);
  EXPECT_EQ(counter(result, "dssp.gate_wedge_ticks"), 0);
  EXPECT_EQ(result.metrics.at<obs::Gauge>("dssp.final_bound").value(), 0);
}

// ---------------------------------------------------------------------------
// Straggler plane: a degraded-but-live worker lags its clock (its
// heartbeats still flow, so it stays in the eligible set and holds the
// floor), fast workers run ahead until the gate blocks them at the bound,
// and nothing is lost. A NIC *freeze* long enough to trip suspicion is the
// dead-straggler plane instead — that one must NOT hold the floor (see
// DeadStragglerNeverWedgesFleet).
// ---------------------------------------------------------------------------

TEST(Dssp, StragglerBlocksGateWithinBound) {
  ClusterConfig cfg = dssp_config();
  cfg.staleness.fixed_s = 1;  // tight static bound: the gate must engage
  net::Degradation deg;       // slow enough to lag, alive enough to count
  deg.node = 3;
  deg.start = 0.0;
  deg.end = 10.0;
  deg.bandwidth_factor = 0.15;
  deg.extra_latency = us(200);
  cfg.faults.degradations.push_back(deg);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2, 3});
  // The crawling straggler forced fast workers onto the gate at least once.
  EXPECT_GT(counter(result, "dssp.gate_blocks"), 0);
  EXPECT_GT(result.metrics.at<obs::Histogram>("dssp.gate_wait_s").mean(), 0.0);
  const obs::Gauge& bound = result.metrics.at<obs::Gauge>("dssp.final_bound");
  EXPECT_EQ(bound.value(), 1);  // pinned
  EXPECT_EQ(counter(result, "dssp.raises"), 0);
}

TEST(Dssp, AdaptiveControllerRaisesBoundUnderStragglers) {
  ClusterConfig cfg = dssp_config();
  cfg.staleness.s_min = 0;
  cfg.staleness.s_max = 3;
  cfg.staleness.window = 4;
  cfg.compute_jitter = 0.3;
  net::Degradation deg;  // persistent live straggler: blocked windows pile up
  deg.node = 3;
  deg.start = 0.0;
  deg.end = 10.0;
  deg.bandwidth_factor = 0.15;
  deg.extra_latency = us(200);
  cfg.faults.degradations.push_back(deg);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 10;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2, 3});
  // Blocked windows must have widened the bound at least once, and the
  // time-weighted mean records the cost.
  EXPECT_GT(counter(result, "dssp.raises"), 0);
  EXPECT_GT(result.metrics.at<obs::Gauge>("dssp.mean_bound").value(), 0.0);
  const obs::Gauge& bound = result.metrics.at<obs::Gauge>("dssp.final_bound");
  EXPECT_LE(bound.value(), cfg.staleness.s_max);
  EXPECT_GE(bound.value(), cfg.staleness.s_min);
}

// ---------------------------------------------------------------------------
// Crash plane: a permanently dead straggler leaves the eligible set once
// suspicion fires — the fleet must keep moving (invariant 13), and a
// crash+restart worker rejoins at the slack floor without tripping the
// violation audit.
// ---------------------------------------------------------------------------

TEST(Dssp, DeadStragglerNeverWedgesFleet) {
  ClusterConfig cfg = dssp_config();
  net::NodeCrash crash;
  crash.node = 3;  // colocated worker+server, never returns
  crash.at = 0.05;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "recovery.crashes"), 1);
  EXPECT_GE(counter(result, "recovery.failovers"), 1);
  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2});
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(Dssp, CrashedWorkerRejoinsAtSlackFloor) {
  ClusterConfig cfg = dssp_config();
  cfg.dedicated_servers = true;
  cfg.replication = 1;
  net::NodeCrash crash;
  crash.node = 2;
  crash.at = 0.05;
  crash.restart_after = 0.04;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "recovery.worker_rejoins"), 1);
  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Partition plane: a minority-fenced straggler is excluded from the
// min-clock while cut off; on heal its parked contributions drain and the
// audits stay clean.
// ---------------------------------------------------------------------------

TEST(Dssp, MinorityFencedStragglerExcludedUntilHeal) {
  ClusterConfig cfg = dssp_config(5);  // odd: {0,1} strict minority
  cfg.faults.lease_duration = 0.1;
  net::NetPartition cut;
  cut.side_a = {0, 1};
  cut.side_b = {2, 3, 4};
  cut.start = 0.05;
  cut.heal = 0.4;
  cfg.faults.partitions.push_back(cut);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  expect_dssp_clean(cluster, result, 4, iterations, {0, 1, 2, 3, 4});
  EXPECT_EQ(counter(result, "net.cross_partition_deliveries"), 0);
  EXPECT_EQ(counter(result, "membership.dual_primary_windows"), 0);
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Elastic plane: a joiner enters the clock roster mid-run, a draining node
// hands its clock off with the goodbye handshake, and neither admission
// nor retirement wedges the gate.
// ---------------------------------------------------------------------------

TEST(Dssp, JoinAndDrainKeepGateLive) {
  ClusterConfig cfg = dssp_config();
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.leaves.push_back({1, 0.15});

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(counter(result, "membership.joins"), 1);
  EXPECT_GE(counter(result, "scale.drains_completed"), 1);
  EXPECT_EQ(counter(result, "dssp.staleness_violations"), 0);
  EXPECT_EQ(counter(result, "dssp.gate_wedge_ticks"), 0);
  // The retired node's clock left the roster; survivors and the joiner
  // all reached the target.
  for (int w : {0, 2, 3, 4}) {
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Determinism: DSSP chaos points are bit-identical whether the sweep runs
// on 1, 2 or 4 runner threads.
// ---------------------------------------------------------------------------

TEST(Dssp, ChaosSweepBitIdenticalAcrossRunnerThreads) {
  enum class Plane { kStraggler, kCrash, kElastic };
  const auto run_point = [](Plane plane, int fixed_s) {
    ClusterConfig cfg = dssp_config();
    cfg.staleness.fixed_s = fixed_s;
    cfg.compute_jitter = 0.2;
    switch (plane) {
      case Plane::kStraggler: {
        net::NodePause pause;
        pause.node = 2;
        pause.start = 0.04;
        pause.duration = 0.2;
        cfg.faults.pauses.push_back(pause);
        break;
      }
      case Plane::kCrash: {
        net::NodeCrash crash;
        crash.node = 3;
        crash.at = 0.05;
        crash.restart_after = 0.04;
        cfg.faults.crashes.push_back(crash);
        break;
      }
      case Plane::kElastic:
        cfg.faults.joins.push_back({4, 0.05});
        break;
    }
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 5);
    cluster.drain();
    return r;
  };
  const std::vector<std::pair<Plane, int>> grid = {
      {Plane::kStraggler, -1},
      {Plane::kStraggler, 2},
      {Plane::kCrash, -1},
      {Plane::kElastic, 1},
  };
  std::vector<std::vector<RunResult>> by_threads;
  for (const int threads : {1, 2, 4}) {
    runner::ParallelExecutor pool(threads);
    std::vector<std::function<RunResult()>> jobs;
    for (const auto& [plane, s] : grid) {
      jobs.push_back([=] { return run_point(plane, s); });
    }
    by_threads.push_back(pool.map(std::move(jobs)));
  }
  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const RunResult& a = by_threads[0][i];
      const RunResult& b = by_threads[t][i];
      EXPECT_EQ(a.throughput, b.throughput) << "point " << i;
      EXPECT_EQ(a.total_time, b.total_time) << "point " << i;
      EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "point " << i;
      obs::expect_same_metrics(a.metrics, b.metrics,
                               "point " + std::to_string(i));
      EXPECT_EQ(counter(a, "dssp.staleness_violations"), 0) << "point " << i;
      EXPECT_EQ(counter(a, "dssp.gate_wedge_ticks"), 0) << "point " << i;
    }
  }
}

}  // namespace
}  // namespace p3::ps
