// Partition tolerance end to end: a fabric cut must never open a
// dual-primary window or deliver a message across an active cut, for any
// cut shape (symmetric, asymmetric, flapping) — quorum gates minority-side
// failover, beacon echoes fence a primary the majority stopped hearing,
// minority workers park pushes and drain them exactly-once on heal, and
// the whole plane stays bit-reproducible with drifting node clocks.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "model/zoo.h"
#include "runner/parallel.h"

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

ClusterConfig partition_config(SyncMethod method) {
  ClusterConfig cfg;
  cfg.n_workers = 5;  // odd: {0, 1} is a strict minority against {2, 3, 4}
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.faults.lease_duration = 0.1;
  cfg.max_sim_time = 60.0;  // fail fast if the heal path wedges
  return cfg;
}

/// The canonical drill: nodes {0, 1} cleaved from the {2, 3, 4} majority.
net::NetPartition minority_cut(TimeS start, TimeS heal) {
  net::NetPartition p;
  p.side_a = {0, 1};
  p.side_b = {2, 3, 4};
  p.start = start;
  p.heal = heal;
  return p;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

/// Exactly-once check over the healed cluster: every slice's version equals
/// the iteration count (a double-applied parked or re-pushed slice would
/// overshoot the contribution ledger's per-round cap), and every worker saw
/// every layer.
void expect_converged(const Cluster& cluster, int layers,
                      std::int64_t iterations, int workers) {
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w = 0; w < workers; ++w) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole acceptance, symmetric cut, every sync method: the minority side
// is quorum-gated (it wants to fail over the majority's groups and must be
// denied), nothing crosses the active cut, no dual-primary window opens,
// and the healed cluster converges exactly-once with all views agreeing on
// leadership.
// ---------------------------------------------------------------------------

class SymmetricPartition : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(SymmetricPartition, QuorumGatesMinorityAndHealConvergesExactlyOnce) {
  ClusterConfig cfg = partition_config(GetParam());
  cfg.faults.partitions.push_back(minority_cut(0.05, 0.4));

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.partition_plane_armed());
  EXPECT_FALSE(cluster.clock_drift_armed());
  // The cut did real damage...
  EXPECT_GT(counter(result, "net.partition_drops"), 0);
  // ...the minority wanted to elect successors for the majority's groups
  // (their leases all expired in its view) and was denied for lack of
  // quorum...
  EXPECT_GE(counter(result, "partition.quorum_denied_failovers"), 1);
  // ...minority workers parked pushes toward view-dead majority servers...
  EXPECT_GT(counter(result, "partition.parked_pushes"), 0);
  // ...and the two safety ground truths held throughout.
  EXPECT_EQ(counter(result, "membership.dual_primary_windows"), 0);
  EXPECT_EQ(counter(result, "net.cross_partition_deliveries"), 0);

  // After heal every observer agrees on one primary per group.
  for (int g = 0; g < 5; ++g) {
    const int lead = cluster.leadership_view(0).primary(g);
    for (int n = 1; n < 5; ++n) {
      EXPECT_EQ(cluster.leadership_view(n).primary(g), lead)
          << "group " << g << " observer " << n;
    }
  }
  expect_converged(cluster, 4, iterations, 5);
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SymmetricPartition,
                         ::testing::ValuesIn(kAllMethods));

// ---------------------------------------------------------------------------
// Asymmetric cut: the minority can hear everyone (so its view stays whole
// and quorate), but the majority stops hearing the minority. Only the
// beacon echo — the majority's liveness belief about the minority, carried
// in the beacons the minority still receives — can tell a straddling
// minority primary to fence. It must fence before the majority-side lease
// (plus margin) runs out, so the failover never overlaps.
// ---------------------------------------------------------------------------

TEST(AsymmetricPartition, EchoFencesTheStraddlingPrimaryBeforeFailover) {
  ClusterConfig cfg = partition_config(SyncMethod::kP3);
  net::NetPartition p = minority_cut(0.05, 0.4);
  p.symmetric = false;  // only minority -> majority traffic is severed
  cfg.faults.partitions.push_back(p);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  // The minority-led straddling group self-fenced on negative echoes...
  EXPECT_GE(counter(result, "membership.lease_expiries"), 1);
  // ...and the majority elected its backup after the lease ran out.
  EXPECT_GE(counter(result, "recovery.failovers"), 1);
  EXPECT_EQ(counter(result, "membership.dual_primary_windows"), 0);
  EXPECT_EQ(counter(result, "net.cross_partition_deliveries"), 0);
  expect_converged(cluster, 4, iterations, 5);
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Flapping cut: every off-window renews the leases the on-window starved,
// so leadership never actually moves — all churn, no failover, and the
// safety invariants hold through every oscillation.
// ---------------------------------------------------------------------------

TEST(FlappingPartition, ChurnsWithoutFailoverOrDualWindows) {
  ClusterConfig cfg = partition_config(SyncMethod::kP3);
  net::NetPartition p = minority_cut(0.05, 0.45);
  p.flap_period = 0.1;  // 50 ms cut / 50 ms calm, four times over
  cfg.faults.partitions.push_back(p);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_GT(counter(result, "net.partition_drops"), 0);
  // A 50 ms gap never exhausts a 100 ms lease: no successor may act.
  EXPECT_EQ(counter(result, "recovery.failovers"), 0);
  EXPECT_EQ(counter(result, "membership.dual_primary_windows"), 0);
  EXPECT_EQ(counter(result, "net.cross_partition_deliveries"), 0);
  expect_converged(cluster, 4, iterations, 5);
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Clock drift: the same partitioned run with every node on its own drifting
// clock must stay safe (margins absorb the disagreement) and bit-identical
// — rerun to rerun, and across runner thread counts.
// ---------------------------------------------------------------------------

TEST(ClockDrift, PartitionedRunStaysSafeAndBitIdenticalUnderSkew) {
  const auto run_once = [] {
    ClusterConfig cfg = partition_config(SyncMethod::kP3);
    cfg.faults.partitions.push_back(minority_cut(0.05, 0.4));
    cfg.faults.clock_drift_rate = 1e-3;
    cfg.faults.clock_offset_bound = 0.01;
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 5);
    cluster.drain();
    EXPECT_TRUE(cluster.clock_drift_armed());
    return r;
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(counter(a, "membership.dual_primary_windows"), 0);
  EXPECT_EQ(counter(a, "net.cross_partition_deliveries"), 0);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  for (const char* m : {"net.partition_drops", "partition.parked_pushes",
                        "partition.quorum_denied_failovers",
                        "membership.lease_expiries", "recovery.failovers"}) {
    EXPECT_EQ(counter(a, m), counter(b, m)) << m;
  }
}

TEST(ClockDrift, PartitionSweepBitIdenticalAcrossRunnerThreads) {
  struct Point {
    SyncMethod method;
    bool skew;
    bool flap;
  };
  const std::vector<Point> grid = {
      {SyncMethod::kP3, true, false},
      {SyncMethod::kBaseline, true, true},
      {SyncMethod::kTensorFlowStyle, false, false},
  };
  const auto run_point = [](const Point& p) {
    ClusterConfig cfg = partition_config(p.method);
    net::NetPartition cut = minority_cut(0.05, 0.4);
    if (p.flap) cut.flap_period = 0.1;
    cfg.faults.partitions.push_back(cut);
    if (p.skew) {
      cfg.faults.clock_drift_rate = 1e-3;
      cfg.faults.clock_offset_bound = 0.01;
    }
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 4);
    cluster.drain();
    return r;
  };
  std::vector<std::vector<RunResult>> by_threads;
  for (const int threads : {1, 2, 4}) {
    runner::ParallelExecutor pool(threads);
    std::vector<std::function<RunResult()>> jobs;
    for (const auto& p : grid) {
      jobs.push_back([=] { return run_point(p); });
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
      for (const char* m : {"net.partition_drops", "partition.parked_pushes",
                            "partition.quorum_denied_failovers",
                            "membership.lease_expiries", "recovery.failovers",
                            "membership.dual_primary_windows"}) {
        EXPECT_EQ(counter(a, m), counter(b, m)) << "point " << i << " " << m;
      }
    }
  }
  // And every cell of the reference execution honored the invariants.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(counter(by_threads[0][i], "membership.dual_primary_windows"), 0)
        << "point " << i;
    EXPECT_EQ(counter(by_threads[0][i], "net.cross_partition_deliveries"), 0)
        << "point " << i;
  }
}

// ---------------------------------------------------------------------------
// Satellite: a NodePause shorter than the skew-adjusted lease margin (the
// lease plus the worst-case cross-clock disagreement a successor waits out)
// never triggers a supersession or failover — the paused primary's lease
// outlives the freeze even on drifting clocks.
// ---------------------------------------------------------------------------

TEST(ClockDrift, PauseShorterThanSkewAdjustedLeaseMarginNeverSupersedes) {
  ClusterConfig cfg = partition_config(SyncMethod::kP3);
  cfg.faults.clock_drift_rate = 1e-3;
  cfg.faults.clock_offset_bound = 0.01;
  // 60 ms freeze: beyond the 25 ms suspicion threshold (so detection and a
  // deferred failover *do* arm) but well inside the 100 ms lease plus the
  // 2 * rate * lease drift margin a successor must wait out.
  cfg.faults.pauses.push_back({1, 0.05, 0.06});

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.clock_drift_armed());
  EXPECT_FALSE(cluster.partition_plane_armed());  // drift is independent
  EXPECT_EQ(counter(result, "recovery.failovers"), 0);
  EXPECT_EQ(counter(result, "membership.supersessions"), 0);
  EXPECT_EQ(counter(result, "membership.dual_primary_windows"), 0);
  expect_converged(cluster, 4, iterations, 5);
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Partition-free plans keep the plane disarmed: no parking, no quorum
// gating, no drift — the pre-partition protocol, bit for bit.
// ---------------------------------------------------------------------------

TEST(PartitionPlane, StaysDisarmedWithoutConfiguredPartitions) {
  ClusterConfig cfg = partition_config(SyncMethod::kP3);
  cfg.faults.drop_prob = 0.01;  // faults, but no cut

  Cluster cluster(small_workload(), cfg);
  const auto result = cluster.run(1, 3);
  cluster.drain();

  EXPECT_FALSE(cluster.partition_plane_armed());
  EXPECT_FALSE(cluster.clock_drift_armed());
  EXPECT_EQ(counter(result, "net.partition_drops"), 0);
  EXPECT_EQ(counter(result, "partition.parked_pushes"), 0);
  EXPECT_EQ(counter(result, "partition.quorum_denied_failovers"), 0);
  EXPECT_EQ(counter(result, "net.cross_partition_deliveries"), 0);
}

}  // namespace
}  // namespace p3::ps
