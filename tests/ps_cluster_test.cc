// Integration tests for the parameter-server cluster engine: protocol
// correctness invariants across every synchronization method, plus the
// qualitative performance relationships the paper's design arguments rely
// on. Property-style sweeps use TEST_P over (method, workers, bandwidth).
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "model/zoo.h"
#include "trace/timeline.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

model::Workload small_workload(int layers = 4, std::int64_t params = 120'000,
                               TimeS compute = 0.010) {
  model::Workload w;
  w.model = model::toy_uniform(layers, params);
  w.batch_per_worker = 4;
  w.iter_compute_time = compute;
  return w;
}

ClusterConfig small_config(SyncMethod method, int workers = 4,
                           double bandwidth_gbps = 1.0) {
  ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.method = method;
  cfg.bandwidth = gbps(bandwidth_gbps);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

// ---------------------------------------------------------------------------
// Protocol correctness invariants, swept over all methods x cluster sizes.
// ---------------------------------------------------------------------------

class ProtocolInvariants
    : public ::testing::TestWithParam<std::tuple<SyncMethod, int>> {};

TEST_P(ProtocolInvariants, EverySliceCompletesEveryRound) {
  const auto [method, workers] = GetParam();
  Cluster cluster(small_workload(), small_config(method, workers));
  const int iterations = 5;
  const auto result = cluster.run(2, iterations - 2);
  cluster.drain();

  // After draining, every slice must have completed exactly `iterations`
  // aggregation rounds (gradients from every worker aggregated once per
  // iteration, never lost, never double-counted).
  const auto& part = cluster.partition();
  for (std::int64_t s = 0; s < part.num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  EXPECT_EQ(cluster.rounds_completed(), part.num_slices() * iterations);
  EXPECT_GT(result.throughput, 0.0);
}

TEST_P(ProtocolInvariants, EveryWorkerReceivesEveryLayerEveryRound) {
  const auto [method, workers] = GetParam();
  Cluster cluster(small_workload(), small_config(method, workers));
  const int iterations = 4;
  cluster.run(0, iterations);
  cluster.drain();
  for (int w = 0; w < workers; ++w) {
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

TEST_P(ProtocolInvariants, PushCountMatchesProtocol) {
  const auto [method, workers] = GetParam();
  Cluster cluster(small_workload(), small_config(method, workers));
  const int iterations = 3;
  cluster.run(0, iterations);
  cluster.drain();
  const auto& part = cluster.partition();
  // Fragments: slice payloads here (<=50k params = 200KB) are below the 4MB
  // fragment size, so pushes = slices * workers * iterations.
  EXPECT_EQ(cluster.pushes_sent(), part.num_slices() * workers * iterations);
}

TEST_P(ProtocolInvariants, AllTrafficDelivered) {
  const auto [method, workers] = GetParam();
  Cluster cluster(small_workload(), small_config(method, workers));
  cluster.run(0, 3);
  cluster.drain();
  EXPECT_EQ(cluster.network().messages_posted(),
            cluster.network().messages_delivered());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByWorkers, ProtocolInvariants,
    ::testing::Combine(::testing::ValuesIn(kAllMethods),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return core::sync_method_name(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Per-method protocol message accounting.
// ---------------------------------------------------------------------------

TEST(ClusterProtocol, BaselineUsesNotifyAndPull) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kBaseline));
  cluster.run(0, 2);
  cluster.drain();
  EXPECT_GT(cluster.notifies_sent(), 0);
  EXPECT_GT(cluster.pulls_sent(), 0);
  // One notify per slice round per worker; one pull per slice round per
  // worker (issued after the whole layer is notified).
  const auto expected = cluster.partition().num_slices() * 4 * 2;
  EXPECT_EQ(cluster.notifies_sent(), expected);
  EXPECT_EQ(cluster.pulls_sent(), expected);
}

TEST(ClusterProtocol, NotifyPullWaitsForWholeLayer) {
  // Section 4.2: an MXNet worker pulls a layer only after every slice of it
  // was notified complete. A threshold below the layer size splits each
  // layer across all 4 servers, so the notifies of one layer arrive at
  // different times and an early pull would show up in the lifecycle.
  for (const SyncMethod method :
       {SyncMethod::kBaseline, SyncMethod::kPoseidonWFBP}) {
    SCOPED_TRACE(core::sync_method_name(method));
    ClusterConfig cfg = small_config(method);
    cfg.kvstore_threshold = 100'000;
    Cluster cluster(small_workload(), cfg);
    obs::Tracer tracer;
    cluster.attach_tracer(&tracer);
    const int iterations = 3;
    cluster.run(0, iterations);
    cluster.drain();
    const auto& part = cluster.partition();
    const auto servers = static_cast<std::size_t>(cfg.n_workers);
    for (const auto& slices : part.layer_slices) {
      ASSERT_EQ(slices.size(), servers);
    }

    struct LayerRound {
      TimeS last_notify = -std::numeric_limits<TimeS>::infinity();
      TimeS first_pull = std::numeric_limits<TimeS>::infinity();
      std::set<std::int32_t> notified;    ///< slices notified complete
      std::map<std::int32_t, int> pulls;  ///< pull count per slice
    };
    std::map<std::tuple<int, std::int32_t, std::int64_t>, LayerRound> rounds;
    for (const obs::LifecycleRecord& r : tracer.lifecycle_records()) {
      if (r.stage != obs::Stage::kNotify && r.stage != obs::Stage::kPull) {
        continue;
      }
      auto& lr = rounds[{r.worker, r.layer, r.iteration}];
      if (r.stage == obs::Stage::kNotify) {
        lr.last_notify = std::max(lr.last_notify, r.t);
        lr.notified.insert(r.slice);
      } else {
        lr.first_pull = std::min(lr.first_pull, r.t);
        ++lr.pulls[r.slice];
      }
    }
    ASSERT_EQ(rounds.size(), static_cast<std::size_t>(cfg.n_workers) *
                                 part.layer_slices.size() * iterations);
    for (const auto& [key, lr] : rounds) {
      const auto [w, layer, it] = key;
      SCOPED_TRACE("worker " + std::to_string(w) + " layer " +
                   std::to_string(layer) + " iteration " + std::to_string(it));
      EXPECT_EQ(lr.notified.size(), servers);
      EXPECT_GE(lr.first_pull, lr.last_notify);
      ASSERT_EQ(lr.pulls.size(), servers);
      for (const auto& [slice, n] : lr.pulls) EXPECT_EQ(n, 1) << slice;
    }
  }
}

TEST(ClusterProtocol, P3HasNoNotifyOrPull) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kP3));
  cluster.run(0, 2);
  cluster.drain();
  EXPECT_EQ(cluster.notifies_sent(), 0);
  EXPECT_EQ(cluster.pulls_sent(), 0);
  EXPECT_GT(cluster.params_sent(), 0);
}

TEST(ClusterProtocol, TensorFlowStyleHasPullsButNoNotify) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kTensorFlowStyle));
  cluster.run(0, 2);
  cluster.drain();
  EXPECT_EQ(cluster.notifies_sent(), 0);
  EXPECT_GT(cluster.pulls_sent(), 0);
}

TEST(ClusterProtocol, ParamsBytesConserved) {
  // Every worker receives exactly the model's bytes once per iteration.
  Cluster cluster(small_workload(), small_config(SyncMethod::kP3));
  const int iterations = 3;
  cluster.run(0, iterations);
  cluster.drain();
  const auto& part = cluster.partition();
  EXPECT_EQ(cluster.params_sent(), part.num_slices() * 4 * iterations);
}

TEST(ClusterProtocol, LargeLayerFragmentsOnWire) {
  // A 4M-parameter layer (16MB) under baseline -> 4 shards of 4MB on a
  // 4-server cluster; with 1MB fragments each shard becomes 4 messages.
  model::Workload w = small_workload(1, 4'000'000, 0.010);
  ClusterConfig cfg = small_config(SyncMethod::kBaseline);
  cfg.fragment_bytes = mib(1);
  Cluster cluster(w, cfg);
  cluster.run(0, 1);
  cluster.drain();
  // 4 shards/layer * ceil(4MB/1MB)=16 fragments per worker per iteration.
  EXPECT_EQ(cluster.pushes_sent(), 4 * 16);
}

TEST(ClusterProtocol, DeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cluster(small_workload(), small_config(SyncMethod::kP3));
    return cluster.run(1, 4).throughput;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(ClusterProtocol, InvalidConfigsThrow) {
  EXPECT_THROW(Cluster(small_workload(), small_config(SyncMethod::kP3, 0)),
               std::invalid_argument);
  ClusterConfig bad_frag = small_config(SyncMethod::kP3);
  bad_frag.fragment_bytes = 0;
  EXPECT_THROW(Cluster(small_workload(), bad_frag), std::invalid_argument);
  ClusterConfig bad_rate = small_config(SyncMethod::kP3);
  bad_rate.update_bytes_per_sec = 0;
  EXPECT_THROW(Cluster(small_workload(), bad_rate), std::invalid_argument);
}

TEST(ClusterProtocol, RunIsSingleUse) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kP3));
  cluster.run(0, 1);
  EXPECT_THROW(cluster.run(0, 1), std::logic_error);
}

TEST(ClusterProtocol, ComputeOverrideRequiresMatchingSizes) {
  ClusterConfig cfg = small_config(SyncMethod::kP3);
  cfg.fwd_times = {0.1};  // model has 4 layers
  cfg.bwd_times = {0.1};
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Qualitative performance relationships (the paper's design arguments).
// ---------------------------------------------------------------------------

TEST(ClusterPerformance, ComputeBoundWhenBandwidthAmple) {
  // At very high bandwidth every method should approach the compute bound.
  for (SyncMethod method : kAllMethods) {
    Cluster cluster(small_workload(), small_config(method, 4, 100.0));
    const auto result = cluster.run(2, 6);
    const double ideal = 4.0 * 4 / 0.010;  // workers * batch / compute
    EXPECT_GT(result.throughput, 0.85 * ideal)
        << core::sync_method_name(method);
    EXPECT_LE(result.throughput, 1.01 * ideal)
        << core::sync_method_name(method);
  }
}

TEST(ClusterPerformance, P3BeatsBaselineUnderConstrainedBandwidth) {
  // Heavy final layer (image-classification shape), tight bandwidth.
  model::Workload w;
  w.model = model::toy_custom({50'000, 100'000, 200'000, 3'000'000});
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  const double bw = 1.0;
  Cluster base(w, small_config(SyncMethod::kBaseline, 4, bw));
  Cluster p3(w, small_config(SyncMethod::kP3, 4, bw));
  const double t_base = base.run(2, 8).throughput;
  const double t_p3 = p3.run(2, 8).throughput;
  EXPECT_GT(t_p3, t_base * 1.05);
}

TEST(ClusterPerformance, ThroughputMonotonicInBandwidth) {
  model::Workload w = small_workload(4, 500'000, 0.020);
  double prev = 0.0;
  for (double bw : {0.5, 1.0, 2.0, 8.0}) {
    Cluster cluster(w, small_config(SyncMethod::kP3, 4, bw));
    const double t = cluster.run(2, 6).throughput;
    EXPECT_GE(t, prev * 0.999) << "bandwidth " << bw;
    prev = t;
  }
}

TEST(ClusterPerformance, JitterSlowsSynchronousTraining) {
  model::Workload w = small_workload();
  ClusterConfig cfg = small_config(SyncMethod::kP3, 4, 10.0);
  Cluster steady(w, cfg);
  cfg.compute_jitter = 0.3;
  Cluster jittery(w, cfg);
  // Synchronous SGD pays the max over workers: jitter strictly hurts.
  EXPECT_GT(steady.run(2, 10).throughput, jittery.run(2, 10).throughput);
}

TEST(ClusterPerformance, SingleWorkerUsesLoopbackOnly) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kP3, 1, 0.001));
  const auto result = cluster.run(1, 4);
  // Even at 1 Mbps NIC rate a single colocated worker/server pair is
  // unaffected: all traffic is loopback.
  const double ideal = 1.0 * 4 / 0.010;
  EXPECT_GT(result.throughput, 0.8 * ideal);
}

TEST(ClusterTimeline, RecordsComputeAndServerLanes) {
  model::Workload w = small_workload(2, 50'000, 0.004);
  Cluster cluster(w, small_config(SyncMethod::kP3, 2, 10.0));
  trace::Timeline tl;
  cluster.attach_tracer(&tl.tracer());
  cluster.run(0, 2);
  cluster.drain();
  EXPECT_FALSE(tl.lane_spans("w0.cmp").empty());
  EXPECT_FALSE(tl.lane_spans("n0.srv").empty());
  EXPECT_FALSE(tl.lane_spans("n0.tx").empty());
}

}  // namespace
}  // namespace p3::ps
