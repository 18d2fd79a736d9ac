// End-to-end slice-lifecycle invariants: every sync method, fault-free,
// delivers each (worker, slice, iteration) exactly one param-ready and obeys
// the stage order; crash/failover runs may lose in-flight round trips but
// must never regress a stage or deliver a slice twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "model/zoo.h"
#include "obs/analysis.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

model::Workload small_workload() {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

ClusterConfig base_config(SyncMethod method, int workers = 3) {
  ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.max_sim_time = 60.0;
  return cfg;
}

using Key = std::tuple<int, std::int32_t, std::int64_t>;

std::map<Key, int> param_ready_counts(
    const std::vector<obs::LifecycleRecord>& records) {
  std::map<Key, int> counts;
  for (const auto& r : records) {
    if (r.stage == obs::Stage::kParamReady) {
      ++counts[Key{r.worker, r.slice, r.iteration}];
    }
  }
  return counts;
}

class LifecycleAllMethods : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(LifecycleAllMethods, ParamReadyExactlyOncePerIteration) {
  const ClusterConfig cfg = base_config(GetParam());
  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  const int warmup = 1, measured = 3;
  cluster.run(warmup, measured);

  EXPECT_TRUE(tracer.validate().empty());

  const auto& records = tracer.lifecycle_records();
  ASSERT_FALSE(records.empty());
  // Fault-free runs satisfy the full ordering, notify <= pull included.
  EXPECT_TRUE(obs::lifecycle_violations(records, /*strict=*/true).empty());

  const auto counts = param_ready_counts(records);
  const auto slices = cluster.partition().num_slices();
  const std::int64_t iterations = warmup + measured;
  // The run stops once every worker finishes its compute loop, so the final
  // iteration's parameter returns can still be in flight: exactly once for
  // every iteration a later forward pass gates on, at most once for the last.
  for (int w = 0; w < cfg.n_workers; ++w) {
    for (std::int32_t s = 0; s < slices; ++s) {
      for (std::int64_t i = 0; i + 1 < iterations; ++i) {
        const auto it = counts.find(Key{w, s, i});
        ASSERT_NE(it, counts.end())
            << "no param-ready for worker " << w << " slice " << s << " iter "
            << i;
        EXPECT_EQ(it->second, 1)
            << "worker " << w << " slice " << s << " iter " << i;
      }
    }
  }
  for (const auto& [key, count] : counts) {
    EXPECT_EQ(count, 1) << "duplicate param-ready for worker "
                        << std::get<0>(key) << " slice " << std::get<1>(key)
                        << " iter " << std::get<2>(key);
    EXPECT_LT(std::get<2>(key), iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, LifecycleAllMethods,
                         ::testing::ValuesIn(kAllMethods));

class LifecycleCrash : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(LifecycleCrash, NoStageRegressionOrDoubleDeliveryUnderFailover) {
  ClusterConfig cfg = base_config(GetParam(), /*workers=*/4);
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  net::NodeCrash crash;
  crash.node = 3;  // permanent: kills worker 3 and server 3
  crash.at = 0.05;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(1, 3);

  EXPECT_TRUE(tracer.validate().empty());

  const auto& records = tracer.lifecycle_records();
  ASSERT_FALSE(records.empty());
  // Recovery re-notifications can attribute notify to a later round, so the
  // strict notify<=pull ordering is waived; the core chain must still hold.
  EXPECT_TRUE(obs::lifecycle_violations(records, /*strict=*/false).empty());

  // Exactly-once delivery: failover may drop round trips, never duplicate.
  for (const auto& [key, count] : param_ready_counts(records)) {
    EXPECT_EQ(count, 1) << "worker " << std::get<0>(key) << " slice "
                        << std::get<1>(key) << " iter " << std::get<2>(key);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, LifecycleCrash,
                         ::testing::ValuesIn(kAllMethods));

// The forward gate of layer l opens only once *every* slice of the layer
// holds the previous iteration's parameters: F{l+1} of iteration i never
// starts before the last slice of layer l is param-ready at iteration i-1.
// Layers hold tens of slices, and a worker crash+restart plus the failover
// of its server's groups drive the gate through the recovery paths.
TEST(ForwardGate, WaitsForEverySliceOfTheLayerUnderRecovery) {
  ClusterConfig cfg = base_config(SyncMethod::kP3, /*workers=*/4);
  cfg.slice_params = 5'000;  // 24 slices per 120k-param layer
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  net::NodeCrash crash;
  crash.node = 1;  // worker 1 + server 1, back after 40 ms
  crash.at = 0.05;
  crash.restart_after = 0.04;
  cfg.faults.crashes.push_back(crash);

  const int warmup = 1;
  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  const auto result = cluster.run(warmup, 9);
  ASSERT_EQ(counter(result, "recovery.restarts"), 1);
  ASSERT_EQ(counter(result, "recovery.worker_rejoins"), 1);
  ASSERT_GE(counter(result, "recovery.failovers"), 1);

  const auto& part = cluster.partition();
  const int layers = static_cast<int>(part.layer_slices.size());
  ASSERT_GE(part.layer_slices[0].size(), 20u);
  // A process incarnation starts at time 0 or at its node's crash; gate
  // evidence from an earlier incarnation does not carry over.
  const auto incarnation = [&](int w, TimeS t) {
    return w == crash.node && t >= crash.at ? 1 : 0;
  };

  // Latest param-ready per (worker, incarnation, layer, iteration), and the
  // iteration each grad-ready timestamp belongs to.
  std::map<std::tuple<int, int, int, std::int64_t>, TimeS> ready;
  std::map<int, std::vector<std::pair<TimeS, std::int64_t>>> grads;
  for (const auto& r : tracer.lifecycle_records()) {
    if (r.stage == obs::Stage::kParamReady) {
      auto& t = ready[{r.worker, incarnation(r.worker, r.t), r.layer,
                       r.iteration}];
      t = std::max(t, r.t);
    } else if (r.stage == obs::Stage::kGradReady) {
      grads[r.worker].emplace_back(r.t, r.iteration);
    }
  }

  int checked = 0;
  for (int w = 0; w < cfg.n_workers; ++w) {
    // Forward passes on w's compute lane: F1 opens a pass, and the pass's
    // iteration is the one its backward pass reports grad-ready for (a pass
    // cut short by the crash has none and is skipped).
    const std::string lane = "w" + std::to_string(w) + ".cmp";
    std::vector<std::vector<const obs::Event*>> passes;
    for (const auto& e : tracer.events()) {
      if (e.kind != obs::EventKind::kSpan ||
          tracer.track_name(e.track) != lane) {
        continue;
      }
      if (tracer.label_text(e.label) == "F1") passes.emplace_back();
      if (!passes.empty()) passes.back().push_back(&e);
    }
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const TimeS from = passes[p].front()->t0;
      const TimeS to = p + 1 < passes.size()
                           ? passes[p + 1].front()->t0
                           : std::numeric_limits<TimeS>::infinity();
      std::int64_t iter = -1;
      for (const auto& [t, i] : grads[w]) {
        if (t >= from && t < to) {
          iter = i;
          break;
        }
      }
      if (iter < warmup) continue;
      for (const obs::Event* e : passes[p]) {
        const std::string& label = tracer.label_text(e->label);
        if (label[0] != 'F') continue;
        const int l = std::stoi(label.substr(1)) - 1;
        if (part.layer_slices[static_cast<std::size_t>(l)].empty()) continue;
        const auto it =
            ready.find({w, incarnation(w, e->t0), l, iter - 1});
        if (it == ready.end()) continue;
        EXPECT_GE(e->t0, it->second)
            << "worker " << w << " iteration " << iter << " F" << l + 1;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, cfg.n_workers * layers * 5);
}

}  // namespace
}  // namespace p3::ps
