// ParallelExecutor unit tests plus the golden-determinism suite: every sweep
// must produce bit-identical Series at any thread count, and same-seed fault
// runs must be byte-equal in every RunResult field and registry metric.
// These are the tests the --threads flag's documentation points at.
#include "runner/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "metrics_equal.h"
#include "model/zoo.h"
#include "ps/cluster.h"
#include "runner/experiment.h"

namespace p3::runner {
namespace {

// ---------------------------------------------------------------- executor

TEST(ParallelExecutor, ResultsComeBackInSubmissionOrder) {
  // Give earlier jobs longer sleeps so completion order inverts submission
  // order; map() must undo that.
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
      return i * i;
    });
  }
  ParallelExecutor executor(4);
  const auto results = executor.map(std::move(jobs));
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ParallelExecutor, RunsEveryJobExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([&calls] { return ++calls; });
  }
  ParallelExecutor executor(3);  // far fewer threads than jobs
  const auto results = executor.map(std::move(jobs));
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(results.size(), 64u);
}

TEST(ParallelExecutor, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::function<std::thread::id()>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back([] { return std::this_thread::get_id(); });
  }
  ParallelExecutor executor(1);
  for (const auto& id : executor.map(std::move(jobs))) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ParallelExecutor, PropagatesTheFirstExceptionBySubmissionIndex) {
  std::vector<std::function<int()>> jobs;
  jobs.push_back([] { return 1; });
  jobs.push_back([]() -> int { throw std::runtime_error("job 1 failed"); });
  jobs.push_back([]() -> int { throw std::logic_error("job 2 failed"); });
  ParallelExecutor executor(2);
  try {
    executor.map(std::move(jobs));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 1 failed");  // index 1 beats index 2
  }
}

TEST(ParallelExecutor, ZeroThreadsMeansAutoDetect) {
  ParallelExecutor executor(0);
  std::vector<std::function<int()>> jobs{[] { return 7; }};
  EXPECT_EQ(executor.map(std::move(jobs)).front(), 7);
}

TEST(ParallelExecutor, SurvivesEmptyJobList) {
  ParallelExecutor executor(4);
  EXPECT_TRUE(executor.map(std::vector<std::function<int()>>{}).empty());
}

// ---------------------------------------------------- golden determinism

model::Workload tiny_workload() {
  model::Workload w;
  w.model = model::toy_uniform(3, 100'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.010;
  return w;
}

ps::ClusterConfig tiny_config() {
  ps::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.bandwidth = gbps(2);
  return cfg;
}

MeasureOptions opts_with_threads(int threads) {
  MeasureOptions opts;
  opts.warmup = 1;
  opts.measured = 3;
  opts.threads = threads;
  return opts;
}

void expect_series_bitwise_equal(const std::vector<Series>& a,
                                 const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    // operator== on doubles: any ULP of drift fails, as it should.
    EXPECT_EQ(a[i].x, b[i].x) << "series " << a[i].name;
    EXPECT_EQ(a[i].y, b[i].y) << "series " << a[i].name;
  }
}

TEST(GoldenDeterminism, BandwidthSweepIsBitIdenticalAtAnyThreadCount) {
  const auto workload = tiny_workload();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3};
  const std::vector<double> bandwidths = {0.5, 1, 2, 4};
  const auto serial = bandwidth_sweep(workload, tiny_config(), methods,
                                      bandwidths, opts_with_threads(1));
  for (int threads : {2, 4}) {
    const auto parallel = bandwidth_sweep(
        workload, tiny_config(), methods, bandwidths, opts_with_threads(threads));
    expect_series_bitwise_equal(serial, parallel);
  }
}

TEST(GoldenDeterminism, ScalabilitySweepIsBitIdenticalAtAnyThreadCount) {
  const auto workload = tiny_workload();
  const std::vector<core::SyncMethod> methods = {core::SyncMethod::kBaseline,
                                                 core::SyncMethod::kP3};
  const auto serial = scalability_sweep(workload, tiny_config(), methods,
                                        {2, 4}, opts_with_threads(1));
  const auto parallel = scalability_sweep(workload, tiny_config(), methods,
                                          {2, 4}, opts_with_threads(4));
  expect_series_bitwise_equal(serial, parallel);
}

TEST(GoldenDeterminism, SliceSizeSweepIsBitIdenticalAtAnyThreadCount) {
  const auto workload = tiny_workload();
  const std::vector<std::int64_t> sizes = {10'000, 50'000, 100'000};
  const auto serial =
      slice_size_sweep(workload, tiny_config(), sizes, opts_with_threads(1));
  const auto parallel =
      slice_size_sweep(workload, tiny_config(), sizes, opts_with_threads(3));
  expect_series_bitwise_equal({serial}, {parallel});
}

// Two same-seed lossy runs, one on the main thread and one on a pool
// thread, compared field by field (doubles bitwise via memcmp).
void expect_bitwise(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << ": " << a << " vs " << b;
}

TEST(GoldenDeterminism, SameSeedFaultRunsAreByteIdenticalAcrossThreads) {
  const auto workload = tiny_workload();
  ps::ClusterConfig cfg = tiny_config();
  cfg.method = core::SyncMethod::kP3;
  cfg.faults.drop_prob = 0.01;
  cfg.seed = 1234;

  auto run = [&] {
    ps::Cluster cluster(workload, cfg);
    ps::RunResult r = cluster.run(1, 3);
    cluster.drain();
    return r;
  };

  const ps::RunResult serial = run();
  ParallelExecutor executor(2);
  std::vector<std::function<ps::RunResult()>> jobs{run, run};
  const auto pooled = executor.map(std::move(jobs));

  for (const auto& r : pooled) {
    expect_bitwise(r.throughput, serial.throughput, "throughput");
    expect_bitwise(r.mean_iteration_time, serial.mean_iteration_time,
                   "mean_iteration_time");
    expect_bitwise(r.mean_stall_time, serial.mean_stall_time,
                   "mean_stall_time");
    expect_bitwise(r.total_time, serial.total_time, "total_time");
    EXPECT_EQ(r.iterations_measured, serial.iterations_measured);
    ASSERT_EQ(r.iteration_times.size(), serial.iteration_times.size());
    for (std::size_t i = 0; i < r.iteration_times.size(); ++i) {
      expect_bitwise(r.iteration_times[i], serial.iteration_times[i],
                     "iteration_times[i]");
    }
    EXPECT_EQ(r.wire_bytes, serial.wire_bytes);
    obs::expect_same_metrics(r.metrics, serial.metrics, "pooled run");
  }
  // The fault plan actually did something, or this test proves nothing.
  EXPECT_GT(ps::counter(serial, "net.messages_dropped"), 0);
}

}  // namespace
}  // namespace p3::runner
