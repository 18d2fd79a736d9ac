// Extension: crash-recovery bench — elastic membership under process death.
//
// The paper's cluster assumes every worker and server survives the run; this
// bench measures what the replicated parameter server pays when they do not.
// It sweeps (method x replication factor x number of crashed nodes) on
// ResNet-50 with colocated servers: crashed nodes lose their process state,
// restart after 300 ms, rehydrate server shards from periodic checkpoints
// plus a delta from the surviving chain leader, and rejoin as workers under
// the bounded-staleness window. Reported alongside throughput are the
// recovery counters (failovers, rejoins, rehydrations, checkpoints, stale
// re-push replies) so regressions in the recovery paths are visible, not
// just their cost.
//
// Each sweep point owns a private cluster, so the grid fans across the
// ParallelExecutor; results return in submission order and identical seeds
// reproduce identical CSVs at any --threads value — the zero-crash rows are
// the determinism canary the CI chaos job diffs against checked-in goldens.
//
// Expected shape: replication buys survival, not speed — every completed
// round pays a commit barrier to R-1 backups, so fault-free throughput dips
// as R grows; crashes cost a suspicion timeout plus the re-push of the open
// round, and P3's slicing keeps that re-push small.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"

namespace {

using namespace p3;

struct Point {
  core::SyncMethod method;
  int replication;
  int crashes;
};

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = p.method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  cfg.replication = p.replication;
  cfg.checkpoint_period = 0.5;
  cfg.max_sim_time = 600.0;
  // Staggered restarting crashes: each victim is back 300 ms later, and the
  // second crash waits for the first revenant so no shard group ever loses
  // every replica (which would — correctly — abort the run).
  if (p.crashes >= 1) cfg.faults.crashes.push_back({1, 0.3, 0.3});
  if (p.crashes >= 2) cfg.faults.crashes.push_back({2, 0.9, 0.3});
  return cfg;
}

ps::RunResult run_once(const model::Workload& workload,
                       const ps::ClusterConfig& cfg, int warmup,
                       int measured) {
  ps::Cluster cluster(workload, cfg);
  ps::RunResult result = cluster.run(warmup, measured);
  cluster.drain();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/2,
                           /*default_measured=*/8);
  const int warmup = opts.measure().warmup;
  const int measured = opts.measure().measured;
  const int threads = opts.measure().threads;

  std::printf("== Extension: crash recovery (ResNet-50, 4 workers, "
              "10 Gbps, colocated replicated servers) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {core::SyncMethod::kBaseline,
                                                 core::SyncMethod::kP3};
  const std::vector<int> replications = {2, 3};
  const std::vector<int> crash_counts = {0, 1, 2};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (int r : replications) {
      for (int k : crash_counts) grid.push_back({method, r, k});
    }
  }

  std::vector<std::function<ps::RunResult()>> jobs;
  jobs.reserve(grid.size());
  for (const Point& p : grid) {
    jobs.push_back([&workload, cfg = point_config(p), warmup, measured] {
      return run_once(workload, cfg, warmup, measured);
    });
  }
  runner::ParallelExecutor executor(threads);
  const auto results = executor.map(std::move(jobs));

  // Throughput series: one line per (method, R), crashes on the x axis.
  std::vector<runner::Series> tput;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      for (int r : replications) {
        runner::Series s;
        s.name = core::sync_method_name(method) + " R=" + std::to_string(r);
        for (int k : crash_counts) {
          s.x.push_back(static_cast<double>(k));
          s.y.push_back(results[i++].throughput);
        }
        tput.push_back(std::move(s));
      }
    }
  }
  bench::report_series("throughput under staggered restarting crashes",
                       "crashed nodes", "images/s", tput,
                       "ext_crash_recovery.csv");

  // Recovery-counter table: the mechanics behind the throughput numbers.
  const std::vector<std::string> header = {
      "method",     "replication", "crashes",     "restarts",
      "failovers",  "rejoins",     "rehydrations", "checkpoints",
      "stale_push", "images/s"};
  Table table(header);
  CsvWriter csv(bench::out("ext_crash_recovery_counters.csv"), header);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const ps::RunResult& r = results[i];
    const std::vector<std::string> row = {
        core::sync_method_name(p.method),
        std::to_string(p.replication),
        std::to_string(ps::counter(r, "recovery.crashes")),
        std::to_string(ps::counter(r, "recovery.restarts")),
        std::to_string(ps::counter(r, "recovery.failovers")),
        std::to_string(ps::counter(r, "recovery.worker_rejoins")),
        std::to_string(ps::counter(r, "recovery.rehydrations")),
        std::to_string(ps::counter(r, "recovery.checkpoints_written")),
        std::to_string(ps::counter(r, "recovery.stale_pushes")),
        Table::num(r.throughput, 2)};
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== recovery counters ==\n");
  table.print();
  std::printf("(csv: %s)\n\n",
              bench::out("ext_crash_recovery_counters.csv").c_str());

  bench::report_speedup("ResNet-50 under crashes @ R=2", tput[0], tput[2]);
  std::printf("replication trades fault-free throughput (commit barrier to "
              "R-1 backups) for bounded recovery: a crashed node costs one "
              "suspicion timeout plus the re-push of the open round, and "
              "the restarted process rehydrates from checkpoint + leader "
              "delta instead of replaying history.\n");
  return 0;
}
