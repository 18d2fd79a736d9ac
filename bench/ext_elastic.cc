// Extension: elastic scale-out bench — admit a node mid-run under
// lease-based leadership.
//
// The paper's cluster is fixed for the whole run; this bench measures what
// the replicated parameter server pays (and gains) when it is not. It
// sweeps (method x scenario) on ResNet-50 with colocated replicated
// servers and lease-based leadership armed:
//
//   static      fixed membership, leases on — the cost floor
//   join        a fresh worker+server node joins at 0.3 s; the planner
//               hands it one shard group, the donor migrates state behind
//               a commit barrier, and the worker set grows to five
//   join+crash  the join plus a staggered crash/restart of a base node —
//               admission, migration and lease failover interleaved
//
// Alongside throughput it reports the elastic counters (joins, migrations,
// migrated bytes, lease renewals/expiries, supersessions, failovers) and
// asserts the headline lease invariant: `dual_primary_windows` must read 0
// in every cell — the binary exits 1 otherwise, so CI gates on the
// no-split-view guarantee, not just on golden CSV bytes.
//
// Each sweep point owns a private cluster, so the grid fans across the
// ParallelExecutor; identical seeds reproduce identical CSVs at any
// --threads value, and the CI chaos job diffs the --smoke output against
// checked-in goldens.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"

namespace {

using namespace p3;

enum class Scenario { kStatic = 0, kJoin = 1, kJoinCrash = 2 };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kStatic: return "static";
    case Scenario::kJoin: return "join";
    case Scenario::kJoinCrash: return "join+crash";
  }
  return "?";
}

struct Point {
  core::SyncMethod method;
  Scenario scenario;
};

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = p.method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  cfg.replication = 2;
  cfg.checkpoint_period = 0.5;
  cfg.max_sim_time = 600.0;
  // Leases in every cell: detection still uses the 60 ms suspicion
  // threshold, but a successor may only act once the 250 ms lease expires.
  cfg.faults.lease_duration = 0.25;
  if (p.scenario != Scenario::kStatic) {
    cfg.faults.joins.push_back({4, 0.3});
  }
  if (p.scenario == Scenario::kJoinCrash) {
    // Base node 1 dies at 0.9 s and is back 300 ms later — while the
    // cluster is already digesting the admission.
    cfg.faults.crashes.push_back({1, 0.9, 0.3});
  }
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

  std::printf("== Extension: elastic scale-out (ResNet-50, 4 base workers, "
              "10 Gbps, colocated replicated servers, leases) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle,
      core::SyncMethod::kPoseidonWFBP};
  const std::vector<Scenario> scenarios = {
      Scenario::kStatic, Scenario::kJoin, Scenario::kJoinCrash};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (auto scenario : scenarios) grid.push_back({method, scenario});
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

  // Throughput series: one line per method, scenarios on the x axis.
  std::vector<runner::Series> tput;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      runner::Series s;
      s.name = core::sync_method_name(method);
      for (auto scenario : scenarios) {
        s.x.push_back(static_cast<double>(scenario));
        s.y.push_back(results[i++].throughput);
      }
      tput.push_back(std::move(s));
    }
  }
  bench::report_series(
      "throughput across elastic scenarios (0=static, 1=join, 2=join+crash)",
      "scenario", "images/s", tput, "ext_elastic.csv");

  // Elastic-counter table: the mechanics behind the throughput numbers.
  const std::vector<std::string> header = {
      "method",    "scenario",    "joins",        "migrations",
      "mig_mb",    "lease_renew", "lease_expire", "supersessions",
      "failovers", "dual",        "images/s"};
  Table table(header);
  CsvWriter csv(bench::out("ext_elastic_counters.csv"), header);
  int dual_violations = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const ps::RunResult& r = results[i];
    const auto dual = ps::counter(r, "membership.dual_primary_windows");
    if (dual != 0) ++dual_violations;
    const std::vector<std::string> row = {
        core::sync_method_name(p.method),
        scenario_name(p.scenario),
        std::to_string(ps::counter(r, "membership.joins")),
        std::to_string(ps::counter(r, "membership.migrations")),
        Table::num(ps::counter(r, "membership.migrated_bytes") / 1e6, 2),
        std::to_string(ps::counter(r, "membership.lease_renewals")),
        std::to_string(ps::counter(r, "membership.lease_expiries")),
        std::to_string(ps::counter(r, "membership.supersessions")),
        std::to_string(ps::counter(r, "recovery.failovers")),
        std::to_string(dual),
        Table::num(r.throughput, 2)};
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== elastic counters ==\n");
  table.print();
  std::printf("(csv: %s)\n\n", bench::out("ext_elastic_counters.csv").c_str());

  std::printf("admitting a node costs one shard-group migration behind a "
              "commit barrier (no round releases against a half-migrated "
              "shard); after the handover the joiner serves its group and "
              "the worker set aggregates five-wide under the bounded-"
              "staleness rule.\n");
  if (dual_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d cell(s) observed a dual-primary window under "
                 "lease-based leadership\n",
                 dual_violations);
    return 1;
  }
  std::printf("lease invariant held: 0 dual-primary windows in all %zu "
              "cells.\n",
              grid.size());
  return 0;
}
