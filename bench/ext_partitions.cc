// Extension: network-partition chaos sweep — split-brain safety under
// symmetric, asymmetric and flapping cuts, with and without clock skew.
//
// The paper's cluster assumes a connected fabric; this bench cleaves it.
// Five colocated worker+server nodes run replicated shards (R = 2) under
// lease-based leadership while a fault plan partitions {0, 1} from
// {2, 3, 4} mid-run:
//
//   symmetric   both directions severed for [0.3 s, 0.7 s) — the classic
//               split-brain drill: the majority side fails over groups it
//               can, the minority side must fence and park
//   asymmetric  only minority -> majority traffic is cut; the minority
//               still hears everyone, so only the beacon *echo* (the
//               sender's liveness belief about the receiver) can tell a
//               straddling primary that its chain peer stopped hearing it
//   flapping    the symmetric cut oscillates at a 0.2 s period — too short
//               for any lease to expire, all churn and no failover
//
// Every scenario runs twice: once on one global clock and once with each
// node's clock drifting (seeded rate error up to 5e-4, offset up to 20 ms);
// lease margins must absorb the disagreement.
//
// The headline numbers are the safety invariants, not throughput:
// `dual_primary_windows` and the fabric's ground-truth
// `cross_partition_deliveries` audit must read 0 in every cell — the
// binary exits 1 otherwise, so CI gates on quorum/fence correctness under
// every cut shape, for all five sync methods.
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

enum class Scenario { kSymmetric = 0, kAsymmetric = 1, kFlapping = 2 };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kSymmetric: return "symmetric";
    case Scenario::kAsymmetric: return "asymmetric";
    case Scenario::kFlapping: return "flapping";
  }
  return "?";
}

struct Point {
  core::SyncMethod method;
  Scenario scenario;
  bool skew;
};

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 5;
  cfg.method = p.method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  cfg.replication = 2;
  cfg.checkpoint_period = 0.5;
  cfg.max_sim_time = 600.0;
  cfg.faults.lease_duration = 0.25;

  net::NetPartition cut;
  cut.side_a = {0, 1};        // minority side
  cut.side_b = {2, 3, 4};     // majority side
  cut.start = 0.3;
  cut.heal = 0.7;
  cut.symmetric = p.scenario != Scenario::kAsymmetric;
  if (p.scenario == Scenario::kFlapping) cut.flap_period = 0.2;
  cfg.faults.partitions.push_back(cut);

  if (p.skew) {
    // Margins must cover 2 * rate * lease = 0.25 ms of cross-clock
    // disagreement; the constant offsets are provably inert (every lease
    // comparison is same-clock) and exist to prove exactly that.
    cfg.faults.clock_drift_rate = 5e-4;
    cfg.faults.clock_offset_bound = 0.02;
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

  std::printf("== Extension: partition tolerance (ResNet-50, 5 workers "
              "{0,1}|{2,3,4}, 10 Gbps, colocated replicated servers, "
              "leases) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle,
      core::SyncMethod::kPoseidonWFBP};
  const std::vector<Scenario> scenarios = {
      Scenario::kSymmetric, Scenario::kAsymmetric, Scenario::kFlapping};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (auto scenario : scenarios) {
      for (bool skew : {false, true}) grid.push_back({method, scenario, skew});
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

  // Throughput series (skew-free cells): one line per method, cut shapes on
  // the x axis.
  std::vector<runner::Series> tput;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      runner::Series s;
      s.name = core::sync_method_name(method);
      for (auto scenario : scenarios) {
        s.x.push_back(static_cast<double>(scenario));
        s.y.push_back(results[i].throughput);
        i += 2;  // skip the skewed twin; counters table covers it
      }
      tput.push_back(std::move(s));
    }
  }
  bench::report_series(
      "throughput across cut shapes (0=symmetric, 1=asymmetric, 2=flapping; "
      "skew-free cells)",
      "scenario", "images/s", tput, "ext_partitions.csv");

  // Partition-counter table: the mechanics behind (and the proof of) the
  // throughput numbers.
  const std::vector<std::string> header = {
      "method",       "scenario",  "skew",   "part_drops",
      "parked",       "q_denied",  "failovers", "lease_expire",
      "supersessions", "stale",    "dual",   "xpart",
      "images/s"};
  Table table(header);
  CsvWriter csv(bench::out("ext_partitions_counters.csv"), header);
  int dual_violations = 0;
  int xpart_violations = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const ps::RunResult& r = results[i];
    const auto dual = ps::counter(r, "membership.dual_primary_windows");
    const auto xpart = ps::counter(r, "net.cross_partition_deliveries");
    if (dual != 0) ++dual_violations;
    if (xpart != 0) ++xpart_violations;
    const std::vector<std::string> row = {
        core::sync_method_name(p.method),
        scenario_name(p.scenario),
        p.skew ? "on" : "off",
        std::to_string(ps::counter(r, "net.partition_drops")),
        std::to_string(ps::counter(r, "partition.parked_pushes")),
        std::to_string(ps::counter(r, "partition.quorum_denied_failovers")),
        std::to_string(ps::counter(r, "recovery.failovers")),
        std::to_string(ps::counter(r, "membership.lease_expiries")),
        std::to_string(ps::counter(r, "membership.supersessions")),
        std::to_string(ps::counter(r, "recovery.stale_pushes")),
        std::to_string(dual),
        std::to_string(xpart),
        Table::num(r.throughput, 2)};
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== partition counters ==\n");
  table.print();
  std::printf("(csv: %s)\n\n",
              bench::out("ext_partitions_counters.csv").c_str());

  std::printf("a cut freezes every shard group without a majority-side "
              "quorum: minority primaries self-fence (echo-starved or "
              "quorum-starved), minority workers park pushes, and the "
              "majority fails over only the groups whose replica chain "
              "straddles the cut. Heal drains the parked pushes through "
              "the bounded-staleness re-admission path; the contribution "
              "ledger keeps re-applied slices exactly-once.\n");
  bool failed = false;
  if (dual_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d cell(s) observed a dual-primary window under a "
                 "partition\n",
                 dual_violations);
    failed = true;
  }
  if (xpart_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d cell(s) delivered a message across an active "
                 "cut\n",
                 xpart_violations);
    failed = true;
  }
  if (failed) return 1;
  std::printf("partition invariants held: 0 dual-primary windows and 0 "
              "cross-partition deliveries in all %zu cells.\n",
              grid.size());
  return 0;
}
