// Extension: rack-scale hierarchical topologies — oversubscribed ToR
// uplinks, rack-local aggregation, and hierarchical (3-level) allreduce.
//
// The paper's cluster (like most PS evaluations) assumes a non-blocking
// fabric: every NIC pair talks at line rate. Real training pods are racks
// behind a ToR switch whose spine uplink is oversubscribed — k machines
// share k*NIC/oversubscription bits/s — so cross-rack pushes contend at a
// *shared switch port*, not just at the sender's NIC. This bench puts
// eight colocated worker+server nodes in two racks of four and sweeps:
//
//   fabric        flat (non-blocking), 2:1, 4:1 ToR oversubscription
//   aggregation   off (every push crosses the spine individually) vs on
//                 (rack-local pre-reduce: one combined push per rack up,
//                 one parameter copy per rack down — Parameter Hub's
//                 rack-scale design)
//
// for all five sync methods, plus the allreduce extension's answer to the
// same problem: a hierarchical 3-level collective (intra-rack reduce, ring
// across rack leaders, intra-rack broadcast) vs running the flat ring over
// the oversubscribed fabric.
//
// The headline invariants, gated by exit status for CI:
//   * `uplink_priority_inversions` reads 0 in every cell — the ToR ports
//     serve strictly by priority, so P3's urgent slices can never be
//     blocked behind queued bulk (the inversion counter is the proof);
//   * at 4:1 oversubscription rack aggregation recovers measurable
//     throughput for at least one method (it cuts spine crossings ~4x);
//   * the 3-level collective moves strictly fewer bytes across the ToR
//     uplinks than the flat ring on the same topology, for every schedule.
//
// Each sweep point owns a private cluster, so the grid fans across the
// ParallelExecutor; identical seeds reproduce identical CSVs at any
// --threads value, and the CI chaos job diffs the --smoke output against
// checked-in goldens.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "allreduce/ring.h"
#include "bench_util.h"
#include "model/zoo.h"

namespace {

using namespace p3;

net::Topology two_racks(double oversub) {
  net::Topology topo;
  topo.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  topo.oversubscription = oversub;
  return topo;
}

struct Point {
  core::SyncMethod method;
  double oversub;  // 0 = flat fabric (no topology)
  bool agg;
};

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 8;
  cfg.method = p.method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  if (p.oversub > 0.0) {
    cfg.topology = two_racks(p.oversub);
    cfg.rack_aggregation = p.agg;
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

const char* fabric_name(double oversub) {
  if (oversub <= 0.0) return "flat";
  if (oversub == 2.0) return "2:1";
  if (oversub == 4.0) return "4:1";
  return "?";
}

struct ArCell {
  double throughput = 0.0;
  Bytes uplink_bytes = 0;
};

ArCell run_allreduce(const model::Workload& workload, ar::ArSchedule schedule,
                     int variant, int warmup, int measured) {
  // variant: 0 = flat ring, 1 = flat ring over the 4:1 fabric (wrap-around
  // chunks queue at the ToR uplink every step), 2 = 3-level hierarchical
  // collective on the same 4:1 fabric.
  ar::ArConfig cfg;
  cfg.n_workers = 8;
  cfg.schedule = schedule;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  if (variant > 0) cfg.topology = two_racks(4.0);
  cfg.three_level = variant == 2;
  ar::ArCluster cluster(workload, cfg);
  ArCell cell;
  cell.throughput = cluster.run(warmup, measured).throughput;
  cell.uplink_bytes = cluster.network().tor_uplink_bytes();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/2,
                           /*default_measured=*/8);
  const int warmup = opts.measure().warmup;
  const int measured = opts.measure().measured;
  const int threads = opts.measure().threads;

  std::printf("== Extension: rack-scale hierarchy (ResNet-50, 8 workers in "
              "2 racks of 4, 10 Gbps NICs, colocated servers) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle,
      core::SyncMethod::kPoseidonWFBP};
  const std::vector<double> fabrics = {0.0, 2.0, 4.0};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (double oversub : fabrics) {
      grid.push_back({method, oversub, false});
      // Rack aggregation needs a real topology to pre-reduce within.
      if (oversub > 0.0) grid.push_back({method, oversub, true});
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

  // Throughput series (aggregation-off cells): one line per method,
  // oversubscription on the x axis (1 = flat / non-blocking).
  std::vector<runner::Series> tput;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      runner::Series s;
      s.name = core::sync_method_name(method);
      for (double oversub : fabrics) {
        s.x.push_back(oversub <= 0.0 ? 1.0 : oversub);
        s.y.push_back(results[i].throughput);
        i += oversub > 0.0 ? 2 : 1;  // skip the aggregation-on twin
      }
      tput.push_back(std::move(s));
    }
  }
  bench::report_series(
      "throughput vs ToR oversubscription (rack aggregation off)",
      "oversubscription", "images/s", tput, "ext_hierarchy.csv");

  // Hierarchy-counter table: uplink traffic and the aggregation mechanics
  // behind the throughput numbers.
  const std::vector<std::string> header = {
      "method",        "fabric",    "agg",      "uplink_MiB",
      "overtakes",     "inversions", "combined", "param_bcast",
      "fallback",      "images/s"};
  Table table(header);
  CsvWriter csv(bench::out("ext_hierarchy_counters.csv"), header);
  int inversion_violations = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const ps::RunResult& r = results[i];
    const auto inversions = ps::counter(r, "net.uplink_priority_inversions");
    if (inversions != 0) ++inversion_violations;
    const std::vector<std::string> row = {
        core::sync_method_name(p.method),
        fabric_name(p.oversub),
        p.agg ? "on" : "off",
        Table::num(ps::counter(r, "net.tor_uplink_bytes") / (1024.0 * 1024.0),
                   1),
        std::to_string(ps::counter(r, "net.uplink_overtakes")),
        std::to_string(inversions),
        std::to_string(ps::counter(r, "hierarchy.agg_combined_pushes")),
        std::to_string(ps::counter(r, "hierarchy.agg_param_broadcasts")),
        std::to_string(ps::counter(r, "hierarchy.agg_fallback_pushes")),
        Table::num(r.throughput, 2)};
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== hierarchy counters ==\n");
  table.print();
  std::printf("(csv: %s)\n\n", bench::out("ext_hierarchy_counters.csv").c_str());

  // Rack-aggregation recovery at the most oversubscribed fabric.
  double best_recovery = -1.0;
  std::string best_method;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      double off = 0.0;
      double on = 0.0;
      for (double oversub : fabrics) {
        if (oversub == 4.0) {
          off = results[i].throughput;
          on = results[i + 1].throughput;
        }
        i += oversub > 0.0 ? 2 : 1;
      }
      const double recovery = (on - off) / off;
      std::printf("%s: rack aggregation at 4:1 changes throughput by "
                  "%+.1f%% (%.2f -> %.2f images/s)\n",
                  core::sync_method_name(method).c_str(), recovery * 100.0,
                  off, on);
      if (recovery > best_recovery) {
        best_recovery = recovery;
        best_method = core::sync_method_name(method);
      }
    }
  }
  std::printf("\n");

  // Allreduce on the same fabric: flat ring vs ring-over-topology vs the
  // hierarchical 3-level collective.
  const std::vector<ar::ArSchedule> schedules = {
      ar::ArSchedule::kPerLayer, ar::ArSchedule::kFused,
      ar::ArSchedule::kPrioritySliced};
  std::vector<std::function<ArCell()>> ar_jobs;
  for (auto schedule : schedules) {
    for (int variant = 0; variant < 3; ++variant) {
      ar_jobs.push_back([&workload, schedule, variant, warmup, measured] {
        return run_allreduce(workload, schedule, variant, warmup, measured);
      });
    }
  }
  const auto ar_cells = executor.map(std::move(ar_jobs));

  std::vector<runner::Series> ar_tput;
  int uplink_violations = 0;
  for (std::size_t s = 0; s < schedules.size(); ++s) {
    runner::Series series;
    series.name = ar::ar_schedule_name(schedules[s]);
    for (int variant = 0; variant < 3; ++variant) {
      const ArCell& cell = ar_cells[3 * s + static_cast<std::size_t>(variant)];
      series.x.push_back(static_cast<double>(variant));
      series.y.push_back(cell.throughput);
    }
    // The whole point of going hierarchical: the 3-level collective must
    // cross the spine with strictly fewer bytes than the flat ring did.
    const Bytes ring_up = ar_cells[3 * s + 1].uplink_bytes;
    const Bytes tree_up = ar_cells[3 * s + 2].uplink_bytes;
    std::printf("%s @ 4:1: ToR uplink bytes %.1f MiB (ring) vs %.1f MiB "
                "(3-level)\n",
                series.name.c_str(),
                static_cast<double>(ring_up) / (1024.0 * 1024.0),
                static_cast<double>(tree_up) / (1024.0 * 1024.0));
    if (tree_up >= ring_up) ++uplink_violations;
    ar_tput.push_back(std::move(series));
  }
  std::printf("\n");
  bench::report_series(
      "allreduce throughput (0 = flat ring, 1 = ring @ 4:1, 2 = 3-level @ "
      "4:1)",
      "variant", "images/s", ar_tput, "ext_hierarchy_allreduce.csv");

  std::printf("an oversubscribed ToR uplink is a *shared* bottleneck: all "
              "four of a rack's senders queue at one port, so cross-rack "
              "pushes serialize behind each other. Rack aggregation folds "
              "a rack's gradients before they reach that port (one push up, "
              "one parameter copy down), and the 3-level collective confines "
              "all but the leader ring to intra-rack links.\n");

  bool failed = false;
  if (inversion_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d cell(s) observed a priority inversion at a "
                 "switch port\n",
                 inversion_violations);
    failed = true;
  }
  if (best_recovery <= 0.0) {
    std::fprintf(stderr,
                 "FAIL: rack aggregation recovered no throughput at 4:1 "
                 "oversubscription (best %+.1f%%)\n",
                 best_recovery * 100.0);
    failed = true;
  }
  if (uplink_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d schedule(s) saw the 3-level collective move >= "
                 "the flat ring's uplink bytes\n",
                 uplink_violations);
    failed = true;
  }
  if (failed) return 1;
  std::printf("hierarchy invariants held: 0 port priority inversions, rack "
              "aggregation recovers %+.0f%% at 4:1 (%s), and the 3-level "
              "collective cut uplink bytes for all %zu schedules.\n",
              best_recovery * 100.0, best_method.c_str(), schedules.size());
  return 0;
}
