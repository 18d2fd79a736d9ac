// Extension: causal critical-path accounting across the method zoo.
//
// Throughput curves say *that* P3 wins; this bench says *why*, in seconds.
// Every cell runs one fully traced cluster, reconstructs the causal event
// graph (obs/critpath), walks the critical path of each measured iteration
// backward from its finish line, and charges every segment to a blame
// category: forward/backward compute, send-queue wait, priority inversion,
// wire serialization, switch-port queueing (uplink/downlink), server
// aggregation, aggregation hold, recovery stalls.
//
// The sweep: five sync methods x
//   flat fabric   4 workers, {4, 5, 6, 8} Gbps NICs
//   4:1 hierarchy 8 workers in 2 racks behind 4x-oversubscribed ToR
//                 uplinks with rack aggregation, {10, 14} Gbps NICs
//
// The headline, gated by exit status for CI: in the bandwidth-constrained
// flat cells (5 and 6 Gbps — where the gradient volume still fits under
// backward compute, so a good schedule *can* hide it), the network-wait
// share of the critical path collapses under P3 while Baseline's FIFO
// pipeline and TensorFlow-style deferred pulls keep paying it on the path.
// At 4 Gbps no schedule can hide the traffic (volume exceeds compute) and
// at 8 Gbps every schedule hides it, so those cells are reported but not
// gated — the regime boundary is part of the story.
//
// The 4:1 hierarchy cells are diagnostics, not gates: the blame tables
// show P3's immediate per-slice broadcast keeping the rack relay's NIC
// busy, so the binding slice waits in a send queue the paper's flat-fabric
// plots never see.
//
// Also gated:
//   * well-formed causal graphs everywhere, with per-iteration blame
//     telescoping to exactly the iteration window (the engine's coverage
//     contract);
//   * the "infinite bandwidth" what-if for Baseline@5Gbps predicts the
//     measured mean iteration of an actual 100 Gbps rerun of the same
//     seed within 10% (first-order estimate vs ground truth).
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace {

using namespace p3;

struct Point {
  core::SyncMethod method;
  double bandwidth_gbps;
  bool hier;         ///< 8 workers, 2 racks, 4:1 ToR, rack aggregation
  bool constrained;  ///< gated cell: P3 must beat Baseline + TF on share
};

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.method = p.method;
  cfg.bandwidth = gbps(p.bandwidth_gbps);
  cfg.rx_bandwidth = gbps(100);
  if (p.hier) {
    cfg.n_workers = 8;
    cfg.topology.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    cfg.topology.oversubscription = 4.0;
    cfg.rack_aggregation = true;
  } else {
    cfg.n_workers = 4;
  }
  return cfg;
}

obs::BlameReport run_cell(const model::Workload& workload,
                          const ps::ClusterConfig& cfg, int warmup,
                          int measured) {
  ps::Cluster cluster(workload, cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(warmup, measured);
  cluster.drain();
  return obs::analyze_critical_path(tracer, warmup);
}

std::string fabric_name(const Point& p) { return p.hier ? "4:1" : "flat"; }

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/1,
                           /*default_measured=*/4);
  const int warmup = opts.measure().warmup;
  const int measured = opts.measure().measured;

  std::printf("== Extension: critical-path blame attribution (ResNet-50; "
              "flat 4-worker fabric and 8 workers behind a 4:1 ToR) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle,
      core::SyncMethod::kPoseidonWFBP};
  const std::vector<double> flat_bw = {4.0, 5.0, 6.0, 8.0};
  const std::vector<double> hier_bw = {10.0, 14.0};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (double bw : flat_bw) {
      grid.push_back({method, bw, false, bw == 5.0 || bw == 6.0});
    }
    for (double bw : hier_bw) grid.push_back({method, bw, true, false});
  }
  // Ground-truth cell for the what-if gate: Baseline on a fabric fast
  // enough that the network contributes nothing to the path.
  const std::size_t truth_index = grid.size();
  grid.push_back({core::SyncMethod::kBaseline, 100.0, false, false});

  std::vector<std::function<obs::BlameReport()>> jobs;
  jobs.reserve(grid.size());
  for (const Point& p : grid) {
    jobs.push_back([&workload, cfg = point_config(p), warmup, measured] {
      return run_cell(workload, cfg, warmup, measured);
    });
  }
  runner::ParallelExecutor executor(opts.measure().threads);
  const auto cells = executor.map(std::move(jobs));

  // Headline series: network-wait share of the critical path vs bandwidth
  // on the flat fabric, one line per method.
  std::vector<runner::Series> shares;
  for (std::size_t m = 0; m < methods.size(); ++m) {
    runner::Series s;
    s.name = core::sync_method_name(methods[m]);
    for (std::size_t b = 0; b < flat_bw.size(); ++b) {
      const obs::BlameReport& blame =
          cells[m * (flat_bw.size() + hier_bw.size()) + b];
      s.x.push_back(flat_bw[b]);
      s.y.push_back(blame.network_share() * 100.0);
    }
    shares.push_back(std::move(s));
  }
  bench::report_series("network-wait share of critical path (flat fabric)",
                       "Gbps", "% of path", shares, "ext_critpath.csv");

  // Full blame table: every cell, every category, in seconds per
  // iteration (mean over measured iterations).
  const std::vector<std::string> header = {
      "method",  "fabric",   "Gbps",     "iter_s",  "forward", "backward",
      "sendq",   "inversion", "wire",    "uplink",  "downlink", "server",
      "agghold", "recovery", "sspwait",  "other",    "net_share"};
  Table table(header);
  CsvWriter csv(bench::out("ext_critpath_blame.csv"), header);
  int malformed = 0;
  int uncovered = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const obs::BlameReport& blame = cells[i];
    if (!blame.problems.empty() || blame.iterations.empty()) ++malformed;
    for (const obs::IterationBlame& ib : blame.iterations) {
      if (std::fabs(ib.attributed() - ib.window()) > 1e-6) ++uncovered;
    }
    const double iters =
        blame.iterations.empty()
            ? 1.0
            : static_cast<double>(blame.iterations.size());
    std::vector<std::string> row = {core::sync_method_name(p.method),
                                    fabric_name(p),
                                    Table::num(p.bandwidth_gbps, 0),
                                    Table::num(blame.total_s / iters, 4)};
    for (int c = 0; c < obs::kBlameCount; ++c) {
      row.push_back(Table::num(blame.totals[static_cast<std::size_t>(c)] /
                                   iters, 4));
    }
    row.push_back(Table::num(blame.network_share() * 100.0, 2));
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== per-iteration blame (seconds on the critical path) ==\n");
  table.print();
  std::printf("(csv: %s)\n\n", bench::out("ext_critpath_blame.csv").c_str());

  // What-if panel: first-order re-timing estimates per cell.
  const std::vector<std::string> wi_header = {
      "method", "fabric", "Gbps", "whatif", "est_iter_s", "speedup"};
  CsvWriter wi_csv(bench::out("ext_critpath_whatif.csv"), wi_header);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    for (const obs::WhatIf& wi : obs::standard_what_ifs(cells[i])) {
      wi_csv.row({core::sync_method_name(p.method), fabric_name(p),
                  Table::num(p.bandwidth_gbps, 0), wi.name,
                  Table::num(wi.estimated_mean_iteration_s, 6),
                  Table::num(wi.speedup_vs_measured, 2)});
    }
  }
  std::printf("(csv: %s)\n\n", bench::out("ext_critpath_whatif.csv").c_str());

  // Gate: the P3 story in every bandwidth-constrained cell.
  bool failed = false;
  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (methods[m] != core::SyncMethod::kP3) continue;
    for (std::size_t b = 0; b < flat_bw.size(); ++b) {
      const std::size_t stride = flat_bw.size() + hier_bw.size();
      const std::size_t i = m * stride + b;
      if (!grid[i].constrained) continue;
      const double p3 = cells[i].network_share();
      double base = 0.0;
      double tf = 0.0;
      for (std::size_t m2 = 0; m2 < methods.size(); ++m2) {
        const double share = cells[m2 * stride + b].network_share();
        if (methods[m2] == core::SyncMethod::kBaseline) base = share;
        if (methods[m2] == core::SyncMethod::kTensorFlowStyle) tf = share;
      }
      std::printf("%.0f Gbps flat (constrained): network-wait share P3 "
                  "%.2f%% vs Baseline %.2f%% vs TensorFlow %.2f%%\n",
                  flat_bw[b], p3 * 100.0, base * 100.0, tf * 100.0);
      if (!(p3 < base && p3 < tf)) {
        std::fprintf(stderr,
                     "FAIL: P3's network-wait share is not strictly below "
                     "Baseline and TensorFlow at %.0f Gbps\n",
                     flat_bw[b]);
        failed = true;
      }
    }
  }
  std::printf("\n");

  // Gate: the infinite-bandwidth what-if for Baseline@5Gbps vs the actual
  // 100 Gbps rerun (same seed, same iteration counts).
  {
    const std::size_t stride = flat_bw.size() + hier_bw.size();
    std::size_t base5 = 0;
    for (std::size_t m = 0; m < methods.size(); ++m) {
      if (methods[m] == core::SyncMethod::kBaseline) base5 = m * stride + 1;
    }
    double est = 0.0;
    for (const obs::WhatIf& wi : obs::standard_what_ifs(cells[base5])) {
      if (wi.name == "infinite_bandwidth") est = wi.estimated_mean_iteration_s;
    }
    const obs::BlameReport& truth_blame = cells[truth_index];
    const double actual =
        truth_blame.iterations.empty()
            ? 0.0
            : truth_blame.total_s /
                  static_cast<double>(truth_blame.iterations.size());
    const double err = actual > 0.0 ? std::fabs(est - actual) / actual : 1.0;
    std::printf("what-if validation: Baseline@5Gbps infinite-bandwidth "
                "estimate %.6f s vs measured 100 Gbps iteration %.6f s "
                "(%.1f%% error, tolerance 10%%)\n\n",
                est, actual, err * 100.0);
    if (err > 0.10) {
      std::fprintf(stderr,
                   "FAIL: infinite-bandwidth what-if is %.1f%% off the "
                   "measured high-bandwidth rerun\n",
                   err * 100.0);
      failed = true;
    }
  }

  std::printf("the blame walk telescopes: every segment of every "
              "iteration's critical path lands in exactly one category, so "
              "shares sum to 100%% by construction. P3's win in the "
              "constrained regime is visible as the sendq+wire columns "
              "draining into backward compute; in the oversubscribed "
              "hierarchy the same columns show its broadcast traffic "
              "queueing at the rack relay instead.\n\n");

  if (malformed > 0) {
    std::fprintf(stderr, "FAIL: %d cell(s) produced a malformed causal "
                 "graph\n", malformed);
    failed = true;
  }
  if (uncovered > 0) {
    std::fprintf(stderr, "FAIL: %d iteration(s) whose blame does not cover "
                 "the iteration window\n", uncovered);
    failed = true;
  }
  if (failed) return 1;
  std::printf("critpath invariants held: %zu well-formed cells, full "
              "coverage, P3 collapses the network-wait share in every "
              "constrained cell.\n",
              grid.size());
  return 0;
}
