// Extension: SLO-driven autoscaler bench — a diurnal tenant squeezes the
// base nodes' NICs while the control loop admits standby capacity, drains
// the surplus at the trough, and degrades gracefully when nothing is left
// to admit.
//
// The paper's cluster is provisioned once and stressed uniformly; this
// bench measures what the replicated parameter server gains from closing
// the loop between observability and membership. A foreign tenant offers a
// smooth day/night load cycle against the four base NICs only (standby
// NICs stay clean, so admission moves shard serving onto uncontended
// links). The grid is (method x scenario) on ResNet-50 with colocated
// replicated servers and lease-based leadership armed:
//
//   static/tight  fixed four-node membership under the cycling load — the
//                 p99 iteration time the SLO is judged against
//   auto/tight    a dark standby pool + the autoscaler holding a tight
//                 SLO: sustained pressure admits standbys one cooldown
//                 apart (weight-aware rebalancing hands each clean NIC the
//                 hottest remaining groups) until the contended base ring
//                 leads nothing, and with the pool exhausted further
//                 pressure sheds lowest-priority pushes for bounded
//                 windows instead of collapsing
//   static/loose  a planned join at 0.3 s, no autoscaler — five nodes ride
//                 out the whole run regardless of load
//   auto/loose    the same join under a loose SLO: the loop reads the
//                 sustained underload and voluntarily drains the surplus
//                 joiner (migrate out, forward parked pulls, retire)
//
// Alongside throughput and the exact p99 iteration time it reports the
// scale counters (decisions, drains started/completed, sheds, SLO
// violation ticks) and gates on the control-loop contracts: zero
// dual-primary windows everywhere, decisions never closer than the
// cooldown (flap-free by audit), the tight-SLO autoscaler holding the SLO
// wherever the static cluster violates it, and the loose-SLO autoscaler
// completing its drain. Any violation exits 1 so CI gates on the loop, not
// just on golden CSV bytes.
//
// Each sweep point owns a private cluster, so the grid fans across the
// ParallelExecutor; identical seeds reproduce identical CSVs at any
// --threads value, and the CI chaos job diffs the --smoke output against
// checked-in goldens.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"

namespace {

using namespace p3;

enum class Scenario {
  kStaticTight = 0,
  kAutoTight = 1,
  kStaticLoose = 2,
  kAutoLoose = 3,
};

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kStaticTight: return "static/tight";
    case Scenario::kAutoTight: return "auto/tight";
    case Scenario::kStaticLoose: return "static/loose";
    case Scenario::kAutoLoose: return "auto/loose";
  }
  return "?";
}

constexpr int kBaseWorkers = 4;
// A colocated base node's NIC carries roughly twice its worker's traffic:
// the push plus the shard group it leads (params broadcast to every worker
// + chain replication). Admissions migrate the serving plane onto standby
// NICs the tenant never touches, so at the crest a base NIC goes back to
// carrying the push alone — about half the bytes through the same
// contended link. The tight SLO sits inside that factor-of-two: violated
// while the four base NICs serve everything, held once they only push. It
// also respects the iteration-histogram resolution the loop reads (bounds
// at 0.5 s and 1.0 s): a settled push-only iteration lands under 0.5 s and
// reads as 0.5 — inside the SLO — while a contended serving iteration
// lands near a full second and reads as 1.0, decisively outside.
// Loose: nothing ever violates it, so the only signal left is sustained
// underload — the drain trigger.
constexpr double kSloTight = 0.7;
constexpr double kSloLoose = 10.0;
// Day/night cycle offered against the base NICs. The rates are the
// tenant's aggregate across all four base nodes (~a quarter lands on each
// NIC): an 8 Gbps link keeps ~7 Gbps of per-NIC headroom at the trough but
// under 2 Gbps at the crest — and the crest is where the colocated serving
// bytes (params broadcast + chain replication) no longer fit next to the
// irreducible worker push.
const BitsPerSec kDiurnalBase = gbps(4);
const BitsPerSec kDiurnalPeak = gbps(24);
// Several iterations fit inside one phase of the cycle: crest iterations
// are fully contended and trough iterations fully relieved, instead of
// every iteration averaging over the whole cycle.
constexpr TimeS kDiurnalPeriod = 3.0;
constexpr Bytes kDiurnalFlow = 500'000;

struct Point {
  core::SyncMethod method;
  Scenario scenario;
};

bool autoscaled(Scenario s) {
  return s == Scenario::kAutoTight || s == Scenario::kAutoLoose;
}

bool tight(Scenario s) {
  return s == Scenario::kStaticTight || s == Scenario::kAutoTight;
}

ps::ClusterConfig point_config(const Point& p) {
  ps::ClusterConfig cfg;
  cfg.n_workers = kBaseWorkers;
  cfg.method = p.method;
  cfg.bandwidth = gbps(8);
  cfg.rx_bandwidth = gbps(100);
  cfg.replication = 2;
  cfg.max_sim_time = 600.0;
  cfg.faults.lease_duration = 0.5;
  if (!tight(p.scenario)) {
    // Surplus capacity from the start: a planned admission at 0.3 s.
    cfg.faults.joins.push_back({kBaseWorkers, 0.3});
  }
  if (autoscaled(p.scenario)) {
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.slo_p99_iteration =
        tight(p.scenario) ? kSloTight : kSloLoose;
    // A pool deep enough to evacuate the whole serving plane: sustained
    // pressure admits one standby per cooldown until the base ring leads
    // nothing (or the pressure lifts first).
    cfg.autoscaler.standby_nodes = tight(p.scenario) ? kBaseWorkers : 0;
    cfg.autoscaler.cooldown = 0.25;
  }
  return cfg;
}

struct Cell {
  ps::RunResult run;
  double p99 = 0.0;       ///< whole measured window (includes churn)
  double tail_p99 = 0.0;  ///< last half of the window — the settled loop
};

Cell run_once(const model::Workload& workload, const ps::ClusterConfig& cfg,
              int warmup, int measured) {
  ps::Cluster cluster(workload, cfg);
  // The tenant hammers the base NICs only: admitting a standby moves shard
  // serving onto links the day/night cycle never touches.
  runner::inject_diurnal_background(cluster, kDiurnalBase, kDiurnalPeak,
                                    kDiurnalPeriod, kDiurnalFlow,
                                    /*seed=*/99, kBaseWorkers);
  Cell cell;
  // No drain(): the foreign tenant never stops offering load, so the
  // simulator never goes idle.
  cell.run = cluster.run(warmup, measured);
  const auto p99_of = [](std::vector<TimeS> times) {
    if (times.empty()) return 0.0;
    std::sort(times.begin(), times.end());
    const auto idx = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(
               std::ceil(0.99 * static_cast<double>(times.size()))) -
               1));
    return times[idx];
  };
  const auto& all = cell.run.iteration_times;
  cell.p99 = p99_of(all);
  // The SLO verdict reads the tail: scale actions (admission migrations,
  // rebalancing) legitimately slow the iterations they interrupt, and the
  // contract is that the loop *converges* to holding the SLO — so judge
  // the window after it had time to act.
  cell.tail_p99 =
      p99_of(std::vector<TimeS>(all.begin() + static_cast<std::ptrdiff_t>(
                                                  all.size() / 2),
                                all.end()));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/2,
                           /*default_measured=*/16);
  const int warmup = opts.measure().warmup;
  const int measured = opts.measure().measured;
  const int threads = opts.measure().threads;

  std::printf("== Extension: SLO-driven autoscaler (ResNet-50, 4 base "
              "workers, 8 Gbps, diurnal tenant on base NICs, colocated "
              "replicated servers, leases) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {
      core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
      core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle,
      core::SyncMethod::kPoseidonWFBP};
  const std::vector<Scenario> scenarios = {
      Scenario::kStaticTight, Scenario::kAutoTight, Scenario::kStaticLoose,
      Scenario::kAutoLoose};

  std::vector<Point> grid;
  for (auto method : methods) {
    for (auto scenario : scenarios) grid.push_back({method, scenario});
  }

  std::vector<std::function<Cell()>> jobs;
  jobs.reserve(grid.size());
  for (const Point& p : grid) {
    jobs.push_back([&workload, cfg = point_config(p), warmup, measured] {
      return run_once(workload, cfg, warmup, measured);
    });
  }
  runner::ParallelExecutor executor(threads);
  const auto cells = executor.map(std::move(jobs));

  // Throughput series: one line per method, scenarios on the x axis.
  std::vector<runner::Series> tput;
  {
    std::size_t i = 0;
    for (auto method : methods) {
      runner::Series s;
      s.name = core::sync_method_name(method);
      for (auto scenario : scenarios) {
        s.x.push_back(static_cast<double>(scenario));
        s.y.push_back(cells[i++].run.throughput);
      }
      tput.push_back(std::move(s));
    }
  }
  bench::report_series(
      "throughput across autoscale scenarios (0=static/tight, 1=auto/tight, "
      "2=static/loose, 3=auto/loose)",
      "scenario", "images/s", tput, "ext_autoscale.csv");

  // Scale-counter table: the control loop behind the latency numbers.
  const std::vector<std::string> header = {
      "method", "scenario",    "p99_s", "tail_p99_s",      "slo_ok",
      "decisions", "joins",    "drains", "drains_done",    "sheds",
      "violation_ticks", "dual", "images/s"};
  Table table(header);
  CsvWriter csv(bench::out("ext_autoscale_counters.csv"), header);
  std::vector<std::string> problems;
  std::size_t static_tight_violations = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    const Cell& c = cells[i];
    const ps::RunResult& r = c.run;
    const std::int64_t dual =
        ps::counter(r, "membership.dual_primary_windows");
    const std::int64_t joins = ps::counter(r, "membership.joins");
    const std::int64_t drained = ps::counter(r, "scale.drains_completed");
    const double slo = tight(p.scenario) ? kSloTight : kSloLoose;
    const bool slo_ok = c.tail_p99 <= slo;
    const std::string label = std::string(core::sync_method_name(p.method)) +
                              " " + scenario_name(p.scenario);
    if (dual != 0) {
      problems.push_back(label + ": " + std::to_string(dual) +
                         " dual-primary window(s) (expected 0)");
    }
    for (std::size_t d = 1; d < r.scale_decision_times.size(); ++d) {
      const TimeS gap =
          r.scale_decision_times[d] - r.scale_decision_times[d - 1];
      if (gap + 1e-12 < point_config(p).autoscaler.cooldown) {
        problems.push_back(label + ": decisions " + std::to_string(d - 1) +
                           " and " + std::to_string(d) + " flapped (" +
                           std::to_string(gap) + " s apart)");
      }
    }
    if (!opts.smoke()) {
      // The full-length trace is what the SLO verdicts are calibrated on;
      // --smoke truncates the run before the loop can finish acting.
      if (p.scenario == Scenario::kStaticTight && !slo_ok) {
        ++static_tight_violations;
      }
      if (p.scenario == Scenario::kAutoTight) {
        if (!slo_ok) {
          problems.push_back(label + ": tail p99 " +
                             std::to_string(c.tail_p99) +
                             " s exceeds the " + std::to_string(slo) +
                             " s SLO despite autoscaling");
        }
        // The loop must act exactly where the static cluster fails: a
        // method whose static cell violates the SLO must have admitted
        // standbys. A method that rides out the same load statically
        // (P3's scheduling can) is allowed to hold without scaling.
        const Cell& static_cell = cells[i - 1];  // same method, static/tight
        if (static_cell.tail_p99 > slo && joins < 2) {
          problems.push_back(label +
                             ": static violates the SLO yet sustained "
                             "pressure admitted only " +
                             std::to_string(joins) + " standby(s)");
        }
      }
      if (p.scenario == Scenario::kAutoLoose && drained != 1) {
        problems.push_back(label + ": expected the surplus drain, saw " +
                           std::to_string(drained) + " completed drain(s)");
      }
    }
    const std::vector<std::string> row = {
        core::sync_method_name(p.method),
        scenario_name(p.scenario),
        Table::num(c.p99, 3),
        Table::num(c.tail_p99, 3),
        slo_ok ? "yes" : "NO",
        std::to_string(ps::counter(r, "scale.decisions")),
        std::to_string(joins),
        std::to_string(ps::counter(r, "scale.drains_started")),
        std::to_string(drained),
        std::to_string(ps::counter(r, "scale.sheds")),
        std::to_string(ps::counter(r, "scale.slo_violation_ticks")),
        std::to_string(dual),
        Table::num(r.throughput, 2)};
    table.add_row(row);
    csv.row(row);
  }
  std::printf("== autoscale counters ==\n");
  table.print();
  std::printf("(csv: %s)\n\n",
              bench::out("ext_autoscale_counters.csv").c_str());

  if (!opts.smoke() && static_tight_violations == 0) {
    problems.push_back(
        "the diurnal trace never pushed the static cluster past the tight "
        "SLO — the autoscaled comparison proves nothing");
  }

  std::printf("the loop reads the iteration-time histogram on the suspicion "
              "cadence: sustained pressure admits the standby (its clean NIC "
              "takes the hottest groups), sustained slack drains the surplus "
              "joiner behind the same commit-barrier migrations, and "
              "exhausted capacity sheds bounded windows of lowest-priority "
              "pushes — contributions are delayed, never dropped.\n");
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "FAIL: %s\n", p.c_str());
    }
    return 1;
  }
  std::printf("control-loop contracts held in all %zu cells: 0 dual-primary "
              "windows, decisions >= cooldown apart%s.\n",
              grid.size(),
              opts.smoke() ? ""
                           : ", tight SLO held under autoscaling, surplus "
                             "drained under the loose SLO");
  return 0;
}
