// Slice-lifecycle trace reporter.
//
// Two modes:
//   run (default)   Run one fully traced cluster and print the per-priority
//                   latency breakdown, the priority-inversion counter, and
//                   the send-queue depth table; optionally export the raw
//                   artifacts (Chrome/Perfetto JSON, lifecycle CSV, metrics
//                   snapshot, critpath blame CSV) under --out PREFIX.
//   --load FILE     Re-analyze a lifecycle CSV written earlier by
//                   Tracer::write_lifecycle_csv (or fig08 --trace) without
//                   re-running anything.
//
// Drills are table-driven (see kDrills below): each entry names a flag,
// a config-mutation step that arms the scenario, and an audit step that
// prints the drill's counters and appends invariant violations. Adding a
// drill is one table entry, not another copy of the arg/exit plumbing.
//
//   --join T        admit a fresh worker+server node at T seconds
//   --lease L       lease-based leadership with duration L
//   --replication R replicated chains of length R
//   --partition     canned split-brain drill (gates: dual_primary_windows
//                   == 0 and cross_partition_deliveries == 0)
//   --hierarchy     canned two-rack drill (gates: uplink priority
//                   inversions == 0, aggregation conserves gradients)
//   --autoscale     canned drain drill (gates: conservation, clean retire,
//                   invariant 12, cooldown spacing)
//   --dssp          canned straggler+crash drill under the DSSP staleness
//                   gate (gates: staleness_violations == 0,
//                   gate_wedge_ticks == 0, conservation — invariant 13)
//   --critpath      causal critical-path engine: per-iteration blame table,
//                   what-if panel, and (with --diff FILE) trace differencing
//                   against an earlier blame CSV. Gates: well-formed causal
//                   graph and per-iteration blame covering the full
//                   iteration window.
//
// Exit status: 0 on success, 2 when the trace fails well-formedness
// validation, the lifecycle stage-order invariant, or any active drill's
// gate — so CI can gate on it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/compute.h"
#include "net/faults.h"
#include "obs/analysis.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace {

using namespace p3;

model::Workload workload_by_name(const std::string& name) {
  if (name == "resnet50") return model::workload_resnet50();
  if (name == "vgg19") return model::workload_vgg19();
  if (name == "sockeye") return model::workload_sockeye();
  if (name == "inception_v3") return model::workload_inception_v3();
  throw std::invalid_argument("unknown model: " + name);
}

int report(const obs::Report& analysis,
           const std::vector<std::string>& problems) {
  std::printf("%s", obs::format_report(analysis).c_str());
  if (!problems.empty()) {
    std::printf("\n%zu invariant violation(s):\n", problems.size());
    for (const auto& p : problems) std::printf("  %s\n", p.c_str());
    return 2;
  }
  return 0;
}

/// Everything a drill's setup/audit steps can touch. `cluster`/`run` are
/// null during setup (the cluster does not exist yet).
struct DrillContext {
  bench::BenchOptions* opts = nullptr;
  ps::ClusterConfig* cfg = nullptr;
  ps::Cluster* cluster = nullptr;
  const ps::RunResult* run = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct Drill {
  const char* name;  ///< the flag that arms it
  bool (*active)(const DrillContext&);
  /// Elastic drills legitimately reorder the per-round lifecycle (pushes
  /// redirected off displaced leaders); stage order is gated only when no
  /// active drill sets this.
  bool reorders_lifecycle;
  /// Audit reads slice versions, so the final round's in-flight traffic
  /// must settle (cluster.drain()) before auditing.
  bool needs_drain;
  void (*setup)(DrillContext&);
  void (*audit)(DrillContext&, std::vector<std::string>& problems);
};

/// A run's registry counter, as a printf %lld argument.
long long count(const DrillContext& ctx, const char* metric) {
  return static_cast<long long>(ps::counter(*ctx.run, metric));
}

/// The cluster's live registry counter. Unlike count(), it includes what a
/// drain() settled after the run's snapshot was taken.
long long live(const ps::Cluster& cluster, const char* metric) {
  return static_cast<long long>(
      cluster.metrics().at<obs::Counter>(metric).value());
}

void no_setup(DrillContext&) {}
void no_audit(DrillContext&, std::vector<std::string>&) {}

/// Shared conservation gate: every slice must advance exactly once per
/// round through whatever the drill did to the topology.
void audit_conservation(DrillContext& ctx, const char* what,
                        std::vector<std::string>& problems) {
  const std::int64_t want =
      ctx.opts->measure().warmup + ctx.opts->measure().measured;
  std::int64_t lost_slices = 0;
  for (std::int64_t s = 0; s < ctx.cluster->partition().num_slices(); ++s) {
    if (ctx.cluster->slice_version(s) != want) ++lost_slices;
  }
  if (lost_slices > 0) {
    problems.push_back(std::string(what) + " lost contributions: " +
                       std::to_string(lost_slices) +
                       " slice(s) short of version " + std::to_string(want));
  }
}

// -- join / lease / replication ---------------------------------------------

bool join_active(const DrillContext& ctx) {
  return ctx.opts->raw().num("join") > 0.0;
}
void join_setup(DrillContext& ctx) {
  ctx.cfg->faults.joins.push_back(
      {ctx.cfg->n_workers, ctx.opts->raw().num("join")});
}

bool lease_active(const DrillContext& ctx) {
  return ctx.opts->raw().num("lease") > 0.0;
}
void lease_setup(DrillContext& ctx) {
  ctx.cfg->faults.lease_duration = ctx.opts->raw().num("lease");
}

bool replication_active(const DrillContext& ctx) {
  return ctx.opts->raw().integer("replication") != 1;
}
void replication_setup(DrillContext& ctx) {
  ctx.cfg->replication =
      static_cast<int>(ctx.opts->raw().integer("replication"));
}

// -- partition ---------------------------------------------------------------

bool partition_active(const DrillContext& ctx) {
  return ctx.opts->raw().flag("partition");
}

void partition_setup(DrillContext& ctx) {
  // Canned split-brain drill: minority {0,1} against majority {2,3,4}
  // under replicated leases and drifting clocks. Overrides the topology
  // knobs — the audit is only meaningful on this shape.
  ps::ClusterConfig& cfg = *ctx.cfg;
  cfg.n_workers = 5;
  cfg.replication = std::max(cfg.replication, 2);
  if (cfg.faults.lease_duration <= 0.0) cfg.faults.lease_duration = 0.25;
  net::NetPartition cut;
  cut.side_a = {0, 1};
  cut.side_b = {2, 3, 4};
  cut.start = 0.3;
  cut.heal = 0.7;
  cfg.faults.partitions.push_back(cut);
  cfg.faults.clock_drift_rate = 5e-4;
  cfg.faults.clock_offset_bound = 0.02;
}

void partition_audit(DrillContext& ctx, std::vector<std::string>& problems) {
  std::printf("partition: %lld severed drop(s), %lld parked push(es), "
              "%lld quorum-denied failover(s), %lld cross-partition "
              "delivery(ies), %lld dual-primary window(s)\n",
              count(ctx, "net.partition_drops"),
              count(ctx, "partition.parked_pushes"),
              count(ctx, "partition.quorum_denied_failovers"),
              count(ctx, "net.cross_partition_deliveries"),
              live(*ctx.cluster, "membership.dual_primary_windows"));
  // The partition contract: the fabric delivers nothing across an active
  // cut, and quorum/fence gating keeps leadership single-headed even
  // while the views disagree.
  if (count(ctx, "net.cross_partition_deliveries") > 0) {
    problems.push_back(
        "network.cross_partition_deliveries = " +
        std::to_string(count(ctx, "net.cross_partition_deliveries")) +
        " (a message landed across an active cut; expected 0)");
  }
}

// -- hierarchy ---------------------------------------------------------------

bool hierarchy_active(const DrillContext& ctx) {
  return ctx.opts->raw().flag("hierarchy");
}

void hierarchy_setup(DrillContext& ctx) {
  // Canned rack drill: two racks of four colocated nodes behind
  // 4:1-oversubscribed ToR uplinks, with rack-local aggregation folding
  // each rack's pushes before they reach the shared port.
  ps::ClusterConfig& cfg = *ctx.cfg;
  cfg.n_workers = 8;
  cfg.topology.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  cfg.topology.oversubscription = 4.0;
  cfg.rack_aggregation = true;
}

void hierarchy_audit(DrillContext& ctx, std::vector<std::string>& problems) {
  std::printf("hierarchy: %.1f MiB over ToR uplinks, %lld overtake(s), "
              "%lld inversion(s), %lld combined push(es), %lld param "
              "re-broadcast(s), %lld fallback push(es)\n",
              static_cast<double>(count(ctx, "net.tor_uplink_bytes")) /
                  (1024.0 * 1024.0),
              count(ctx, "net.uplink_overtakes"),
              count(ctx, "net.uplink_priority_inversions"),
              count(ctx, "hierarchy.agg_combined_pushes"),
              count(ctx, "hierarchy.agg_param_broadcasts"),
              count(ctx, "hierarchy.agg_fallback_pushes"));
  // The port contract: priority service never starts a transfer while a
  // strictly-more-urgent one waits.
  if (count(ctx, "net.uplink_priority_inversions") > 0) {
    problems.push_back(
        "network.uplink_priority_inversions = " +
        std::to_string(count(ctx, "net.uplink_priority_inversions")) +
        " at priority-served switch ports (expected 0)");
  }
  audit_conservation(ctx, "aggregation", problems);
}

// -- autoscale ---------------------------------------------------------------

bool autoscale_active(const DrillContext& ctx) {
  return ctx.opts->raw().flag("autoscale");
}

void autoscale_setup(DrillContext& ctx) {
  // Canned drain drill: admit a fifth node at 0.25 s, then drain node 1
  // out at 0.5 s — its groups live-migrate behind the commit barrier and
  // the node retires permanently. Overrides the topology knobs — the
  // audit is only meaningful with replicated leases and a scheduled leave.
  ps::ClusterConfig& cfg = *ctx.cfg;
  cfg.n_workers = 4;
  cfg.replication = std::max(cfg.replication, 2);
  if (cfg.faults.lease_duration <= 0.0) cfg.faults.lease_duration = 0.25;
  cfg.faults.joins.push_back({cfg.n_workers, 0.25});
  cfg.faults.leaves.push_back({1, 0.5});
}

void autoscale_audit(DrillContext& ctx, std::vector<std::string>& problems) {
  ps::Cluster& cluster = *ctx.cluster;
  const long long completed = live(cluster, "scale.drains_completed");
  std::printf("autoscale: %lld drain(s) started, %lld completed, %lld "
              "scale decision(s), %lld shed push(es), %lld dual-primary "
              "window(s)\n",
              live(cluster, "scale.drains_started"), completed,
              live(cluster, "scale.decisions"), live(cluster, "scale.sheds"),
              live(cluster, "membership.dual_primary_windows"));
  // The drain contract: live migration behind the commit barrier conserves
  // every contribution — no slice falls short of one advance per round.
  audit_conservation(ctx, "drain", problems);
  if (completed != 1) {
    problems.push_back("drains_completed = " + std::to_string(completed) +
                       " (the scheduled leave must retire cleanly; "
                       "expected 1)");
  }
  // Invariant 12: a retired node never reappears as a leaseholder in any
  // live node's view.
  const int n_total = ctx.cfg->n_workers + 1;  // base nodes + the admitted one
  const int n_groups = cluster.leadership_view(0).n_groups();
  for (int node = 0; node < n_total; ++node) {
    if (cluster.node_retired(node)) continue;
    for (int g = 0; g < n_groups; ++g) {
      // Colocated drill: server index == node id.
      const int primary = cluster.leadership_view(node).primary(g);
      if (primary >= 0 && cluster.node_retired(primary)) {
        problems.push_back("retired node " + std::to_string(primary) +
                           " still leads group " + std::to_string(g) +
                           " in node " + std::to_string(node) +
                           "'s view (invariant 12)");
      }
    }
  }
  // The no-flapping contract: consecutive autoscaler decisions must be at
  // least one cooldown apart. (The canned drill schedules its leave via
  // the fault plan, so this audit is usually vacuous — it bites when
  // --autoscale is combined with an armed policy loop.)
  const auto& times = ctx.run->scale_decision_times;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] - times[i - 1] < ctx.cfg->autoscaler.cooldown - 1e-9) {
      problems.push_back(
          "autoscaler flapped: decisions " + std::to_string(times[i - 1]) +
          "s and " + std::to_string(times[i]) + "s are closer than the " +
          std::to_string(ctx.cfg->autoscaler.cooldown) + "s cooldown");
    }
  }
}

// -- dssp --------------------------------------------------------------------

bool dssp_active(const DrillContext& ctx) {
  return ctx.opts->raw().flag("dssp");
}

void dssp_setup(DrillContext& ctx) {
  // Canned straggler+crash drill for the DSSP staleness gate: worker 3
  // limps on a halved NIC for the whole run (a live straggler the gate
  // must manage — heartbeats still flow, so it stays in the eligible set)
  // while worker 1 crashes at 0.1 s and restarts 50 ms later (a dead
  // straggler the gate must exclude and re-admit at the rejoin floor).
  // Overrides method and topology knobs — the audit is only meaningful
  // with the gate on and replicated recovery armed.
  ps::ClusterConfig& cfg = *ctx.cfg;
  cfg.method = core::SyncMethod::kDSSP;
  cfg.n_workers = 4;
  cfg.replication = std::max(cfg.replication, 2);
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.staleness.s_min = 0;
  cfg.staleness.s_max = 3;
  cfg.staleness.window = 4;
  cfg.staleness.decay_patience = 5;
  net::Degradation deg;
  deg.node = 3;
  deg.start = 0.0;
  deg.end = 600.0;
  deg.bandwidth_factor = 0.5;
  deg.extra_latency = us(100);
  cfg.faults.degradations.push_back(deg);
  cfg.faults.crashes.push_back({1, 0.1, 0.05});
}

void dssp_audit(DrillContext& ctx, std::vector<std::string>& problems) {
  const ps::RunResult& run = *ctx.run;
  std::printf("dssp: %lld gate block(s), %lld raise(s), %lld decay(s), "
              "final bound %lld, mean wait %.6f s, %lld violation(s), "
              "%lld wedge tick(s)\n",
              count(ctx, "dssp.gate_blocks"),
              count(ctx, "dssp.raises"),
              count(ctx, "dssp.decays"),
              static_cast<long long>(
                  run.metrics.at<obs::Gauge>("dssp.final_bound").value()),
              run.metrics.at<obs::Histogram>("dssp.gate_wait_s").mean(),
              count(ctx, "dssp.staleness_violations"),
              count(ctx, "dssp.gate_wedge_ticks"));
  // Invariant 13 ground truth: no worker ever computed past the bound the
  // gate promised, and no fault plane wedged the gate.
  if (count(ctx, "dssp.staleness_violations") > 0) {
    problems.push_back("dssp: staleness_violations = " +
                       std::to_string(count(ctx, "dssp.staleness_violations")) +
                       " (a worker ran past the promised bound; "
                       "invariant 13)");
  }
  if (count(ctx, "dssp.gate_wedge_ticks") > 0) {
    problems.push_back("dssp: gate_wedge_ticks = " +
                       std::to_string(count(ctx, "dssp.gate_wedge_ticks")) +
                       " (every eligible worker stuck behind the floor "
                       "across consecutive audits; invariant 13)");
  }
  // Park-never-drop: run-ahead pushes buffered through the straggle and
  // the crash must all land — no slice may fall short of one advance per
  // round.
  audit_conservation(ctx, "dssp", problems);
}

// -- critpath ----------------------------------------------------------------

bool critpath_active(const DrillContext& ctx) {
  return ctx.opts->raw().flag("critpath");
}

void critpath_audit(DrillContext& ctx, std::vector<std::string>& problems) {
  const obs::BlameReport blame = obs::analyze_critical_path(
      *ctx.tracer, ctx.opts->measure().warmup);
  // A malformed causal graph is an exit-2 condition: the blame table would
  // be garbage, and CI must notice rather than archive it.
  problems.insert(problems.end(), blame.problems.begin(),
                  blame.problems.end());
  // Coverage gate: the walk telescopes, so per-iteration blame must sum to
  // the iteration window. A gap means the path does not cover the span.
  for (const obs::IterationBlame& ib : blame.iterations) {
    if (std::fabs(ib.attributed() - ib.window()) > 1e-6) {
      problems.push_back(
          "critpath: iteration " + std::to_string(ib.iteration) +
          " blame covers " + std::to_string(ib.attributed()) + "s of a " +
          std::to_string(ib.window()) + "s window");
    }
  }
  std::printf("%s", obs::format_blame(blame).c_str());
  std::printf("%s", obs::format_what_ifs(obs::standard_what_ifs(blame)).c_str());
  const std::string diff_path = ctx.opts->raw().str("diff");
  if (!diff_path.empty()) {
    const obs::BlameReport before = obs::load_blame_csv(diff_path);
    std::printf("%s",
                obs::format_blame_diff(obs::diff_blame(before, blame)).c_str());
  }
  const std::string out_prefix = ctx.opts->raw().str("out");
  if (!out_prefix.empty()) {
    obs::write_blame_csv(blame, out_prefix + ".blame.csv");
    std::printf("exported %s.blame.csv\n", out_prefix.c_str());
  }
}

// One row per drill: flag -> setup -> audit. Setup order is load-bearing
// (partition/autoscale inspect the lease the --lease row may have armed).
constexpr Drill kDrills[] = {
    {"replication", replication_active, false, false, replication_setup,
     no_audit},
    {"join", join_active, true, false, join_setup, no_audit},
    {"lease", lease_active, false, false, lease_setup, no_audit},
    {"partition", partition_active, true, false, partition_setup,
     partition_audit},
    {"autoscale", autoscale_active, true, true, autoscale_setup,
     autoscale_audit},
    {"hierarchy", hierarchy_active, false, true, hierarchy_setup,
     hierarchy_audit},
    {"dssp", dssp_active, true, true, dssp_setup, dssp_audit},
    {"critpath", critpath_active, false, false, no_setup, critpath_audit},
};

/// Registry histogram digest via the p50/p90/p99 summary accessors.
void print_histogram_summaries(const obs::Registry& metrics) {
  bool any = false;
  for (const auto& row : metrics.snapshot()) {
    if (row.type != "histogram" || row.field != "count") continue;
    const obs::Histogram* h = metrics.find_histogram(row.metric);
    if (h == nullptr || h->count() == 0) continue;
    if (!any) std::printf("histogram summaries (bucket-resolution):\n");
    any = true;
    std::printf("  %-28s n %8lld  p50 %.6g  p90 %.6g  p99 %.6g\n",
                row.metric.c_str(), static_cast<long long>(h->count()),
                h->p50(), h->p90(), h->p99());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/1,
                           /*default_measured=*/3,
                           {{"load", ""},
                            {"model", "resnet50"},
                            {"method", "P3"},
                            {"bandwidth", "4"},
                            {"workers", "4"},
                            {"join", "0"},
                            {"lease", "0"},
                            {"replication", "1"},
                            {"partition", ""},
                            {"hierarchy", ""},
                            {"autoscale", ""},
                            {"dssp", ""},
                            {"critpath", ""},
                            {"diff", ""},
                            {"out", ""},
                            {"strict", ""}});
  const bool strict = opts.raw().flag("strict");

  const std::string load_path = opts.raw().str("load");
  if (!load_path.empty()) {
    const auto records = obs::load_lifecycle_csv(load_path);
    std::printf("== trace report: %s ==\n", load_path.c_str());
    return report(obs::analyze(records),
                  obs::lifecycle_violations(records, strict));
  }

  const std::string model_name = opts.raw().str("model");
  ps::ClusterConfig cfg;
  cfg.n_workers = static_cast<int>(opts.raw().integer("workers"));
  cfg.method = core::parse_sync_method(opts.raw().str("method"));
  cfg.bandwidth = gbps(opts.raw().num("bandwidth"));
  cfg.rx_bandwidth = gbps(100);

  DrillContext ctx;
  ctx.opts = &opts;
  ctx.cfg = &cfg;
  bool reorders_lifecycle = false;
  bool needs_drain = false;
  for (const Drill& d : kDrills) {
    if (!d.active(ctx)) continue;
    d.setup(ctx);
    reorders_lifecycle = reorders_lifecycle || d.reorders_lifecycle;
    needs_drain = needs_drain || d.needs_drain;
  }

  ps::Cluster cluster(workload_by_name(model_name), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  const ps::RunResult run =
      cluster.run(opts.measure().warmup, opts.measure().measured);
  // Conservation audits read slice versions, so the final round's in-flight
  // traffic must settle first.
  if (needs_drain) cluster.drain();
  ctx.cluster = &cluster;
  ctx.run = &run;
  ctx.tracer = &tracer;

  std::printf("== trace report: %s, %s, %d workers ==\n", model_name.c_str(),
              core::sync_method_name(cfg.method).c_str(), cfg.n_workers);

  const obs::Tracer::ValidationStats accounting = tracer.validate_accounting();
  std::vector<std::string> problems = accounting.violations;
  std::printf("flows: %lld started, %lld ended, %lld still in flight\n",
              static_cast<long long>(accounting.flows_started),
              static_cast<long long>(accounting.flows_ended),
              static_cast<long long>(accounting.flows_in_flight));
  const auto lifecycle =
      obs::lifecycle_violations(tracer.lifecycle_records(), strict);
  if (reorders_lifecycle) {
    // Elastic rebalancing and partition failover legitimately reorder the
    // per-round lifecycle: a push redirected off a displaced leader records
    // server_recv only at the final owner, and a bounded-staleness round
    // can broadcast params before a straggler's own (stale) push lands.
    // Stage order is gated only under fixed leadership.
    std::printf("note: %zu lifecycle stage-order note(s) suppressed "
                "(leadership moved mid-run)\n",
                lifecycle.size());
  } else {
    problems.insert(problems.end(), lifecycle.begin(), lifecycle.end());
  }
  if (cluster.membership_armed()) {
    std::printf("membership: %lld join(s), %lld migration(s), %lld lease "
                "renewal(s), %lld dual-primary window(s)\n",
                live(cluster, "membership.joins"),
                live(cluster, "membership.migrations"),
                live(cluster, "membership.lease_renewals"),
                live(cluster, "membership.dual_primary_windows"));
    // The lease contract: a successor acts only after the primary's lease
    // expired, so ground truth must never see two overlapping primaries.
    const long long dual = live(cluster, "membership.dual_primary_windows");
    if (cluster.leases_armed() && dual > 0) {
      problems.push_back(
          "membership.dual_primary_windows = " + std::to_string(dual) +
          " under lease-based leadership (expected 0)");
    }
  }

  for (const Drill& d : kDrills) {
    if (d.active(ctx)) d.audit(ctx, problems);
  }
  print_histogram_summaries(cluster.metrics());

  const std::string out_prefix = opts.raw().str("out");
  if (!out_prefix.empty()) {
    tracer.write_chrome_json(out_prefix + ".trace.json");
    tracer.write_lifecycle_csv(out_prefix + ".lifecycle.csv");
    cluster.metrics().write_csv(out_prefix + ".metrics.csv");
    cluster.metrics().write_json(out_prefix + ".metrics.json");
    std::printf("exported %s.{trace.json,lifecycle.csv,metrics.csv,"
                "metrics.json}\n",
                out_prefix.c_str());
  }

  return report(obs::analyze(tracer.lifecycle_records()), problems);
}
