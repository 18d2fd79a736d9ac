#include "ps/cluster.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace p3::ps {
namespace {

std::string lane(const char* prefix, int node, const char* suffix) {
  return std::string(prefix) + std::to_string(node) + suffix;
}

}  // namespace

Cluster::Cluster(model::Workload workload, ClusterConfig config)
    : workload_(std::move(workload)),
      cfg_(std::move(config)),
      sync_(core::sync_config(cfg_.method)),
      pushes_sent_(registry_.counter("protocol.pushes_sent")),
      params_sent_(registry_.counter("protocol.params_sent")),
      notifies_sent_(registry_.counter("protocol.notifies_sent")),
      pulls_sent_(registry_.counter("protocol.pulls_sent")),
      rounds_completed_(registry_.counter("protocol.rounds_completed")),
      acks_sent_(registry_.counter("transport.acks_sent")),
      retransmits_(registry_.counter("transport.retransmits")),
      timeouts_fired_(registry_.counter("transport.timeouts_fired")),
      duplicates_suppressed_(
          registry_.counter("transport.duplicates_suppressed")),
      goodput_bytes_(registry_.counter("transport.goodput_bytes")),
      crashes_(registry_.counter("recovery.crashes")),
      restarts_(registry_.counter("recovery.restarts")),
      failovers_(registry_.counter("recovery.failovers")),
      worker_rejoins_(registry_.counter("recovery.worker_rejoins")),
      checkpoints_written_(registry_.counter("recovery.checkpoints_written")),
      checkpoint_bytes_(registry_.counter("recovery.checkpoint_bytes")),
      rehydrations_(registry_.counter("recovery.rehydrations")),
      rehydration_bytes_(registry_.counter("recovery.rehydration_bytes")),
      heartbeats_sent_(registry_.counter("recovery.heartbeats_sent")),
      stale_pushes_(registry_.counter("recovery.stale_pushes")),
      joins_(registry_.counter("membership.joins")),
      migrations_(registry_.counter("membership.migrations")),
      migrated_bytes_(registry_.counter("membership.migrated_bytes")),
      lease_renewals_(registry_.counter("membership.lease_renewals")),
      lease_expiries_(registry_.counter("membership.lease_expiries")),
      dual_primary_windows_(
          registry_.counter("membership.dual_primary_windows")),
      supersessions_(registry_.counter("membership.supersessions")),
      parked_pushes_(registry_.counter("partition.parked_pushes")),
      quorum_denied_failovers_(
          registry_.counter("partition.quorum_denied_failovers")),
      iter_time_hist_(registry_.histogram(
          "worker.iteration_time_s",
          {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0})),
      stall_time_hist_(registry_.histogram(
          "worker.stall_time_s",
          {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0})) {
  if (cfg_.n_workers <= 0) {
    throw std::invalid_argument("need at least one worker");
  }
  if (cfg_.fragment_bytes <= 0) {
    throw std::invalid_argument("non-positive fragment size");
  }
  if (cfg_.update_bytes_per_sec <= 0) {
    throw std::invalid_argument("non-positive update rate");
  }
  if (cfg_.wire_compression < 1.0) {
    throw std::invalid_argument("compression factor below 1");
  }
  if (cfg_.min_rto <= 0.0) {
    throw std::invalid_argument("non-positive retransmission timeout");
  }
  if (cfg_.rto_backoff < 1.0) {
    throw std::invalid_argument("retransmission backoff below 1");
  }
  if (cfg_.fixed_rto < 0.0) {
    throw std::invalid_argument("negative retransmission timeout");
  }
  if (cfg_.max_rto < cfg_.min_rto) {
    throw std::invalid_argument("retransmission ceiling below the floor");
  }
  if (cfg_.rto_jitter < 0.0 || cfg_.rto_jitter > 1.0) {
    throw std::invalid_argument("retransmission jitter outside [0, 1]");
  }
  if (cfg_.replication < 1 || cfg_.replication > cfg_.n_workers) {
    throw std::invalid_argument("replication factor outside [1, n_servers]");
  }
  if (cfg_.checkpoint_period < 0.0) {
    throw std::invalid_argument("negative checkpoint period");
  }
  if (cfg_.checkpoint_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("non-positive checkpoint rate");
  }
  if (cfg_.rejoin_slack < 0) {
    throw std::invalid_argument("negative rejoin slack");
  }
  if (cfg_.method == core::SyncMethod::kDSSP) {
    cfg_.staleness.validate();
  }
  if (cfg_.max_sim_time < 0.0) {
    throw std::invalid_argument("negative simulation time limit");
  }
  if (!cfg_.faults.joins.empty() && cfg_.dedicated_servers) {
    throw std::invalid_argument(
        "elastic joins require colocated servers (a joiner hosts both roles)");
  }
  if (!cfg_.faults.leaves.empty() && cfg_.dedicated_servers) {
    throw std::invalid_argument(
        "voluntary leaves require colocated servers (the drain migrates a "
        "colocated worker+server node)");
  }
  if (cfg_.autoscaler.enabled && cfg_.dedicated_servers) {
    throw std::invalid_argument(
        "the autoscaler requires colocated servers (standbys host both "
        "roles)");
  }
  if (cfg_.autoscaler.enabled && cfg_.topology.active() &&
      cfg_.autoscaler.standby_nodes > 0) {
    throw std::invalid_argument(
        "standby admission is not supported under a rack topology (rack "
        "membership is fixed at construction)");
  }
  if (cfg_.rack_aggregation &&
      (!cfg_.faults.leaves.empty() || cfg_.autoscaler.enabled)) {
    throw std::invalid_argument(
        "voluntary leaves / autoscaling are not supported with rack "
        "aggregation (an aggregator role cannot retire)");
  }
  if (cfg_.faults.lease_duration.has_value() &&
      *cfg_.faults.lease_duration <= cfg_.heartbeat_period) {
    throw std::invalid_argument(
        "lease duration must exceed the heartbeat period (a lease that "
        "cannot be renewed by beacons expires every interval)");
  }
  if (cfg_.faults.lease_duration.has_value() &&
      !cfg_.faults.partitions.empty() && cfg_.replication > 1) {
    // Partition safety depends on a minority primary self-fencing *before*
    // any majority observer's lease on it can lapse. The fence needs the
    // chain peers to suspect the primary first (echo turns negative at
    // suspicion + one beacon), then the half-length self-lease to run out —
    // all of which must fit inside half the lease, drift margin included.
    const TimeS lease = *cfg_.faults.lease_duration;
    const TimeS margin = 2.0 * cfg_.faults.clock_drift_rate * lease;
    if (lease / 2.0 <=
        cfg_.suspicion_timeout + 2.0 * cfg_.heartbeat_period + margin) {
      throw std::invalid_argument(
          "lease duration too short for partition-safe self-fencing: half "
          "the lease must exceed suspicion_timeout + 2 heartbeat periods "
          "plus the drift margin");
    }
  }
  if (cfg_.topology.active() && !cfg_.faults.joins.empty()) {
    throw std::invalid_argument(
        "elastic joins are not supported under a rack topology (rack "
        "membership is fixed at construction)");
  }
  if (cfg_.rack_aggregation) {
    if (!cfg_.topology.active()) {
      throw std::invalid_argument(
          "rack aggregation requires an active topology");
    }
    if (cfg_.dedicated_servers) {
      throw std::invalid_argument(
          "rack aggregation requires colocated servers (the aggregator node "
          "hosts a worker process)");
    }
  }
  if (cfg_.faults.lease_duration.has_value() && cfg_.faults.skewed()) {
    const TimeS lease = *cfg_.faults.lease_duration;
    const TimeS margin = 2.0 * cfg_.faults.clock_drift_rate * lease;
    if (margin + cfg_.heartbeat_period >= lease / 2.0) {
      throw std::invalid_argument(
          "clock drift bound too large for the lease: the drift margin plus "
          "one heartbeat period must stay below half the lease duration");
    }
  }

  Rng placement_rng(cfg_.seed);
  partition_ =
      sync_.slicing
          ? core::partition_p3(workload_.model, cfg_.n_workers,
                               cfg_.slice_params)
          : core::partition_kvstore(workload_.model, cfg_.n_workers,
                                    cfg_.kvstore_threshold, placement_rng);

  if (!cfg_.fwd_times.empty()) {
    const auto n = static_cast<std::size_t>(workload_.model.num_layers());
    if (cfg_.fwd_times.size() != n || cfg_.bwd_times.size() != n) {
      throw std::invalid_argument("compute override size mismatch");
    }
    profile_.fwd = cfg_.fwd_times;
    profile_.bwd = cfg_.bwd_times;
  } else {
    profile_ = model::make_profile(workload_.model, workload_.iter_compute_time);
  }

  net::NetworkConfig net_cfg;
  net_cfg.rate = cfg_.bandwidth;
  net_cfg.rx_rate = cfg_.rx_bandwidth;
  net_cfg.latency = cfg_.latency;
  net_cfg.topology = cfg_.topology;  // validated by the network constructor
  net_ = std::make_unique<net::Network>(sim_, total_nodes(), net_cfg);

  // Rack-scale hierarchy: both planes arm only when configured, so flat
  // runs post the exact pre-hierarchy event sequence.
  hierarchy_on_ = cfg_.topology.active();
  agg_on_ = cfg_.rack_aggregation;
  if (hierarchy_on_) {
    node_rack_.assign(static_cast<std::size_t>(total_nodes()), -1);
    const int n_racks = cfg_.topology.n_racks();
    rack_agg_.resize(static_cast<std::size_t>(n_racks));
    rack_workers_.resize(static_cast<std::size_t>(n_racks));
    for (int r = 0; r < n_racks; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      rack_agg_[rr] = cfg_.topology.aggregator_of(r);
      for (const int node : cfg_.topology.racks[rr]) {
        node_rack_[static_cast<std::size_t>(node)] = r;
        if (node < n_total_workers()) rack_workers_[rr].push_back(node);
      }
    }
  }
  if (agg_on_) {
    agg_rounds_.resize(static_cast<std::size_t>(total_nodes()));
    agg_combined_pushes_ =
        &registry_.counter("hierarchy.agg_combined_pushes");
    agg_param_broadcasts_ =
        &registry_.counter("hierarchy.agg_param_broadcasts");
    agg_fallback_pushes_ =
        &registry_.counter("hierarchy.agg_fallback_pushes");
  }

  cfg_.faults.validate(cfg_.dedicated_servers ? 2 * cfg_.n_workers
                                              : cfg_.n_workers,
                       cfg_.replication);
  if (cfg_.faults.active()) {
    faults_ = std::make_unique<net::FaultInjector>(
        cfg_.faults, cfg_.seed ^ 0xfa0175eedULL);
    net_->attach_faults(faults_.get());
  }
  // The ack/retransmit/dedup layer arms itself exactly when something can
  // go wrong (or when forced); a fault-free run posts the pre-reliability
  // event sequence bit for bit.
  reliable_ = cfg_.faults.active() || cfg_.reliable_transport;
  seen_.resize(static_cast<std::size_t>(total_nodes()));
  dedup_floor_.assign(static_cast<std::size_t>(total_nodes()), 0);
  rto_rng_ = Rng(cfg_.seed ^ 0x9e3779b97f4a7c15ULL);

  // The membership plane (heartbeats, replication, failover, rejoin) arms
  // exactly when a crash is planned, shards are replicated, or a test
  // forces it — otherwise nothing new is spawned and runs stay
  // bit-identical to the pre-membership engine.
  // DSSP always arms it: the staleness gate's liveness contract leans on
  // membership views (dead stragglers and minority-fenced workers leave the
  // min-clock through suspicion / quorum, never by fiat).
  dssp_on_ = cfg_.method == core::SyncMethod::kDSSP;
  membership_on_ = cfg_.force_membership || cfg_.replication > 1 ||
                   !cfg_.faults.crashes.empty() ||
                   !cfg_.faults.joins.empty() ||
                   !cfg_.faults.leaves.empty() || cfg_.autoscaler.enabled ||
                   cfg_.faults.lease_duration.has_value() || dssp_on_;
  leases_on_ = membership_on_ && cfg_.faults.lease_duration.has_value();
  lease_len_ = leases_on_ ? *cfg_.faults.lease_duration : 0.0;
  // Partition degraded mode (parking, echo-gated self-leases, quorum-gated
  // fencing, heal re-admission) arms only when partitions are planned, so
  // every partition-free run keeps the exact pre-partition event sequence.
  partition_plane_ = membership_on_ && !cfg_.faults.partitions.empty();
  // Per-node clock drift: rates and offsets are sampled from a dedicated
  // seeded stream only when armed — skew-free runs consume no randomness.
  drift_on_ = membership_on_ && cfg_.faults.skewed();
  if (drift_on_) {
    Rng drift_rng(cfg_.seed ^ 0xc10cd1f7ab5eedULL);
    clock_rate_.resize(static_cast<std::size_t>(total_nodes()));
    clock_offset_.resize(static_cast<std::size_t>(total_nodes()));
    for (int n = 0; n < total_nodes(); ++n) {
      clock_rate_[static_cast<std::size_t>(n)] =
          cfg_.faults.clock_drift_rate * (2.0 * drift_rng.uniform() - 1.0);
      clock_offset_[static_cast<std::size_t>(n)] =
          cfg_.faults.clock_offset_bound * (2.0 * drift_rng.uniform() - 1.0);
    }
  }
  node_state_.resize(static_cast<std::size_t>(total_nodes()));
  // Elastic joiners exist as dark nodes until their NodeJoin executes.
  for (int j = cfg_.n_workers; j < n_total_workers(); ++j) {
    auto& ns = node_state_[static_cast<std::size_t>(j)];
    ns.up = false;
    ns.joined = false;
  }

  const int layers = workload_.model.num_layers();
  const auto n_slices = static_cast<std::size_t>(partition_.num_slices());
  for (int w = 0; w < n_total_workers(); ++w) {
    const bool joiner = w >= cfg_.n_workers;
    auto ws = std::make_unique<WorkerState>(sim_);
    ws->gates.reserve(static_cast<std::size_t>(layers));
    for (int l = 0; l < layers; ++l) {
      ws->gates.push_back(std::make_unique<sim::VersionGate>(sim_));
    }
    ws->rng = Rng(cfg_.seed + 1000003ULL * static_cast<std::uint64_t>(w + 1));
    // Base workers hold the initial weights; a joiner's process does not
    // exist yet and will sync parameters through the join handshake.
    ws->recv_version.assign(n_slices, joiner ? -1 : 0);
    ws->recv_bytes.assign(n_slices, 0);
    ws->recv_inflight.assign(n_slices, -1);
    ws->last_push_iter.assign(n_slices, -1);
    if (!sync_.immediate_broadcast && !sync_.deferred_pull) {
      ws->notify_version.assign(n_slices, -1);
      ws->pulled_round.assign(static_cast<std::size_t>(layers), -1);
    }
    ws->sendq_gauge = &registry_.gauge(lane("w", w, ".sendq_depth"));
    workers_.push_back(std::move(ws));

    auto ss = std::make_unique<ServerState>(sim_);
    ss->round_bytes.assign(n_slices, 0);
    ss->version.assign(n_slices, 0);
    ss->pending.resize(n_slices);
    if (membership_on_) {
      ss->contrib.assign(n_slices,
                         std::vector<Bytes>(
                             static_cast<std::size_t>(n_total_workers()), 0));
      // A joiner is never waited for until its join handshake opens a
      // bounded-staleness window (beacons alone must not add it to the
      // expected set).
      ss->active_from.assign(
          n_slices, std::vector<std::int64_t>(
                        static_cast<std::size_t>(n_total_workers()), 0));
      for (auto& row : ss->active_from) {
        for (int j = cfg_.n_workers; j < n_total_workers(); ++j) {
          row[static_cast<std::size_t>(j)] =
              std::numeric_limits<std::int64_t>::max();
        }
      }
      ss->sync_epoch.assign(n_slices, -1);
    }
    ss->rxq_gauge = &registry_.gauge(lane("n", server_node(w), ".rxq_depth"));
    servers_.push_back(std::move(ss));
  }

  if (membership_on_) {
    MembershipConfig mcfg;
    mcfg.n_nodes = total_nodes();
    mcfg.heartbeat_period = cfg_.heartbeat_period;
    mcfg.suspicion_timeout = cfg_.suspicion_timeout;
    for (int n = 0; n < total_nodes(); ++n) {
      membership_.push_back(std::make_unique<Membership>(mcfg, n));
      for (int j = cfg_.n_workers; j < n_total_workers(); ++j) {
        membership_.back()->mark_unjoined(j);
      }
      if (drift_on_) {
        // The detector compares node-local clocks against node-local
        // last-heard stamps; seed the stamps with this node's clock at
        // sim-time zero so a pure offset never manufactures suspicion.
        membership_.back()->reset(local_now(n));
      }
      leadership_.push_back(std::make_unique<ShardLeadership>(
          n_servers(), cfg_.replication, n_total_servers()));
      if (leases_on_) {
        // Grant the initial leases: every home primary starts with one full
        // lease of grace before any observer may act on its silence. Lease
        // deadlines live on the observing node's clock.
        for (int g = 0; g < n_servers(); ++g) {
          leadership_.back()->renew_lease(g, local_now(n) + lease_len_);
        }
      }
    }
    ckpt_versions_.assign(static_cast<std::size_t>(n_total_servers()),
                          std::vector<std::int64_t>(n_slices, 0));
    pending_failover_.resize(static_cast<std::size_t>(total_nodes()));
    fenced_.resize(static_cast<std::size_t>(total_nodes()));
    // Optimistic self-leases (as if a chain-peer beacon arrived at t = 0),
    // mirroring the detector's optimistic start.
    self_lease_.resize(static_cast<std::size_t>(total_nodes()));
    for (int n = 0; n < total_nodes(); ++n) {
      self_lease_[static_cast<std::size_t>(n)].assign(
          static_cast<std::size_t>(n_servers()),
          local_now(n) + lease_len_ / 2.0);
    }
    if (partition_plane_) {
      parked_.resize(static_cast<std::size_t>(n_total_workers()));
      quorum_denied_.resize(static_cast<std::size_t>(total_nodes()));
    }
    acting_.assign(
        static_cast<std::size_t>(n_total_servers()),
        std::vector<Acting>(static_cast<std::size_t>(n_servers())));
    for (int g = 0; g < n_servers(); ++g) {
      // Home primaries act from the start (not counted as dual windows).
      auto& a = acting_[static_cast<std::size_t>(g)][static_cast<std::size_t>(g)];
      a.open = true;
      a.since = 0.0;
    }
  }

  // Voluntary drain + SLO-driven autoscaling: the scale plane arms only
  // when leaves are planned or the policy is enabled, so every
  // fixed-membership run keeps the exact pre-autoscaler event sequence and
  // registry contents.
  scale_plane_ = membership_on_ && (!cfg_.faults.leaves.empty() ||
                                    cfg_.autoscaler.enabled);
  if (scale_plane_) {
    group_push_bytes_.assign(static_cast<std::size_t>(n_servers()), 0.0);
    if (hierarchy_on_) {
      rack_group_push_bytes_.assign(
          static_cast<std::size_t>(cfg_.topology.n_racks()),
          std::vector<double>(static_cast<std::size_t>(n_servers()), 0.0));
    }
    shed_parked_.resize(static_cast<std::size_t>(n_total_workers()));
    standby_next_ = cfg_.n_workers + static_cast<int>(cfg_.faults.joins.size());
    // Shedding targets the bottom half of the priority range (higher value
    // = less urgent). With a flat priority space there is nothing "lowest"
    // to shed and the cutoff disables shedding.
    int max_prio = 0;
    for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
      max_prio = std::max(max_prio, item_priority(s));
    }
    shed_cutoff_ = max_prio / 2 + 1;
    drains_started_ = &registry_.counter("scale.drains_started");
    drains_completed_ = &registry_.counter("scale.drains_completed");
    scale_decisions_ = &registry_.counter("scale.decisions");
    sheds_ = &registry_.counter("scale.sheds");
    slo_violation_ticks_ = &registry_.counter("scale.slo_violation_ticks");
    if (cfg_.autoscaler.enabled) {
      AutoscalerConfig acfg = cfg_.autoscaler;
      if (acfg.queue_gauges.empty()) {
        for (int w = 0; w < n_total_workers(); ++w) {
          acfg.queue_gauges.push_back(lane("w", w, ".sendq_depth"));
        }
        for (int n = 0; n < total_nodes(); ++n) {
          acfg.queue_gauges.push_back(lane("n", n, ".rxq_depth"));
        }
      }
      autoscaler_ = std::make_unique<Autoscaler>(acfg, &registry_);
    }
  }

  // DSSP bounded-staleness gate: state, controller and metrics exist only
  // for the DSSP method, so every other method keeps the exact pre-DSSP
  // event sequence and registry contents.
  if (dssp_on_) {
    staleness_ = std::make_unique<StalenessController>(cfg_.staleness);
    dssp_gate_ = std::make_unique<sim::VersionGate>(sim_);
    dssp_clock_.assign(static_cast<std::size_t>(n_total_workers()), -1);
    dssp_blocked_.assign(static_cast<std::size_t>(n_total_workers()), false);
    dssp_need_.assign(static_cast<std::size_t>(n_total_workers()), 0);
    dssp_future_.resize(static_cast<std::size_t>(n_total_servers()));
    dssp_gate_blocks_ = &registry_.counter("dssp.gate_blocks");
    staleness_violations_ = &registry_.counter("dssp.staleness_violations");
    gate_wedge_ticks_ = &registry_.counter("dssp.gate_wedge_ticks");
    dssp_wait_hist_ = &registry_.histogram(
        "dssp.gate_wait_s",
        {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0});
    for (int w = 0; w < n_total_workers(); ++w) {
      dssp_gap_gauge_.push_back(
          &registry_.gauge(lane("w", w, ".dssp_clock_gap")));
    }
  } else {
    dssp_clock_.assign(static_cast<std::size_t>(n_total_workers()), -1);
  }
}

Cluster::~Cluster() = default;

void Cluster::attach_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  net_->attach_tracer(tracer);
}

void Cluster::mem_mark(int node, const char* label) {
  if (tracing()) {
    tracer_->span(lane("n", node, ".mem"), sim_.now(), sim_.now(), label);
  }
}

void Cluster::lc(obs::Stage stage, int worker, std::int64_t slice,
                 std::int64_t iteration, Bytes bytes) {
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  tracer_->lifecycle(stage, worker, slice, sl.layer, iteration,
                     item_priority(slice), bytes, sim_.now());
}

void Cluster::sendq_depth_changed(int w, std::int64_t delta) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  ws.sendq_depth += delta;
  ws.sendq_gauge->set(static_cast<double>(ws.sendq_depth));
  if (tracing()) {
    tracer_->counter(lane("w", w, ".sendq"), sim_.now(),
                     static_cast<double>(ws.sendq_depth));
  }
}

void Cluster::rxq_depth_changed(int server, std::int64_t delta) {
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  ss.rxq_depth += delta;
  ss.rxq_gauge->set(static_cast<double>(ss.rxq_depth));
  if (tracing()) {
    tracer_->counter(lane("n", server_node(server), ".rxq"), sim_.now(),
                     static_cast<double>(ss.rxq_depth));
  }
}

Bytes Cluster::wire_payload(Bytes logical) const {
  if (cfg_.wire_compression <= 1.0) return logical;
  const auto compressed = static_cast<Bytes>(
      static_cast<double>(logical) / cfg_.wire_compression);
  return std::max<Bytes>(compressed, 1);
}

int Cluster::item_priority(std::int64_t slice) const {
  if (!sync_.priority) return 0;  // FIFO: ties broken by sequence number
  return partition_.slices[static_cast<std::size_t>(slice)].priority;
}

double Cluster::jitter_factor(WorkerState& ws) {
  if (cfg_.compute_jitter <= 0.0) return 1.0;
  return std::max(0.2, ws.rng.normal(1.0, cfg_.compute_jitter));
}

TimeS Cluster::initial_rto(const net::Message& m) const {
  if (cfg_.fixed_rto > 0.0) return cfg_.fixed_rto;
  // Generous floor: a round trip plus one full serialization of this
  // message per incast participant (n pushes can queue ahead of it at the
  // server's RX channel). A spurious timeout is safe — dedup makes
  // retransmission idempotent — but wastes wire bytes, so err high and let
  // exponential backoff absorb real congestion.
  return cfg_.min_rto + 2.0 * cfg_.latency +
         static_cast<double>(cfg_.n_workers + 2) *
             transfer_time(m.bytes, cfg_.bandwidth);
}

bool Cluster::reachable(int node) const {
  if (!membership_on_) return true;
  const auto& ns = node_state_[static_cast<std::size_t>(node)];
  if (ns.up) return true;
  // Down but restarting: the retransmission layer bridges the outage.
  return !permanently_down(node);
}

bool Cluster::permanently_down(int node) const {
  const auto& ns = node_state_[static_cast<std::size_t>(node)];
  if (ns.retired) return true;  // invariant 12: retirement is forever
  if (ns.up) return false;
  for (const auto& c : cfg_.faults.crashes) {
    if (c.node == node && c.restarts() &&
        c.restart_time() > ns.down_since) {
      return false;  // a restart is still scheduled
    }
  }
  return true;
}

void Cluster::arm_reliable(net::Message& m, int via_worker) {
  m.msg_id = next_msg_id_++;
  PendingTx pending;
  pending.msg = m;
  pending.rto = initial_rto(m);
  pending.via_worker = via_worker;
  pending_tx_.emplace(m.msg_id, std::move(pending));
}

void Cluster::schedule_retx_timer(std::int64_t msg_id, TimeS delay) {
  if (cfg_.rto_jitter > 0.0) {
    delay += delay * cfg_.rto_jitter * rto_rng_.uniform();
  }
  sim_.schedule(delay, [this, msg_id] { on_retx_timeout(msg_id); });
}

void Cluster::on_retx_timeout(std::int64_t msg_id) {
  const auto it = pending_tx_.find(msg_id);
  if (it == pending_tx_.end()) return;  // acked; the timer is a no-op
  ++timeouts_fired_;
  PendingTx& pending = it->second;
  // Exponential backoff to a bounded ceiling: a node down for seconds keeps
  // being probed at max_rto rate instead of the timer doubling away.
  pending.rto = std::min(pending.rto * cfg_.rto_backoff, cfg_.max_rto);
  if (pending.via_worker >= 0) {
    if (pending.queued) return;  // defensive: already awaiting the sender
    pending.queued = true;
    auto& ws = *workers_[static_cast<std::size_t>(pending.via_worker)];
    SendItem item;
    item.slice = pending.msg.slice;
    item.kind = pending.msg.kind;
    item.iteration = pending.msg.iteration;
    item.priority = pending.msg.priority;
    item.seq = ws.send_seq++;
    item.retx_id = msg_id;
    ws.sendq.push(item);
    sendq_depth_changed(pending.via_worker, +1);
    if (tracing()) {
      lc(obs::Stage::kEnqueue, pending.via_worker, pending.msg.slice,
         pending.msg.iteration, pending.msg.logical);
    }
    // No timer while queued; the sender arms one when the copy hits the
    // wire, so send-queue backlog never counts against the RTO.
  } else {
    ++retransmits_;
    if (tracing()) {
      tracer_->span(lane("n", pending.msg.src, ".rtx"), sim_.now(), sim_.now(),
                    "r" + net::message_label(pending.msg));
    }
    net_->post(pending.msg);
    schedule_retx_timer(msg_id, pending.rto);
  }
}

bool Cluster::accept_reliable(int node, const net::Message& m) {
  // The sender decides: only tracked messages carry a msg_id, and every
  // tracked message must be acked — commit_round arms kReplicate copies
  // even when the loss-recovery layer itself is disarmed (fault-free runs
  // with replication > 1 still need the commit barrier to come down).
  if (m.msg_id < 0) return true;
  // Always ack, even duplicates: the previous ack may itself have been
  // dropped, and the sender keeps retransmitting until one gets through.
  net::Message ack;
  ack.src = node;
  ack.dst = m.src;
  ack.kind = net::MsgKind::kAck;
  ack.slice = m.slice;
  ack.layer = m.layer;
  ack.worker = m.worker;
  ack.msg_id = m.msg_id;
  ack.bytes = net::kAckBytes;
  net_->post(ack);
  ++acks_sent_;
  if (m.msg_id < dedup_floor_[static_cast<std::size_t>(node)]) {
    // Below the watermark: the id was GC'd from the table, which is only
    // possible once no sender can retransmit it — any copy is a duplicate.
    ++duplicates_suppressed_;
    return false;
  }
  if (!seen_[static_cast<std::size_t>(node)].insert(m.msg_id).second) {
    ++duplicates_suppressed_;
    return false;
  }
  maybe_gc_dedup(node);
  return true;
}

void Cluster::maybe_gc_dedup(int node) {
  auto& seen = seen_[static_cast<std::size_t>(node)];
  if (seen.size() < kDedupGcThreshold) return;
  // Every id below the oldest still-pending send is final: its sender either
  // got the ack or gave up for good, so no copy of it can ever be posted
  // again. Anything still retransmitting pins the floor.
  std::int64_t floor = next_msg_id_;
  for (const auto& [id, tx] : pending_tx_) floor = std::min(floor, id);
  auto& mark = dedup_floor_[static_cast<std::size_t>(node)];
  if (floor <= mark) return;
  mark = floor;
  for (auto it = seen.begin(); it != seen.end();) {
    it = *it < floor ? seen.erase(it) : std::next(it);
  }
}

void Cluster::post_tracked(net::Message m) {
  if (membership_on_ && !reachable(m.dst)) return;  // nobody to deliver to
  if (reliable_ && m.src != m.dst) {
    arm_reliable(m, -1);
    const TimeS rto = pending_tx_.at(m.msg_id).rto;
    net_->post(m);
    schedule_retx_timer(m.msg_id, rto);
  } else {
    net_->post(m);
  }
}

void Cluster::enqueue_push(int w, std::int64_t slice, std::int64_t iteration,
                           bool direct) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  ws.last_push_iter[static_cast<std::size_t>(slice)] = iteration;
  Bytes remaining = sl.payload_bytes();
  // Fragment large shards (ps-lite serialization); each fragment is a
  // separate message, so priority preemption also works mid-layer.
  while (remaining > 0) {
    SendItem item;
    item.slice = slice;
    item.kind = net::MsgKind::kPushGradient;
    item.iteration = iteration;
    item.payload = std::min(remaining, cfg_.fragment_bytes);
    item.priority = item_priority(slice);
    item.seq = ws.send_seq++;
    item.direct = direct;
    ws.sendq.push(item);
    sendq_depth_changed(w, +1);
    if (tracing()) lc(obs::Stage::kEnqueue, w, slice, iteration, item.payload);
    remaining -= item.payload;
  }
}

int Cluster::slice_dst_node(int worker, std::int64_t slice) const {
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  if (!membership_on_) return server_node(sl.server);
  return server_node(
      leadership_[static_cast<std::size_t>(worker)]->primary(sl.server));
}

void Cluster::enqueue_pull(int w, std::int64_t slice, std::int64_t iteration) {
  // Pull requests are tiny control messages; like TCP small packets they
  // interleave with bulk data rather than queueing behind it, so they are
  // posted directly instead of going through the bulk send queue.
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  net::Message m;
  m.src = w;
  m.dst = slice_dst_node(w, slice);
  m.kind = net::MsgKind::kPullRequest;
  m.slice = slice;
  m.layer = sl.layer;
  m.priority = item_priority(slice);
  m.iteration = iteration;
  m.worker = w;
  m.bytes = net::kControlBytes;
  if (tracing()) {
    m.trace_id = obs::make_trace_id(slice, iteration, w);
    lc(obs::Stage::kPull, w, slice, iteration, 0);
  }
  post_tracked(m);
  ++pulls_sent_;
}

sim::Task Cluster::worker_loop(int w, std::int64_t start_iter) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto wn = static_cast<std::size_t>(w);
  const std::int64_t my_epoch = node_state_[wn].epoch;
  const int layers = workload_.model.num_layers();
  if (dssp_on_) dssp_set_clock(w, start_iter);  // (re)enter the min-clock
  for (std::int64_t iter = start_iter; iter < target_iterations_; ++iter) {
    const double jitter = jitter_factor(ws);
    const TimeS iter_t0 = sim_.now();
    TimeS stall = 0.0;
    std::int64_t fwd_floor = iter;
    if (dssp_on_) {
      // --- DSSP staleness gate ---
      // Entering iteration `iter` at clock `iter`: block until the monotone
      // floor of the min eligible clock reaches `iter - s`, with s captured
      // from the controller at block time.
      dssp_set_clock(w, iter);
      const std::int64_t s = staleness_->bound();
      const std::int64_t need = iter - s;
      const TimeS gate_t0 = sim_.now();
      if (need > dssp_gate_->version()) {
        ++(*dssp_gate_blocks_);
        dssp_blocked_[wn] = true;
        dssp_need_[wn] = need;
        co_await dssp_gate_->wait_for(need);
        if (node_state_[wn].epoch != my_epoch) co_return;  // crashed gated
        dssp_blocked_[wn] = false;
        if (tracing()) {
          tracer_->span(lane("w", w, ".ssp"), gate_t0, sim_.now(), "ssp");
        }
      }
      const TimeS waited = sim_.now() - gate_t0;
      // Ground-truth bound audit: a fresh re-derivation of the floor must
      // cover what the gate just released (PROTOCOL.md inv. 13).
      if (need > dssp_advance_gate()) ++(*staleness_violations_);
      dssp_wait_hist_->observe(waited);
      dssp_wait_sum_ += waited;
      ++dssp_passages_;
      staleness_->observe(sim_.now(), waited);
      // The forward pass runs on parameters up to s rounds stale (the SSP
      // relaxation); capture the bound once so every layer of this
      // iteration waits on the same target.
      fwd_floor = std::max<std::int64_t>(0, iter - staleness_->bound());
    }
    // --- forward propagation ---
    for (int l = 0; l < layers; ++l) {
      if (!partition_.layer_slices[static_cast<std::size_t>(l)].empty()) {
        const TimeS wait_from = sim_.now();
        co_await ws.gates[static_cast<std::size_t>(l)]->wait_for(fwd_floor);
        if (node_state_[wn].epoch != my_epoch) co_return;  // crashed
        stall += sim_.now() - wait_from;
      }
      const TimeS t0 = sim_.now();
      co_await sim_.sleep(profile_.fwd[static_cast<std::size_t>(l)] * jitter);
      if (node_state_[wn].epoch != my_epoch) co_return;
      if (tracing()) {
        tracer_->span(lane("w", w, ".cmp"), t0, sim_.now(),
                      "F" + std::to_string(l + 1));
      }
    }
    // --- backward propagation (reverse order) ---
    for (int l = layers - 1; l >= 0; --l) {
      const TimeS t0 = sim_.now();
      co_await sim_.sleep(profile_.bwd[static_cast<std::size_t>(l)] * jitter);
      if (node_state_[wn].epoch != my_epoch) co_return;
      if (tracing()) {
        tracer_->span(lane("w", w, ".cmp"), t0, sim_.now(),
                      "B" + std::to_string(l + 1));
      }
      // Wait-free backpropagation: the layer's slices enter the send queue
      // the moment its gradients exist.
      for (auto slice : partition_.layer_slices[static_cast<std::size_t>(l)]) {
        if (tracing()) lc(obs::Stage::kGradReady, w, slice, iter, 0);
        enqueue_push(w, slice, iter);
      }
    }
    if (sync_.deferred_pull) {
      // TensorFlow-style: pulls for every key are issued together at the
      // start of the next graph execution, in forward order.
      for (int l = 0; l < layers; ++l) {
        for (auto slice :
             partition_.layer_slices[static_cast<std::size_t>(l)]) {
          enqueue_pull(w, slice, iter);
        }
      }
    }
    ws.iter_done.push_back(sim_.now());
    ws.iter_stall.push_back(stall);
    iter_time_hist_.observe(sim_.now() - iter_t0);
    stall_time_hist_.observe(stall);
  }
  // A finished worker leaves the min-clock (its clock would otherwise
  // freeze and wedge the still-running stragglers).
  if (dssp_on_) dssp_set_clock(w, -1);
  if (!ws.finished) {
    ws.finished = true;
    ++workers_finished_;
  }
}

sim::Task Cluster::worker_sender(int w) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto wn = static_cast<std::size_t>(w);
  for (;;) {
    SendItem item = co_await ws.sendq.pop();
    sendq_depth_changed(w, -1);
    if (membership_on_ && !node_state_[wn].up) continue;  // dead process
    if (item.retx_id >= 0) {
      // Retransmission: it competed in the priority queue at the original
      // slice priority, so urgent traffic still preempts it under loss.
      auto it = pending_tx_.find(item.retx_id);
      if (it == pending_tx_.end()) continue;  // acked while queued
      if (partition_plane_ && it->second.msg.dst != w &&
          membership_[wn]->joined(it->second.msg.dst) &&
          !membership_[wn]->alive(it->second.msg.dst) &&
          reachable(it->second.msg.dst)) {
        // Degraded mode: the destination is dead in this worker's view but
        // will be back (partition heal / restart) — park the copy instead
        // of burning wire on a severed link. `queued` stays set, so the
        // retransmission timer stays quiet until a revival beacon drains
        // the parking lot. Permanently-down destinations are not parked:
        // the legacy drop path applies.
        item.parked_at = sim_.now();
        parked_[wn].push_back(item);
        ++parked_pushes_;
        continue;
      }
      it->second.queued = false;
      const net::Message m = it->second.msg;
      ++retransmits_;
      if (tracing()) {
        tracer_->span(lane("n", m.src, ".rtx"), sim_.now(), sim_.now(),
                      "r" + net::message_label(m));
      }
      if (cfg_.send_overhead > 0.0) co_await sim_.sleep(cfg_.send_overhead);
      if (tracing()) lc(obs::Stage::kSend, w, m.slice, m.iteration, m.bytes);
      co_await net_->send(m);
      // Only re-arm the timer if the ack didn't land mid-send.
      const auto it2 = pending_tx_.find(item.retx_id);
      if (it2 != pending_tx_.end()) {
        schedule_retx_timer(item.retx_id, it2->second.rto);
      }
      continue;
    }
    if (shed_active_ && should_shed(item)) {
      // Graceful overload degradation: over capacity with nothing left to
      // admit, low-priority pushes wait out the shed window instead of
      // competing for the saturated link. They re-enter the send queue at
      // expiry — delayed contributions, never dropped (the ledger's
      // per-worker cap keeps the merge exactly-once regardless).
      item.parked_at = sim_.now();
      shed_parked_[wn].push_back(item);
      ++*sheds_;
      continue;
    }
    const auto& sl = partition_.slices[static_cast<std::size_t>(item.slice)];
    net::Message m;
    m.src = w;
    m.dst = slice_dst_node(w, item.slice);  // current leader in w's view
    m.kind = item.kind;
    m.slice = item.slice;
    m.layer = sl.layer;
    m.priority = item.priority;
    m.iteration = item.iteration;
    m.worker = w;
    m.logical = item.payload;
    m.bytes = wire_payload(item.payload) + net::kHeaderBytes;
    if (dssp_on_ && item.kind == net::MsgKind::kPushGradient) {
      // The held-params floor rides along with every push: rounds below it
      // were released to this worker, hence committed cluster-wide. An
      // adopted shard that is behind this floor fast-forwards to it
      // instead of holding a round open that no re-push will ever fund
      // (adoption re-pushes start at the worker's recv floor).
      m.version = std::max<std::int64_t>(
          0, ws.recv_version[static_cast<std::size_t>(item.slice)]);
    }
    if (tracing()) {
      m.trace_id = obs::make_trace_id(item.slice, item.iteration, w);
    }
    if (agg_on_ && item.kind == net::MsgKind::kPushGradient) {
      if (item.agg_id >= 0) {
        // Forwarding leg of a rack pre-reduction: straight to the shard
        // leader, carrying the contributor cover.
        m.agg_id = item.agg_id;
      } else if (!item.direct) {
        const int agg = rack_agg_node(node_rack_[wn]);
        if (agg_usable(w, agg)) {
          // Fast path: fold at the rack aggregator first (a self-addressed
          // copy when this worker *is* the aggregator — pure loopback).
          m.kind = net::MsgKind::kRackPush;
          m.dst = agg;
        } else {
          ++*agg_fallback_pushes_;
        }
      } else {
        ++*agg_fallback_pushes_;
      }
    }
    if (partition_plane_ && m.dst != w && membership_[wn]->joined(m.dst) &&
        !membership_[wn]->alive(m.dst) && reachable(m.dst)) {
      // Fresh push toward a view-dead (but returning) destination: park the
      // queue item itself; on revival it re-enters the send queue and the
      // destination re-resolves against the then-current leadership view.
      item.parked_at = sim_.now();
      parked_[wn].push_back(item);
      ++parked_pushes_;
      continue;
    }
    if (membership_on_ && !reachable(m.dst)) continue;
    if (reliable_ && m.src != m.dst) arm_reliable(m, w);
    ++pushes_sent_;
    // Per-message CPU cost on the sender thread, then a blocking send: the
    // consumer only dequeues the next (highest priority) item once this
    // message has fully serialized onto the NIC.
    if (cfg_.send_overhead > 0.0) co_await sim_.sleep(cfg_.send_overhead);
    if (tracing()) {
      lc(obs::Stage::kSend, w, item.slice, item.iteration, m.bytes);
    }
    co_await net_->send(m);
    if (m.msg_id >= 0) {
      const auto it = pending_tx_.find(m.msg_id);
      if (it != pending_tx_.end()) {
        schedule_retx_timer(m.msg_id, it->second.rto);
      }
    }
  }
}

void Cluster::on_replicate_ack(std::int64_t msg_id) {
  const auto it = replicate_wait_.find(msg_id);
  if (it == replicate_wait_.end()) return;
  const std::int64_t key = it->second;
  replicate_wait_.erase(it);
  const auto cit = commits_.find(key);
  if (cit == commits_.end()) return;
  CommitState& cs = cit->second;
  if (--cs.outstanding > 0) return;
  // Commit barrier down: every live backup holds the new state, so losing
  // the primary can no longer roll the round back. Release to workers.
  const CommitState done = cs;
  commits_.erase(cit);
  release_round(done.server, done.slice, done.round);
}

sim::Task Cluster::node_demux(int n) {
  // Colocated mode: node n hosts worker n and server n. Dedicated mode:
  // nodes [0, n_workers) host workers, [n_workers, 2*n_workers) servers.
  const int server_idx = server_of_node(n);
  const auto nn = static_cast<std::size_t>(n);
  for (;;) {
    net::Message m = co_await net_->inbox(n).pop();
    if (membership_on_ && !node_state_[nn].up) continue;  // dead process
    if (m.kind == net::MsgKind::kAck) {
      // Delivery confirmed: retire the sender-side retransmission state
      // (any outstanding timer becomes a no-op).
      pending_tx_.erase(m.msg_id);
      if (membership_on_) {
        on_replicate_ack(m.msg_id);
        on_migrate_ack(m.msg_id);
      }
      continue;
    }
    if (m.kind == net::MsgKind::kHeartbeat) {
      if (scale_plane_ &&
          node_state_[static_cast<std::size_t>(m.src)].retired) {
        // Invariant 12: retirement is forever. The goodbye at retirement
        // supersedes every beacon the node posted before leaving; a stale
        // one still in the fabric must not resurrect the node in this
        // receiver's view.
        continue;
      }
      // Beacons are fire-and-forget and not protocol goodput. The receipt
      // stamp is this node's local clock — the detector only ever compares
      // it against the same clock. m.version carries the sender's liveness
      // belief about *this* node (the echo the partition plane gates
      // self-lease renewal on).
      const auto effect =
          membership_[nn]->record_heartbeat(m.src, m.iteration, local_now(n));
      if (leases_on_ || effect.superseded ||
          (partition_plane_ && effect.revived)) {
        on_beacon(n, m.src, effect, m.version != 0);
      }
      continue;
    }
    if (m.kind != net::MsgKind::kBackground) {
      if (!accept_reliable(n, m)) continue;  // duplicate suppressed
      goodput_bytes_ += m.bytes;
    }
    switch (m.kind) {
      case net::MsgKind::kPushGradient:
      case net::MsgKind::kPullRequest: {
        if (server_idx < 0) throw std::logic_error("PS traffic at worker node");
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        RxItem item;
        item.msg = m;
        item.priority = m.priority;
        item.seq = ss.rx_seq++;
        ss.rxq.push(item);
        rxq_depth_changed(server_idx, +1);
        break;
      }
      case net::MsgKind::kNotify:
        worker_on_notify(n, m);
        break;
      case net::MsgKind::kParams:
        worker_on_param(n, m);
        break;
      case net::MsgKind::kReplicate: {
        // Backup copy of a completed round: versioned state replacement,
        // idempotent under retransmission (stale versions are no-ops).
        if (server_idx < 0) throw std::logic_error("replica at worker node");
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        const auto si = static_cast<std::size_t>(m.slice);
        if (m.version > ss.version[si]) ss.version[si] = m.version;
        break;
      }
      case net::MsgKind::kNewPrimary: {
        // m.slice = group, m.iteration = epoch, m.worker = primary server.
        // One adoption per node: the leadership view is shared by every
        // role the node hosts, so adopt once and, if the transition moved
        // the view and the node hosts a worker, trigger its re-push.
        const int group = static_cast<int>(m.slice);
        const bool moved =
            leadership_[nn]->adopt(group, m.iteration, m.worker);
        if (moved) {
          if (n < n_total_workers()) {
            worker_repush_group(n, group);
          }
          // A displaced local primary stops acting the moment it learns;
          // an installed one starts its self-lease clock fresh.
          if (server_idx >= 0) {
            if (leadership_[nn]->primary(group) == server_idx) {
              seed_self_lease(server_idx, group);
            }
            update_acting(server_idx, group);
          }
        } else if (n < n_total_workers() &&
                   (m.iteration < leadership_[nn]->epoch(group) ||
                    m.worker != leadership_[nn]->primary(group))) {
          // A redirect our view outranks (older epoch, or a lower-rank
          // primary at the same epoch): the sender is behind a handover we
          // already adopted and dropped the payload it bounced. Re-push the
          // group — the loop ends once the true leader's adoption lands.
          worker_repush_group(n, group);
        }
        break;
      }
      case net::MsgKind::kJoinRequest: {
        // A restarted worker asks to re-enter sync; every group this server
        // currently leads replies with fresh params and a bounded-staleness
        // expectation window.
        if (server_idx < 0) break;  // worker nodes ignore join broadcasts
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        const auto& lead = *leadership_[nn];
        for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
          const auto& sl = partition_.slices[static_cast<std::size_t>(s)];
          if (lead.primary(sl.server) != server_idx) continue;
          const auto si = static_cast<std::size_t>(s);
          ss.active_from[si][static_cast<std::size_t>(m.worker)] =
              ss.version[si] + cfg_.rejoin_slack;
          send_params(server_idx, s, m.worker);
        }
        break;
      }
      case net::MsgKind::kSyncRequest: {
        // A restarted server asks its group for the post-checkpoint delta.
        // Only the node that currently believes it leads the group answers,
        // so a rehydrating server can never adopt state from a stale
        // backup.
        if (server_idx < 0) break;
        const int group =
            partition_.slices[static_cast<std::size_t>(m.slice)].server;
        const auto& lease = leadership_[nn]->lease(group);
        if (lease.primary != server_idx) break;
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        const auto si = static_cast<std::size_t>(m.slice);
        net::Message reply;
        reply.src = n;
        reply.dst = m.src;
        reply.kind = net::MsgKind::kSyncData;
        reply.slice = m.slice;
        reply.layer = m.layer;
        reply.worker = server_idx;        // current leader
        reply.iteration = lease.epoch;    // leadership epoch
        reply.version = ss.version[si];
        const Bytes payload =
            m.version < ss.version[si]
                ? partition_.slices[si].payload_bytes()
                : 0;  // requester already current: header-only reply
        reply.logical = payload;
        reply.bytes = (payload > 0 ? wire_payload(payload) : 0) +
                      net::kControlBytes;
        post_tracked(reply);
        break;
      }
      case net::MsgKind::kSyncData: {
        if (server_idx < 0) break;
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        const auto si = static_cast<std::size_t>(m.slice);
        if (m.version > ss.version[si]) ss.version[si] = m.version;
        const int group = partition_.slices[si].server;
        leadership_[nn]->adopt(group, m.iteration, m.worker);
        update_acting(server_idx, group);
        ss.sync_epoch[si] = node_state_[nn].epoch;
        rehydration_bytes_ += m.logical;
        break;
      }
      case net::MsgKind::kServerJoin: {
        // A joining server asks for its deterministic share of the shard
        // groups; whichever node currently believes it leads a planned
        // group starts migrating it. Repeats are idempotent: a group
        // already migrating (or already handed over) is skipped.
        if (server_idx < 0) break;
        if (scale_plane_) {
          const auto& rs = node_state_[static_cast<std::size_t>(
              server_node(m.worker))];
          // A draining node stops accepting new shard leadership: a stale
          // admission ask racing the drain must not hand groups back to
          // the very node busy migrating them out.
          if (rs.draining || rs.retired) break;
        }
        for (const int g : rebalance_plan(m.worker)) {
          if (leadership_[nn]->primary(g) != server_idx) continue;
          start_migration(server_idx, g, m.worker);
        }
        break;
      }
      case net::MsgKind::kMigrate: {
        // Shard state (parameters + optimizer) landing at the joiner;
        // versioned and idempotent like kReplicate/kSyncData, so a target
        // restart mid-migration just re-applies the retransmitted copies.
        if (server_idx < 0) break;
        auto& ss = *servers_[static_cast<std::size_t>(server_idx)];
        const auto si = static_cast<std::size_t>(m.slice);
        if (m.version > ss.version[si]) ss.version[si] = m.version;
        migrated_bytes_ += m.logical;
        break;
      }
      case net::MsgKind::kRackPush:
        on_rack_push(n, m);
        break;
      case net::MsgKind::kRackParams:
        on_rack_params(n, m);
        break;
      case net::MsgKind::kBackground:
        break;  // foreign tenant traffic: consumed bandwidth, nothing else
      case net::MsgKind::kAck:
      case net::MsgKind::kHeartbeat:
      case net::MsgKind::kRecheck:
        break;  // handled above / never on the wire
    }
  }
}

void Cluster::worker_repush_group(int w, int group) {
  // Leadership moved: deterministically re-push every slice of the group
  // whose resulting parameters have not come back yet — the new primary
  // restarted those rounds from empty accumulators (or, if the round did
  // commit before the failover, answers the stale re-push with current
  // parameters). PR 1 dedup plus the per-round contribution cap make this
  // idempotent.
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  if (!node_state_[static_cast<std::size_t>(w)].up) return;
  if (partition_plane_) {
    // Parked fresh pushes for this group are superseded by the re-push
    // below (parked retransmissions keep their pending_tx state and drain
    // through the ordinary unpark path, where the old primary redirects or
    // stale-push-replies them).
    auto& lot = parked_[static_cast<std::size_t>(w)];
    for (auto it = lot.begin(); it != lot.end();) {
      const bool fresh = it->retx_id < 0;
      const int lot_group =
          it->slice >= 0
              ? partition_.slices[static_cast<std::size_t>(it->slice)].server
              : -1;
      it = (fresh && lot_group == group) ? lot.erase(it) : std::next(it);
    }
  }
  for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (partition_.slices[si].server != group) continue;
    const std::int64_t pushed = ws.last_push_iter[si];
    if (pushed >= 0 && ws.recv_version[si] <= pushed) {
      // Recovery re-pushes bypass the rack aggregator: rack peers holding
      // the round's parameters will never re-push it, so a fold waiting for
      // them would wedge. The server ledger keeps direct re-pushes
      // exactly-once against any cover the aggregator did forward.
      if (dssp_on_) {
        // Run-ahead leaves up to s+1 rounds outstanding per slice, and a
        // restarted primary needs every one of them (its future-round
        // buffer died with the old process): re-push the whole unreturned
        // window, oldest first.
        for (std::int64_t r = std::max<std::int64_t>(0, ws.recv_version[si]);
             r <= pushed; ++r) {
          enqueue_push(w, s, r, /*direct=*/true);
        }
      } else {
        enqueue_push(w, s, pushed, /*direct=*/true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rack-local aggregation: fold at the ToR tier, one combined push per rack.
// ---------------------------------------------------------------------------

bool Cluster::agg_usable(int w, int agg) const {
  if (w == agg) return true;  // the loopback fold is always available
  if (!membership_on_) return true;
  return node_state_[static_cast<std::size_t>(agg)].joined &&
         reachable(agg) &&
         membership_[static_cast<std::size_t>(w)]->alive(agg);
}

void Cluster::on_rack_push(int agg, const net::Message& m) {
  // Fold one worker's fragment into the rack-local pre-reduction. The fold
  // itself is free (SHArP-style in-network reduction at the ToR tier); the
  // combined push pays the ordinary server-side aggregation cost once.
  AggRound& round =
      agg_rounds_[static_cast<std::size_t>(agg)][{m.slice, m.iteration}];
  round.contrib[m.worker] += m.logical;
  if (tracing()) {
    tracer_->span(lane("n", agg, ".agg"), sim_.now(), sim_.now(),
                  "f" + std::to_string(m.layer + 1));
  }
  agg_flush(agg, m.slice, m.iteration);
}

void Cluster::agg_flush(int agg, std::int64_t slice, std::int64_t iteration) {
  auto& rounds = agg_rounds_[static_cast<std::size_t>(agg)];
  const auto it = rounds.find({slice, iteration});
  if (it == rounds.end()) return;
  AggRound& round = it->second;
  const Bytes payload =
      partition_.slices[static_cast<std::size_t>(slice)].payload_bytes();
  const auto rack = static_cast<std::size_t>(node_rack_[agg]);
  // A member is expected while the aggregator's view holds it joined and
  // alive; complete contributions count regardless of liveness. A late
  // contribution after a partial flush (the sender was view-dead at flush
  // time but its fragments still landed) forwards as a singleton cover.
  for (const int w : rack_workers_[rack]) {
    const auto cit = round.contrib.find(w);
    if (cit != round.contrib.end() && cit->second >= payload) continue;
    bool expected = true;
    if (membership_on_) {
      expected = node_state_[static_cast<std::size_t>(w)].joined &&
                 (w == agg ||
                  membership_[static_cast<std::size_t>(agg)]->alive(w));
    }
    if (expected) return;  // still waiting on a live member
  }
  std::vector<int> cover;
  for (const auto& [w, bytes] : round.contrib) {
    if (bytes >= payload && round.forwarded.insert(w).second) {
      cover.push_back(w);
    }
  }
  if (cover.empty()) return;
  // The fold is only retired once every rack member was covered; a partial
  // flush keeps it so stragglers' fragments can still complete and forward.
  const bool done = round.forwarded.size() >= rack_workers_[rack].size();
  enqueue_agg_push(agg, slice, iteration, std::move(cover));
  if (done) rounds.erase(it);
}

void Cluster::agg_flush_all(int agg) {
  auto& rounds = agg_rounds_[static_cast<std::size_t>(agg)];
  std::vector<std::pair<std::int64_t, std::int64_t>> keys;
  keys.reserve(rounds.size());
  for (const auto& [key, round] : rounds) keys.push_back(key);
  for (const auto& [slice, iteration] : keys) {
    agg_flush(agg, slice, iteration);
  }
}

void Cluster::enqueue_agg_push(int agg, std::int64_t slice,
                               std::int64_t iteration,
                               std::vector<int> cover) {
  // The combined push rides the aggregator's own priority send queue, so it
  // competes at slice priority and inherits the parking and
  // retransmit-through-the-sendq semantics every worker push has.
  const std::int64_t id = next_agg_id_++;
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  AggCover cv;
  cv.workers = std::move(cover);
  cv.remaining = sl.payload_bytes();
  agg_cover_.emplace(id, std::move(cv));
  auto& ws = *workers_[static_cast<std::size_t>(agg)];
  Bytes remaining = sl.payload_bytes();
  while (remaining > 0) {
    SendItem item;
    item.slice = slice;
    item.kind = net::MsgKind::kPushGradient;
    item.iteration = iteration;
    item.payload = std::min(remaining, cfg_.fragment_bytes);
    item.priority = item_priority(slice);
    item.seq = ws.send_seq++;
    item.agg_id = id;
    if (tracing()) {
      lc(obs::Stage::kEnqueue, agg, slice, iteration, item.payload);
    }
    ws.sendq.push(item);
    sendq_depth_changed(agg, +1);
    remaining -= item.payload;
  }
  ++*agg_combined_pushes_;
}

void Cluster::send_rack_params(int server, std::int64_t slice) {
  // Downward mirror of the pre-reduction: the parameter payload crosses the
  // fabric once per rack (to the aggregator, which re-broadcasts) instead
  // of once per worker. Racks whose aggregator is unusable in the server's
  // view fall back to direct per-worker sends.
  const auto si = static_cast<std::size_t>(slice);
  const auto& sl = partition_.slices[si];
  const auto& ss = *servers_[static_cast<std::size_t>(server)];
  const int snode = server_node(server);
  for (std::size_t r = 0; r < rack_agg_.size(); ++r) {
    const int agg = rack_agg_[r];
    bool usable = true;
    if (membership_on_) {
      usable = node_state_[static_cast<std::size_t>(agg)].joined &&
               reachable(agg) &&
               (agg == snode ||
                membership_[static_cast<std::size_t>(snode)]->alive(agg));
    }
    if (!usable) {
      for (const int w : rack_workers_[r]) {
        if (membership_on_ &&
            !node_state_[static_cast<std::size_t>(w)].joined) {
          continue;
        }
        send_params(server, slice, w);
      }
      continue;
    }
    Bytes remaining = sl.payload_bytes();
    while (remaining > 0) {
      const Bytes payload = std::min(remaining, cfg_.fragment_bytes);
      net::Message m;
      m.src = snode;
      m.dst = agg;
      m.kind = net::MsgKind::kRackParams;
      m.slice = slice;
      m.layer = sl.layer;
      m.priority = item_priority(slice);
      m.worker = agg;
      m.logical = payload;
      m.bytes = wire_payload(payload) + net::kHeaderBytes;
      m.version = ss.version[si];
      if (tracing()) {
        m.trace_id = obs::make_trace_id(slice, m.version - 1, agg);
      }
      post_tracked(m);
      ++params_sent_;
      remaining -= payload;
    }
  }
}

void Cluster::on_rack_params(int agg, const net::Message& m) {
  // One parameter fragment for the whole rack: apply it locally, then
  // re-broadcast from this NIC to the other members as fresh kParams (the
  // upstream copy was already acked; each re-broadcast is tracked anew).
  const auto rack = static_cast<std::size_t>(node_rack_[agg]);
  for (const int w : rack_workers_[rack]) {
    if (w == agg) continue;
    if (membership_on_ &&
        (!node_state_[static_cast<std::size_t>(w)].joined || !reachable(w))) {
      continue;
    }
    net::Message fwd = m;
    fwd.src = agg;
    fwd.dst = w;
    fwd.kind = net::MsgKind::kParams;
    fwd.worker = w;
    fwd.msg_id = -1;
    fwd.trace_id =
        tracing() ? obs::make_trace_id(m.slice, m.version - 1, w) : -1;
    post_tracked(fwd);
    ++params_sent_;
    ++*agg_param_broadcasts_;
  }
  net::Message self = m;
  self.kind = net::MsgKind::kParams;
  self.worker = agg;
  worker_on_param(agg, self);
}

std::vector<int> Cluster::push_cover(const net::Message& m) const {
  if (m.agg_id < 0) return {m.worker};
  const auto it = agg_cover_.find(m.agg_id);
  // A consumed cover can only recur through a delivery the dedup layer
  // somehow missed; crediting the forwarding worker alone is safe (the
  // ledger caps it).
  if (it == agg_cover_.end()) return {m.worker};
  return it->second.workers;
}

void Cluster::consume_cover(const net::Message& m) {
  if (m.agg_id < 0) return;
  const auto it = agg_cover_.find(m.agg_id);
  if (it == agg_cover_.end()) return;
  it->second.remaining -= m.logical;
  if (it->second.remaining <= 0) agg_cover_.erase(it);
}

void Cluster::worker_on_agg_dead(int w) {
  // The rack aggregator died and every fold it held died with it:
  // contributions it had not forwarded yet are gone, so re-push everything
  // unreturned straight to the shard leaders. Rounds the aggregator *did*
  // forward come back as ledger-capped merges or stale-push replies —
  // exactly-once either way.
  if (!node_state_[static_cast<std::size_t>(w)].up) return;
  for (int g = 0; g < n_servers(); ++g) worker_repush_group(w, g);
}

void Cluster::worker_on_notify(int w, const net::Message& m) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  if (tracing()) lc(obs::Stage::kNotify, w, m.slice, m.iteration, 0);
  auto& nv = ws.notify_version[static_cast<std::size_t>(m.slice)];
  nv = std::max(nv, m.iteration);
  maybe_pull_layer(w, m.layer);
}

void Cluster::maybe_pull_layer(int w, int layer) {
  if (sync_.immediate_broadcast || sync_.deferred_pull) return;
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto& slices = partition_.layer_slices[static_cast<std::size_t>(layer)];
  // The round the worker is waiting on is the one it pushed; every slice of
  // a layer is pushed in the same iteration.
  std::int64_t round = -1;
  for (auto s : slices) {
    const std::int64_t pushed = ws.last_push_iter[static_cast<std::size_t>(s)];
    if (pushed < 0) return;  // layer not pushed since (re)start
    round = std::max(round, pushed);
  }
  for (auto s : slices) {
    const auto si = static_cast<std::size_t>(s);
    if (ws.notify_version[si] >= round) continue;  // notified complete
    if (ws.recv_version[si] > round) continue;     // params already in hand
    return;  // no evidence yet that slice s's round finished
  }
  auto& pulled = ws.pulled_round[static_cast<std::size_t>(layer)];
  if (pulled >= round) return;  // this round's pulls already went out
  pulled = round;
  for (auto s : slices) {
    if (ws.recv_version[static_cast<std::size_t>(s)] <= round) {
      enqueue_pull(w, s, round);
    }
  }
}

void Cluster::worker_on_param(int w, const net::Message& m) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto si = static_cast<std::size_t>(m.slice);
  // Versioned receipt: fragments of one parameter version accumulate until
  // the slice payload is complete; anything at or below the version already
  // held is a duplicate delivery (failover re-send, stale-push reply) and
  // is dropped here, which keeps recovery paths idempotent.
  if (m.version <= ws.recv_version[si]) return;
  if (ws.recv_inflight[si] != m.version) {
    ws.recv_inflight[si] = m.version;
    ws.recv_bytes[si] = 0;
  }
  ws.recv_bytes[si] += m.logical;
  if (ws.recv_bytes[si] <
      partition_.slices[si].payload_bytes()) {
    return;
  }
  ws.recv_version[si] = m.version;
  ws.recv_inflight[si] = -1;
  ws.recv_bytes[si] = 0;
  if (tracing() && ws.last_push_iter[si] >= 0) {
    // Version v means "parameters after iteration v-1's update". Deliveries
    // to a worker that never pushed this slice (the admission / rejoin
    // state transfer) are not an echo of its own round trip and would
    // invert the lifecycle stage order, so they are not round events.
    lc(obs::Stage::kParamReady, w, m.slice, m.version - 1,
       partition_.slices[si].payload_bytes());
  }
  // The layer's forward gate opens at the oldest complete slice version
  // (identical to the byte-count trigger when deliveries are exactly-once).
  const auto layer = static_cast<std::size_t>(m.layer);
  std::int64_t layer_min = m.version;
  for (auto s : partition_.layer_slices[layer]) {
    layer_min = std::min(layer_min,
                         ws.recv_version[static_cast<std::size_t>(s)]);
  }
  ws.gates[layer]->advance_to(layer_min);
  // Recovery-path params (stale-push replies, failover re-sends) count as
  // round-completion evidence: a layer whose notify died with a crashed
  // server can still pull its remaining slices.
  maybe_pull_layer(w, static_cast<int>(layer));
}

void Cluster::send_params(int server, std::int64_t slice, int worker) {
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  const auto& ss = *servers_[static_cast<std::size_t>(server)];
  Bytes remaining = sl.payload_bytes();
  while (remaining > 0) {
    const Bytes payload = std::min(remaining, cfg_.fragment_bytes);
    net::Message m;
    m.src = server_node(server);
    m.dst = worker;
    m.kind = net::MsgKind::kParams;
    m.slice = slice;
    m.layer = sl.layer;
    m.priority = item_priority(slice);
    m.worker = worker;
    m.logical = payload;
    m.bytes = wire_payload(payload) + net::kHeaderBytes;
    m.version = ss.version[static_cast<std::size_t>(slice)];
    if (tracing()) {
      m.trace_id = obs::make_trace_id(slice, m.version - 1, worker);
    }
    post_tracked(m);
    ++params_sent_;
    remaining -= payload;
  }
}

bool Cluster::round_complete(int server, std::int64_t slice) const {
  const auto& ss = *servers_[static_cast<std::size_t>(server)];
  const auto si = static_cast<std::size_t>(slice);
  const Bytes payload = partition_.slices[si].payload_bytes();
  const auto& view = *membership_[static_cast<std::size_t>(server_node(server))];
  bool any = false;
  for (int w = 0; w < n_total_workers(); ++w) {
    const auto wi = static_cast<std::size_t>(w);
    const bool done = ss.contrib[si][wi] >= payload;
    any = any || done;
    const bool expected =
        view.alive(w) && ss.active_from[si][wi] <= ss.version[si];
    if (expected && !done) return false;
  }
  return any;  // never complete an empty round
}

void Cluster::release_round(int server, std::int64_t slice,
                            std::int64_t round) {
  // The round is durable (replicated to every live backup, or R == 1):
  // release parameters to the workers.
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  const auto si = static_cast<std::size_t>(slice);
  const auto& sl = partition_.slices[si];
  if (sync_.immediate_broadcast) {
    if (agg_on_) {
      // One copy per rack, re-broadcast by the aggregators.
      send_rack_params(server, slice);
    } else {
      // P3Server: broadcast updated parameters without notify+pull.
      for (int w = 0; w < n_total_workers(); ++w) {
        if (membership_on_ &&
            !node_state_[static_cast<std::size_t>(w)].joined) {
          continue;  // elastic joiner not admitted yet
        }
        send_params(server, slice, w);
      }
    }
  } else if (!sync_.deferred_pull) {
    for (int w = 0; w < n_total_workers(); ++w) {
      if (membership_on_ &&
          !node_state_[static_cast<std::size_t>(w)].joined) {
        continue;
      }
      net::Message notify;
      notify.src = server_node(server);
      notify.dst = w;
      notify.kind = net::MsgKind::kNotify;
      notify.slice = slice;
      notify.layer = sl.layer;
      notify.priority = item_priority(slice);
      notify.iteration = round;
      notify.bytes = net::kControlBytes;
      if (tracing()) {
        notify.trace_id = obs::make_trace_id(slice, round, w);
      }
      post_tracked(notify);
      ++notifies_sent_;
    }
  }
  // Serve pulls that arrived before the round completed.
  auto pending = std::move(ss.pending[si]);
  ss.pending[si].clear();
  for (const auto& p : pending) {
    if (ss.version[si] >= p.iteration + 1) {
      send_params(server, slice, p.worker);
    } else {
      ss.pending[si].push_back(p);
    }
  }
}

void Cluster::commit_round(int server, std::int64_t slice,
                           std::int64_t round) {
  // Chain replication with a commit barrier: copy the new state to every
  // live backup and withhold the worker release until each copy is acked —
  // once a worker can observe version v, every surviving replica holds v,
  // so a primary death never rolls an observed round back.
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  const auto si = static_cast<std::size_t>(slice);
  const auto& sl = partition_.slices[si];
  const int group = sl.server;
  const auto& lead = *leadership_[static_cast<std::size_t>(server_node(server))];
  const auto& view = *membership_[static_cast<std::size_t>(server_node(server))];
  int sent = 0;
  const std::int64_t key =
      static_cast<std::int64_t>(server) * partition_.num_slices() + slice;
  for (int k = 0; k < cfg_.replication; ++k) {
    const int replica = lead.member(group, k);
    if (replica == server) continue;
    const int rnode = server_node(replica);
    if (!view.alive(rnode) || !reachable(rnode)) continue;
    net::Message m;
    m.src = server_node(server);
    m.dst = rnode;
    m.kind = net::MsgKind::kReplicate;
    m.slice = slice;
    m.layer = sl.layer;
    m.priority = item_priority(slice);
    m.iteration = round;
    m.version = ss.version[si];
    m.logical = sl.payload_bytes();
    m.bytes = wire_payload(sl.payload_bytes()) + net::kHeaderBytes;
    arm_reliable(m, -1);
    replicate_wait_.emplace(m.msg_id, key);
    const TimeS rto = pending_tx_.at(m.msg_id).rto;
    net_->post(m);
    schedule_retx_timer(m.msg_id, rto);
    ++sent;
  }
  if (sent == 0) {
    release_round(server, slice, round);
    return;
  }
  CommitState cs;
  cs.server = server;
  cs.slice = slice;
  cs.round = round;
  cs.outstanding = sent;
  commits_[key] = cs;
}

void Cluster::redirect_to_leader(int server, const net::Message& m) {
  // Worker addressed a replica that no longer (or does not yet) believe it
  // leads: tell it who does; adoption at the worker re-pushes anything in
  // flight. The payload itself is intentionally dropped — the true leader
  // got (or will get) its own copy via the adoption re-push.
  const int n = server_node(server);
  const int group = partition_.slices[static_cast<std::size_t>(m.slice)].server;
  const auto& lease = leadership_[static_cast<std::size_t>(n)]->lease(group);
  if (m.kind == net::MsgKind::kPullRequest && lease.primary >= 0 &&
      lease.primary != server) {
    // A push can be dropped here — adoption re-pushes it — but a pull
    // cannot: deferred-pull methods have no notify or broadcast to
    // re-announce the round, so a swallowed pull leaves its worker gated
    // forever. Forward it to the believed leader instead (idempotent — at
    // worst the worker receives the same parameters twice).
    net::Message fwd = m;
    fwd.src = n;
    fwd.dst = server_node(lease.primary);
    post_tracked(fwd);
  }
  net::Message redirect;
  redirect.src = n;
  redirect.dst = m.src;
  redirect.kind = net::MsgKind::kNewPrimary;
  redirect.slice = group;
  redirect.iteration = lease.epoch;
  redirect.worker = lease.primary;
  redirect.bytes = net::kControlBytes;
  post_tracked(redirect);
}

sim::Task Cluster::server_loop(int n) {
  // `n` is the *server index*; its NIC is node server_node(n).
  auto& ss = *servers_[static_cast<std::size_t>(n)];
  const auto node = static_cast<std::size_t>(server_node(n));
  for (;;) {
    RxItem item = co_await ss.rxq.pop();
    rxq_depth_changed(n, -1);
    if (membership_on_ && !node_state_[node].up) continue;  // dead process
    const net::Message& m = item.msg;

    // Membership plane: a death notice shrank the expected set (or a
    // takeover re-seeded it); sweep every slice this server leads for
    // rounds that are now completable without the dead workers.
    std::vector<std::int64_t> recheck;
    if (m.kind == net::MsgKind::kRecheck) {
      const auto& lead = *leadership_[node];
      for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
        const int group = partition_.slices[static_cast<std::size_t>(s)].server;
        if (lead.primary(group) == n) recheck.push_back(s);
      }
    }

    if (m.kind == net::MsgKind::kPullRequest ||
        m.kind == net::MsgKind::kPushGradient) {
      const auto slice_idx = static_cast<std::size_t>(m.slice);
      const auto& sl = partition_.slices[slice_idx];
      if (!membership_on_) {
        if (sl.server != n) {
          throw std::logic_error("slice routed to wrong server");
        }
      } else {
        if (leadership_[node]->chain_offset(sl.server, n) < 0) {
          if (!cfg_.faults.joins.empty() || scale_plane_) {
            // Elastic rebalancing and drain migrations re-derive chains
            // around the new owner, so a donor dropped from a handed-over
            // group can still see stragglers addressed under the old
            // chain: redirect them.
            redirect_to_leader(n, m);
            continue;
          }
          throw std::logic_error("slice routed outside its replica group");
        }
        if (leadership_[node]->primary(sl.server) != n) {
          redirect_to_leader(n, m);
          continue;
        }
      }
      if (m.kind == net::MsgKind::kPushGradient && tracing()) {
        lc(obs::Stage::kServerRecv, m.worker, m.slice, m.iteration, m.logical);
      }

      if (m.kind == net::MsgKind::kPullRequest) {
        if (ss.version[slice_idx] >= m.iteration + 1) {
          send_params(n, m.slice, m.worker);
        } else {
          ss.pending[slice_idx].push_back(PendingPull{m.worker, m.iteration});
        }
        continue;
      }

      if (membership_on_) {
        // Stale push: the round already committed cluster-wide (this is a
        // post-failover or post-rejoin re-push). Answer with the current
        // parameters so the sender unblocks — this reply IS the recovery
        // path for rounds that committed just before a primary died.
        if (m.iteration + 1 <= ss.version[slice_idx]) {
          // An aggregated stale push answers every covered worker: each of
          // them is waiting on parameters this reply is the recovery path
          // for.
          for (const int cw : push_cover(m)) {
            ++stale_pushes_;
            send_params(n, m.slice, cw);
          }
          consume_cover(m);
          continue;
        }
        // Future push: the sender's params are newer than this replica's
        // state (possible only when every fresher replica was lost and this
        // one rehydrated from an old checkpoint). The workers' copies are
        // the surviving truth: fast-forward to their round.
        if (m.iteration > ss.version[slice_idx]) {
          if (dssp_on_) {
            // Under DSSP a future push is *normal* run-ahead, so it only
            // proves commitment up to the sender's carried held-params
            // floor (rounds below `m.version` were released to it) or, as
            // a fallback, `iteration - s_max` from the forward gate.
            // Fast-forward to exactly that proven floor (a no-op in
            // healthy operation); anything still ahead of the shard's round
            // parks in the future-round buffer after aggregation below.
            const int s_max = cfg_.staleness.fixed_s >= 0
                                  ? cfg_.staleness.fixed_s
                                  : cfg_.staleness.s_max;
            const std::int64_t proven =
                std::max(m.version, m.iteration - s_max);
            if (proven > ss.version[slice_idx]) {
              ss.version[slice_idx] = proven;
              ss.round_bytes[slice_idx] = 0;
              for (auto& c : ss.contrib[slice_idx]) c = 0;
              // Run-ahead pushes for the newly opened round may already be
              // parked in the future buffer (they arrived while the shard
              // lagged behind the proven floor); fold them in now or the
              // round waits forever for contributions it already holds.
              dssp_promote(n, m.slice);
            }
          } else {
            ss.version[slice_idx] = m.iteration;
            ss.round_bytes[slice_idx] = 0;
            for (auto& c : ss.contrib[slice_idx]) c = 0;
          }
        }
      }

      // Gradient push: aggregate (memory-bound add over the full-precision
      // array; compression saves wire bytes, not server arithmetic).
      const Bytes payload = m.logical;
      const TimeS t0 = sim_.now();
      co_await sim_.sleep(static_cast<double>(payload) /
                          cfg_.update_bytes_per_sec);
      if (membership_on_ && !node_state_[node].up) continue;  // died mid-add
      if (!membership_on_) {
        if (tracing()) {
          lc(obs::Stage::kAggregate, m.worker, m.slice, m.iteration, 0);
        }
        if (agg_on_ && m.agg_id >= 0) {
          // A combined push carries one pre-reduced payload standing in for
          // every covered worker's contribution.
          ss.round_bytes[slice_idx] +=
              payload * static_cast<Bytes>(push_cover(m).size());
          consume_cover(m);
        } else {
          ss.round_bytes[slice_idx] += payload;
        }
        const Bytes round_target = sl.payload_bytes() * cfg_.n_workers;
        if (ss.round_bytes[slice_idx] >= round_target) {
          // All workers contributed: run the optimizer step on the shard.
          ss.round_bytes[slice_idx] = 0;
          co_await sim_.sleep(
              static_cast<double>(sl.payload_bytes()) /
                  cfg_.update_bytes_per_sec +
              cfg_.update_overhead);
          ++ss.version[slice_idx];
          ++rounds_completed_;
          if (tracing()) {
            tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                          "U" + std::to_string(sl.layer + 1));
          }
          release_round(n, m.slice, m.iteration);
        } else if (tracing()) {
          tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                        "a" + std::to_string(sl.layer + 1));
        }
        continue;
      }

      // DSSP: the version can move during the aggregation sleep (another
      // push's completion loop, or this push's own pre-sleep fast-forward
      // past its round) — re-classify before touching the ledger so a
      // newly-stale push answers with parameters instead of polluting the
      // open round.
      if (dssp_on_ && m.iteration + 1 <= ss.version[slice_idx]) {
        for (const int cw : push_cover(m)) {
          ++stale_pushes_;
          send_params(n, m.slice, cw);
        }
        consume_cover(m);
        // A pre-sleep fast-forward may have left the open round fully
        // funded from promoted buffers; sweep it below.
        recheck.push_back(m.slice);
        continue;
      }

      // DSSP run-ahead: a push for a round this shard has not opened yet is
      // a legitimate contribution from a worker running within the
      // staleness bound. Park it in the future-round buffer (aggregation
      // cost already paid above); it promotes into the live ledger the
      // moment its round opens — park-never-drop.
      if (dssp_on_ && m.iteration > ss.version[slice_idx]) {
        dssp_buffer_future(n, m);
        if (tracing()) {
          tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                        "f" + std::to_string(sl.layer + 1));
        }
        // The pre-sleep bounded fast-forward (or a round that closed during
        // this push's aggregation sleep) may have promoted buffered
        // contributions that fully fund the open round — and every later
        // push for this slice may divert here too. Fall through to the
        // completion sweep below or a fully-funded round wedges waiting
        // for a merge that never comes.
        recheck.push_back(m.slice);
      } else {
        // Membership path: per-worker contribution ledger, capped at one
        // payload per worker per round so re-pushed fragments merge exactly
        // once. An aggregated push credits every covered worker with the
        // (pre-reduced) payload under the same cap, so a direct re-push that
        // races a forwarded cover can never double-count.
        Bytes credited = 0;
        for (const int cw : push_cover(m)) {
          auto& contrib = ss.contrib[slice_idx][static_cast<std::size_t>(cw)];
          const Bytes room = sl.payload_bytes() - contrib;
          if (room <= 0) continue;
          const Bytes add = std::min(payload, room);
          contrib += add;
          credited += add;
          if (scale_plane_ && hierarchy_on_) {
            // Per-rack push weight by origin rack: the drain-target rack
            // preference reads this.
            rack_group_push_bytes_[static_cast<std::size_t>(
                node_rack_[static_cast<std::size_t>(cw)])]
                                  [static_cast<std::size_t>(sl.server)] +=
                static_cast<double>(add);
          }
        }
        if (scale_plane_ && credited > 0) {
          // Credited (exactly-once) ledger bytes are the weighted planner's
          // observed per-group push signal.
          group_push_bytes_[static_cast<std::size_t>(sl.server)] +=
              static_cast<double>(credited);
        }
        consume_cover(m);
        if (credited == 0) {
          ++duplicates_suppressed_;
          if (tracing()) {
            tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                          "d" + std::to_string(sl.layer + 1));
          }
          continue;
        }
        if (tracing()) {
          lc(obs::Stage::kAggregate, m.worker, m.slice, m.iteration, 0);
          if (!round_complete(n, m.slice)) {
            tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                          "a" + std::to_string(sl.layer + 1));
          }
        }
        recheck.push_back(m.slice);
      }
    }

    // Complete every round the triggering event made ready.
    for (const std::int64_t s : recheck) {
      const auto si = static_cast<std::size_t>(s);
      const auto& sl = partition_.slices[si];
      while (leadership_[node]->primary(sl.server) == n &&
             !group_frozen(n, sl.server) && round_complete(n, s)) {
        const std::int64_t round = ss.version[si];
        const TimeS t0 = sim_.now();
        co_await sim_.sleep(
            static_cast<double>(sl.payload_bytes()) /
                cfg_.update_bytes_per_sec +
            cfg_.update_overhead);
        if (!node_state_[node].up) break;  // died mid-optimizer-step
        for (auto& c : ss.contrib[si]) c = 0;
        ++ss.version[si];
        ++rounds_completed_;
        // The new round may already be fully funded by buffered run-ahead
        // pushes; promote them before the loop re-checks completion.
        if (dssp_on_) dssp_promote(n, s);
        if (tracing()) {
          tracer_->span(lane("n", server_node(n), ".srv"), t0, sim_.now(),
                        "U" + std::to_string(sl.layer + 1));
        }
        if (cfg_.replication > 1) {
          commit_round(n, s, round);
        } else {
          release_round(n, s, round);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Membership plane: beacons, failure detection, failover, crash execution.
// ---------------------------------------------------------------------------

sim::Task Cluster::heartbeat_loop(int n) {
  const auto nn = static_cast<std::size_t>(n);
  for (;;) {
    co_await sim_.sleep(cfg_.heartbeat_period);
    if (stopping_) co_return;
    if (!node_state_[nn].up) continue;  // a dead process neither sends nor
                                        // suspects; the loop outlives it
    for (int peer = 0; peer < total_nodes(); ++peer) {
      if (peer == n) continue;
      if (!node_state_[static_cast<std::size_t>(peer)].joined) continue;
      net::Message hb;
      hb.src = n;
      hb.dst = peer;
      hb.kind = net::MsgKind::kHeartbeat;
      hb.iteration = node_state_[nn].epoch;  // incarnation
      // Echo: does this sender currently believe the receiver is alive? A
      // primary whose chain peers answer "no" (asymmetric cut: their beacons
      // arrive, ours do not) must stop trusting its self-lease.
      hb.version = membership_[nn]->alive(peer) ? 1 : 0;
      hb.bytes = net::kHeartbeatBytes;
      net_->post(hb);
      ++heartbeats_sent_;
    }
    for (const int dead : membership_[nn]->check(local_now(n))) {
      on_peer_dead(n, dead);
    }
    if (leases_on_) lease_tick(n);
    // View-driven eligibility changes (suspicions, revivals, quorum moves)
    // re-derive the staleness-gate floor on the same cadence.
    if (dssp_on_) dssp_advance_gate();
  }
}

// ---------------------------------------------------------------------------
// DSSP dynamic bounded-staleness gate.
// ---------------------------------------------------------------------------

bool Cluster::dssp_eligible(int w) const {
  const auto wn = static_cast<std::size_t>(w);
  if (dssp_clock_[wn] < 0) return false;  // no running iteration loop
  const auto& ns = node_state_[wn];
  if (!ns.joined || ns.retired) return false;
  // Membership exclusion: the min-clock drops a worker exactly when the
  // fleet's failure detection would act on it — a live observer (one
  // holding a view quorum when the partition plane is armed) suspects it
  // dead. Ground-truth `up` is deliberately not consulted: a dead
  // straggler keeps gating the fleet until suspicion fires or it restarts,
  // and a minority-side observer can never fence a majority worker.
  for (int n = 0; n < total_nodes(); ++n) {
    if (n == w) continue;
    const auto nn = static_cast<std::size_t>(n);
    const auto& on = node_state_[nn];
    if (!on.up || !on.joined || on.retired) continue;
    if (partition_plane_ && !view_has_quorum(n)) continue;
    if (!membership_[nn]->alive(w)) return false;
  }
  return true;
}

std::int64_t Cluster::dssp_advance_gate() {
  std::int64_t min_clock = std::numeric_limits<std::int64_t>::max();
  for (int w = 0; w < n_total_workers(); ++w) {
    if (!dssp_eligible(w)) continue;
    min_clock = std::min(min_clock, dssp_clock_[static_cast<std::size_t>(w)]);
  }
  if (min_clock != std::numeric_limits<std::int64_t>::max()) {
    // Monotone floor: a rejoiner re-entering below the released floor (the
    // rejoin_slack rule) makes this a no-op instead of retracting releases.
    dssp_gate_->advance_to(min_clock);
  }
  const std::int64_t floor = dssp_gate_->version();
  for (int w = 0; w < n_total_workers(); ++w) {
    const auto wn = static_cast<std::size_t>(w);
    dssp_gap_gauge_[wn]->set(dssp_clock_[wn] >= 0 ? static_cast<double>(
                                                        dssp_clock_[wn] - floor)
                                                  : 0.0);
  }
  return floor;
}

void Cluster::dssp_set_clock(int w, std::int64_t clock) {
  const auto wn = static_cast<std::size_t>(w);
  dssp_clock_[wn] = clock;
  // Any clock event means the loop is executing, not suspended on the gate
  // (and clears a stale flag left by an abandoned pre-crash incarnation).
  dssp_blocked_[wn] = false;
  dssp_advance_gate();
}

void Cluster::dssp_buffer_future(int server, const net::Message& m) {
  const auto& sl = partition_.slices[static_cast<std::size_t>(m.slice)];
  auto& round =
      dssp_future_[static_cast<std::size_t>(server)][{m.slice, m.iteration}];
  Bytes credited = 0;
  for (const int cw : push_cover(m)) {
    Bytes& have = round[cw];
    const Bytes room = sl.payload_bytes() - have;
    if (room <= 0) continue;
    const Bytes add = std::min(m.logical, room);
    have += add;
    credited += add;
    if (scale_plane_ && hierarchy_on_) {
      rack_group_push_bytes_[static_cast<std::size_t>(
          node_rack_[static_cast<std::size_t>(cw)])]
                            [static_cast<std::size_t>(sl.server)] +=
          static_cast<double>(add);
    }
  }
  if (scale_plane_ && credited > 0) {
    group_push_bytes_[static_cast<std::size_t>(sl.server)] +=
        static_cast<double>(credited);
  }
  consume_cover(m);
  if (credited == 0) ++duplicates_suppressed_;
}

void Cluster::dssp_promote(int server, std::int64_t slice) {
  auto& fut = dssp_future_[static_cast<std::size_t>(server)];
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  const auto si = static_cast<std::size_t>(slice);
  const auto& sl = partition_.slices[si];
  const std::int64_t round = ss.version[si];
  // Rounds that closed while buffered (possible only after a bounded
  // fast-forward recovered past them) were committed cluster-wide; drop
  // their stale buffers.
  auto it = fut.lower_bound({slice, std::numeric_limits<std::int64_t>::min()});
  while (it != fut.end() && it->first.first == slice &&
         it->first.second < round) {
    it = fut.erase(it);
  }
  if (it == fut.end() || it->first.first != slice ||
      it->first.second != round) {
    return;
  }
  for (const auto& [cw, bytes] : it->second) {
    auto& contrib = ss.contrib[si][static_cast<std::size_t>(cw)];
    const Bytes room = sl.payload_bytes() - contrib;
    if (room <= 0) continue;
    contrib += std::min(bytes, room);
  }
  fut.erase(it);
}

sim::Task Cluster::dssp_audit_loop() {
  // A wedge is by definition permanent, so the watchdog demands the stuck
  // condition hold across consecutive audit periods before counting it:
  // suspicion/re-admission churn (a congested straggler's heartbeats
  // queueing past the timeout) can make every eligible worker look stuck
  // for one sample and then resolve — that is degraded progress, not a
  // lost worker.
  constexpr int kWedgeConfirmTicks = 3;
  int consecutive_stuck = 0;
  for (;;) {
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (stopping_) co_return;
    const std::int64_t floor = dssp_advance_gate();
    // Inv. 13 ground truth: after a from-scratch re-derivation of the
    // floor, a gate-blocked worker whose need the floor still does not
    // cover is stuck; the invariant demands some eligible worker that is
    // NOT stuck (the slowest eligible worker trivially satisfies its own
    // gate, so an all-stuck eligible set means the gate lost someone).
    bool stuck_exists = false;
    bool eligible_can_proceed = false;
    for (int w = 0; w < n_total_workers(); ++w) {
      const auto wn = static_cast<std::size_t>(w);
      const bool stuck = dssp_blocked_[wn] && dssp_need_[wn] > floor;
      stuck_exists |= stuck;
      if (dssp_eligible(w) && !stuck) eligible_can_proceed = true;
    }
    if (stuck_exists && !eligible_can_proceed) {
      ++consecutive_stuck;
      if (consecutive_stuck >= kWedgeConfirmTicks) ++(*gate_wedge_ticks_);
    } else {
      consecutive_stuck = 0;
    }
  }
}

void Cluster::on_peer_dead(int observer_node, int dead_node) {
  mem_mark(observer_node, "X");
  const auto on = static_cast<std::size_t>(observer_node);
  const int dead_server = server_of_node(dead_node);
  const int my_server = server_of_node(observer_node);
  auto& lead = *leadership_[on];
  if (dead_server >= 0) {
    for (int g = 0; g < n_servers(); ++g) {
      if (lead.primary(g) != dead_server) continue;
      if (leases_on_) {
        // Lease-based failover: suspicion alone is not enough — queue the
        // group and act only once the dead primary's lease has expired
        // (lease_tick), so a slow-but-alive primary and its successor can
        // never release rounds concurrently.
        pending_failover_[on].insert(g);
        mem_mark(observer_node, "PF");
      } else {
        failover_scan(observer_node, g);
      }
    }
  }
  if (agg_on_ && node_state_[on].up) {
    const int rack = node_rack_[on];
    if (observer_node < n_total_workers() && observer_node != dead_node &&
        dead_node == rack_agg_node(rack)) {
      // This worker's rack aggregator died: folds held there are gone.
      worker_on_agg_dead(observer_node);
    }
    if (observer_node == rack_agg_node(rack) &&
        node_rack_[static_cast<std::size_t>(dead_node)] == rack) {
      // A rack member died in the aggregator's view: partial folds may now
      // be forwardable without it.
      agg_flush_all(observer_node);
    }
  }
  // A server's expected worker set shrank: re-evaluate open rounds.
  if (my_server >= 0 && node_state_[on].up) inject_recheck(my_server);
}

void Cluster::failover_scan(int observer_node, int group) {
  const auto on = static_cast<std::size_t>(observer_node);
  const int my_server = server_of_node(observer_node);
  auto& lead = *leadership_[on];
  const auto& view = *membership_[on];
  // The believed leader of the group died: find the first live replica in
  // chain order. Every observer runs the same scan over its own view, so
  // converged views elect the same successor.
  int successor = -1;
  for (int k = 0; k < cfg_.replication; ++k) {
    const int candidate = lead.member(group, k);
    // A draining node refuses new leadership and a retired node is gone for
    // good — skip both. Ground truth stands in for the drain advertisement
    // the node's final beacons carry; every observer skips the same nodes,
    // so converged views still elect the same successor.
    const auto& cs = node_state_[static_cast<std::size_t>(
        server_node(candidate))];
    if (cs.draining || cs.retired) continue;
    if (view.alive(server_node(candidate))) {
      successor = candidate;
      break;
    }
  }
  if (successor < 0) {
    // Nobody visible. If ground truth agrees the whole group is gone for
    // good, the shard is unrecoverable — fail loudly rather than heartbeat
    // forever.
    bool truly_lost = true;
    for (int k = 0; k < cfg_.replication; ++k) {
      if (!permanently_down(server_node(lead.member(group, k)))) {
        truly_lost = false;
        break;
      }
    }
    if (truly_lost) {
      throw std::runtime_error(
          "shard group " + std::to_string(group) +
          " lost every replica (replication " +
          std::to_string(cfg_.replication) +
          "); raise the replication factor or restart a server");
    }
    return;  // views disagree with truth; wait for beacons
  }
  if (successor == my_server) takeover_group(my_server, group);
}

void Cluster::takeover_group(int server, int group) {
  const auto node = static_cast<std::size_t>(server_node(server));
  // A draining or retired server never takes leadership (invariant 12):
  // the drain exists to shed groups, not collect them.
  if (node_state_[node].draining || node_state_[node].retired) return;
  auto& lead = *leadership_[node];
  const std::int64_t epoch = lead.epoch(group) + 1;
  if (!lead.adopt(group, epoch, server)) return;
  ++failovers_;
  mem_mark(server_node(server), "F");
  seed_self_lease(server, group);
  update_acting(server, group);
  // Open rounds restart from empty accumulators under the new epoch;
  // workers re-push on adoption, and rounds that committed before the old
  // primary died are answered from the replicated state (stale-push reply).
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (partition_.slices[si].server != group) continue;
    for (auto& c : ss.contrib[si]) c = 0;
  }
  announce_primary(server, group, epoch, server);
  // The announcement skips this node, but a colocated worker shares the
  // adopted view and must re-push like every other worker.
  if (static_cast<int>(node) < n_total_workers()) {
    worker_repush_group(static_cast<int>(node), group);
  }
}

void Cluster::announce_primary(int from_server, int group,
                               std::int64_t epoch, int primary) {
  const int src = server_node(from_server);
  for (int peer = 0; peer < total_nodes(); ++peer) {
    if (peer == src) continue;
    if (!reachable(peer)) continue;
    net::Message m;
    m.src = src;
    m.dst = peer;
    m.kind = net::MsgKind::kNewPrimary;
    m.slice = group;
    m.iteration = epoch;
    m.worker = primary;
    m.bytes = net::kControlBytes;
    post_tracked(m);
  }
}

// ---------------------------------------------------------------------------
// Elastic scale-out: node admission, shard rebalancing, lease-based
// leadership (docs/PROTOCOL.md).
// ---------------------------------------------------------------------------

void Cluster::execute_join(const net::NodeJoin& j) {
  const auto nn = static_cast<std::size_t>(j.node);
  auto& ns = node_state_[nn];
  if (ns.joined) return;  // defensive; validate() rejects duplicate joins
  ns.joined = true;
  ns.up = true;
  ns.epoch += 1;  // incarnation 1: distinct from the never-alive process 0
  ++joins_;
  mem_mark(j.node, "J+");
  // Bootstrap the joiner's own view from ground truth (it was handed the
  // member list on admission); everyone else learns of the joiner from its
  // first beacons.
  for (int p = 0; p < total_nodes(); ++p) {
    if (!node_state_[static_cast<std::size_t>(p)].joined) continue;
    membership_[nn]->mark_joined(p, local_now(j.node));
  }
  if (scale_plane_) {
    // Freeze the weight-aware plan at admission time: the joiner carries it
    // in its join request, so every node resolves the same plan no matter
    // when the request arrives or how the push-byte gauges move afterwards.
    const int joiner = server_of_node(j.node);
    auto plan = weighted_rebalance_plan(joiner);
    for (const int g : plan) granted_groups_.insert(g);
    join_plan_.emplace(joiner, std::move(plan));
  }
  sim_.spawn(worker_rejoin(j.node, ns.epoch));
  sim_.spawn(server_admit(j.node, ns.epoch));
}

sim::Task Cluster::server_admit(int node, std::int64_t epoch) {
  const int joiner = server_of_node(node);
  const auto nn = static_cast<std::size_t>(node);
  const std::vector<int> plan = rebalance_plan(joiner);
  for (;;) {
    // Broadcast the rebalance ask, then retry on a suspicion-timeout
    // cadence until every planned group is ours in our own view. The ask is
    // idempotent at the donors (an in-flight or completed handover skips
    // the group), so lost broadcasts cost latency, never correctness.
    // A drain supersedes the admission: the node no longer wants shard
    // leadership, so stop asking for it (otherwise this loop and the drain
    // migrations ping-pong the groups forever).
    if (node_state_[nn].draining || node_state_[nn].retired) co_return;
    bool owned = true;
    for (const int g : plan) {
      if (leadership_[nn]->primary(g) != joiner) {
        owned = false;
        break;
      }
    }
    if (owned) co_return;
    for (int peer = 0; peer < total_nodes(); ++peer) {
      if (peer == node) continue;
      if (!node_state_[static_cast<std::size_t>(peer)].joined) continue;
      if (!reachable(peer)) continue;
      net::Message m;
      m.src = node;
      m.dst = peer;
      m.kind = net::MsgKind::kServerJoin;
      m.worker = joiner;
      m.iteration = node_state_[nn].epoch;  // incarnation
      m.bytes = net::kControlBytes;
      post_tracked(m);
    }
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (node_state_[nn].epoch != epoch || stopping_) co_return;
  }
}

std::vector<int> Cluster::rebalance_plan(int joiner_server) const {
  // Scale plane: the weighted plan was frozen cluster-globally when the
  // join executed (carried in the join request, in the narrative), so the
  // joiner's admission loop and the donors' kServerJoin handlers agree on
  // it even as push-byte observations keep moving.
  if (scale_plane_) {
    const auto it = join_plan_.find(joiner_server);
    if (it != join_plan_.end()) return it->second;
  }
  // Deterministic planner: joiner k (0-based in id order) takes its fair
  // share of contiguous groups, max(1, n_groups / (n_base + k + 1)),
  // starting at (k * take) % n_groups. A pure function of the config, so
  // every node computes the same plan without coordination.
  const int n_base = n_servers();
  const int k = joiner_server - n_base;
  const int take = std::max(1, n_base / (n_base + k + 1));
  std::vector<int> plan;
  plan.reserve(static_cast<std::size_t>(take));
  const int start = (k * take) % n_base;
  for (int i = 0; i < take; ++i) plan.push_back((start + i) % n_base);
  return plan;
}

void Cluster::start_migration(int donor, int group, int target) {
  if (migrations_in_progress_.count(group) > 0) return;  // already moving
  auto& ss = *servers_[static_cast<std::size_t>(donor)];
  MigrationState ms;
  ms.donor = donor;
  ms.group = group;
  ms.target = target;
  ms.t0 = sim_.now();
  // Per-slice reliable transfer of parameters plus same-sized optimizer
  // state. Round releases for the group freeze (group_frozen) until the
  // last slice is acked, so no worker can observe a version the target
  // does not hold — the same barrier rule replication uses.
  const int tnode = server_node(target);
  for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto& sl = partition_.slices[si];
    if (sl.server != group) continue;
    net::Message m;
    m.src = server_node(donor);
    m.dst = tnode;
    m.kind = net::MsgKind::kMigrate;
    m.slice = s;
    m.layer = sl.layer;
    m.priority = item_priority(s);
    m.worker = donor;
    m.version = ss.version[si];
    m.logical = 2 * sl.payload_bytes();  // params + optimizer state
    m.bytes = wire_payload(2 * sl.payload_bytes()) + net::kHeaderBytes;
    arm_reliable(m, -1);
    migration_wait_.emplace(m.msg_id, group);
    const TimeS rto = pending_tx_.at(m.msg_id).rto;
    net_->post(m);
    schedule_retx_timer(m.msg_id, rto);
    ++ms.outstanding;
  }
  if (ms.outstanding == 0) {
    // The group owns no slices (possible under kvstore placement, where
    // whole small layers land on random servers). There is no state to
    // copy, but the handover must still happen or the admission loop asks
    // forever: transfer leadership directly.
    finish_migration(ms);
    return;
  }
  mem_mark(server_node(donor), "M>");
  migrations_in_progress_.emplace(group, ms);
}

void Cluster::on_migrate_ack(std::int64_t msg_id) {
  const auto it = migration_wait_.find(msg_id);
  if (it == migration_wait_.end()) return;
  const int group = it->second;
  migration_wait_.erase(it);
  const auto mit = migrations_in_progress_.find(group);
  if (mit == migrations_in_progress_.end()) return;
  MigrationState& ms = mit->second;
  if (--ms.outstanding > 0) return;
  const MigrationState done = ms;
  migrations_in_progress_.erase(mit);
  finish_migration(done);
}

void Cluster::finish_migration(const MigrationState& ms) {
  // The target acked every slice: hand leadership over. The donor adopts
  // first (it stops serving the group at this instant), then announces; the
  // parked pulls are forwarded *after* the announcement on the same
  // donor->target NIC pair, so FIFO delivery makes the target adopt the new
  // epoch before any forwarded pull reaches it.
  const auto dn = static_cast<std::size_t>(server_node(ms.donor));
  auto& lead = *leadership_[dn];
  if (lead.primary(ms.group) != ms.donor) return;  // superseded meanwhile
  const std::int64_t epoch = lead.epoch(ms.group) + 1;
  lead.adopt(ms.group, epoch, ms.target);
  ++migrations_;
  update_acting(ms.donor, ms.group);
  mem_mark(server_node(ms.donor), "M+");
  if (tracing()) {
    tracer_->span(lane("n", server_node(ms.donor), ".mig"), ms.t0, sim_.now(),
                  "mig" + std::to_string(ms.group));
  }
  announce_primary(ms.donor, ms.group, epoch, ms.target);
  auto& ss = *servers_[static_cast<std::size_t>(ms.donor)];
  for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (partition_.slices[si].server != ms.group) continue;
    // Contributions to rounds the donor will never finish die here; the
    // workers re-push them to the target on adoption (the ledger's per-
    // round cap keeps the merge exactly-once).
    for (auto& c : ss.contrib[si]) c = 0;
    auto parked = std::move(ss.pending[si]);
    ss.pending[si].clear();
    for (const auto& p : parked) {
      net::Message fwd;
      fwd.src = server_node(ms.donor);
      fwd.dst = server_node(ms.target);
      fwd.kind = net::MsgKind::kPullRequest;
      fwd.slice = s;
      fwd.layer = partition_.slices[si].layer;
      fwd.priority = item_priority(s);
      fwd.iteration = p.iteration;
      fwd.worker = p.worker;
      fwd.bytes = net::kControlBytes;
      post_tracked(fwd);
    }
  }
  // The colocated worker shares the donor's adopted view: re-push like
  // every other worker will on adoption.
  if (static_cast<int>(dn) < n_total_workers()) {
    worker_repush_group(static_cast<int>(dn), ms.group);
  }
}

void Cluster::on_beacon(int n, int src, const Membership::BeaconEffect& effect,
                        bool echo_alive) {
  const auto nn = static_cast<std::size_t>(n);
  const int src_server = server_of_node(src);
  const int my_server = server_of_node(n);
  auto& lead = *leadership_[nn];
  if (effect.superseded) {
    // A higher incarnation while the old one was still believed alive: the
    // old process is gone *now*. Leases it held are void immediately — not
    // after a silence threshold — and open rounds re-evaluate.
    ++supersessions_;
    mem_mark(n, "S");
    if (src_server >= 0) {
      for (int g = 0; g < n_servers(); ++g) {
        if (lead.primary(g) == src_server) lead.expire_lease(g, local_now(n));
      }
    }
    if (my_server >= 0 && node_state_[nn].up) inject_recheck(my_server);
  }
  if (partition_plane_ && effect.revived && node_state_[nn].up) {
    // A peer this view held dead is back (partition healed, or a one-way cut
    // opened): drain pushes parked against it, and — when the revived peer
    // hosts a worker — re-admit that worker under the bounded-staleness
    // rejoin rule so open rounds stop waiting for contributions it parked
    // on the far side. Its catch-up drains through stale-push replies.
    if (n < n_total_workers()) unpark_worker(n);
    if (my_server >= 0 && src < n_total_workers()) {
      auto& ss = *servers_[static_cast<std::size_t>(my_server)];
      const auto sw = static_cast<std::size_t>(src);
      bool leads_any = false;
      for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (lead.primary(partition_.slices[si].server) != my_server) continue;
        ss.active_from[si][sw] =
            std::max(ss.active_from[si][sw],
                     ss.version[si] + cfg_.rejoin_slack);
        leads_any = true;
      }
      if (leads_any) inject_recheck(my_server);
    }
  }
  if (!leases_on_ || src_server < 0) return;
  // Lease renewal: a beacon from the believed leader of a group extends
  // that group's lease in this view; a beacon from a chain peer of an
  // own-led group extends the self-lease the primary must hold to keep
  // releasing rounds. With the partition plane armed the self-lease renews
  // only on positive echoes — a chain peer that no longer hears us is
  // already counting down our lease, however loudly it beacons.
  for (int g = 0; g < n_servers(); ++g) {
    if (lead.primary(g) == src_server) {
      lead.renew_lease(g, local_now(n) + lease_len_);
      ++lease_renewals_;
    }
    if (my_server >= 0 && lead.primary(g) == my_server &&
        lead.chain_offset(g, src_server) > 0 &&
        (!partition_plane_ || echo_alive)) {
      self_lease_[nn][static_cast<std::size_t>(g)] =
          local_now(n) + lease_len_ / 2.0;
    }
  }
}

bool Cluster::view_has_quorum(int n) const {
  const auto& view = *membership_[static_cast<std::size_t>(n)];
  int members = 0;
  int live = 0;
  for (int p = 0; p < total_nodes(); ++p) {
    if (!view.joined(p)) continue;
    ++members;
    if (p == n || view.alive(p)) ++live;
  }
  return 2 * live > members;
}

void Cluster::lease_tick(int n) {
  const auto nn = static_cast<std::size_t>(n);
  if (!node_state_[nn].up) return;
  auto& lead = *leadership_[nn];
  const int my_server = server_of_node(n);
  // Every deadline compared below was stamped with this node's clock, so
  // the whole tick runs on it; drift cancels within a node and the
  // cross-node disagreement is absorbed by lease_wait_margin().
  const TimeS now = local_now(n);
  // (a) Self-fencing: an own-led group whose self-lease (fed by chain-peer
  // beacons) lapsed may already be considered expired by the peers — stop
  // releasing rounds *before* any successor's lease on us can run out (the
  // self-lease is half the lease, renewed by the same beacons that renew
  // the peers' full lease). Reopen only after renewed contact plus a full
  // lease of settle time: a successor that acted on the expiry has
  // announced by then, which turns the reopen into an adoption instead.
  if (my_server >= 0 && cfg_.replication > 1) {
    auto& fences = fenced_[nn];
    for (int g = 0; g < n_servers(); ++g) {
      const bool mine = lead.primary(g) == my_server;
      const auto fit = fences.find(g);
      if (!mine) {
        if (fit != fences.end()) fences.erase(g);
        continue;
      }
      const TimeS sl = self_lease_[nn][static_cast<std::size_t>(g)];
      // A dead chain peer cannot renew the self-lease, but it cannot elect
      // itself either: while every strict chain peer of the group is dead
      // in this view AND the view still holds a quorum, the primary keeps
      // its lease on quorum evidence — its own beacons reach a majority,
      // so no observer's lease on it can lapse and no successor may act.
      bool peers_dead = true;
      for (int off = 1; off < cfg_.replication; ++off) {
        const int peer = lead.member(g, off);
        if (peer == my_server) continue;
        if (membership_[nn]->alive(server_node(peer))) {
          peers_dead = false;
          break;
        }
      }
      // Partition plane: quorum is a *precondition* for holding the lease at
      // all. A minority-side primary still hearing its co-minority chain
      // peers (symmetric cut through the chain) would otherwise keep
      // releasing rounds while the majority elects a successor.
      const bool quorum_ok = !partition_plane_ || view_has_quorum(n);
      const bool held =
          quorum_ok && (now <= sl || (peers_dead && view_has_quorum(n)));
      if (fit == fences.end()) {
        if (!held) {
          fences.emplace(g, now);
          ++lease_expiries_;
          mem_mark(n, "L-");
          update_acting(my_server, g);
        }
      } else if (held && now - fit->second >= lease_len_) {
        fences.erase(g);
        mem_mark(n, "L+");
        update_acting(my_server, g);
        inject_recheck(my_server);
      } else if (partition_plane_ && !held) {
        // Keep the fence stamp at the last not-held tick, so the reopen age
        // measures *continuously held* time. A cut longer than the lease
        // would otherwise age the fence past lease_len_ while severed and
        // reopen at the instant of heal — before the majority successor's
        // retransmitted announcement can cross the healed (and possibly
        // congested) fabric and turn the reopen into an adoption.
        fit->second = now;
      }
    }
  }
  // (b) Deferred failovers: act only once the old primary's lease expired
  // in this view AND the view holds a quorum of the joined members — a
  // minority-partitioned observer (which sees everyone else dead and every
  // lease expired) must never elect itself.
  auto& pend = pending_failover_[nn];
  if (pend.empty()) return;
  const auto& view = *membership_[nn];
  for (auto it = pend.begin(); it != pend.end();) {
    const int g = *it;
    if (view.alive(server_node(lead.primary(g)))) {
      it = pend.erase(it);  // the primary came back before the lease ran out
      if (partition_plane_) quorum_denied_[nn].erase(g);
      continue;
    }
    // Drift margin: this observer's clock may run fast relative to the
    // primary's self-lease clock, so wait out the worst-case disagreement
    // past the deadline before treating the lease as lapsed everywhere.
    if (now <= lead.lease_deadline(g) + lease_wait_margin()) {
      ++it;
      continue;
    }
    if (!view_has_quorum(n)) {
      // Minority side: the lease is gone but this observer must not elect
      // anyone. Count each denial episode once; heal clears it.
      if (partition_plane_ && quorum_denied_[nn].insert(g).second) {
        ++quorum_denied_failovers_;
        mem_mark(n, "QD");
      }
      if (partition_plane_) {
        // Without a quorum this observer cannot distinguish a dead primary
        // from a severed one, so its lease clock must not run: re-arm the
        // recorded grant each denied tick. Once quorum returns (heal), a
        // failover needs a *fresh* full lease to lapse from that moment —
        // ample time for the surviving primary's resumed beacons to revive
        // it in this view and cancel the pending failover. (Heal revives
        // peers one beacon at a time; quorum can return before the specific
        // primary does, and acting on the severed-era deadline then would
        // elect a second head for a group that never lost its first.)
        lead.renew_lease(g, now + lease_len_);
      }
      ++it;
      continue;
    }
    if (partition_plane_) quorum_denied_[nn].erase(g);
    it = pend.erase(it);
    failover_scan(n, g);
  }
}

bool Cluster::group_frozen(int server, int group) const {
  const auto mit = migrations_in_progress_.find(group);
  if (mit != migrations_in_progress_.end() && mit->second.donor == server) {
    return true;
  }
  return leases_on_ &&
         fenced_[static_cast<std::size_t>(server_node(server))].count(group) >
             0;
}

void Cluster::seed_self_lease(int server, int group) {
  if (!leases_on_ || cfg_.replication <= 1) return;
  const int node = server_node(server);
  const auto nn = static_cast<std::size_t>(node);
  auto& sl = self_lease_[nn][static_cast<std::size_t>(group)];
  sl = std::max(sl, local_now(node) + lease_len_ / 2.0);
}

TimeS Cluster::local_now(int n) const {
  if (!drift_on_) return sim_.now();
  const auto nn = static_cast<std::size_t>(n);
  return sim_.now() * (1.0 + clock_rate_[nn]) + clock_offset_[nn];
}

void Cluster::unpark_worker(int w) {
  const auto wn = static_cast<std::size_t>(w);
  if (!node_state_[wn].up || parked_[wn].empty()) return;
  auto items = std::move(parked_[wn]);
  parked_[wn].clear();
  auto& ws = *workers_[wn];
  for (auto& item : items) {
    // Original sequence numbers are kept, so a parked push re-enters the
    // priority queue exactly where it would have competed; the sender
    // re-evaluates the (possibly still-dead, possibly re-led) destination.
    if (tracing() && item.parked_at > 0.0) {
      tracer_->span(lane("w", w, ".hold"), item.parked_at, sim_.now(), "park");
    }
    ws.sendq.push(item);
    sendq_depth_changed(w, +1);
  }
}

void Cluster::update_acting(int server, int group) {
  // Ground truth maintained outside any view: is this server *acting* as
  // the group's primary right now (up, believes it leads, not fenced)?
  // Overlapping intervals across servers are precisely the split-view
  // window lease-based failover exists to close.
  const auto sn = static_cast<std::size_t>(server);
  const auto nn = static_cast<std::size_t>(server_node(server));
  Acting& a = acting_[sn][static_cast<std::size_t>(group)];
  const bool should = node_state_[nn].up &&
                      leadership_[nn]->primary(group) == server &&
                      !(leases_on_ && fenced_[nn].count(group) > 0);
  if (should == a.open) return;
  if (should) {
    for (int o = 0; o < n_total_servers(); ++o) {
      if (o == server) continue;
      if (acting_[static_cast<std::size_t>(o)][static_cast<std::size_t>(group)]
              .open) {
        ++dual_primary_windows_;
        mem_mark(server_node(server), "DP");
        break;
      }
    }
    a.open = true;
    a.since = sim_.now();
  } else {
    a.open = false;
    if (tracing()) {
      tracer_->span(lane("n", static_cast<int>(nn), ".lease"), a.since,
                    sim_.now(), "p" + std::to_string(group));
    }
  }
}

void Cluster::inject_recheck(int server) {
  auto& ss = *servers_[static_cast<std::size_t>(server)];
  RxItem item;
  item.msg.kind = net::MsgKind::kRecheck;
  item.priority = -1;  // ahead of all wire traffic
  item.seq = ss.rx_seq++;
  ss.rxq.push(item);
  rxq_depth_changed(server, +1);
}

Bytes Cluster::replicated_state_bytes(int server) const {
  // Parameters plus same-sized optimizer state (momentum) for every slice
  // whose group this server replicates.
  const auto& lead = *leadership_[static_cast<std::size_t>(server_node(server))];
  Bytes total = 0;
  for (std::int64_t s = 0; s < partition_.num_slices(); ++s) {
    const auto& sl = partition_.slices[static_cast<std::size_t>(s)];
    if (lead.chain_offset(sl.server, server) < 0) continue;
    total += 2 * sl.payload_bytes();
  }
  return total;
}

sim::Task Cluster::checkpoint_loop(int s) {
  auto& ss = *servers_[static_cast<std::size_t>(s)];
  const auto node = static_cast<std::size_t>(server_node(s));
  for (;;) {
    co_await sim_.sleep(cfg_.checkpoint_period);
    if (stopping_) co_return;
    if (!node_state_[node].up) continue;
    const std::int64_t epoch = node_state_[node].epoch;
    // Snapshot versions now; the write commits only if the process survives
    // the full (simulated) storage write — a crash mid-write keeps the
    // previous checkpoint (atomic rename semantics).
    std::vector<std::int64_t> snapshot = ss.version;
    const Bytes bytes = replicated_state_bytes(s);
    const TimeS t0 = sim_.now();
    co_await sim_.sleep(static_cast<double>(bytes) /
                        cfg_.checkpoint_bytes_per_sec);
    if (node_state_[node].epoch != epoch) continue;  // torn write discarded
    ckpt_versions_[static_cast<std::size_t>(s)] = std::move(snapshot);
    ++checkpoints_written_;
    checkpoint_bytes_ += bytes;
    if (tracing()) {
      tracer_->span(lane("n", server_node(s), ".ckpt"), t0, sim_.now(), "ck");
    }
  }
}

sim::Task Cluster::server_rehydrate(int s, std::int64_t epoch) {
  auto& ss = *servers_[static_cast<std::size_t>(s)];
  const auto node = static_cast<std::size_t>(server_node(s));
  const TimeS t0 = sim_.now();
  // Load the last completed checkpoint from stable storage.
  const Bytes ckpt_bytes = replicated_state_bytes(s);
  co_await sim_.sleep(static_cast<double>(ckpt_bytes) /
                      cfg_.checkpoint_bytes_per_sec);
  if (node_state_[node].epoch != epoch) co_return;  // crashed again
  const auto& lead = *leadership_[node];
  std::vector<std::int64_t> mine;
  for (std::int64_t sl = 0; sl < partition_.num_slices(); ++sl) {
    const auto si = static_cast<std::size_t>(sl);
    const int group = partition_.slices[si].server;
    if (lead.chain_offset(group, s) < 0) continue;
    ss.version[si] = ckpt_versions_[static_cast<std::size_t>(s)][si];
    mine.push_back(sl);
  }
  // Delta-sync: ask the group peers for everything newer than the
  // checkpoint; only the current leader answers, so stale backups cannot
  // poison the rehydrated state. Retry on a suspicion-timeout cadence until
  // every slice answered or no live peer remains to ask.
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool asked = false;
    for (const std::int64_t sl : mine) {
      const auto si = static_cast<std::size_t>(sl);
      if (ss.sync_epoch[si] == node_state_[node].epoch) continue;
      const int group = partition_.slices[si].server;
      for (int k = 0; k < cfg_.replication; ++k) {
        const int peer = lead.member(group, k);
        if (peer == s) continue;
        const int pnode = server_node(peer);
        if (!membership_[node]->alive(pnode) || !reachable(pnode)) continue;
        net::Message m;
        m.src = server_node(s);
        m.dst = pnode;
        m.kind = net::MsgKind::kSyncRequest;
        m.slice = sl;
        m.layer = partition_.slices[si].layer;
        m.version = ss.version[si];
        m.bytes = net::kControlBytes;
        post_tracked(m);
        asked = true;
      }
    }
    if (!asked) break;  // nothing left to ask (all synced or all peers gone)
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (node_state_[node].epoch != epoch || stopping_) co_return;
    bool all = true;
    for (const std::int64_t sl : mine) {
      if (ss.sync_epoch[static_cast<std::size_t>(sl)] !=
          node_state_[node].epoch) {
        all = false;
        break;
      }
    }
    if (all) break;
  }
  ++rehydrations_;
  rehydration_time_sum_ += sim_.now() - t0;
  if (tracing()) {
    tracer_->span(lane("n", server_node(s), ".ckpt"), t0, sim_.now(), "rehy");
  }
  // Re-assert leadership of every group this server still believes it
  // leads (nobody announced a newer epoch during the sync): a bumped epoch
  // makes the workers re-push the rounds whose pushes died with the old
  // process.
  for (int g = 0; g < n_servers(); ++g) {
    auto& l = *leadership_[node];
    if (l.primary(g) != s) continue;
    const std::int64_t e = l.epoch(g) + 1;
    l.adopt(g, e, s);
    seed_self_lease(s, g);
    update_acting(s, g);
    announce_primary(s, g, e, s);
  }
  inject_recheck(s);
}

sim::Task Cluster::worker_rejoin(int w, std::int64_t epoch) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const auto wn = static_cast<std::size_t>(w);
  const TimeS t0 = sim_.now();
  for (;;) {
    // Broadcast the join to every reachable server node; current group
    // leaders answer with fresh parameters and open a bounded-staleness
    // window before the aggregation rounds wait on this worker again.
    for (int s = 0; s < n_total_servers(); ++s) {
      const int snode = server_node(s);
      if (snode == w) continue;  // own (restarted) colocated server
      if (!node_state_[static_cast<std::size_t>(snode)].joined) continue;
      if (!reachable(snode)) continue;
      net::Message m;
      m.src = w;
      m.dst = snode;
      m.kind = net::MsgKind::kJoinRequest;
      m.worker = w;
      m.iteration = node_state_[wn].epoch;  // incarnation
      m.bytes = net::kControlBytes;
      post_tracked(m);
    }
    // Colocated self-serve: the local server (once rehydrated) answers the
    // join inline — no wire hop for the local shard.
    if (!cfg_.dedicated_servers) {
      const int s = w;
      auto& ss = *servers_[static_cast<std::size_t>(s)];
      const auto& lead = *leadership_[wn];
      for (std::int64_t sl = 0; sl < partition_.num_slices(); ++sl) {
        const auto si = static_cast<std::size_t>(sl);
        if (lead.primary(partition_.slices[si].server) != s) continue;
        ss.active_from[si][wn] = ss.version[si] + cfg_.rejoin_slack;
        send_params(s, sl, w);
      }
    }
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (node_state_[wn].epoch != epoch || stopping_) co_return;
    bool complete = true;
    std::int64_t start_iter = target_iterations_;
    for (std::int64_t sl = 0; sl < partition_.num_slices(); ++sl) {
      const std::int64_t v = ws.recv_version[static_cast<std::size_t>(sl)];
      if (v < 0) {
        complete = false;
        break;
      }
      start_iter = std::min(start_iter, v);
    }
    if (!complete) continue;
    ++worker_rejoins_;
    max_rejoin_lag_ = std::max(max_rejoin_lag_, sim_.now() - t0);
    mem_mark(w, "J");
    sim_.spawn(worker_loop(w, start_iter));
    co_return;
  }
}

void Cluster::execute_crash(const net::NodeCrash& c) {
  const auto nn = static_cast<std::size_t>(c.node);
  if (c.node >= total_nodes()) return;  // plan names a node we don't have
  auto& ns = node_state_[nn];
  if (!ns.up) return;  // already down (overlapping plans)
  ns.up = false;
  ns.draining = false;  // the drain intent dies with the process
  ns.epoch += 1;
  ns.down_since = sim_.now();
  ++crashes_;
  mem_mark(c.node, "X");
  teardown_process_state(c.node);
}

void Cluster::teardown_process_state(int node) {
  const auto nn = static_cast<std::size_t>(node);
  // All in-memory state dies with the process.
  seen_[nn].clear();
  while (net_->inbox(node).try_pop()) {
  }
  if (!cfg_.dedicated_servers || node < cfg_.n_workers) {
    auto& ws = *workers_[nn];
    while (ws.sendq.try_pop()) {
    }
    // Reserved-but-unpopped items survive the drain; resync the depth view.
    sendq_depth_changed(node,
                        static_cast<std::int64_t>(ws.sendq.size()) -
                            ws.sendq_depth);
    ws.notify_version.assign(ws.notify_version.size(), -1);
    ws.pulled_round.assign(ws.pulled_round.size(), -1);
    ws.recv_version.assign(ws.recv_version.size(), -1);  // holds nothing
    ws.recv_bytes.assign(ws.recv_bytes.size(), 0);
    ws.recv_inflight.assign(ws.recv_inflight.size(), -1);
    if (partition_plane_) parked_[nn].clear();  // parked copies die with it
    if (scale_plane_) shed_parked_[nn].clear();  // shed copies die with it
  }
  // Rack folds are in-memory aggregator state; covers already forwarded are
  // payload-carried data and survive (the server consumes them).
  if (agg_on_) agg_rounds_[nn].clear();
  const int s = server_of_node(node);
  if (s >= 0) {
    auto& ss = *servers_[static_cast<std::size_t>(s)];
    while (ss.rxq.try_pop()) {
    }
    rxq_depth_changed(s, static_cast<std::int64_t>(ss.rxq.size()) -
                             ss.rxq_depth);
    ss.round_bytes.assign(ss.round_bytes.size(), 0);
    for (auto& row : ss.contrib) std::fill(row.begin(), row.end(), 0);
    for (auto& p : ss.pending) p.clear();
    // Buffered run-ahead contributions are server memory; workers re-push
    // their whole outstanding window when leadership moves.
    if (dssp_on_) dssp_future_[static_cast<std::size_t>(s)].clear();
    // Commit barriers owned by the dead primary die with it; the replicated
    // copies (if any landed) survive at the backups.
    for (auto it = commits_.begin(); it != commits_.end();) {
      it = it->second.server == s ? commits_.erase(it) : std::next(it);
    }
    // Acting intervals close with the process (ground truth).
    for (int g = 0; g < n_servers(); ++g) update_acting(s, g);
  }
  if (leases_on_) {
    // Fences and deferred failovers are process state.
    fenced_[nn].clear();
    pending_failover_[nn].clear();
    if (partition_plane_) quorum_denied_[nn].clear();
  }
  // In-flight migrations die with the donor's process, and with a target
  // that will never return (a restarting target is bridged by
  // retransmission: its dedup memory clears with the crash, so re-applied
  // copies ack and the handover completes). This must run before the
  // generic pending_tx_ sweep below so a dead donor's timers cannot
  // complete a handover the donor no longer remembers.
  for (auto it = migrations_in_progress_.begin();
       it != migrations_in_progress_.end();) {
    const MigrationState& ms = it->second;
    const bool donor_died = server_node(ms.donor) == node;
    const bool target_gone =
        server_node(ms.target) == node && permanently_down(node);
    if (donor_died || target_gone) {
      for (auto w = migration_wait_.begin(); w != migration_wait_.end();) {
        if (w->second == it->first) {
          pending_tx_.erase(w->first);
          w = migration_wait_.erase(w);
        } else {
          ++w;
        }
      }
      it = migrations_in_progress_.erase(it);
    } else {
      ++it;
    }
  }
  // The dead process no longer retransmits anything it sent, and — when it
  // will never return — nothing addressed to it can ever be delivered, so
  // those timers must not probe forever.
  const bool forever = permanently_down(node);
  for (auto it = pending_tx_.begin(); it != pending_tx_.end();) {
    const net::Message& m = it->second.msg;
    if (m.src == node || (forever && m.dst == node)) {
      const std::int64_t id = it->first;
      it = pending_tx_.erase(it);
      on_replicate_ack(id);  // a dead backup cannot hold a barrier hostage
    } else {
      ++it;
    }
  }
}

void Cluster::execute_restart(const net::NodeCrash& c) {
  const auto nn = static_cast<std::size_t>(c.node);
  if (c.node >= total_nodes()) return;
  auto& ns = node_state_[nn];
  if (ns.up) return;
  if (ns.retired) return;  // invariant 12: a retired node never returns
  ns.up = true;
  ns.epoch += 1;
  ns.down_since = -1.0;
  ++restarts_;
  mem_mark(c.node, "R");
  // Fresh process: optimistic liveness view, empty dedup memory (msg ids
  // are globally unique, so re-learning them is safe). View stamps live on
  // the node's local clock.
  const TimeS lnow = local_now(c.node);
  membership_[nn]->reset(lnow);
  const int s = server_of_node(c.node);
  if (leases_on_ && cfg_.replication > 1 && s >= 0) {
    // The restarted process may still believe it leads groups a successor
    // took over during the outage: fence them (self-lease lapsed while
    // down) so the stale belief can never release a round concurrently
    // with the real leader. The fences lift through the ordinary settle
    // path once renewed chain contact proves the belief right — or the
    // successor's (retransmitted) announcement corrects it first.
    auto& lead = *leadership_[nn];
    for (int g = 0; g < n_servers(); ++g) {
      if (lead.primary(g) != s) continue;
      fenced_[nn][g] = lnow;
      ++lease_expiries_;
      mem_mark(c.node, "L-");
      self_lease_[nn][static_cast<std::size_t>(g)] =
          lnow + lease_len_ / 2.0;
    }
  }
  if (s >= 0) sim_.spawn(server_rehydrate(s, ns.epoch));
  if (!cfg_.dedicated_servers || c.node < cfg_.n_workers) {
    sim_.spawn(worker_rejoin(c.node, ns.epoch));
  }
}

// ---------------------------------------------------------------------------
// Voluntary drain/leave, weight-aware rebalancing and the SLO-driven
// autoscaler (docs/PROTOCOL.md, invariant 12).
// ---------------------------------------------------------------------------

void Cluster::execute_leave(const net::NodeLeave& l) {
  if (l.node < 0 || l.node >= total_nodes()) return;
  begin_drain(l.node);
}

void Cluster::begin_drain(int node) {
  const auto nn = static_cast<std::size_t>(node);
  auto& ns = node_state_[nn];
  if (!ns.up || !ns.joined || ns.draining || ns.retired) return;
  ns.draining = true;
  ns.drain_since = sim_.now();
  ++*drains_started_;
  mem_mark(node, "D-");
  sim_.spawn(drain_loop(node, ns.epoch));
}

double Cluster::group_weight(int group) const {
  // Observed push bytes credited to the group's ledgers, over a static
  // payload prior: the planner stays deterministic and sensible before any
  // observation lands, and a group's weight tracks what workers actually
  // push at it afterwards.
  double prior = 0.0;
  for (const auto& sl : partition_.slices) {
    if (sl.server == group) prior += static_cast<double>(sl.payload_bytes());
  }
  return prior + group_push_bytes_[static_cast<std::size_t>(group)];
}

std::vector<int> Cluster::weighted_rebalance_plan(int joiner_server) const {
  // Weight-aware planner: the joiner takes the hottest groups first until
  // it holds about a 1/shares slice of the observed push weight, where
  // shares counts the servers that will be serving after admission. Groups
  // already promised to an earlier (possibly still-migrating) joiner are
  // off the table.
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(n_servers()));
  std::vector<double> weights(static_cast<std::size_t>(n_servers()), 0.0);
  for (int g = 0; g < n_servers(); ++g) {
    weights[static_cast<std::size_t>(g)] = group_weight(g);
    if (granted_groups_.count(g) > 0) continue;
    candidates.push_back(g);
  }
  int shares = 1;  // the joiner itself
  for (int s = 0; s < n_total_servers(); ++s) {
    if (s == joiner_server) continue;
    const auto& ns = node_state_[static_cast<std::size_t>(server_node(s))];
    if (ns.joined && !ns.draining && !ns.retired) ++shares;
  }
  return weighted_share(weights, candidates, shares);
}

int Cluster::drain_target(int donor, int group) const {
  // Legal adopters only — home-chain members of the group or admitted
  // joiners, the two classes ShardLeadership::adopt accepts — that are
  // joined, up, and neither draining nor retired.
  std::vector<int> candidates;
  const int n_base = n_servers();
  for (int k = 0; k < cfg_.replication; ++k) {
    const int s = (group + k) % n_base;
    if (s != donor) candidates.push_back(s);
  }
  for (int s = n_base; s < n_total_servers(); ++s) {
    if (s != donor) candidates.push_back(s);
  }
  // With a topology attached, prefer landing the group's next primary in
  // the rack that pushes it hardest (the per-rack push-byte gauges).
  int hot_rack = -1;
  if (hierarchy_on_) {
    double hot = -1.0;
    for (std::size_t r = 0; r < rack_group_push_bytes_.size(); ++r) {
      const double v =
          rack_group_push_bytes_[r][static_cast<std::size_t>(group)];
      if (v > hot) {
        hot = v;
        hot_rack = static_cast<int>(r);
      }
    }
  }
  const auto& lead =
      *leadership_[static_cast<std::size_t>(server_node(donor))];
  int best = -1;
  int best_rank = 2;
  double best_load = 0.0;
  for (const int s : candidates) {
    const int sn = server_node(s);
    const auto& ns = node_state_[static_cast<std::size_t>(sn)];
    if (!ns.joined || !ns.up || ns.draining || ns.retired) continue;
    const int rank =
        hot_rack >= 0 && node_rack_[static_cast<std::size_t>(sn)] == hot_rack
            ? 0
            : 1;
    // Least-loaded-first keeps the remaining servers balanced as the
    // drainer's groups spread out; ties go to the smaller id.
    double load = 0.0;
    for (int g = 0; g < n_base; ++g) {
      if (lead.primary(g) == s) load += group_weight(g);
    }
    if (best < 0 || rank < best_rank ||
        (rank == best_rank &&
         (load < best_load || (load == best_load && s < best)))) {
      best = s;
      best_rank = rank;
      best_load = load;
    }
  }
  return best;
}

sim::Task Cluster::drain_loop(int node, std::int64_t epoch) {
  const int s = server_of_node(node);
  const auto nn = static_cast<std::size_t>(node);
  for (;;) {
    if (node_state_[nn].epoch != epoch || !node_state_[nn].up) {
      // A crash landed mid-drain: the drain intent died with the process
      // and the ordinary failover path owns recovery from here.
      co_return;
    }
    bool busy = false;
    const auto& lead = *leadership_[nn];
    for (int g = 0; g < n_servers(); ++g) {
      if (lead.primary(g) != s) continue;
      busy = true;
      if (migrations_in_progress_.count(g) > 0) continue;  // already moving
      const int target = drain_target(s, g);
      // No legal receiver right now (every candidate down or draining):
      // retry next tick — validate() guarantees a planned-leave schedule
      // always leaves a survivor, and the autoscaler only drains joiners,
      // whose groups can always fall back to their home chains.
      if (target >= 0) start_migration(s, g, target);
    }
    if (!busy) {
      // Still busy while we are the donor of an in-flight handover, and
      // while one is still landing *on* us (an admission transfer racing
      // the drain): retiring mid-flight would strand the group's state at
      // a node everyone is about to forget.
      for (const auto& [g, ms] : migrations_in_progress_) {
        if (ms.donor == s || ms.target == s) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) {
      // Goodbye handshake: retire only once every live member's view has
      // adopted the handovers. While we wait, the reliable kNewPrimary
      // announcements keep retransmitting (across a partition if need be);
      // retiring earlier would tear those timers down with the process and
      // strand a severed observer on a leadership view naming a node that
      // no longer exists — exactly what invariant 12 audits.
      for (int p = 0; p < total_nodes() && !busy; ++p) {
        if (p == node) continue;
        const auto& ps = node_state_[static_cast<std::size_t>(p)];
        if (!ps.joined || !ps.up) continue;
        const auto& plead = *leadership_[static_cast<std::size_t>(p)];
        for (int g = 0; g < n_servers(); ++g) {
          if (plead.primary(g) == s) {
            busy = true;
            break;
          }
        }
      }
    }
    if (!busy) {
      retire_node(node);
      co_return;
    }
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (stopping_) co_return;
  }
}

void Cluster::retire_node(int node) {
  const auto nn = static_cast<std::size_t>(node);
  auto& ns = node_state_[nn];
  if (!ns.draining || ns.retired) return;
  ns.draining = false;
  ns.retired = true;
  ns.joined = false;
  ns.up = false;
  ns.epoch += 1;
  ns.down_since = sim_.now();
  ++*drains_completed_;
  mem_mark(node, "D+");
  if (tracing()) {
    tracer_->span(lane("n", node, ".mem"), ns.drain_since, sim_.now(),
                  "drain");
  }
  // The member leaves every view at once (its goodbye broadcast, in the
  // narrative): the quorum denominator shrinks with the cluster, so later
  // partitions are judged against the members that actually remain — and a
  // retired node never votes, contributes, or leads again (invariant 12;
  // permanently_down() and execute_restart() enforce the "never returns"
  // half).
  for (int p = 0; p < total_nodes(); ++p) {
    membership_[static_cast<std::size_t>(p)]->mark_unjoined(node);
  }
  teardown_process_state(node);
  // Open rounds waiting on the retired worker's contribution re-evaluate
  // against the shrunken contributor set.
  for (int sv = 0; sv < n_total_servers(); ++sv) {
    if (node_state_[static_cast<std::size_t>(server_node(sv))].up) {
      inject_recheck(sv);
    }
  }
  // Its worker can no longer reach the iteration target.
  if ((!cfg_.dedicated_servers || node < cfg_.n_workers) &&
      !workers_[nn]->finished) {
    finish_target_ -= 1;
  }
  // Goodbye handshake hands the clock off: the retiree leaves the
  // min-clock in the same event it leaves the views, so a slow drain can
  // never gate the remaining fleet.
  if (dssp_on_ && node < n_total_workers()) dssp_set_clock(node, -1);
}

bool Cluster::should_shed(const SendItem& item) const {
  // Fresh, lowest-priority gradient pushes only: retransmissions already
  // ride their own timers, combined rack pushes carry other workers' data,
  // and control traffic is never shed. Priorities grow toward the back of
  // the model (layer index), so `>= shed_cutoff_` parks the least urgent
  // half; under flat priorities (every item 0, cutoff 1) shedding is a
  // structural no-op.
  return item.retx_id < 0 && item.agg_id < 0 &&
         item.kind == net::MsgKind::kPushGradient &&
         item.priority >= shed_cutoff_;
}

void Cluster::unshed_all() {
  unshed_iter_count_ = iter_time_hist_.count();
  for (int w = 0; w < n_total_workers(); ++w) {
    auto& parked = shed_parked_[static_cast<std::size_t>(w)];
    if (parked.empty()) continue;
    if (!node_state_[static_cast<std::size_t>(w)].up) {
      parked.clear();  // died while shed; re-push is the rejoin path's job
      continue;
    }
    auto& ws = *workers_[static_cast<std::size_t>(w)];
    for (auto& item : parked) {
      if (tracing() && item.parked_at > 0.0) {
        tracer_->span(lane("w", w, ".hold"), item.parked_at, sim_.now(),
                      "shed");
      }
      ws.sendq.push(std::move(item));
      sendq_depth_changed(w, 1);
    }
    parked.clear();
  }
}

sim::Task Cluster::autoscaler_loop() {
  std::int64_t reported_violations = 0;
  for (;;) {
    co_await sim_.sleep(cfg_.suspicion_timeout);
    if (stopping_) co_return;
    const TimeS now = sim_.now();
    if (shed_active_ && now >= shed_until_) {
      shed_active_ = false;
      unshed_all();
    }
    const bool can_up = standby_next_ < n_total_workers();
    // Scale-down candidates: admitted nodes beyond the base ring (their
    // groups can always fall back to home chains). Pick the least-loaded
    // one; ties go to the highest id (last in, first out).
    bool can_down = false;
    int surplus = -1;
    double surplus_load = 0.0;
    for (int n = cfg_.n_workers; n < total_nodes(); ++n) {
      const auto& ns = node_state_[static_cast<std::size_t>(n)];
      if (!ns.joined || !ns.up || ns.draining || ns.retired) continue;
      const int s = server_of_node(n);
      const auto& lead = *leadership_[static_cast<std::size_t>(n)];
      double load = 0.0;
      for (int g = 0; g < n_servers(); ++g) {
        if (lead.primary(g) == s) load += group_weight(g);
      }
      if (surplus < 0 || load < surplus_load ||
          (load == surplus_load && n > surplus)) {
        surplus = n;
        surplus_load = load;
      }
      can_down = true;
    }
    const ScaleAction act = autoscaler_->tick(now, can_up, can_down);
    const std::int64_t v = autoscaler_->slo_violation_ticks();
    if (v > reported_violations) {
      slo_violation_ticks_->inc(v - reported_violations);
      reported_violations = v;
    }
    if (act == ScaleAction::kHold) continue;
    if (act == ScaleAction::kShed && unshed_iter_count_ >= 0 &&
        iter_time_hist_.count() <= unshed_iter_count_) {
      // Progress gate: the previous shed window ended and no iteration has
      // completed since. Every parked push delays the synchronous round it
      // belongs to, so shedding again before the cluster finishes even one
      // round spirals — higher p99 reads as more overload, which sheds
      // more. Hold until the flow window produces a completed iteration.
      continue;
    }
    ++*scale_decisions_;
    scale_decision_times_.push_back(now);
    switch (act) {
      case ScaleAction::kUp: {
        net::NodeJoin j;
        j.node = standby_next_++;
        j.at = now;
        finish_target_ += 1;  // the admitted worker must reach the target
        execute_join(j);
        break;
      }
      case ScaleAction::kDown:
        begin_drain(surplus);
        break;
      case ScaleAction::kShed:
        // Degrade gracefully: park the lowest-priority pushes instead of
        // collapsing under load we cannot absorb. The window spans half
        // the cooldown, never all of it — the other half is a guaranteed
        // flow window, so even a permanently unreachable SLO degrades to
        // slower progress, not starvation (shedding delays contributions,
        // it never drops them).
        shed_active_ = true;
        shed_until_ = now + 0.5 * autoscaler_->config().cooldown;
        break;
      case ScaleAction::kHold:
        break;
    }
  }
}

RunResult Cluster::run(int warmup_iterations, int measured_iterations) {
  if (started_) throw std::logic_error("Cluster::run is single-use");
  if (measured_iterations <= 0) {
    throw std::invalid_argument("need at least one measured iteration");
  }
  started_ = true;
  target_iterations_ = warmup_iterations + measured_iterations;

  // While tracing, mirror P3_LOG lines into the trace as instant events
  // stamped with simulated time (the hook is thread-local, so parallel
  // sweeps tracing one cluster never cross streams).
  std::optional<obs::LogCapture> log_capture;
  if (tracing()) {
    log_capture.emplace(*tracer_, [this] { return sim_.now(); });
    // Planned partition windows as ground-truth spans, so the audit can
    // check deliveries and leadership events against the cut intervals.
    for (const auto& p : cfg_.faults.partitions) {
      std::string label = p.symmetric ? "cut" : "asym";
      if (p.flap_period > 0.0) label += "~";
      tracer_->span("net.partition", p.start, p.heal, label);
    }
  }

  for (int n = 0; n < total_nodes(); ++n) sim_.spawn(node_demux(n));
  for (int n = 0; n < cfg_.n_workers; ++n) {
    sim_.spawn(server_loop(n));
    sim_.spawn(worker_sender(n));
    sim_.spawn(worker_loop(n, 0));
  }
  // Elastic joiners: their server/sender loops idle on empty queues until
  // the NodeJoin executes; their worker_loop is spawned by the join
  // handshake (worker_rejoin) once the parameter sync completes.
  for (int n = cfg_.n_workers; n < n_total_workers(); ++n) {
    sim_.spawn(server_loop(n));
    sim_.spawn(worker_sender(n));
  }
  finish_target_ = cfg_.n_workers;
  if (membership_on_) {
    for (int n = 0; n < total_nodes(); ++n) sim_.spawn(heartbeat_loop(n));
    // Invariant-13 auditor: on the suspicion cadence, re-derive the gate
    // floor from ground truth and count ticks where blocked workers exist
    // but no eligible worker can proceed.
    if (dssp_on_) sim_.spawn(dssp_audit_loop());
    if (cfg_.checkpoint_period > 0.0) {
      for (int s = 0; s < n_total_servers(); ++s) {
        sim_.spawn(checkpoint_loop(s));
      }
    }
    for (const auto& j : cfg_.faults.joins) {
      sim_.schedule_at(j.at, [this, j] { execute_join(j); });
      finish_target_ += 1;  // an admitted worker must also reach the target
    }
    for (const auto& l : cfg_.faults.leaves) {
      sim_.schedule_at(l.at, [this, l] { execute_leave(l); });
    }
    if (cfg_.autoscaler.enabled) sim_.spawn(autoscaler_loop());
    for (const auto& c : cfg_.faults.crashes) {
      if (c.node < 0 || c.node >= total_nodes()) {
        throw std::invalid_argument("crash plan names a node outside cluster");
      }
      sim_.schedule_at(c.at, [this, c] { execute_crash(c); });
      if (c.restarts()) {
        sim_.schedule_at(c.restart_time(), [this, c] { execute_restart(c); });
      }
      // A worker that never comes back can never reach the iteration
      // target; the run ends when every survivor does.
      if (!c.restarts() &&
          (!cfg_.dedicated_servers || c.node < cfg_.n_workers)) {
        finish_target_ -= 1;
      }
    }
    const TimeS deadline =
        cfg_.max_sim_time > 0.0 ? cfg_.max_sim_time : 3600.0;
    sim_.schedule_at(deadline, [this] {
      if (!stopping_) {
        throw std::runtime_error(
            "simulation exceeded max_sim_time; recovery is likely stuck");
      }
    });
  }
  const bool finished = sim_.run_while(
      [this] { return workers_finished_ >= finish_target_; });
  stopping_ = true;  // lets heartbeat/checkpoint loops retire during drain()
  if (!finished) {
    throw std::logic_error("simulation deadlocked before workers finished");
  }
  if (shed_active_) {
    // The run finished mid-shed-window: release the parked pushes now so
    // the settle phase (drain()) delivers every contribution — shedding
    // delays, it never drops.
    shed_active_ = false;
    unshed_all();
  }

  RunResult result;
  result.iterations_measured = measured_iterations;
  result.crashes = crashes_.value();
  result.restarts = restarts_.value();
  result.failovers = failovers_.value();
  result.worker_rejoins = worker_rejoins_.value();
  result.checkpoints_written = checkpoints_written_.value();
  result.checkpoint_bytes = checkpoint_bytes_.value();
  result.rehydrations = rehydrations_.value();
  result.rehydration_bytes = rehydration_bytes_.value();
  result.mean_rehydration_time =
      rehydrations_.value() > 0
          ? rehydration_time_sum_ / static_cast<double>(rehydrations_.value())
          : 0.0;
  result.max_rejoin_lag = max_rejoin_lag_;
  result.heartbeats_sent = heartbeats_sent_.value();
  result.stale_pushes = stale_pushes_.value();
  result.joins = joins_.value();
  result.migrations = migrations_.value();
  result.migrated_bytes = migrated_bytes_.value();
  result.lease_renewals = lease_renewals_.value();
  result.lease_expiries = lease_expiries_.value();
  result.dual_primary_windows = dual_primary_windows_.value();
  result.supersessions = supersessions_.value();
  result.partition_drops = faults_ ? faults_->partition_drops() : 0;
  result.cross_partition_deliveries = net_->cross_partition_deliveries();
  result.parked_pushes = parked_pushes_.value();
  result.quorum_denied_failovers = quorum_denied_failovers_.value();
  result.drains_started = drains_started();
  result.drains_completed = drains_completed();
  result.scale_decisions = scale_decisions();
  result.sheds = sheds();
  result.slo_violation_ticks = slo_violation_ticks();
  result.scale_decision_times = scale_decision_times_;
  result.uplink_overtakes = net_->uplink_overtakes();
  result.uplink_priority_inversions = net_->uplink_priority_inversions();
  result.tor_uplink_bytes = net_->tor_uplink_bytes();
  result.agg_combined_pushes = agg_combined_pushes();
  result.agg_param_broadcasts = agg_param_broadcasts();
  result.agg_fallback_pushes = agg_fallback_pushes();
  if (dssp_on_) {
    result.dssp_gate_blocks = dssp_gate_blocks();
    result.staleness_violations = staleness_violations();
    result.gate_wedge_ticks = gate_wedge_ticks();
    result.staleness_raises = staleness_->raises();
    result.staleness_decays = staleness_->decays();
    result.final_staleness_bound = staleness_->bound();
    result.mean_gate_wait =
        dssp_passages_ > 0
            ? dssp_wait_sum_ / static_cast<double>(dssp_passages_)
            : 0.0;
  }
  if (hierarchy_on_) {
    // Per-tier link gauges: snapshot the switch-port stats into the registry
    // so metrics dumps carry them next to the protocol counters.
    for (int r = 0; r < net_->n_racks(); ++r) {
      const auto rs = net_->rack_stats(r);
      const std::string p = "topo.rack" + std::to_string(r);
      registry_.gauge(p + ".uplink_bytes")
          .set(static_cast<double>(rs.up_bytes));
      registry_.gauge(p + ".downlink_bytes")
          .set(static_cast<double>(rs.down_bytes));
      registry_.gauge(p + ".uplink_peak_queue")
          .set(static_cast<double>(rs.up_peak_queue));
      registry_.gauge(p + ".downlink_peak_queue")
          .set(static_cast<double>(rs.down_peak_queue));
      registry_.gauge(p + ".uplink_busy_s").set(rs.up_busy);
      registry_.gauge(p + ".downlink_busy_s").set(rs.down_busy);
    }
  }

  // Measurement window. Workers may have shorter (crashed early, joined
  // late, drained) or longer (restarted mid-run) histories, and under DSSP
  // a fast worker can finish a measured iteration before the slowest one
  // finishes warmup. The window opens when the last worker that never
  // crashed or joined finishes warmup — a rejoined or admitted worker's
  // history starts mid-run, and anchoring on it would shrink the window and
  // inflate throughput — and every completion inside the window counts,
  // whichever worker produced it.
  TimeS start = 0.0;
  TimeS end = 0.0;
  for (int w = 0; w < n_total_workers(); ++w) {
    const auto& done = workers_[static_cast<std::size_t>(w)]->iter_done;
    if (done.empty()) continue;
    end = std::max(end, done.back());
    const bool ever_crashed =
        node_state_[static_cast<std::size_t>(w)].epoch > 0;
    if (!ever_crashed && warmup_iterations > 0 &&
        done.size() >= static_cast<std::size_t>(warmup_iterations)) {
      start = std::max(
          start, done[static_cast<std::size_t>(warmup_iterations - 1)]);
    }
  }
  std::int64_t measured_iters = 0;
  double stall_sum = 0.0;
  for (const auto& ws : workers_) {
    for (std::size_t i = 0; i < ws->iter_done.size(); ++i) {
      if (ws->iter_done[i] <= start) continue;
      ++measured_iters;
      if (i < ws->iter_stall.size()) stall_sum += ws->iter_stall[i];
    }
  }
  result.total_time = end;
  const double samples = static_cast<double>(measured_iters) *
                         workload_.batch_per_worker;
  result.throughput = end > start ? samples / (end - start) : 0.0;
  const auto& w0 = workers_.front()->iter_done;
  for (std::size_t i = static_cast<std::size_t>(warmup_iterations);
       i < w0.size(); ++i) {
    const TimeS prev = i == 0 ? 0.0 : w0[i - 1];
    result.iteration_times.push_back(w0[i] - prev);
  }
  if (!result.iteration_times.empty()) {
    double sum = 0.0;
    for (TimeS t : result.iteration_times) sum += t;
    result.mean_iteration_time =
        sum / static_cast<double>(result.iteration_times.size());
  }
  if (measured_iters > 0) {
    result.mean_stall_time =
        stall_sum / static_cast<double>(measured_iters);
  }
  if (dssp_on_) {
    // Time-weighted mean of the adapted bound — denominator of the
    // ext_dssp score, so adaptive runs pay for the slack they held.
    result.mean_staleness_bound = staleness_->mean_bound(result.total_time);
  }
  result.messages_dropped = net_->messages_dropped();
  result.retransmits = retransmits_.value();
  result.timeouts_fired = timeouts_fired_.value();
  result.duplicates_suppressed = duplicates_suppressed_.value();
  result.goodput_bytes = goodput_bytes_.value();
  result.wire_bytes = net_->bytes_posted();
  return result;
}

void Cluster::drain() {
  stopping_ = true;
  sim_.run();
}

std::int64_t Cluster::slice_version(std::int64_t slice) const {
  const auto& sl = partition_.slices[static_cast<std::size_t>(slice)];
  if (!membership_on_) {
    return servers_[static_cast<std::size_t>(sl.server)]
        ->version[static_cast<std::size_t>(slice)];
  }
  // Replicated shard: the authoritative version lives at whichever replica
  // is furthest ahead (the current leader; backups trail by in-flight
  // replication only).
  std::int64_t best = 0;
  // Read leadership through the first non-retired node: a retired node's
  // view froze at retirement and may predate later handovers.
  std::size_t viewer = 0;
  while (viewer + 1 < leadership_.size() &&
         node_state_[viewer].retired) {
    ++viewer;
  }
  const auto& lead = *leadership_[viewer];
  for (int k = 0; k < cfg_.replication; ++k) {
    const int replica = lead.member(sl.server, k);
    best = std::max(best, servers_[static_cast<std::size_t>(replica)]
                              ->version[static_cast<std::size_t>(slice)]);
  }
  return best;
}

std::int64_t Cluster::worker_layer_version(int worker, int layer) const {
  return workers_[static_cast<std::size_t>(worker)]
      ->gates[static_cast<std::size_t>(layer)]
      ->version();
}

}  // namespace p3::ps
