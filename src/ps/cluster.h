// Data-parallel training cluster with a parameter-server synchronization
// protocol — the substrate the paper modifies (MXNet KVStore / ps-lite) and
// the P3 mechanism built on it.
//
// Each of the `n` machines runs a worker process and a colocated server
// process (the common practice the paper describes). Per iteration a worker:
//
//   forward:  for each layer L in order: wait until L's parameters from the
//             previous round have arrived, then compute fwd(L);
//   backward: for each layer L in reverse: compute bwd(L), then enqueue L's
//             gradient slices into the worker's send queue.
//
// A consumer process drains the send queue one message at a time with
// blocking sends (the paper's producer/consumer design): with priority
// enabled the most urgent slice is always sent next, preempting queued
// lower-priority traffic at slice/fragment granularity.
//
// Servers aggregate pushes per slice; when gradients from all workers have
// arrived they apply the update and either broadcast the new parameters
// immediately (P3) or notify workers, which then issue pull requests
// (baseline KVStore). TensorFlow-style deferred pulls issue all pull
// requests at the start of the next iteration instead.
//
// Crash recovery (docs/PROTOCOL.md): when a fault plan schedules node
// crashes — or `replication > 1` / `force_membership` is set — the cluster
// additionally runs a membership plane: every node gossips heartbeat beacons
// and keeps an independent liveness view (`ps::Membership`); each server
// shard is replicated on `replication` consecutive servers with
// primary-backup propagation and a commit barrier (parameters are released
// to workers only after every live backup acknowledged the replicated
// state); on primary death the first live replica in chain order takes over
// with a bumped epoch and workers deterministically re-push un-acknowledged
// rounds; servers periodically checkpoint shard+optimizer state and restart
// by rehydrating checkpoint + delta-sync from the current leader; crashed
// workers rejoin under a bounded-staleness window. All of it is driven by
// the simulated clock and the seeded RNGs, so crash runs are bit-identical
// across runner thread counts.
//
// Elastic scale-out (docs/PROTOCOL.md): `net::NodeJoin` events admit brand
// new colocated worker+server nodes mid-run; a deterministic rebalance
// planner hands shard groups to the joiner, the donor migrates shard state
// behind a commit barrier (no round releases against a half-migrated
// shard), the replication chain re-forms around the joiner, and the
// joiner's worker enters aggregation under the `rejoin_slack` rule. Setting
// `FaultPlan::lease_duration` switches failover from the per-observer
// silence threshold to time-bounded leases: a successor may act on a
// suspected-dead primary only after its lease expired, a primary fences
// itself (stops releasing rounds) when it cannot renew, and a minority-
// partitioned observer can never elect itself — eliminating the transient
// dual-primary window (tracked by `membership.dual_primary_windows`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/slicing.h"
#include "core/sync_method.h"
#include "model/compute.h"
#include "net/faults.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "ps/autoscaler.h"
#include "ps/membership.h"
#include "ps/staleness.h"
#include "sim/queue.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace p3::ps {

struct ClusterConfig {
  int n_workers = 4;  ///< one server per worker
  /// false: servers colocated with workers (the paper's common practice);
  /// true: servers run on dedicated machines (nodes n..2n-1), so all PS
  /// traffic crosses the network. Used by the schedule figures and as a
  /// deployment ablation.
  bool dedicated_servers = false;
  core::SyncMethod method = core::SyncMethod::kBaseline;

  // Network (Section 5.3 sweeps `bandwidth` like `tc qdisc`).
  BitsPerSec bandwidth = gbps(10);
  /// Ingress rate; 0 = symmetric (AWS-style NIC limit). The paper's
  /// bandwidth sweep shapes egress only with `tc tbf`, leaving ingress at
  /// the 100 Gbps InfiniBand line rate — set this to that line rate for
  /// Figure 7-style experiments.
  BitsPerSec rx_bandwidth = 0;
  TimeS latency = us(25);
  /// Rack-scale shape handed to the network (docs/PROTOCOL.md). Inactive
  /// (flat) by default; activating it routes every remote message through
  /// the ToR/spine tiers, where P3's slice priority contends at the shared
  /// uplink ports. Must cover every node when active. Elastic joins are
  /// rejected under an active topology (racks are fixed at construction).
  net::Topology topology;
  /// Rack-local pre-reduction: workers push gradient slices to their rack's
  /// aggregator node, which folds them (free, SHArP-style in-network
  /// reduction at the ToR tier) and forwards one combined push per rack to
  /// the shard leader; updated parameters come back as one copy per rack,
  /// re-broadcast by the aggregator. Requires an active topology and
  /// colocated servers. Recovery traffic (re-pushes after failover or an
  /// aggregator death) always takes the direct worker->server path.
  bool rack_aggregation = false;

  // Partitioning.
  std::int64_t slice_params = 50'000;        ///< P3 slice size (Section 5.7)
  std::int64_t kvstore_threshold = 1'000'000; ///< KVStore sharding heuristic
  /// Maximum wire message size. ps-lite ships each shard as one monolithic
  /// message, so the default is effectively "no fragmentation"; lower it to
  /// study transport-level chunking as an ablation.
  Bytes fragment_bytes = gib(1);

  // Server-side aggregation + SGD cost model (effective single-thread
  // ps-lite throughput including (de)serialization; see EXPERIMENTS.md).
  double update_bytes_per_sec = 1.5e9;
  TimeS update_overhead = us(30);
  /// Worker-side per-message CPU cost (serialization + engine dispatch +
  /// syscall). This is what makes very small slices expensive (Section
  /// 5.7's left-hand falloff).
  TimeS send_overhead = us(10);

  /// Wire compression factor for gradient/parameter payloads (DGC-style
  /// sparsification: e.g. 50 = payloads shrink 50x on the wire while the
  /// server still touches the full arrays). 1 = no compression. The paper
  /// argues P3 composes with compression (Section 6); see ext_compression.
  double wire_compression = 1.0;

  // Per-iteration compute time multiplier stddev (variable sequence length
  // in NMT workloads; 0 = deterministic compute).
  double compute_jitter = 0.0;

  // --- fault injection + reliable delivery (docs/PROTOCOL.md) ---
  /// Wire faults to inject; an empty (inactive) plan keeps the network
  /// perfectly reliable and the reliability layer disarmed, so fault-free
  /// runs are byte-identical to a build without this subsystem.
  net::FaultPlan faults;
  /// Arm the ack/timeout/retransmit layer even without faults (used by
  /// tests to exercise dedup under spurious retransmissions).
  bool reliable_transport = false;
  /// Floor of the per-message retransmission timeout. The initial RTO also
  /// scales with the message's serialization time and the cluster's incast
  /// depth, and backs off by `rto_backoff` on every expiry.
  TimeS min_rto = ms(50);
  double rto_backoff = 2.0;
  /// Ceiling of the backed-off RTO: a long outage (node down for seconds
  /// awaiting restart) keeps probing at this bounded rate instead of
  /// doubling into minutes. Defaults high enough that loss-only fault runs
  /// never touch it.
  TimeS max_rto = 10.0;
  /// > 0: add `uniform(0, rto_jitter * rto)` of seeded jitter to every
  /// armed retransmission timer — decorrelates synchronized retry storms
  /// after a blackout. The jitter RNG is consumed only when enabled.
  double rto_jitter = 0.0;
  /// > 0: use exactly this initial RTO for every message instead of the
  /// adaptive formula. Deliberately tiny values force spurious
  /// retransmissions, which tests use to prove dedup idempotency.
  TimeS fixed_rto = 0.0;

  // --- crash recovery / elastic membership (docs/PROTOCOL.md) ---
  /// Replicate each server shard on this many consecutive servers (chain
  /// order on the server ring). 1 = no replication; a crash of the shard's
  /// only server is then unrecoverable unless it restarts.
  int replication = 1;
  /// Liveness beacon interval per node (membership plane only).
  TimeS heartbeat_period = ms(10);
  /// Silence threshold before a peer is suspected dead. Must exceed several
  /// heartbeat periods or wire loss alone triggers false failovers.
  TimeS suspicion_timeout = ms(60);
  /// > 0: every server snapshots the shard+optimizer state it replicates to
  /// simulated stable storage at this interval; a restarted server
  /// rehydrates from its last completed checkpoint plus a delta from the
  /// current group leader.
  TimeS checkpoint_period = 0.0;
  /// Simulated stable-storage write/read rate for checkpoints.
  double checkpoint_bytes_per_sec = 4e9;
  /// Bounded-staleness window for rejoining workers: a rejoined worker is
  /// not *expected* (waited for) by the aggregation rounds until
  /// `current version + rejoin_slack`, though earlier contributions still
  /// merge when they arrive.
  std::int64_t rejoin_slack = 1;
  /// Arm the membership plane even without crashes or replication (tests).
  bool force_membership = false;
  /// Watchdog: abort a membership run that exceeds this much simulated time
  /// (stuck recovery would otherwise heartbeat forever). 0 = 3600 s when
  /// the membership plane is armed; ignored otherwise.
  TimeS max_sim_time = 0.0;

  // --- SLO-driven autoscaling + voluntary drain (docs/PROTOCOL.md) ---
  /// Enabling it arms the membership plane, a dark standby pool, and the
  /// control loop in src/ps/autoscaler.{h,cc}: evaluated on the suspicion
  /// cadence, it admits standbys / drains surplus nodes to hold
  /// `slo_p99_iteration`, shedding low-priority pushes when over capacity
  /// with nothing left to admit. Scheduled `FaultPlan::leaves` run the same
  /// drain path without the policy.
  AutoscalerConfig autoscaler;

  // --- DSSP dynamic bounded staleness (docs/PROTOCOL.md) ---
  /// Gate parameters for `method == kDSSP`: a worker entering iteration `c`
  /// blocks until `min_live_clock >= c - s`, with `s` adapted online within
  /// `[s_min, s_max]` by ps::StalenessController (or pinned via `fixed_s`
  /// for static-s ablations). Ignored by every other sync method. DSSP arms
  /// the membership plane: the gate's liveness contract excludes dead /
  /// retired / minority-fenced workers from the min-clock through the
  /// membership, lease and quorum machinery.
  StalenessConfig staleness;

  std::uint64_t seed = 42;

  /// Override for the compute profile (used by the schedule figures to pin
  /// exact per-layer times); empty = derive from the workload.
  std::vector<TimeS> fwd_times;
  std::vector<TimeS> bwd_times;
};

struct RunResult {
  double throughput = 0.0;        ///< samples/s across the whole cluster
  TimeS mean_iteration_time = 0;  ///< steady-state per-iteration latency
  /// Mean time per iteration a worker's forward pass spent blocked waiting
  /// for parameters — the communication delay P3 attacks (averaged over
  /// workers and measured iterations).
  TimeS mean_stall_time = 0;
  TimeS total_time = 0;           ///< simulated time at measurement end
  int iterations_measured = 0;
  std::vector<TimeS> iteration_times;  ///< worker 0, measured window

  // Degradation observability (all zero on a fault-free run).
  std::int64_t messages_dropped = 0;      ///< lost to injected faults
  std::int64_t retransmits = 0;           ///< copies re-posted after timeout
  std::int64_t timeouts_fired = 0;        ///< retransmission timer expiries
  std::int64_t duplicates_suppressed = 0; ///< deliveries deduped by msg id
  /// Unique protocol bytes accepted by receivers (dedup survivors).
  Bytes goodput_bytes = 0;
  /// Everything posted on the wire: originals + retransmits + acks.
  Bytes wire_bytes = 0;

  // Recovery observability (all zero without a membership plane).
  std::int64_t crashes = 0;            ///< node crash events executed
  std::int64_t restarts = 0;           ///< node restart events executed
  std::int64_t failovers = 0;          ///< shard leadership takeovers
  std::int64_t worker_rejoins = 0;     ///< completed worker rejoin handshakes
  std::int64_t checkpoints_written = 0;
  Bytes checkpoint_bytes = 0;          ///< total bytes written to "disk"
  std::int64_t rehydrations = 0;       ///< completed server rehydrations
  Bytes rehydration_bytes = 0;         ///< delta-sync payload bytes pulled
  TimeS mean_rehydration_time = 0;     ///< restart -> serving again
  TimeS max_rejoin_lag = 0;            ///< worst restart -> rejoined delay
  std::int64_t heartbeats_sent = 0;
  std::int64_t stale_pushes = 0;       ///< re-pushes answered with params

  // Elastic scale-out + lease observability (all zero without joins/leases).
  std::int64_t joins = 0;              ///< node admissions executed
  std::int64_t migrations = 0;         ///< shard groups handed to joiners
  Bytes migrated_bytes = 0;            ///< shard-state payload migrated
  std::int64_t lease_renewals = 0;     ///< beacon-driven lease extensions
  std::int64_t lease_expiries = 0;     ///< primary self-fences (lease lost)
  /// Times a server started acting as primary of a group while another
  /// server was still acting on the same group. > 0 is the split-view
  /// window suspicion-timeout failover allows; must be 0 under leases.
  std::int64_t dual_primary_windows = 0;
  std::int64_t supersessions = 0;      ///< immediate incarnation handovers

  // Partition tolerance observability (all zero without partitions).
  std::int64_t partition_drops = 0;    ///< messages severed by an active cut
  /// Ground-truth audit: deliveries that landed while a cut severed their
  /// link. The fabric drops severed traffic, so this must stay 0.
  std::int64_t cross_partition_deliveries = 0;
  /// Pushes a worker parked instead of sending because its view holds the
  /// destination dead (drained back into the send queue on revival).
  std::int64_t parked_pushes = 0;
  /// Expired-lease failovers an observer wanted to fire but could not: its
  /// view lacked a quorum of joined members (minority-side denial).
  std::int64_t quorum_denied_failovers = 0;

  // Rack-scale hierarchy observability (all zero on a flat topology).
  /// Switch-port services that let a later high-priority transfer pass a
  /// queued lower-priority one (the P3 overtake at the ToR uplink).
  std::int64_t uplink_overtakes = 0;
  /// Services started while a strictly-higher-priority transfer waited —
  /// zero under priority ports, meaningful under the FIFO-port ablation.
  std::int64_t uplink_priority_inversions = 0;
  Bytes tor_uplink_bytes = 0;          ///< bytes that crossed any ToR uplink
  std::int64_t agg_combined_pushes = 0;   ///< rack pre-reductions forwarded
  std::int64_t agg_param_broadcasts = 0;  ///< params re-broadcast by aggs
  /// Pushes that bypassed the aggregator (recovery re-pushes, or the
  /// aggregator was dead/unreachable in the sender's view).
  std::int64_t agg_fallback_pushes = 0;

  // Autoscaler / voluntary-drain observability (all zero without the scale
  // plane).
  std::int64_t drains_started = 0;     ///< nodes that entered draining mode
  std::int64_t drains_completed = 0;   ///< nodes that retired cleanly
  std::int64_t scale_decisions = 0;    ///< autoscaler admissions + drains
  std::int64_t sheds = 0;              ///< pushes parked by overload shedding
  std::int64_t slo_violation_ticks = 0; ///< control ticks with p99 > SLO
  /// Sim times of the autoscaler's scale decisions, for flap auditing
  /// (consecutive entries must be >= cooldown apart).
  std::vector<TimeS> scale_decision_times;

  // DSSP staleness-gate observability (all zero unless method == kDSSP).
  std::int64_t dssp_gate_blocks = 0;   ///< gate passages that actually waited
  /// Ground-truth audits (PROTOCOL.md inv. 13); both must stay 0.
  std::int64_t staleness_violations = 0; ///< releases past the true min-clock
  std::int64_t gate_wedge_ticks = 0;     ///< audit ticks with no eligible
                                         ///< worker able to proceed
  std::int64_t staleness_raises = 0;   ///< controller bound increments
  std::int64_t staleness_decays = 0;   ///< controller bound decrements
  int final_staleness_bound = 0;       ///< bound when the run ended
  /// Time-weighted mean of the active bound — the staleness cost actually
  /// incurred (ext_dssp's scoring denominator).
  double mean_staleness_bound = 0.0;
  TimeS mean_gate_wait = 0;            ///< mean wait per gate passage
};

class Cluster {
 public:
  Cluster(model::Workload workload, ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Run `warmup + measured` iterations on every worker and report
  /// throughput over the measured window. Single use.
  RunResult run(int warmup_iterations, int measured_iterations);

  /// After run(): process all in-flight traffic until the simulation is
  /// fully quiescent (used by conservation tests).
  void drain();

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *net_; }
  const core::Partition& partition() const { return partition_; }
  const model::ComputeProfile& profile() const { return profile_; }
  const core::SyncConfig& sync_config() const { return sync_; }

  void attach_monitor(net::UtilizationMonitor* monitor) {
    net_->attach_monitor(monitor);
  }
  /// Record onto `tracer`: NIC spans and flow arrows (via the network),
  /// worker compute and server update lanes, queue-depth counter tracks,
  /// slice-lifecycle records, and P3_LOG lines as instant events while
  /// run() executes. Pass nullptr to detach.
  void attach_tracer(obs::Tracer* tracer);

  /// Metrics registry backing every counter below, plus queue-depth gauges
  /// ("w<i>.sendq_depth", "n<i>.rxq_depth") and per-iteration time/stall
  /// histograms. Snapshot with metrics().write_csv()/write_json().
  const obs::Registry& metrics() const { return registry_; }

  // --- introspection for tests and invariant checks ---
  std::int64_t slice_version(std::int64_t slice) const;
  std::int64_t worker_layer_version(int worker, int layer) const;
  std::int64_t pushes_sent() const { return pushes_sent_.value(); }
  std::int64_t params_sent() const { return params_sent_.value(); }
  std::int64_t notifies_sent() const { return notifies_sent_.value(); }
  std::int64_t pulls_sent() const { return pulls_sent_.value(); }
  std::int64_t rounds_completed() const { return rounds_completed_.value(); }
  // Reliability-layer counters (all zero while the layer is disarmed).
  bool reliable_transport_armed() const { return reliable_; }
  std::int64_t acks_sent() const { return acks_sent_.value(); }
  std::int64_t retransmits() const { return retransmits_.value(); }
  std::int64_t timeouts_fired() const { return timeouts_fired_.value(); }
  std::int64_t duplicates_suppressed() const {
    return duplicates_suppressed_.value();
  }
  std::int64_t reliable_in_flight() const {
    return static_cast<std::int64_t>(pending_tx_.size());
  }
  /// Dedup entries currently held for `node` (bounded by watermark GC).
  std::int64_t dedup_entries(int node) const {
    return static_cast<std::int64_t>(
        seen_[static_cast<std::size_t>(node)].size());
  }
  /// Msg-id watermark below which `node` suppresses without a table lookup.
  std::int64_t dedup_floor(int node) const {
    return dedup_floor_[static_cast<std::size_t>(node)];
  }
  Bytes goodput_bytes() const { return goodput_bytes_.value(); }
  // Membership-plane introspection (null/zero while disarmed).
  bool membership_armed() const { return membership_on_; }
  bool node_up(int node) const {
    return node_state_[static_cast<std::size_t>(node)].up;
  }
  std::int64_t crashes_executed() const { return crashes_.value(); }
  std::int64_t restarts_executed() const { return restarts_.value(); }
  std::int64_t failovers() const { return failovers_.value(); }
  std::int64_t worker_rejoins() const { return worker_rejoins_.value(); }
  std::int64_t rehydrations() const { return rehydrations_.value(); }
  std::int64_t checkpoints_written() const {
    return checkpoints_written_.value();
  }
  std::int64_t heartbeats_sent() const { return heartbeats_sent_.value(); }
  // Elastic scale-out + lease introspection (zero while disarmed).
  bool leases_armed() const { return leases_on_; }
  std::int64_t joins_executed() const { return joins_.value(); }
  std::int64_t migrations() const { return migrations_.value(); }
  std::int64_t lease_renewals() const { return lease_renewals_.value(); }
  std::int64_t lease_expiries() const { return lease_expiries_.value(); }
  std::int64_t dual_primary_windows() const {
    return dual_primary_windows_.value();
  }
  std::int64_t supersessions() const { return supersessions_.value(); }
  // Partition-plane introspection (zero/false while disarmed).
  bool partition_plane_armed() const { return partition_plane_; }
  bool clock_drift_armed() const { return drift_on_; }
  std::int64_t parked_pushes() const { return parked_pushes_.value(); }
  std::int64_t quorum_denied_failovers() const {
    return quorum_denied_failovers_.value();
  }
  // Rack-hierarchy introspection (zero/false on a flat topology).
  bool hierarchy_armed() const { return hierarchy_on_; }
  bool rack_aggregation_armed() const { return agg_on_; }
  std::int64_t agg_combined_pushes() const {
    return agg_combined_pushes_ != nullptr ? agg_combined_pushes_->value() : 0;
  }
  std::int64_t agg_param_broadcasts() const {
    return agg_param_broadcasts_ != nullptr ? agg_param_broadcasts_->value()
                                            : 0;
  }
  std::int64_t agg_fallback_pushes() const {
    return agg_fallback_pushes_ != nullptr ? agg_fallback_pushes_->value() : 0;
  }
  // Autoscaler / drain introspection (zero/false while disarmed).
  bool scale_plane_armed() const { return scale_plane_; }
  bool node_draining(int node) const {
    return node_state_[static_cast<std::size_t>(node)].draining;
  }
  bool node_retired(int node) const {
    return node_state_[static_cast<std::size_t>(node)].retired;
  }
  std::int64_t drains_started() const {
    return drains_started_ != nullptr ? drains_started_->value() : 0;
  }
  std::int64_t drains_completed() const {
    return drains_completed_ != nullptr ? drains_completed_->value() : 0;
  }
  std::int64_t scale_decisions() const {
    return scale_decisions_ != nullptr ? scale_decisions_->value() : 0;
  }
  std::int64_t sheds() const {
    return sheds_ != nullptr ? sheds_->value() : 0;
  }
  std::int64_t slo_violation_ticks() const {
    return slo_violation_ticks_ != nullptr ? slo_violation_ticks_->value()
                                           : 0;
  }
  const std::vector<TimeS>& scale_decision_times() const {
    return scale_decision_times_;
  }
  // DSSP staleness-gate introspection (zero/false unless method == kDSSP).
  bool dssp_armed() const { return dssp_on_; }
  std::int64_t staleness_violations() const {
    return staleness_violations_ != nullptr ? staleness_violations_->value()
                                            : 0;
  }
  std::int64_t gate_wedge_ticks() const {
    return gate_wedge_ticks_ != nullptr ? gate_wedge_ticks_->value() : 0;
  }
  std::int64_t dssp_gate_blocks() const {
    return dssp_gate_blocks_ != nullptr ? dssp_gate_blocks_->value() : 0;
  }
  /// Current adaptive bound (s_min when DSSP is disarmed).
  int staleness_bound() const {
    return staleness_ != nullptr ? staleness_->bound() : 0;
  }
  /// Worker `w`'s DSSP iteration clock (-1 = not running).
  std::int64_t dssp_clock(int w) const {
    return dssp_clock_[static_cast<std::size_t>(w)];
  }
  /// True while `server` has stepped down from `group` because it could not
  /// renew its own lease (leases must be armed).
  bool lease_fenced(int server, int group) const {
    return fenced_[static_cast<std::size_t>(server_node(server))].count(
               group) > 0;
  }
  /// Local liveness view of `node` (membership plane must be armed).
  const Membership& membership_view(int node) const {
    return *membership_[static_cast<std::size_t>(node)];
  }
  const ShardLeadership& leadership_view(int node) const {
    return *leadership_[static_cast<std::size_t>(node)];
  }

 private:
  struct SendItem {
    std::int64_t slice = -1;
    net::MsgKind kind = net::MsgKind::kPushGradient;
    std::int64_t iteration = -1;
    Bytes payload = 0;  ///< fragment payload bytes (0 for control messages)
    int priority = 0;
    std::int64_t seq = 0;
    /// >= 0: retransmission of this pending msg id (competes in the priority
    /// queue at the original slice priority, so preemption holds under loss).
    std::int64_t retx_id = -1;
    /// >= 0: this is an aggregator's combined push carrying that cover id;
    /// it is sent straight to the shard leader, never re-aggregated.
    std::int64_t agg_id = -1;
    /// Recovery re-pushes bypass the rack aggregator: the re-push exists
    /// because state died somewhere, and waiting for rack peers that will
    /// never re-push the same round would wedge the fold.
    bool direct = false;
    /// Sim time this item entered a parking lot (partition park or shed);
    /// 0 = never parked. Feeds the traced "w{w}.hold" recovery spans.
    TimeS parked_at = 0.0;
  };
  struct SendOrder {
    bool operator()(const SendItem& a, const SendItem& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  struct RxItem {
    net::Message msg;
    int priority = 0;
    std::int64_t seq = 0;
  };
  struct RxOrder {
    bool operator()(const RxItem& a, const RxItem& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  struct WorkerState {
    explicit WorkerState(sim::Simulator& sim) : sendq(sim) {}
    std::vector<std::unique_ptr<sim::VersionGate>> gates;  // per layer
    sim::PriorityQueue<SendItem, SendOrder> sendq;
    std::int64_t send_seq = 0;
    std::int64_t sendq_depth = 0;        ///< fragments queued right now
    obs::Gauge* sendq_gauge = nullptr;   ///< registry view of sendq_depth
    std::vector<TimeS> iter_done;
    std::vector<TimeS> iter_stall;  ///< forward blocking time per iteration
    Rng rng{0};
    // Versioned parameter receipt, per slice. `recv_version[s]` is the
    // newest complete parameter version held for slice s (0 = initial
    // weights, -1 = crashed process holding nothing); `recv_bytes` /
    // `recv_inflight` accumulate the fragments of one in-flight version.
    std::vector<std::int64_t> recv_version;
    std::vector<Bytes> recv_bytes;
    std::vector<std::int64_t> recv_inflight;
    /// Last iteration pushed per slice (-1 = none). Drives deterministic
    /// re-push after a leadership change: any slice whose resulting params
    /// were not yet received is re-sent to the new primary.
    std::vector<std::int64_t> last_push_iter;
    /// Notify/pull bookkeeping (sized only for methods whose servers
    /// notify: neither immediate broadcast nor deferred pull).
    /// `notify_version[s]` is the newest round slice s was notified
    /// complete for; `pulled_round[l]` is the last round layer l's pulls
    /// were issued for. Versioned evidence, not a notify count, so a notify
    /// that died with a crashed server cannot wedge the layer: parameters
    /// received through a recovery path count as evidence too.
    std::vector<std::int64_t> notify_version;
    std::vector<std::int64_t> pulled_round;
    bool finished = false;  ///< reached the iteration target (counted once)
  };

  struct PendingPull {
    int worker = -1;
    std::int64_t iteration = -1;
  };

  /// Sender-side state of one unacknowledged reliable message.
  struct PendingTx {
    net::Message msg;     ///< full copy, re-posted verbatim on timeout
    TimeS rto = 0.0;      ///< delay of the *next* timer to be armed
    int via_worker = -1;  ///< >= 0: retransmit through this worker's sendq
    bool queued = false;  ///< a retransmit item is sitting in the sendq
  };

  struct ServerState {
    explicit ServerState(sim::Simulator& sim) : rxq(sim) {}
    sim::PriorityQueue<RxItem, RxOrder> rxq;
    std::int64_t rx_seq = 0;
    std::int64_t rxq_depth = 0;          ///< items queued right now
    obs::Gauge* rxq_gauge = nullptr;     ///< registry view of rxq_depth
    std::vector<Bytes> round_bytes;            // per slice
    std::vector<std::int64_t> version;         // per slice
    std::vector<std::vector<PendingPull>> pending;  // per slice
    // Membership plane only:
    /// Per-slice per-worker bytes contributed to the current round —
    /// replaces the single `round_bytes` counter so completion can be
    /// re-evaluated against the live expected set and re-pushes merge
    /// exactly once (capped at the slice payload per worker per round).
    std::vector<std::vector<Bytes>> contrib;
    /// Per-slice per-worker round index from which the worker is *expected*
    /// (waited for); earlier rounds complete without it.
    std::vector<std::vector<std::int64_t>> active_from;
    /// Node epoch at the last kSyncData receipt per slice (rehydration
    /// completion tracking; -1 = never).
    std::vector<std::int64_t> sync_epoch;
  };

  /// Truth-side (simulator) node lifecycle; views may lag this.
  struct NodeState {
    bool up = true;
    /// Bumps on every crash *and* restart; loops capture it at spawn and
    /// abandon work when it moves. Doubles as the beacon incarnation.
    std::int64_t epoch = 0;
    TimeS down_since = -1.0;
    /// false until this elastic joiner's NodeJoin event executes; base
    /// members are joined from the start.
    bool joined = true;
    /// Voluntary drain in progress: the hosted server refuses new
    /// leadership and is migrating its groups out. A crash clears it (the
    /// drain intent dies with the process).
    bool draining = false;
    /// Drained to completion and permanently gone. A retired node never
    /// reappears as a contributor or leaseholder (PROTOCOL.md inv. 12).
    bool retired = false;
    TimeS drain_since = -1.0;  ///< drain start (tracer span)
  };

  /// One in-flight shard-group migration (donor side).
  struct MigrationState {
    int donor = -1;   ///< server currently leading the group
    int group = -1;
    int target = -1;  ///< joiner server receiving the group
    int outstanding = 0;  ///< unacked kMigrate slice transfers
    TimeS t0 = 0.0;       ///< migration start (tracer span)
  };

  /// Ground-truth acting-as-primary interval of one server for one group;
  /// overlapping open intervals across servers are dual-primary windows.
  struct Acting {
    bool open = false;
    TimeS since = 0.0;
  };

  /// Commit barrier for one replicated round: the parameter release to
  /// workers is withheld until every live backup acked its kReplicate.
  struct CommitState {
    int server = -1;
    std::int64_t slice = -1;
    std::int64_t round = -1;  ///< iteration index the round aggregated
    int outstanding = 0;      ///< unacked kReplicate copies
  };

  sim::Task worker_loop(int w, std::int64_t start_iter);
  sim::Task worker_sender(int w);
  sim::Task node_demux(int n);
  sim::Task server_loop(int n);
  sim::Task heartbeat_loop(int n);
  sim::Task checkpoint_loop(int s);
  sim::Task worker_rejoin(int w, std::int64_t epoch);
  sim::Task server_rehydrate(int s, std::int64_t epoch);
  /// Joining server's admission loop: broadcast kServerJoin (rebalance ask)
  /// every suspicion_timeout until its planned groups are owned.
  sim::Task server_admit(int node, std::int64_t epoch);
  /// DSSP ground-truth wedge audit on the suspicion cadence: re-derive the
  /// gate floor from scratch and count a tick whenever gate-blocked workers
  /// exist but no eligible worker can proceed (PROTOCOL.md inv. 13).
  sim::Task dssp_audit_loop();

  /// Node hosting server `s` (== s when colocated, n_workers + s otherwise).
  int server_node(int server) const {
    return cfg_.dedicated_servers ? cfg_.n_workers + server : server;
  }
  int total_nodes() const {
    return cfg_.dedicated_servers ? 2 * cfg_.n_workers : n_total_workers();
  }
  /// Server hosted on node `n`, or -1 if `n` is worker-only.
  int server_of_node(int n) const {
    if (!cfg_.dedicated_servers) return n;
    return n >= cfg_.n_workers ? n - cfg_.n_workers : -1;
  }
  int n_servers() const { return cfg_.n_workers; }
  /// Worker/server counts including elastic joiners (colocated only; joins
  /// are rejected for dedicated-server deployments). n_servers() keeps
  /// meaning the number of shard *groups* (the base ring).
  int n_total_workers() const {
    return cfg_.n_workers + static_cast<int>(cfg_.faults.joins.size()) +
           (cfg_.autoscaler.enabled ? cfg_.autoscaler.standby_nodes : 0);
  }
  int n_total_servers() const {
    return cfg_.dedicated_servers ? cfg_.n_workers : n_total_workers();
  }

  void enqueue_push(int w, std::int64_t slice, std::int64_t iteration,
                    bool direct = false);
  void enqueue_pull(int w, std::int64_t slice, std::int64_t iteration);
  void worker_on_notify(int w, const net::Message& m);
  void worker_on_param(int w, const net::Message& m);
  void send_params(int server, std::int64_t slice, int worker);
  Bytes wire_payload(Bytes logical) const;
  int item_priority(std::int64_t slice) const;
  double jitter_factor(WorkerState& ws);

  // --- reliable delivery (ack / timeout / retransmit / dedup) ---
  /// Register `m` for acknowledged delivery: assigns its msg id and records
  /// the sender-side retransmission state. `via_worker` >= 0 routes
  /// retransmissions through that worker's priority send queue.
  void arm_reliable(net::Message& m, int via_worker);
  /// Post `m` directly, arming the reliability layer when it applies
  /// (server->worker params/notify and worker pull requests).
  void post_tracked(net::Message m);
  TimeS initial_rto(const net::Message& m) const;
  void schedule_retx_timer(std::int64_t msg_id, TimeS delay);
  void on_retx_timeout(std::int64_t msg_id);
  /// Demux-side reliability front-end: acks `m` and deduplicates. Returns
  /// false when `m` is a duplicate that must not reach the protocol.
  bool accept_reliable(int node, const net::Message& m);
  /// Watermark GC of `node`'s dedup table: once it exceeds a size threshold,
  /// advance the floor to the smallest msg id any sender can still
  /// retransmit and drop every entry below it (below-floor arrivals are
  /// suppressed by the floor alone), so long chaos runs hold bounded state.
  void maybe_gc_dedup(int node);

  // --- membership plane ---
  /// True while a message can still usefully be addressed to `node`: it is
  /// up, or down but scheduled to restart (retransmission bridges the gap).
  bool reachable(int node) const;
  bool permanently_down(int node) const;
  void execute_crash(const net::NodeCrash& c);
  void execute_restart(const net::NodeCrash& c);
  /// Shared teardown of a process's in-memory state (queues, dedup memory,
  /// ledgers, barriers, migrations, retransmission timers). Used by crashes
  /// and by drain retirement — a retired node sheds state exactly like a
  /// crashed one, it just never comes back.
  void teardown_process_state(int node);
  void on_peer_dead(int observer_node, int dead_node);
  void takeover_group(int server, int group);
  /// Broadcast a kNewPrimary for `group` naming `primary`, sent from
  /// `from_server`'s NIC. Failover announcers name themselves; a migration
  /// donor names the handover target.
  void announce_primary(int from_server, int group, std::int64_t epoch,
                        int primary);
  /// Re-push every slice of `group` whose parameters have not returned to
  /// worker `w` yet; called after the node's leadership view moves.
  void worker_repush_group(int w, int group);
  /// Notify/pull trigger: issue the layer's pulls once every slice has
  /// evidence its round completed (a notify, or parameters that arrived
  /// through a recovery path). MXNet pulls a layer only after all of its
  /// slices were notified — the behaviour P3 removes (Section 4.2).
  void maybe_pull_layer(int w, int layer);
  /// The node a worker should address for `slice` (its view's leader).
  int slice_dst_node(int worker, std::int64_t slice) const;
  bool round_complete(int server, std::int64_t slice) const;
  void commit_round(int server, std::int64_t slice, std::int64_t round);
  void release_round(int server, std::int64_t slice, std::int64_t round);
  void on_replicate_ack(std::int64_t msg_id);
  void inject_recheck(int server);
  void redirect_to_leader(int server, const net::Message& m);
  Bytes replicated_state_bytes(int server) const;
  void mem_mark(int node, const char* label);

  // --- elastic scale-out + lease-based leadership ---
  void execute_join(const net::NodeJoin& j);
  /// Lease/supersession/partition reaction to one received beacon at node
  /// `n` from `src` (called after the view recorded it). `echo_alive` is the
  /// sender's liveness belief about *this* node, carried on the beacon: with
  /// the partition plane armed, a primary's self-lease renews only on
  /// positive echoes, so one-way (asymmetric) cuts still fence it.
  void on_beacon(int n, int src, const Membership::BeaconEffect& effect,
                 bool echo_alive);
  /// Node-local clock of `n`: simulated time warped by the node's seeded
  /// drift rate and offset (identity while the drift model is disarmed).
  /// Everything the lease logic reads runs on this clock; ground truth
  /// (acting intervals, tracer, result accounting) stays on simulated time.
  TimeS local_now(int n) const;
  /// Extra wait a successor adds past an expired lease deadline before
  /// acting, derived from the configured drift bound: two clocks measuring
  /// one lease length can disagree by 2 * rate_bound * lease_len.
  TimeS lease_wait_margin() const {
    return 2.0 * cfg_.faults.clock_drift_rate * lease_len_;
  }
  /// Drain worker `w`'s parked pushes back into its send queue (a peer its
  /// view held dead revived; destinations re-resolve at send time).
  void unpark_worker(int w);
  /// Per-heartbeat lease work at node `n`: self-fence / reopen own groups,
  /// and fire pending failovers whose lease expired (quorum permitting).
  void lease_tick(int n);
  /// Grant a freshly adopted primary a half-lease of self-lease runway so
  /// the first lease_tick after a takeover does not fence on a stale stamp.
  void seed_self_lease(int server, int group);
  /// Successor scan for `group` after its primary died in `observer_node`'s
  /// view (factored out of on_peer_dead so leases can defer it).
  void failover_scan(int observer_node, int group);
  /// Observer `n` sees a majority of view-joined members alive (self
  /// included). Lease-mode failover requires it so a minority-partitioned
  /// node can never elect itself.
  bool view_has_quorum(int n) const;
  /// Deterministic rebalance: groups joiner server `j` should take over.
  std::vector<int> rebalance_plan(int joiner_server) const;
  void start_migration(int donor, int group, int target);
  void finish_migration(const MigrationState& ms);
  void on_migrate_ack(std::int64_t msg_id);
  /// True while `server` must withhold round releases for `group` (it is
  /// donating the group, or lease-fenced on it).
  bool group_frozen(int server, int group) const;
  /// Re-derive `server`'s ground-truth acting interval for `group`; counts
  /// a dual-primary window when an interval opens while another server's
  /// interval for the same group is still open.
  void update_acting(int server, int group);

  // --- voluntary drain + SLO-driven autoscaling (docs/PROTOCOL.md) ---
  void execute_leave(const net::NodeLeave& l);
  /// Put `node` into draining mode: refuse new leadership, start migrating
  /// its own-led groups out, spawn the drain supervisor. Shared by planned
  /// leaves and autoscaler scale-down decisions.
  void begin_drain(int node);
  /// Best legal receiver for `group` leaving `donor` (home-chain member or
  /// an admitted joiner; rack-weight preference under a topology), or -1
  /// while none exists.
  int drain_target(int donor, int group) const;
  /// Drain supervisor: on the suspicion cadence, (re)issue migrations for
  /// any group the draining server still leads; once nothing is led and no
  /// donor-side migration is in flight, retire the node. Dies with the
  /// node's epoch (a crash mid-drain hands recovery to the failover path).
  sim::Task drain_loop(int node, std::int64_t epoch);
  /// Terminal drain step: the node leaves every membership view, sheds all
  /// process state exactly like a crash, and is marked permanently gone.
  void retire_node(int node);
  /// Per-group observed push weight (credited ledger bytes plus a payload
  /// prior so cold groups still weigh in); drives the weighted planner and
  /// drain-target ranking.
  double group_weight(int group) const;
  /// Weight-aware replacement for the contiguous planner: the share of
  /// groups the joiner takes is proportional to observed per-group push
  /// bytes. Frozen into `join_plan_` at admission so every node resolves
  /// the identical plan.
  std::vector<int> weighted_rebalance_plan(int joiner_server) const;
  /// Control loop evaluating the Autoscaler policy on the suspicion
  /// cadence and executing its decisions (admit / drain / shed).
  sim::Task autoscaler_loop();
  /// Overload shedding: while `shed_active_`, worker senders park
  /// lowest-priority fresh pushes; expiry re-queues them (exactly-once —
  /// they are delayed contributions, never dropped).
  bool should_shed(const SendItem& item) const;
  void unshed_all();

  // --- DSSP dynamic bounded-staleness gate (docs/PROTOCOL.md) ---
  /// Worker `w` counts toward the min-clock: it has a running iteration
  /// loop, its node is ground-truth present (up, joined, not retired), and
  /// no quorum-side membership view holds it dead (dead stragglers and
  /// minority-fenced workers are excluded so they can never wedge the
  /// fleet; detection latency is the membership plane's, not instant).
  bool dssp_eligible(int w) const;
  /// Recompute the min clock over eligible workers and advance the gate to
  /// the monotone floor `max(previous floor, that min)`. The floor is
  /// monotone so a rejoiner re-entering below the released floor (the
  /// rejoin_slack rule) narrows future advances instead of retracting
  /// releases. Returns the floor.
  std::int64_t dssp_advance_gate();
  /// Clock bookkeeping for one worker (entering an iteration, finishing,
  /// or leaving with its process); advances the gate and refreshes the
  /// clock-gap gauges.
  void dssp_set_clock(int w, std::int64_t clock);
  /// Merge a push for a round the shard has not opened yet into the
  /// future-round buffer (run-ahead under the staleness bound; promoted
  /// into the live ledger as versions advance — park-never-drop).
  void dssp_buffer_future(int server, const net::Message& m);
  /// Promote buffered contributions for `slice`'s newly opened round.
  void dssp_promote(int server, std::int64_t slice);

  // --- rack-local aggregation (docs/PROTOCOL.md) ---
  /// Node hosting the rack aggregator for `rack` (topology must be active).
  int rack_agg_node(int rack) const {
    return rack_agg_[static_cast<std::size_t>(rack)];
  }
  /// True while worker `w`'s view allows routing pushes through `agg`.
  bool agg_usable(int w, int agg) const;
  /// Fold one worker's kRackPush fragment at aggregator node `agg`.
  void on_rack_push(int agg, const net::Message& m);
  /// Forward the (slice, iteration) fold upstream once every member the
  /// aggregator's view still expects has contributed its full payload.
  /// Late contributions after a partial flush forward as singleton covers.
  void agg_flush(int agg, std::int64_t slice, std::int64_t iteration);
  /// Re-evaluate every pending fold at `agg` (its view of a rack member
  /// changed: partial rounds may now be flushable without the dead member).
  void agg_flush_all(int agg);
  /// Enqueue the combined push into the aggregator's own send queue, so it
  /// competes at slice priority and inherits parking/retransmit semantics.
  void enqueue_agg_push(int agg, std::int64_t slice, std::int64_t iteration,
                        std::vector<int> cover);
  /// Server -> rack aggregators: one kRackParams per rack (direct
  /// per-worker fallback for racks whose aggregator is unusable).
  void send_rack_params(int server, std::int64_t slice);
  /// Aggregator re-broadcast of a kRackParams fragment to its rack members.
  void on_rack_params(int agg, const net::Message& m);
  /// Workers an incoming push credits: the cover of an aggregated push, or
  /// the single originating worker.
  std::vector<int> push_cover(const net::Message& m) const;
  /// Retire `m.logical` bytes of the cover; erased once fully consumed.
  void consume_cover(const net::Message& m);
  /// Observer worker `w` saw its rack aggregator die: folds held there died
  /// with it, so re-push everything unreturned directly to the leaders.
  void worker_on_agg_dead(int w);

  // --- observability ---
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  /// Record one slice-lifecycle stage; layer and priority derive from the
  /// partition. Callers guard with tracing().
  void lc(obs::Stage stage, int worker, std::int64_t slice,
          std::int64_t iteration, Bytes bytes);
  /// Apply a send-queue / server-rx-queue depth delta: updates the always-on
  /// registry gauge and, when tracing, emits a counter-track sample.
  void sendq_depth_changed(int w, std::int64_t delta);
  void rxq_depth_changed(int server, std::int64_t delta);

  model::Workload workload_;
  ClusterConfig cfg_;
  core::SyncConfig sync_;
  core::Partition partition_;
  model::ComputeProfile profile_;

  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<ServerState>> servers_;
  obs::Tracer* tracer_ = nullptr;

  std::int64_t target_iterations_ = 0;
  int workers_finished_ = 0;
  int finish_target_ = 0;
  bool started_ = false;
  bool stopping_ = false;

  // Every counter below lives in the registry; the references are bound in
  // the constructor initializer list (registry_ must be declared first).
  obs::Registry registry_;
  obs::Counter& pushes_sent_;
  obs::Counter& params_sent_;
  obs::Counter& notifies_sent_;
  obs::Counter& pulls_sent_;
  obs::Counter& rounds_completed_;
  obs::Counter& acks_sent_;
  obs::Counter& retransmits_;
  obs::Counter& timeouts_fired_;
  obs::Counter& duplicates_suppressed_;
  obs::Counter& goodput_bytes_;
  obs::Counter& crashes_;
  obs::Counter& restarts_;
  obs::Counter& failovers_;
  obs::Counter& worker_rejoins_;
  obs::Counter& checkpoints_written_;
  obs::Counter& checkpoint_bytes_;
  obs::Counter& rehydrations_;
  obs::Counter& rehydration_bytes_;
  obs::Counter& heartbeats_sent_;
  obs::Counter& stale_pushes_;
  obs::Counter& joins_;
  obs::Counter& migrations_;
  obs::Counter& migrated_bytes_;
  obs::Counter& lease_renewals_;
  obs::Counter& lease_expiries_;
  obs::Counter& dual_primary_windows_;
  obs::Counter& supersessions_;
  obs::Counter& parked_pushes_;
  obs::Counter& quorum_denied_failovers_;
  obs::Histogram& iter_time_hist_;
  obs::Histogram& stall_time_hist_;

  bool reliable_ = false;
  std::int64_t next_msg_id_ = 0;
  std::unordered_map<std::int64_t, PendingTx> pending_tx_;
  std::vector<std::unordered_set<std::int64_t>> seen_;  ///< per-node dedup
  /// Per-node dedup watermark: msg ids below it are suppressed without a
  /// table entry (see maybe_gc_dedup). Survives crashes — suppression of a
  /// retired id is always safe, and live retransmissions pin the floor.
  std::vector<std::int64_t> dedup_floor_;
  /// Dedup-table size that triggers a GC attempt.
  static constexpr std::size_t kDedupGcThreshold = 4096;
  Rng rto_rng_{0};  ///< consumed only when rto_jitter > 0

  // Membership plane (sized only when armed).
  bool membership_on_ = false;
  std::vector<NodeState> node_state_;
  std::vector<std::unique_ptr<Membership>> membership_;    // per node
  std::vector<std::unique_ptr<ShardLeadership>> leadership_;  // per node
  std::unordered_map<std::int64_t, std::int64_t> replicate_wait_;  // msg->key
  std::unordered_map<std::int64_t, CommitState> commits_;  // key -> barrier
  std::vector<std::vector<std::int64_t>> ckpt_versions_;   // per server "disk"
  double rehydration_time_sum_ = 0.0;
  TimeS max_rejoin_lag_ = 0.0;

  // Elastic scale-out + lease-based leadership (inert unless armed).
  bool leases_on_ = false;
  TimeS lease_len_ = 0.0;
  /// Per node: groups whose primary the node suspects dead but whose lease
  /// has not expired yet (lease-mode failover queue).
  std::vector<std::set<int>> pending_failover_;
  /// Per node: groups the hosted server has self-fenced, keyed to the fence
  /// time (reopen requires a renewed self-lease plus a settle delay).
  std::vector<std::map<int, TimeS>> fenced_;
  /// Per node, per own-led group: deadline of the primary's *self* lease
  /// (last chain-peer beacon + lease/2; only meaningful with replication>1).
  std::vector<std::vector<TimeS>> self_lease_;
  /// Ground truth: acting_[server][group] — drives dual_primary_windows_.
  std::vector<std::vector<Acting>> acting_;
  std::unordered_map<std::int64_t, int> migration_wait_;  // msg id -> group
  std::map<int, MigrationState> migrations_in_progress_;  // group -> state

  // Partition fault plane + per-node clock drift (inert unless armed).
  /// Set when the fault plan schedules partitions and the membership plane
  /// is on: arms push parking, echo-gated self-leases, quorum-gated
  /// self-fencing, and heal-time bounded-staleness re-admission.
  bool partition_plane_ = false;
  bool drift_on_ = false;
  std::vector<double> clock_rate_;   ///< per node: relative rate error
  std::vector<TimeS> clock_offset_;  ///< per node: constant offset (inert)
  /// Per worker: pushes parked while the destination is dead in its view.
  std::vector<std::vector<SendItem>> parked_;
  /// Per node: groups whose expired-lease failover quorum currently denies
  /// (counted once per denial episode).
  std::vector<std::set<int>> quorum_denied_;

  // Rack-scale hierarchy + rack-local aggregation (inert unless armed).
  /// One rack-local pre-reduction in progress at an aggregator, keyed by
  /// (slice, iteration). Folded bytes per worker, plus the members already
  /// covered by a forwarded combined push. Dies with the aggregator process.
  struct AggRound {
    std::map<int, Bytes> contrib;
    std::set<int> forwarded;
  };
  /// Contributor set of one forwarded combined push. Stands in for the
  /// member list a real wire format would carry in the payload, so it is
  /// never cleared when the *sender* crashes — only consumed (fragment by
  /// fragment) by the server that applies the push.
  struct AggCover {
    std::vector<int> workers;
    Bytes remaining = 0;
  };
  bool hierarchy_on_ = false;  ///< cfg_.topology is active
  bool agg_on_ = false;        ///< rack aggregation armed
  std::vector<int> node_rack_;             ///< node -> rack
  std::vector<int> rack_agg_;              ///< rack -> aggregator node
  std::vector<std::vector<int>> rack_workers_;  ///< rack -> worker nodes
  /// Per node (aggregators only): pending folds, deterministic iteration.
  std::vector<std::map<std::pair<std::int64_t, std::int64_t>, AggRound>>
      agg_rounds_;
  std::unordered_map<std::int64_t, AggCover> agg_cover_;
  std::int64_t next_agg_id_ = 0;
  // Registered only while aggregation is armed, so flat runs keep the exact
  // pre-hierarchy registry contents.
  obs::Counter* agg_combined_pushes_ = nullptr;
  obs::Counter* agg_param_broadcasts_ = nullptr;
  obs::Counter* agg_fallback_pushes_ = nullptr;

  // Voluntary drain + autoscaling (inert unless armed: planned leaves or an
  // enabled autoscaler).
  bool scale_plane_ = false;
  /// Per-group credited push bytes (ground truth, fed from the contribution
  /// ledger); the weighted planner's signal.
  std::vector<double> group_push_bytes_;
  /// Per rack, per group: credited push bytes by origin rack (topology
  /// runs only; the drain-target rack preference).
  std::vector<std::vector<double>> rack_group_push_bytes_;
  /// Admission-time frozen rebalance plans (joiner server -> groups), so
  /// the joiner's ask and every donor's answer agree even as weights move.
  std::map<int, std::vector<int>> join_plan_;
  /// Groups already promised to an earlier (still admitted) joiner;
  /// excluded from later weighted plans.
  std::set<int> granted_groups_;
  /// Next dark standby node id the autoscaler may admit.
  int standby_next_ = 0;
  std::unique_ptr<Autoscaler> autoscaler_;
  /// Overload shedding window: active until `shed_until_`; fresh pushes
  /// with priority >= `shed_cutoff_` park in `shed_parked_` until expiry.
  bool shed_active_ = false;
  TimeS shed_until_ = 0.0;
  int shed_cutoff_ = 0;
  std::vector<std::vector<SendItem>> shed_parked_;  // per worker
  /// Iterations completed when the last shed window expired. A new shed
  /// window may open only after at least one further iteration completes:
  /// in synchronous training every parked push delays the round it belongs
  /// to, so back-to-back sheds with no progress in between would spiral
  /// (slower rounds -> higher p99 -> more shedding). -1 = never shed.
  std::int64_t unshed_iter_count_ = -1;
  std::vector<TimeS> scale_decision_times_;
  // Registered only while the scale plane is armed, so fixed-membership
  // runs keep the exact pre-autoscaler registry contents.
  obs::Counter* drains_started_ = nullptr;
  obs::Counter* drains_completed_ = nullptr;
  obs::Counter* scale_decisions_ = nullptr;
  obs::Counter* sheds_ = nullptr;
  obs::Counter* slo_violation_ticks_ = nullptr;

  // DSSP dynamic bounded-staleness gate (inert unless method == kDSSP).
  bool dssp_on_ = false;
  std::unique_ptr<StalenessController> staleness_;
  /// The gate: its version is the monotone floor of the min eligible clock;
  /// a worker entering iteration c waits for version >= c - s.
  std::unique_ptr<sim::VersionGate> dssp_gate_;
  /// Per worker: iteration clock (-1 = no running loop). Re-seeded at
  /// rejoin/join to the loop's start iteration.
  std::vector<std::int64_t> dssp_clock_;
  /// Per worker: currently suspended on the staleness gate (wedge audit).
  std::vector<bool> dssp_blocked_;
  /// Per worker: the floor a blocked worker is waiting for. A worker whose
  /// need the floor already covers is merely awaiting its scheduled resume,
  /// not stuck.
  std::vector<std::int64_t> dssp_need_;
  /// Per server: future-round contributions keyed (slice, round) -> bytes
  /// per worker, merged with the same per-round payload cap as the live
  /// ledger. Dies with the server process; workers re-push outstanding
  /// rounds on leadership changes.
  std::vector<std::map<std::pair<std::int64_t, std::int64_t>,
                       std::map<int, Bytes>>>
      dssp_future_;
  double dssp_wait_sum_ = 0.0;
  std::int64_t dssp_passages_ = 0;
  // Registered only while DSSP is armed, so every other method keeps the
  // exact pre-DSSP registry contents.
  obs::Counter* dssp_gate_blocks_ = nullptr;
  obs::Counter* staleness_violations_ = nullptr;
  obs::Counter* gate_wedge_ticks_ = nullptr;
  obs::Histogram* dssp_wait_hist_ = nullptr;
  std::vector<obs::Gauge*> dssp_gap_gauge_;  ///< per worker: clock - floor
};

}  // namespace p3::ps
