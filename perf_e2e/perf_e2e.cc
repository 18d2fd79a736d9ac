// End-to-end simulator benchmark: host seconds per simulated training
// iteration of real ps::Cluster runs, split by layer from outside.
//
// One process runs one workload (a fixed set of cluster jobs) repeatedly for
// --seconds, timing its own calls into each layer's public functions:
//
//   model   model::workload_*() + model::make_profile()
//   core    core::partition_p3() / core::partition_kvstore()
//   ps      ps::Cluster constructor, run(), drain()
//   runner  runner::ParallelExecutor::map() over the workload's jobs
//   obs     obs::analyze_critical_path() (traced copy only)
//
// and reading the simulated counts back through the cluster's public
// accessors and Cluster::metrics(). Every cluster run is checked (see
// `check_pass`); a failed run is counted, never fatal. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}. Usage and the metric
// tables are in README.md next to this file.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/slicing.h"
#include "core/sync_method.h"
#include "model/compute.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"
#include "runner/parallel.h"

namespace {

using namespace p3;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --------------------------------------------------------------------------
// Host-time spans recorded around every layer call, kept in memory and
// written as Chrome trace-event JSON when the benchmark ends.

struct HostSpan {
  std::string layer;  ///< "model", "core", "ps", "runner", "obs"
  std::string name;   ///< the call, e.g. "ps::Cluster::run"
  std::string job;    ///< job label ("" for workload-level spans)
  double t0 = 0.0;    ///< seconds since benchmark start
  double t1 = 0.0;
  int parent = -1;    ///< index of the enclosing span in the same log
  std::thread::id thread;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(std::string layer, std::string name, std::string job, int parent) {
    spans_.push_back({std::move(layer), std::move(name), std::move(job),
                      now(), 0.0, parent, std::this_thread::get_id()});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id`; returns its duration in seconds.
  double close(int id) {
    HostSpan& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now();
    return s.t1 - s.t0;
  }
  /// Moves `child`'s spans in; its root spans get `parent` as parent.
  void adopt(SpanLog&& child, int parent) {
    const int base = static_cast<int>(spans_.size());
    for (HostSpan& s : child.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(std::move(s));
    }
    child.spans_.clear();
  }
  const std::vector<HostSpan>& spans() const { return spans_; }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
};

// Runs `fn` inside a span and adds its duration to `acc`.
template <typename F>
auto timed(SpanLog& log, const char* layer, const char* name,
           const std::string& job, int parent, double& acc, F&& fn) {
  const int id = log.open(layer, name, job, parent);
  struct Closer {
    SpanLog& log;
    int id;
    double& acc;
    ~Closer() { acc += log.close(id); }
  } closer{log, id, acc};
  return fn();
}

// --------------------------------------------------------------------------
// Workloads.

struct JobSpec {
  std::string label;  ///< unique within the workload, e.g. "P3@4G"
  model::Workload (*workload)() = nullptr;
  ps::ClusterConfig cfg;
};

struct WorkloadSpec {
  std::string name;
  std::vector<JobSpec> jobs;
  int warmup = 2;        ///< untraced repetition length
  int measured = 10;
  int trace_warmup = 1;  ///< shortened copy run untraced and traced
  int trace_measured = 3;
  int threads = 1;       ///< runner::ParallelExecutor pool size
};

std::string gbps_label(double g) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%gG", g);
  return buf;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  if (name == "vgg19-p3-16w") {
    // fc6 alone is ~2k slices: per-slice ps work (forward-gate rescan,
    // 16-way broadcast) dominates; transport and membership planes idle.
    JobSpec j{"P3@10G", model::workload_vgg19, {}};
    j.cfg.n_workers = 16;
    j.cfg.method = core::SyncMethod::kP3;
    j.cfg.bandwidth = gbps(10);
    j.cfg.seed = seed;
    w.jobs.push_back(j);
    w.measured = 4;
    w.trace_warmup = 1;  // a full-length trace holds millions of events
    w.trace_measured = 1;
  } else if (name == "resnet50-p3-16w-chaos") {
    // The R=2 lossy cell: acks, retransmit timers, dedup and heartbeats
    // carry the extra work; the largest layer is only ~48 slices.
    JobSpec j{"P3@10G-loss1%-R2", model::workload_resnet50, {}};
    j.cfg.n_workers = 16;
    j.cfg.method = core::SyncMethod::kP3;
    j.cfg.bandwidth = gbps(10);
    j.cfg.faults.drop_prob = 0.01;
    j.cfg.reliable_transport = true;
    j.cfg.replication = 2;
    j.cfg.seed = seed;
    w.jobs.push_back(j);
  } else if (name == "sockeye-sweep-4w") {
    // Figure 7(d)-style sweep: Baseline notify/pull, DSSP's gate and
    // heartbeats, deep priority queues at low bandwidth, 28 constructions
    // fanned out over the runner.
    const core::SyncMethod methods[] = {
        core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
        core::SyncMethod::kP3, core::SyncMethod::kDSSP};
    for (core::SyncMethod m : methods) {
      for (double g : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0}) {
        JobSpec j{core::sync_method_name(m) + "@" + gbps_label(g),
                  model::workload_sockeye, {}};
        j.cfg.n_workers = 4;
        j.cfg.method = m;
        j.cfg.bandwidth = gbps(g);
        j.cfg.rx_bandwidth = gbps(100);  // tc shapes egress only (Fig. 7)
        j.cfg.seed = seed;
        w.jobs.push_back(j);
      }
    }
    w.threads = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (vgg19-p3-16w, resnet50-p3-16w-chaos, "
                                "sockeye-sweep-4w)");
  }
  return w;
}

// Canonical text of everything that defines a job's simulated output; its
// hash is the config hash in the provenance line.
std::string describe(const JobSpec& j, int warmup, int measured) {
  const ps::ClusterConfig& c = j.cfg;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s model=%s method=%s n=%d bw=%.17g rx=%.17g slice=%lld "
                "kv=%lld drop=%.17g reliable=%d R=%d seed=%llu iters=%d+%d",
                j.label.c_str(), j.workload().model.name.c_str(),
                core::sync_method_name(c.method).c_str(), c.n_workers,
                c.bandwidth, c.rx_bandwidth,
                static_cast<long long>(c.slice_params),
                static_cast<long long>(c.kvstore_threshold),
                c.faults.drop_prob, c.reliable_transport ? 1 : 0,
                c.replication, static_cast<unsigned long long>(c.seed),
                warmup, measured);
  return buf;
}

// --------------------------------------------------------------------------
// Digest of a run's simulated output (FNV-1a 64).

class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::int64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size() + 1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------------------------------
// One cluster run.

struct JobOutcome {
  explicit JobOutcome(Clock::time_point origin) : spans(origin) {}

  bool ok = false;
  std::string error;
  // Host seconds per layer call.
  double model_s = 0, partition_s = 0, ctor_s = 0, run_s = 0, drain_s = 0;
  double critpath_s = 0, job_s = 0;
  // Simulated counts, read back after drain().
  std::int64_t iterations = 0, slices = 0, max_layer_slices = 0;
  std::int64_t events_run = 0, events_total = 0;
  std::int64_t msgs = 0, delivered = 0, drops = 0, bytes = 0;
  std::int64_t pushes = 0, params = 0, notifies = 0, pulls = 0, rounds = 0;
  std::int64_t acks = 0, retransmits = 0, timeouts = 0, dups = 0;
  std::int64_t heartbeats = 0, goodput_bytes = 0, wire_bytes = 0;
  std::int64_t gate_blocks = 0;
  double throughput = 0, stall_s = 0;
  std::uint64_t digest = 0;
  // Traced copy only.
  std::int64_t trace_events = 0, critpath_events = 0;
  std::array<double, obs::kBlameCount> blame_s{};
  double blame_total_s = 0;
  SpanLog spans;
};

std::uint64_t digest_of(const ps::Cluster& c, const ps::RunResult& r,
                        std::int64_t events) {
  Digest d;
  d.add(r.throughput);
  d.add(r.mean_iteration_time);
  d.add(r.mean_stall_time);
  d.add(r.total_time);
  d.add(static_cast<std::int64_t>(r.iterations_measured));
  for (TimeS t : r.iteration_times) d.add(t);
  d.add(events);
  // Every registry counter/gauge/histogram except the blame gauges, which
  // only a traced run creates.
  for (const auto& row : c.metrics().snapshot()) {
    if (row.metric.rfind("blame.", 0) == 0) continue;
    d.add(row.metric);
    d.add(row.field);
    d.add(row.value);
  }
  return d.value();
}

JobOutcome run_job(const JobSpec& spec, int warmup, int measured, bool traced,
                   bool inject_failure, Clock::time_point origin) {
  JobOutcome out(origin);
  SpanLog& log = out.spans;
  const std::string& job = spec.label;
  const int root = log.open("runner", "job", job, -1);
  try {
    ps::ClusterConfig cfg = spec.cfg;
    if (inject_failure) cfg.min_rto = -1.0;  // rejected by the constructor
    // The constructor profiles and partitions again internally; these calls
    // time the model and core layers on the same inputs.
    const model::Workload wl =
        timed(log, "model", "model::workload", job, root, out.model_s,
              [&] { return spec.workload(); });
    timed(log, "model", "model::make_profile", job, root, out.model_s, [&] {
      return model::make_profile(wl.model, wl.iter_compute_time);
    });
    const core::Partition part =
        timed(log, "core", "core::partition", job, root, out.partition_s, [&] {
          if (core::sync_config(cfg.method).slicing) {
            return core::partition_p3(wl.model, cfg.n_workers,
                                      cfg.slice_params);
          }
          Rng rng(cfg.seed);
          return core::partition_kvstore(wl.model, cfg.n_workers,
                                         cfg.kvstore_threshold, rng);
        });
    out.slices = part.num_slices();
    for (const auto& ids : part.layer_slices) {
      out.max_layer_slices = std::max<std::int64_t>(
          out.max_layer_slices, static_cast<std::int64_t>(ids.size()));
    }

    obs::Tracer tracer;
    auto cluster =
        timed(log, "ps", "ps::Cluster::Cluster", job, root, out.ctor_s, [&] {
          return std::make_unique<ps::Cluster>(wl, cfg);
        });
    if (traced) cluster->attach_tracer(&tracer);
    const ps::RunResult r =
        timed(log, "ps", "ps::Cluster::run", job, root, out.run_s,
              [&] { return cluster->run(warmup, measured); });
    out.events_run =
        static_cast<std::int64_t>(cluster->simulator().events_executed());
    timed(log, "ps", "ps::Cluster::drain", job, root, out.drain_s, [&] {
      cluster->drain();
      return 0;
    });
    ps::Cluster& c = *cluster;
    out.events_total =
        static_cast<std::int64_t>(c.simulator().events_executed());
    out.iterations = warmup + measured;
    out.msgs = c.network().messages_posted();
    out.delivered = c.network().messages_delivered();
    out.drops = c.network().messages_dropped();
    out.bytes = c.network().bytes_posted();
    out.pushes = c.pushes_sent();
    out.params = c.params_sent();
    out.notifies = c.notifies_sent();
    out.pulls = c.pulls_sent();
    out.rounds = c.rounds_completed();
    out.acks = c.acks_sent();
    out.retransmits = c.retransmits();
    out.timeouts = c.timeouts_fired();
    out.dups = c.duplicates_suppressed();
    out.heartbeats = c.heartbeats_sent();
    out.goodput_bytes = c.goodput_bytes();
    out.wire_bytes = r.wire_bytes;
    out.gate_blocks = c.dssp_gate_blocks();
    out.throughput = r.throughput;
    out.stall_s = r.mean_stall_time;
    out.digest = digest_of(c, r, out.events_total);

    if (c.staleness_violations() != 0 || c.gate_wedge_ticks() != 0 ||
        c.network().cross_partition_deliveries() != 0) {
      throw std::runtime_error("invariant audit nonzero");
    }
    if (traced) {
      out.trace_events = static_cast<std::int64_t>(tracer.events().size());
      const obs::BlameReport blame = timed(
          log, "obs", "obs::analyze_critical_path", job, root, out.critpath_s,
          [&] { return obs::analyze_critical_path(tracer, warmup); });
      if (!blame.problems.empty()) {
        throw std::runtime_error("critical path: " + blame.problems.front());
      }
      out.critpath_events = blame.events_processed;
      out.blame_s = blame.totals;
      out.blame_total_s = blame.total_s;
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.job_s = log.close(root);
  return out;
}

// --------------------------------------------------------------------------
// One pass over a workload's job set through the runner.

// Host speed reference. On a shared host the CPU runs the simulator up to
// 2x slower for minutes at a time as neighbours load the cache and memory
// system, which moves a 20 s median by 25%. A fixed heap workload, which
// runs no simulator code, is timed on every pool thread right before and
// right after each pass. The pass's host times are scaled by kProbeRefS /
// (mean probe time), so they read as seconds on this host at the speed where
// the probe takes kProbeRefS. The probe tracks the drift only in part; see
// README.md.
constexpr double kProbeRefS = 0.020;  ///< probe time on a quiet 4-core Xeon

double probe_once() {
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 88172645463325252ULL, sum = 0;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x);
    if (heap.size() > 50'000) {
      sum += heap.top();
      heap.pop();
    }
  }
  static std::atomic<std::uint64_t> sink{0};
  sink += sum;
  return seconds_between(t0, Clock::now());
}

// Mean probe time over one probe per pool thread, run concurrently.
double probe(runner::ParallelExecutor& pool) {
  std::vector<std::function<double()>> fns(
      static_cast<std::size_t>(pool.threads()), probe_once);
  const std::vector<double> t = pool.map<double>(std::move(fns));
  double sum = 0;
  for (double v : t) sum += v;
  return sum / static_cast<double>(t.size());
}

struct Pass {
  std::vector<JobOutcome> jobs;
  double wall_s = 0;
  double speed = 1;  ///< factor applied to every host time of the pass
};

// Scales every host-time field of the pass by `speed`.
void rescale(Pass& p, double speed) {
  p.speed = speed;
  p.wall_s *= speed;
  for (JobOutcome& j : p.jobs) {
    for (double* t : {&j.model_s, &j.partition_s, &j.ctor_s, &j.run_s,
                      &j.drain_s, &j.critpath_s, &j.job_s}) {
      *t *= speed;
    }
  }
}

Pass run_pass(const WorkloadSpec& w, runner::ParallelExecutor& pool,
              SpanLog& log, int warmup, int measured,
              bool traced, bool inject_failure, Clock::time_point origin) {
  std::vector<std::function<JobOutcome()>> fns;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobSpec* spec = &w.jobs[i];
    const bool fail = inject_failure && i == 0;
    fns.push_back([=] {
      return run_job(*spec, warmup, measured, traced, fail, origin);
    });
  }
  Pass pass;
  const double before = probe(pool);
  const char* name = traced ? "runner::map traced" : "runner::map";
  const int span = log.open("runner", name, "", -1);
  pass.jobs = pool.map<JobOutcome>(std::move(fns));
  pass.wall_s = log.close(span);
  for (JobOutcome& j : pass.jobs) log.adopt(std::move(j.spans), span);
  rescale(pass, 2 * kProbeRefS / (before + probe(pool)));
  return pass;
}

// Correctness gate over one pass. Marks runs failed in place and returns the
// number of failed runs in the pass. `reference` holds the first good digest
// of each job (filled on first sight).
int check_pass(const WorkloadSpec& w, Pass& pass,
               std::vector<std::uint64_t>& reference) {
  int failed = 0;
  auto fail = [&](JobOutcome& j, const std::string& why) {
    if (j.ok) ++failed;
    j.ok = false;
    if (j.error.empty()) j.error = why;
  };
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    JobOutcome& j = pass.jobs[i];
    if (!j.ok) {
      ++failed;
      continue;
    }
    if (reference[i] == 0) {
      reference[i] = j.digest;
    } else if (j.digest != reference[i]) {
      fail(j, "digest " + hex64(j.digest) + " != " + hex64(reference[i]));
    }
  }
  // Figure 7's shape: P3 never trails Baseline at the same bandwidth.
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (w.jobs[i].cfg.method != core::SyncMethod::kP3) continue;
    for (std::size_t b = 0; b < w.jobs.size(); ++b) {
      if (w.jobs[b].cfg.method == core::SyncMethod::kBaseline &&
          w.jobs[b].cfg.bandwidth == w.jobs[i].cfg.bandwidth &&
          pass.jobs[b].ok && pass.jobs[i].ok &&
          pass.jobs[i].throughput < pass.jobs[b].throughput) {
        fail(pass.jobs[i], "P3 below Baseline at " + w.jobs[i].label);
      }
    }
  }
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    if (!pass.jobs[i].ok) {
      std::fprintf(stderr, "perf_e2e: run %s failed: %s\n",
                   w.jobs[i].label.c_str(), pass.jobs[i].error.c_str());
    }
  }
  return failed;
}

// --------------------------------------------------------------------------
// Aggregation.

// 0 when every pass failed the gate (the result line then says so).
double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Sum of `field` over a pass's good runs.
template <typename T>
double total(const Pass& p, T JobOutcome::*field) {
  double s = 0;
  for (const JobOutcome& j : p.jobs) {
    if (j.ok) s += static_cast<double>(j.*field);
  }
  return s;
}

// Median over passes of a per-pass statistic.
double median_over(const std::vector<Pass>& passes,
                   const std::function<double(const Pass&)>& stat) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(stat(p));
  return median(std::move(v));
}

double host_s_per_iter(const Pass& p) {
  return ratio(total(p, &JobOutcome::run_s) + total(p, &JobOutcome::drain_s),
               total(p, &JobOutcome::iterations));
}

double per_iter(const Pass& p, std::int64_t JobOutcome::*field) {
  return ratio(total(p, field), total(p, &JobOutcome::iterations));
}

// High-water RSS of this process image. VmHWM starts afresh at exec;
// getrusage's ru_maxrss would also count the launching process's image.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --------------------------------------------------------------------------
// Provenance.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  std::string git = "unknown";
  int git_dirty = -1;  ///< -1: unknown (not a git checkout)
  std::string source_hash = "unknown";
  bool inject_failure = false;
  bool scaling = false;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance_json(const Args& a, std::uint64_t config_hash) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git\": \"%s\", \"git_dirty\": %s, \"source_hash\": \"%s\", "
      "\"config_hash\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"seconds\": %g, \"trace\": %d}",
      std::thread::hardware_concurrency(), P3_BUILD_TYPE, compiler().c_str(),
      json_escape(a.git).c_str(),
      a.git_dirty < 0 ? "null" : (a.git_dirty != 0 ? "true" : "false"),
      json_escape(a.source_hash).c_str(), hex64(config_hash).c_str(),
      static_cast<unsigned long long>(a.seed),
      json_escape(a.workload).c_str(), a.seconds, a.trace);
  return buf;
}

void write_host_trace(const std::string& path, const std::string& provenance,
                      const SpanLog& log) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  std::map<std::thread::id, int> tids;
  f << "{\"otherData\": " << provenance << ",\n\"traceEvents\": [\n";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const HostSpan& s = spans[i];
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size()))
                        .first->second;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  tid, s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
      << "\", \"cat\": \"" << s.layer << "\", " << buf
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << ", \"job\": \"" << json_escape(s.job) << "\"}}";
  }
  f << "\n]}\n";
}

// --------------------------------------------------------------------------
// Scaling report (run by hand): host cost against workers and slice size on
// VGG-19/P3, the curves the ROADMAP gate asks for.

int scaling_report(const Args& args) {
  const Clock::time_point origin = Clock::now();
  std::printf("# provenance %s\n", provenance_json(args, 0).c_str());
  std::printf("%-8s %-12s %-10s %-16s %-16s %-12s\n", "workers", "slice_params",
              "slices", "host_s_per_iter", "events_per_iter", "ns_per_event");
  auto row = [&](int workers, std::int64_t slice) {
    JobSpec j{"P3", model::workload_vgg19, {}};
    j.cfg.n_workers = workers;
    j.cfg.method = core::SyncMethod::kP3;
    j.cfg.slice_params = slice;
    j.cfg.seed = args.seed;
    std::vector<double> s_per_iter, ns_per_event;
    JobOutcome last(origin);
    for (int rep = 0; rep < 3; ++rep) {
      const double before = probe_once();
      JobOutcome o = run_job(j, 1, 4, false, false, origin);
      if (!o.ok) throw std::runtime_error(o.error);
      const double speed = 2 * kProbeRefS / (before + probe_once());
      s_per_iter.push_back(speed * (o.run_s + o.drain_s) /
                           static_cast<double>(o.iterations));
      ns_per_event.push_back(speed * 1e9 * o.run_s /
                             static_cast<double>(o.events_run));
      last = std::move(o);
    }
    std::printf("%-8d %-12lld %-10lld %-16.6f %-16.0f %-12.1f\n", workers,
                static_cast<long long>(slice),
                static_cast<long long>(last.slices), median(s_per_iter),
                static_cast<double>(last.events_total) /
                    static_cast<double>(last.iterations),
                median(ns_per_event));
    std::fflush(stdout);
  };
  for (int workers : {1, 4, 16}) row(workers, 50'000);
  for (std::int64_t slice : {12'500, 25'000, 100'000, 200'000, 400'000}) {
    row(16, slice);
  }
  return 0;
}

// --------------------------------------------------------------------------

int run_benchmark(const Args& args) {
  const Clock::time_point origin = Clock::now();
  const WorkloadSpec w = make_workload(args.workload, args.seed);
  Digest config;
  for (const JobSpec& j : w.jobs) {
    config.add(describe(j, w.warmup, w.measured));
    config.add(describe(j, w.trace_warmup, w.trace_measured));
  }
  const std::string provenance = provenance_json(args, config.value());
  std::printf("# provenance %s\n", provenance.c_str());

  runner::ParallelExecutor pool(w.threads);
  SpanLog log(origin);
  int attempted = 0, failed = 0;
  std::vector<std::uint64_t> reference(w.jobs.size(), 0);

  // One warm-up pass (the first pass pays for heap growth and cold caches),
  // checked but not timed; then untraced passes for --seconds, at least
  // three, so the median has a middle. Only passes whose every run passed
  // the gate enter the medians.
  std::vector<Pass> passes;
  auto checked_pass = [&](bool inject_failure) {
    Pass p = run_pass(w, pool, log, w.warmup, w.measured, false,
                      inject_failure, origin);
    attempted += static_cast<int>(p.jobs.size());
    const int bad = check_pass(w, p, reference);
    failed += bad;
    if (bad == 0) passes.push_back(std::move(p));
  };
  checked_pass(args.inject_failure);
  passes.clear();
  const Clock::time_point start = Clock::now();
  for (int n = 0;
       n < 3 || seconds_between(start, Clock::now()) < args.seconds; ++n) {
    checked_pass(false);
  }
  const double rss_mb = peak_rss_mb();
  std::printf("# speed factor %.4f; unscaled host_s_per_iter %.6g s, "
              "wall_s %.6g s (medians)\n",
              median_over(passes, [](const Pass& p) { return p.speed; }),
              median_over(passes,
                          [](const Pass& p) {
                            return host_s_per_iter(p) / p.speed;
                          }),
              median_over(passes,
                          [](const Pass& p) { return p.wall_s / p.speed; }));

  std::vector<Metric> metrics;
  auto add = [&](std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit)});
  };
  auto med = [&](const std::function<double(const Pass&)>& f) {
    return median_over(passes, f);
  };
  auto med_total = [&](auto field) {
    return med([field](const Pass& p) { return total(p, field); });
  };
  auto med_per_iter = [&](std::int64_t JobOutcome::*field) {
    return med([field](const Pass& p) { return per_iter(p, field); });
  };

  if (args.trace == 0) {
    const double n = static_cast<double>(w.jobs.size());
    add("host_s_per_iter", med(host_s_per_iter), "s");
    add("wall_s", med([](const Pass& p) { return p.wall_s; }), "s");
    add("setup_s", med([](const Pass& p) {
          return total(p, &JobOutcome::model_s) +
                 total(p, &JobOutcome::partition_s) +
                 total(p, &JobOutcome::ctor_s);
        }), "s");
    add("peak_rss_mb", rss_mb, "MB");
    add("sim_samples_per_s", med([n](const Pass& p) {
          return total(p, &JobOutcome::throughput) / n;
        }), "samples/s");
    add("ok_run_share",
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "share");
  } else {
    // Shortened copy, untraced then traced: the digests must agree, and the
    // ratio of their host cost is the tracing overhead.
    Pass plain = run_pass(w, pool, log, w.trace_warmup,
                          w.trace_measured, false, false, origin);
    Pass traced = run_pass(w, pool, log, w.trace_warmup,
                           w.trace_measured, true, false, origin);
    const double trace_rss_mb = peak_rss_mb();
    std::vector<std::uint64_t> short_ref(w.jobs.size(), 0);
    attempted += static_cast<int>(2 * w.jobs.size());
    failed += check_pass(w, plain, short_ref);
    failed += check_pass(w, traced, short_ref);

    add("sim.events_per_iter", med_per_iter(&JobOutcome::events_total),
        "count");
    add("sim.host_ns_per_event", med([](const Pass& p) {
          return 1e9 * ratio(total(p, &JobOutcome::run_s),
                             total(p, &JobOutcome::events_run));
        }), "ns");
    add("net.msgs_per_iter", med_per_iter(&JobOutcome::msgs), "count");
    add("net.bytes_per_iter", med_per_iter(&JobOutcome::bytes), "B");
    add("net.drops_per_iter", med_per_iter(&JobOutcome::drops), "count");
    add("net.delivered_share", med([](const Pass& p) {
          return ratio(total(p, &JobOutcome::delivered),
                       total(p, &JobOutcome::msgs));
        }), "share");
    add("ps.run_s", med_total(&JobOutcome::run_s), "s");
    add("ps.drain_s", med_total(&JobOutcome::drain_s), "s");
    add("ps.ctor_s", med_total(&JobOutcome::ctor_s), "s");
    add("ps.pushes_per_iter", med_per_iter(&JobOutcome::pushes), "count");
    add("ps.params_per_iter", med_per_iter(&JobOutcome::params), "count");
    add("ps.notifies_per_iter", med_per_iter(&JobOutcome::notifies), "count");
    add("ps.pulls_per_iter", med_per_iter(&JobOutcome::pulls), "count");
    add("ps.rounds_per_iter", med_per_iter(&JobOutcome::rounds), "count");
    add("ps.acks_per_iter", med_per_iter(&JobOutcome::acks), "count");
    add("ps.retransmits_per_iter", med_per_iter(&JobOutcome::retransmits),
        "count");
    add("ps.timeouts_per_iter", med_per_iter(&JobOutcome::timeouts), "count");
    add("ps.dups_per_iter", med_per_iter(&JobOutcome::dups), "count");
    add("ps.heartbeats_per_iter", med_per_iter(&JobOutcome::heartbeats),
        "count");
    add("ps.goodput_share", med([](const Pass& p) {
          return ratio(total(p, &JobOutcome::goodput_bytes),
                       total(p, &JobOutcome::wire_bytes));
        }), "share");
    add("ps.sim_stall_s_per_iter", med([](const Pass& p) {
          return ratio(total(p, &JobOutcome::stall_s),
                       static_cast<double>(p.jobs.size()));
        }), "s");
    add("ps.dssp_gate_blocks", med_total(&JobOutcome::gate_blocks), "count");
    add("core.partition_s", med_total(&JobOutcome::partition_s), "s");
    add("core.slices", med_total(&JobOutcome::slices), "count");
    add("core.max_layer_slices", med([](const Pass& p) {
          std::int64_t m = 0;
          for (const JobOutcome& j : p.jobs) {
            m = std::max(m, j.max_layer_slices);
          }
          return static_cast<double>(m);
        }), "count");
    add("model.build_s", med_total(&JobOutcome::model_s), "s");
    add("runner.busy_share", med([&w](const Pass& p) {
          return ratio(total(p, &JobOutcome::job_s), w.threads * p.wall_s);
        }), "share");
    add("runner.longest_job_s", med([](const Pass& p) {
          double m = 0;
          for (const JobOutcome& j : p.jobs) m = std::max(m, j.job_s);
          return m;
        }), "s");
    add("obs.tracing_overhead",
        ratio(host_s_per_iter(traced), host_s_per_iter(plain)) - 1.0, "share");
    add("obs.trace_events_per_iter",
        per_iter(traced, &JobOutcome::trace_events), "count");
    add("obs.trace_peak_rss_mb", trace_rss_mb, "MB");
    add("obs.critpath_s", total(traced, &JobOutcome::critpath_s), "s");
    add("obs.critpath_events_per_s",
        ratio(total(traced, &JobOutcome::critpath_events),
              total(traced, &JobOutcome::critpath_s)),
        "1/s");
    std::array<double, obs::kBlameCount> blame{};
    double blame_total = 0;
    for (const JobOutcome& j : traced.jobs) {
      if (!j.ok) continue;
      for (int c = 0; c < obs::kBlameCount; ++c) blame[c] += j.blame_s[c];
      blame_total += j.blame_total_s;
    }
    auto share = [&](std::initializer_list<obs::Blame> cats) {
      double s = 0;
      for (obs::Blame b : cats) s += blame[static_cast<int>(b)];
      return ratio(s, blame_total);
    };
    using B = obs::Blame;
    add("obs.blame.network_share",
        share({B::kSendQueue, B::kInversion, B::kWire, B::kUplink,
               B::kDownlink}),
        "share");
    add("obs.blame.compute_share", share({B::kForward, B::kBackward}),
        "share");
    add("obs.blame.server_share", share({B::kServer}), "share");
    add("obs.blame.recovery_share", share({B::kRecovery}), "share");
    add("obs.blame.sspwait_share", share({B::kSspWait}), "share");
  }

  // Human-readable summary, then the machine-readable result line.
  std::printf("# workload %s: %zu untraced passes x %zu jobs, %d threads\n",
              w.name.c_str(), passes.size(), w.jobs.size(), w.threads);
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    std::printf("# digest %s %s\n", w.jobs[i].label.c_str(),
                hex64(reference[i]).c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.out_dir.empty()) {
    write_host_trace(args.out_dir + "/" + w.name + "-seed" +
                         std::to_string(args.seed) + "-trace" +
                         std::to_string(args.trace) + ".host.json",
                     provenance, log);
  }
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perf_e2e: %s\n"
               "usage: perf_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "                [--git REV --git-dirty 0|1 --source-hash H] "
               "[--inject-failure]\n"
               "       perf_e2e --scaling [--seed N]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--inject-failure") {
      a.inject_failure = true;
      continue;
    }
    if (key == "--scaling") {
      a.scaling = true;
      a.workload = "scaling";
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
      if (!have_seed) usage("bad --seed " + v);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 120;
      if (!have_seconds) usage("--seconds must be in (0, 120]");
    } else if (key == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1" ? 1 : 0;
      have_trace = true;
    } else if (key == "--out") {
      a.out_dir = v;
    } else if (key == "--git") {
      a.git = v;
    } else if (key == "--git-dirty") {
      a.git_dirty = v == "1" ? 1 : 0;
    } else if (key == "--source-hash") {
      a.source_hash = v;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!a.scaling &&
      (a.workload.empty() || !have_seed || !have_seconds || !have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.scaling ? scaling_report(args) : run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s\n", e.what());
    return 1;
  }
}
