// Self-timing harness for the perf claims this repo makes about its own
// substrate (BENCH_perf.json is produced by this binary):
//
//   1. event-loop throughput — events/sec of the simulator core on a
//      synthetic timer workload, best-of-N (absolute numbers for real
//      cluster runs come from perf_e2e/).
//   2. sweep fan-out — wall time of a toy bandwidth_sweep at --threads 1 vs
//      --threads N, plus a check that both produce bit-identical Series
//      (the determinism guarantee the parallel runner documents).
//   3. observability guard — a cluster run with a tracer attached but
//      disabled must stay within 2% of the same run with no tracer at all
//      (src/obs promises "pay only for what you record").
//   4. critpath guard — causal-graph construction + blame walk over a
//      recorded trace must sustain a fixed events/sec floor, so the
//      critical-path engine stays usable on full-size traces.
//
// Usage: perf_smoke [--events N] [--reps R] [--threads N] [--smoke]
//                   [--out results/BENCH_perf.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"
#include "sim/simulator.h"

namespace {

using namespace p3;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------------
// The measured workload: `kChains` self-rescheduling callback chains with
// LCG-pseudorandom delays — a steady-state queue depth of kChains and an
// alloc/move pattern like the protocol's timer and delivery events. The LCG
// keeps the event schedule identical across reps.
constexpr int kChains = 64;

struct ChainState {
  std::uint64_t rng;
  std::uint64_t remaining;
};

double next_delay(std::uint64_t& rng) {
  rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
  return 1e-6 * static_cast<double>((rng >> 33) & 0xFFFF);
}

double time_loop(std::uint64_t total_events) {
  sim::Simulator loop;
  std::vector<ChainState> chains(kChains);
  const std::uint64_t per_chain = total_events / kChains;
  const auto t0 = Clock::now();
  for (int c = 0; c < kChains; ++c) {
    chains[c] = {static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ULL + 1,
                 per_chain};
    struct Step {
      sim::Simulator* loop;
      ChainState* state;
      void operator()() const {
        if (--state->remaining == 0) return;
        loop->schedule(next_delay(state->rng), *this);
      }
    };
    loop.schedule(next_delay(chains[c].rng), Step{&loop, &chains[c]});
  }
  loop.run();
  return seconds_since(t0);
}

/// Best-of-`reps` events/sec of the simulator core.
double bench_event_loop(std::uint64_t events, int reps) {
  const double ev = static_cast<double>(events);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double evps = ev / time_loop(events);
    best = std::max(best, evps);
    std::printf("  rep %d: %.2fM ev/s\n", rep + 1, evps / 1e6);
  }
  return best;
}

// --------------------------------------------------------------------------
// Sweep fan-out: the same toy bandwidth sweep serial vs parallel.

model::Workload toy_workload() {
  model::Workload w;
  w.model = model::toy_uniform(8, 500'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.010;
  return w;
}

std::vector<runner::Series> run_sweep(int threads, int measured) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.bandwidth = gbps(2);
  runner::MeasureOptions opts;
  opts.warmup = 1;
  opts.measured = measured;
  opts.threads = threads;
  return runner::bandwidth_sweep(
      toy_workload(), cfg,
      {core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
       core::SyncMethod::kP3},
      {0.5, 1, 2, 3, 4, 6, 8, 12}, opts);
}

bool series_identical(const std::vector<runner::Series>& a,
                      const std::vector<runner::Series>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;  // bitwise ==
  }
  return true;
}

// --------------------------------------------------------------------------
// Observability guard: every tracer hook in the protocol sits behind an
// `enabled()` branch, so an attached-but-disabled tracer must cost nearly
// nothing. The two runs alternate rep by rep and each side keeps its best,
// so both sample the same host conditions.

constexpr double kObsOverheadBudget = 0.02;

struct ObsResult {
  double baseline_evps = 0.0;  ///< no tracer attached
  double disabled_evps = 0.0;  ///< tracer attached, enabled(false)
  double overhead = 0.0;       ///< 1 - disabled/baseline (negative = noise)
  bool pass = false;
};

double time_cluster_run(obs::Tracer* tracer, int measured) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.bandwidth = gbps(2);
  ps::Cluster c(toy_workload(), cfg);
  if (tracer != nullptr) c.attach_tracer(tracer);
  const auto t0 = Clock::now();
  c.run(1, measured);
  return static_cast<double>(c.simulator().events_executed()) /
         seconds_since(t0);
}

ObsResult bench_obs_overhead(int measured, int reps) {
  ObsResult r;
  for (int rep = 0; rep < reps; ++rep) {
    const double base = time_cluster_run(nullptr, measured);
    obs::Tracer tracer;
    tracer.set_enabled(false);
    const double disabled = time_cluster_run(&tracer, measured);
    r.baseline_evps = std::max(r.baseline_evps, base);
    r.disabled_evps = std::max(r.disabled_evps, disabled);
    std::printf("  rep %d: no tracer %.2fM ev/s, disabled tracer %.2fM ev/s\n",
                rep + 1, base / 1e6, disabled / 1e6);
  }
  r.overhead = 1.0 - r.disabled_evps / r.baseline_evps;
  r.pass = r.overhead < kObsOverheadBudget;
  return r;
}

// --------------------------------------------------------------------------
// Critpath guard: graph construction + the blame walk are offline analysis,
// but a full fig08-style trace holds ~10^5..10^6 events, so the engine must
// stay comfortably above a fixed floor to be usable in CI and notebooks.

constexpr double kCritpathFloorEvps = 50'000.0;

struct CritpathResult {
  double trace_events = 0.0;
  double evps = 0.0;  ///< best-of-reps analyze throughput
  bool well_formed = false;
  bool pass = false;
};

CritpathResult bench_critpath(int measured, int reps) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.bandwidth = gbps(2);
  ps::Cluster cluster(toy_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(1, measured);

  CritpathResult r;
  r.trace_events = static_cast<double>(tracer.events().size());
  r.well_formed = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const obs::BlameReport blame = obs::analyze_critical_path(tracer, 1);
    const double dt = seconds_since(t0);
    if (!blame.problems.empty() || blame.iterations.empty()) {
      r.well_formed = false;
    }
    r.evps = std::max(r.evps, r.trace_events / dt);
    std::printf("  rep %d: %.0f trace events analyzed at %.2fM ev/s\n",
                rep + 1, r.trace_events, r.trace_events / dt / 1e6);
  }
  r.pass = r.well_formed && r.evps >= kCritpathFloorEvps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv, {{"events", "2000000"},
                            {"reps", "5"},
                            {"threads", "0"},
                            {"sweep-measured", "40"},
                            {"smoke", ""},
                            {"out", ""}});
  const bool smoke = opts.flag("smoke");
  const std::uint64_t events =
      smoke ? 200'000 : static_cast<std::uint64_t>(opts.integer("events"));
  const int reps = smoke ? 2 : static_cast<int>(opts.integer("reps"));
  const int sweep_measured =
      smoke ? 2 : static_cast<int>(opts.integer("sweep-measured"));
  int threads = static_cast<int>(opts.integer("threads"));
  if (threads <= 0) threads = runner::default_threads();
  // Even on a single-core host, compare against a real 2-thread pool so the
  // parallel path (and its determinism) is what gets measured, not the
  // inline fallback.
  if (threads < 2) threads = 2;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("== perf smoke: event loop (%llu events x %d reps) ==\n",
              static_cast<unsigned long long>(events), reps);
  const double loop_evps = bench_event_loop(events, reps);
  std::printf("event loop: %.2fM ev/s (best of %d)\n\n", loop_evps / 1e6,
              reps);

  std::printf("== perf smoke: sweep fan-out (toy bandwidth sweep, "
              "1 vs %d threads) ==\n", threads);
  auto t0 = Clock::now();
  const auto serial = run_sweep(1, sweep_measured);
  const double t_serial = seconds_since(t0);
  t0 = Clock::now();
  const auto parallel = run_sweep(threads, sweep_measured);
  const double t_parallel = seconds_since(t0);
  const bool identical = series_identical(serial, parallel);
  const double sweep_speedup = t_serial / t_parallel;
  std::printf("sweep: serial %.2fs, %d threads %.2fs -> %.2fx, outputs %s\n\n",
              t_serial, threads, t_parallel, sweep_speedup,
              identical ? "bit-identical" : "DIFFER (BUG)");

  std::printf("== perf smoke: disabled-tracing overhead (budget %.0f%%) ==\n",
              100.0 * kObsOverheadBudget);
  const ObsResult obs = bench_obs_overhead(sweep_measured, reps);
  std::printf("obs: no tracer %.2fM ev/s, disabled tracer %.2fM ev/s "
              "(best of %d) -> %+.2f%% overhead, %s\n\n",
              obs.baseline_evps / 1e6, obs.disabled_evps / 1e6, reps,
              100.0 * obs.overhead,
              obs.pass ? "within budget" : "OVER BUDGET (BUG)");

  std::printf("== perf smoke: critpath engine (floor %.0fk ev/s) ==\n",
              kCritpathFloorEvps / 1e3);
  const CritpathResult critpath = bench_critpath(sweep_measured, reps);
  std::printf("critpath: %.0f-event trace analyzed at %.2fM ev/s "
              "(best of %d) -> %s\n\n",
              critpath.trace_events, critpath.evps / 1e6, reps,
              critpath.pass ? "above floor"
                            : "BELOW FLOOR OR MALFORMED (BUG)");

  const std::string out_path =
      opts.str("out").empty() ? bench::out("BENCH_perf.json") : opts.str("out");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"host\": {\"hardware_concurrency\": %u},\n"
                 "  \"config\": {\"events\": %llu, \"reps\": %d, "
                 "\"sweep_threads\": %d, \"sweep_measured\": %d},\n"
                 "  \"event_loop\": {\n"
                 "    \"optimized_events_per_sec\": %.0f\n"
                 "  },\n"
                 "  \"sweep\": {\n"
                 "    \"serial_seconds\": %.3f,\n"
                 "    \"parallel_seconds\": %.3f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"outputs_identical\": %s\n"
                 "  },\n"
                 "  \"obs\": {\n"
                 "    \"baseline_events_per_sec\": %.0f,\n"
                 "    \"disabled_tracer_events_per_sec\": %.0f,\n"
                 "    \"overhead\": %.4f,\n"
                 "    \"budget\": %.2f,\n"
                 "    \"within_budget\": %s\n"
                 "  },\n"
                 "  \"critpath\": {\n"
                 "    \"trace_events\": %.0f,\n"
                 "    \"analyze_events_per_sec\": %.0f,\n"
                 "    \"floor\": %.0f,\n"
                 "    \"above_floor\": %s\n"
                 "  }\n"
                 "}\n",
                 cores, static_cast<unsigned long long>(events), reps, threads,
                 sweep_measured, loop_evps, t_serial, t_parallel, sweep_speedup,
                 identical ? "true" : "false", obs.baseline_evps,
                 obs.disabled_evps, obs.overhead, kObsOverheadBudget,
                 obs.pass ? "true" : "false", critpath.trace_events,
                 critpath.evps, kCritpathFloorEvps,
                 critpath.pass ? "true" : "false");
    std::fclose(f);
    std::printf("(json: %s)\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return identical && obs.pass && critpath.pass ? 0 : 2;
}
