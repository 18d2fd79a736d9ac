// Extension: chaos bench — P3 vs baseline under injected wire faults.
//
// The paper evaluates on a real cluster where links flap and `tc` shapes
// traffic mid-run; our substrate makes those faults first-class and
// reproducible. This bench sweeps (a) uniform message-loss rates and (b) a
// link-flap (blackout) of growing duration on one machine, with the
// ack/timeout/retransmit layer repairing every loss. Reported alongside
// throughput is the wire overhead — bytes on the wire per byte of goodput —
// which is the price of reliability (retransmits + acks).
//
// Each sweep point owns a private cluster, so the (method x fault) grid is
// fanned across the ParallelExecutor; results come back in submission order
// and identical seeds reproduce identical CSVs at any --threads value.
//
// Expected shape: both methods degrade with loss since synchronous SGD
// cannot finish a round without the retransmitted stragglers, but P3's
// priority queue keeps urgent retransmits ahead of bulk backlog, so its
// advantage persists (and preemption still works under loss).
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"

namespace {

using namespace p3;

ps::RunResult run_once(const model::Workload& workload, ps::ClusterConfig cfg,
                       int warmup, int measured) {
  ps::Cluster cluster(workload, cfg);
  ps::RunResult result = cluster.run(warmup, measured);
  cluster.drain();
  return result;
}

double wire_overhead(const ps::RunResult& r) {
  if (ps::counter(r, "transport.goodput_bytes") <= 0) return 0.0;
  return static_cast<double>(r.wire_bytes) /
         static_cast<double>(ps::counter(r, "transport.goodput_bytes"));
}

/// Run one cluster per config, fanned across `threads` pool threads, with
/// results in config order.
std::vector<ps::RunResult> run_grid(const model::Workload& workload,
                                    std::vector<ps::ClusterConfig> configs,
                                    int warmup, int measured, int threads) {
  std::vector<std::function<ps::RunResult()>> jobs;
  jobs.reserve(configs.size());
  for (auto& cfg : configs) {
    jobs.push_back([&workload, cfg = std::move(cfg), warmup, measured] {
      return run_once(workload, cfg, warmup, measured);
    });
  }
  runner::ParallelExecutor executor(threads);
  return executor.map(std::move(jobs));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/2,
                           /*default_measured=*/8);
  const int warmup = opts.measure().warmup;
  const int measured = opts.measure().measured;
  const int threads = opts.measure().threads;

  std::printf("== Extension: fault injection (ResNet-50, 4 workers, "
              "10 Gbps) ==\n\n");
  const auto workload = model::workload_resnet50();
  const std::vector<core::SyncMethod> methods = {core::SyncMethod::kBaseline,
                                                 core::SyncMethod::kP3};

  auto base_config = [](core::SyncMethod method) {
    ps::ClusterConfig cfg;
    cfg.n_workers = 4;
    cfg.method = method;
    cfg.bandwidth = gbps(10);
    cfg.rx_bandwidth = gbps(100);
    return cfg;
  };

  // --- (a) uniform loss sweep ---
  const std::vector<double> loss_pct = {0.0, 0.1, 1.0, 5.0};
  {
    // Flatten (method x loss) into one job grid; unflatten below.
    std::vector<ps::ClusterConfig> configs;
    for (auto method : methods) {
      for (double pct : loss_pct) {
        ps::ClusterConfig cfg = base_config(method);
        cfg.faults.drop_prob = pct / 100.0;
        configs.push_back(cfg);
      }
    }
    const auto results =
        run_grid(workload, std::move(configs), warmup, measured, threads);

    std::vector<runner::Series> tput;
    std::vector<runner::Series> overhead;
    for (std::size_t m = 0; m < methods.size(); ++m) {
      runner::Series t, o;
      t.name = o.name = core::sync_method_name(methods[m]);
      for (std::size_t i = 0; i < loss_pct.size(); ++i) {
        const auto& r = results[m * loss_pct.size() + i];
        t.x.push_back(loss_pct[i]);
        t.y.push_back(r.throughput);
        o.x.push_back(loss_pct[i]);
        o.y.push_back(wire_overhead(r));
      }
      tput.push_back(std::move(t));
      overhead.push_back(std::move(o));
    }
    bench::report_series("message loss sweep", "loss (%)", "images/s", tput,
                         "ext_faults_loss.csv");
    bench::report_series("reliability wire overhead", "loss (%)",
                         "wire bytes / goodput byte", overhead,
                         "ext_faults_overhead.csv");
    bench::report_speedup("ResNet-50 @ 1% loss", tput[0], tput[1]);
  }

  // --- (b) link flap: node 1's NIC goes dark both ways for `d` ms,
  // starting mid-backward of the first measured iteration (t = 1 s) ---
  const std::vector<double> flap_ms = {0.0, 100.0, 250.0, 500.0};
  {
    std::vector<ps::ClusterConfig> configs;
    for (auto method : methods) {
      for (double d : flap_ms) {
        ps::ClusterConfig cfg = base_config(method);
        if (d > 0.0) {
          const TimeS start = 1.0;
          cfg.faults.flaps.push_back({1, -1, start, start + ms(d)});
          cfg.faults.flaps.push_back({-1, 1, start, start + ms(d)});
        }
        configs.push_back(cfg);
      }
    }
    const auto results =
        run_grid(workload, std::move(configs), 0, warmup + measured, threads);

    std::vector<runner::Series> tput;
    for (std::size_t m = 0; m < methods.size(); ++m) {
      runner::Series t;
      t.name = core::sync_method_name(methods[m]);
      for (std::size_t i = 0; i < flap_ms.size(); ++i) {
        t.x.push_back(flap_ms[i]);
        t.y.push_back(results[m * flap_ms.size() + i].throughput);
      }
      tput.push_back(std::move(t));
    }
    bench::report_series("link flap on node 1 (blackout at t=1s)",
                         "flap duration (ms)", "images/s", tput,
                         "ext_faults_flap.csv");
  }

  std::printf("loss stalls synchronous rounds on retransmission timeouts, "
              "so throughput falls for every method; P3's priority queue "
              "keeps urgent retransmits ahead of bulk backlog, so its "
              "scheduling advantage survives the chaos.\n");
  return 0;
}
