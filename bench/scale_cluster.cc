// Cluster-scale placement throughput: replays synthetic traces of growing
// size through the full cluster simulator and reports lifecycle events per
// second of wall time. This is the harness guarding the incremental
// accounting + VM-index work (DESIGN.md §9): before it, every placement
// rescanned all hosted VMs and every lookup scanned all servers, so
// events/sec collapsed quadratically with cluster size.
//
// Output: the usual bench table, then one `scale_cluster_json: {...}` footer
// line with the machine-readable points (CI diffs it against
// bench/scale_cluster_baseline.json and fails on >2x regression).
//
// A second mode sweeps the sharded-simulation thread count at a fixed
// cluster size and emits a `scale_threads_json: {...}` footer: the speedup
// of the parallel placement probes and per-server sweeps (DESIGN.md §10)
// relative to the checked-in single-thread baseline
// (bench/scale_threads_baseline.json). Event counts are identical at every
// thread count -- only wall time may differ.
//
// A third mode ("cloud") runs the hyperscale configuration: a fleet of small
// servers under the diurnal/bursty arrival generator, placed with 2-choices
// (the only policy whose per-placement probe cost is independent of fleet
// size), defaulting to 100k servers / 2M VM arrivals. It emits a
// `scale_cloud_json: {...}` footer; CI runs a reduced-event smoke point and
// checks the event counts against bench/scale_cloud_baseline.json exactly
// (the simulation is deterministic, so any drift is a behavior change).
//
// Usage: scale_cluster [servers target_vms]
//   no args  -> the default sweep (100/2k, 250/5k, 1000/20k)
//   two args -> a single point, for the CI regression check
//        scale_cluster threads [servers target_vms]
//   thread-count sweep (1/2/4/8) at 1000/20k by default
//        scale_cluster cloud [servers target_vms [threads]]
//   cloud-scale point (100000/2000000 by default)
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/cluster/cluster_sim.h"

namespace defl {
namespace {

struct ScalePoint {
  int servers = 0;
  int target_vms = 0;
  int threads = 1;
  int64_t vms = 0;      // actual arrivals in the generated trace
  int64_t events = 0;   // launched + rejected + completed + preempted
  double wall_s = 0.0;
  double events_per_s = 0.0;
};

ScalePoint RunPoint(int servers, int target_vms, int threads = 1) {
  ScalePoint point;
  point.servers = servers;
  point.target_vms = target_vms;
  point.threads = threads;

  ClusterSimConfig config;
  config.num_servers = servers;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = 1234;
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  // Fix the offered load at the paper's 1.6x and stretch the horizon until
  // the expected arrival count hits the target, so every sweep point
  // stresses placement at the same per-server pressure.
  config.trace = WithTargetLoad(config.trace, 1.6, servers, config.server_capacity);
  config.trace.duration_s =
      static_cast<double>(target_vms) / config.trace.arrival_rate_per_s;
  config.cluster.threads = threads;
  config.explicit_trace = GenerateTrace(config.trace);
  point.vms = static_cast<int64_t>(config.explicit_trace.size());

  const auto start = std::chrono::steady_clock::now();
  const ClusterSimResult result = RunClusterSim(config);
  const auto end = std::chrono::steady_clock::now();

  point.wall_s = std::chrono::duration<double>(end - start).count();
  point.events = result.counters.launched + result.counters.rejected +
                 result.counters.completed + result.counters.preempted;
  point.events_per_s =
      point.wall_s > 0.0 ? static_cast<double>(point.events) / point.wall_s : 0.0;
  return point;
}

// Fixed arrival-shape knobs for the cloud point. The diurnal period is much
// shorter than a real day so the run covers full peak/trough cycles within
// its ~2-hour simulated horizon; bursts land on top of the sinusoid.
ArrivalGenConfig CloudArrivals() {
  ArrivalGenConfig arrivals;
  arrivals.enabled = true;
  arrivals.diurnal_amplitude = 0.6;
  arrivals.diurnal_period_s = 2.0 * 3600.0;
  arrivals.diurnal_phase_s = 0.0;
  arrivals.burst_rate_per_s = 2.0 / 3600.0;
  arrivals.burst_duration_s = 900.0;
  arrivals.burst_multiplier = 3.0;
  arrivals.seed = 17;
  return arrivals;
}

// One cloud-scale run: many small (8-core) servers so a 2M-VM trace exerts
// real placement pressure, 2-choices placement, hourly sampling (a 300 s
// sweep over 100k servers would dominate the wall time), diurnal arrivals.
ScalePoint RunCloudPoint(int servers, int target_vms, int threads) {
  ScalePoint point;
  point.servers = servers;
  point.target_vms = target_vms;
  point.threads = threads;

  ClusterSimConfig config;
  config.num_servers = servers;
  config.server_capacity = ResourceVector(8.0, 64.0 * 1024.0, 500.0, 5000.0);
  config.trace.seed = 1234;
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  config.trace = WithTargetLoad(config.trace, 1.6, servers, config.server_capacity);
  config.trace.duration_s =
      static_cast<double>(target_vms) / config.trace.arrival_rate_per_s;
  config.arrivals = CloudArrivals();
  config.sample_period_s = 3600.0;
  config.cluster.placement = PlacementPolicy::kTwoChoices;
  config.cluster.threads = threads;
  config.explicit_trace = GenerateDiurnalTrace(config.trace, config.arrivals);
  point.vms = static_cast<int64_t>(config.explicit_trace.size());

  const auto start = std::chrono::steady_clock::now();
  const ClusterSimResult result = RunClusterSim(config);
  const auto end = std::chrono::steady_clock::now();

  point.wall_s = std::chrono::duration<double>(end - start).count();
  point.events = result.counters.launched + result.counters.rejected +
                 result.counters.completed + result.counters.preempted;
  point.events_per_s =
      point.wall_s > 0.0 ? static_cast<double>(point.events) / point.wall_s : 0.0;
  return point;
}

int RunCloudMode(int servers, int target_vms, int threads) {
  bench::PrintHeader("scale_cloud",
                     "cloud-scale fleet under diurnal/bursty arrivals");
  bench::PrintNote("8-core servers, 1.6x mean offered load, 2-choices placement,");
  bench::PrintNote("sinusoidal rate (0.6 amplitude, 2h period) + Poisson bursts.");
  bench::PrintColumns({"servers", "vms", "events", "threads", "wall-s", "events/s"});

  const ScalePoint point = RunCloudPoint(servers, target_vms, threads);
  bench::PrintCell(static_cast<double>(point.servers));
  bench::PrintCell(static_cast<double>(point.vms));
  bench::PrintCell(static_cast<double>(point.events));
  bench::PrintCell(static_cast<double>(point.threads));
  bench::PrintCell(point.wall_s);
  bench::PrintCell(point.events_per_s);
  bench::EndRow();

  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"scale_cloud\", \"points\": [{\"servers\": %d, "
                "\"target_vms\": %d, \"vms\": %lld, \"events\": %lld, "
                "\"threads\": %d, \"nproc\": %u, \"wall_s\": %.4f, "
                "\"events_per_s\": %.1f}]}",
                point.servers, point.target_vms,
                static_cast<long long>(point.vms),
                static_cast<long long>(point.events), point.threads,
                std::thread::hardware_concurrency(), point.wall_s,
                point.events_per_s);
  std::printf("scale_cloud_json: %s\n", buf);
  return 0;
}

// Thread-count sweep at a fixed cluster size. Every point replays the same
// trace; the sharded sweeps guarantee identical event counts, so the only
// degree of freedom is wall time.
int RunThreadSweep(int servers, int target_vms) {
  bench::PrintHeader("scale_threads",
                     "sharded-simulation throughput vs thread count");
  bench::PrintNote("same trace at every point; event counts are identical by");
  bench::PrintNote("construction (DESIGN.md §10), only wall time varies.");
  bench::PrintColumns({"threads", "servers", "vms", "events", "wall-s", "events/s"});

  std::string json = "{\"bench\": \"scale_threads\", \"points\": [";
  bool first = true;
  int64_t base_events = -1;
  double base_events_per_s = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const ScalePoint point = RunPoint(servers, target_vms, threads);
    bench::PrintCell(static_cast<double>(point.threads));
    bench::PrintCell(static_cast<double>(point.servers));
    bench::PrintCell(static_cast<double>(point.vms));
    bench::PrintCell(static_cast<double>(point.events));
    bench::PrintCell(point.wall_s);
    bench::PrintCell(point.events_per_s);
    bench::EndRow();
    if (base_events < 0) {
      base_events = point.events;
      base_events_per_s = point.events_per_s;
    } else if (point.events != base_events) {
      std::printf("FAIL: event count changed with thread count (%lld vs %lld)\n",
                  static_cast<long long>(point.events),
                  static_cast<long long>(base_events));
      return 1;
    }
    const double speedup =
        base_events_per_s > 0.0 ? point.events_per_s / base_events_per_s : 0.0;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\": %d, \"nproc\": %u, \"servers\": %d, "
                  "\"vms\": %lld, \"events\": %lld, \"wall_s\": %.4f, "
                  "\"events_per_s\": %.1f, \"speedup_vs_1t\": %.2f}",
                  first ? "" : ", ", point.threads,
                  std::thread::hardware_concurrency(), point.servers,
                  static_cast<long long>(point.vms),
                  static_cast<long long>(point.events), point.wall_s,
                  point.events_per_s, speedup);
    json += buf;
    first = false;
  }
  json += "]}";
  std::printf("scale_threads_json: %s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace defl

int main(int argc, char** argv) {
  using namespace defl;
  if (argc >= 2 && std::string(argv[1]) == "threads") {
    if (argc != 2 && argc != 4) {
      // A lone extra arg is ambiguous (servers or vms?); refuse rather than
      // silently running the default config.
      std::fprintf(stderr, "usage: %s threads [servers target_vms]\n", argv[0]);
      return 2;
    }
    const int servers = argc == 4 ? std::atoi(argv[2]) : 1000;
    const int target_vms = argc == 4 ? std::atoi(argv[3]) : 20000;
    return RunThreadSweep(servers, target_vms);
  }
  if (argc >= 2 && std::string(argv[1]) == "cloud") {
    if (argc != 2 && argc != 4 && argc != 5) {
      std::fprintf(stderr, "usage: %s cloud [servers target_vms [threads]]\n",
                   argv[0]);
      return 2;
    }
    const int servers = argc >= 4 ? std::atoi(argv[2]) : 100000;
    const int target_vms = argc >= 4 ? std::atoi(argv[3]) : 2000000;
    const int threads = argc == 5 ? std::atoi(argv[4]) : 1;
    return RunCloudMode(servers, target_vms, threads);
  }
  std::vector<std::pair<int, int>> sweep = {{100, 2000}, {250, 5000}, {1000, 20000}};
  if (argc == 3) {
    sweep = {{std::atoi(argv[1]), std::atoi(argv[2])}};
  }

  bench::PrintHeader("scale_cluster", "placement/lifecycle throughput vs cluster size");
  bench::PrintNote("1.6x offered load, best-fit + cascade deflation; events =");
  bench::PrintNote("launches + rejections + completions + preemptions.");
  bench::PrintColumns({"servers", "vms", "events", "wall-s", "events/s"});

  std::string json = "{\"bench\": \"scale_cluster\", \"points\": [";
  bool first = true;
  for (const auto& [servers, target_vms] : sweep) {
    const ScalePoint point = RunPoint(servers, target_vms);
    bench::PrintCell(static_cast<double>(point.servers));
    bench::PrintCell(static_cast<double>(point.vms));
    bench::PrintCell(static_cast<double>(point.events));
    bench::PrintCell(point.wall_s);
    bench::PrintCell(point.events_per_s);
    bench::EndRow();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"servers\": %d, \"vms\": %lld, \"events\": %lld, "
                  "\"wall_s\": %.4f, \"events_per_s\": %.1f}",
                  first ? "" : ", ", point.servers,
                  static_cast<long long>(point.vms),
                  static_cast<long long>(point.events), point.wall_s,
                  point.events_per_s);
    json += buf;
    first = false;
  }
  json += "]}";
  std::printf("scale_cluster_json: %s\n", json.c_str());
  return 0;
}
