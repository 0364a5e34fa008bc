// Micro-benchmarks (google-benchmark) of the controller hot paths: cascade
// deflate/reinflate, proportional MakeRoom, placement over a large cluster,
// the Zipf/LRU analytics, and the Spark engine's per-event cost. Also hosts
// the ablation sweeps called out in DESIGN.md (policy r-estimates,
// proportional vs greedy splits) as parameterized benchmarks.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/cluster/sim_session.h"
#include "src/common/rng.h"
#include "src/core/local_controller.h"
#include "src/sim/simulator.h"
#include "src/spark/experiment.h"
#include "src/telemetry/telemetry.h"

// --- Global allocation accounting -------------------------------------------
// The whole binary's operator new/delete are overridden with counting
// wrappers so the simulator benchmarks can report an allocations-per-event
// counter (the DESIGN.md §14 "0 allocs/event" gate runs off it in CI). The
// counter is relaxed-atomic: benchmarks here are single-threaded and only the
// before/after difference matters.

namespace {
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace defl {
namespace {

int64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

VmSpec BenchVmSpec(int i) {
  VmSpec spec;
  spec.name = "bench-vm-" + std::to_string(i);
  spec.size = ResourceVector(4.0, 16384.0, 100.0, 1000.0);
  spec.priority = VmPriority::kLow;
  spec.min_size = spec.size * 0.1;
  return spec;
}

void BM_CascadeDeflateReinflate(benchmark::State& state) {
  const auto mode = static_cast<DeflationMode>(state.range(0));
  CascadeController controller(mode);
  Vm vm(0, BenchVmSpec(0));
  vm.guest_os().set_app_used_mb(10000.0);
  const ResourceVector target = vm.size() * 0.5;
  for (auto _ : state) {
    const DeflationOutcome outcome = controller.Deflate(vm, nullptr, target);
    benchmark::DoNotOptimize(outcome.latency_seconds);
    controller.Reinflate(vm, nullptr, outcome.TotalReclaimed());
  }
}
BENCHMARK(BM_CascadeDeflateReinflate)
    ->Arg(static_cast<int>(DeflationMode::kHypervisorOnly))
    ->Arg(static_cast<int>(DeflationMode::kVmLevel));

// The same loop with a TelemetryContext attached -- the acceptance gate for
// the telemetry layer is that the trace-disabled variant is indistinguishable
// from the detached baseline above (one null check + one bool branch per
// emit site). Arg: 0 = attached with tracing disabled, 1 = tracing enabled
// (upper bound; counts the O(1) event appends and a per-iteration Clear()).
void BM_CascadeDeflateReinflateTelemetry(benchmark::State& state) {
  const bool trace_enabled = state.range(0) == 1;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(trace_enabled);
  CascadeController controller(DeflationMode::kVmLevel);
  controller.AttachTelemetry(&telemetry);
  Vm vm(0, BenchVmSpec(0));
  vm.guest_os().set_app_used_mb(10000.0);
  const ResourceVector target = vm.size() * 0.5;
  for (auto _ : state) {
    const DeflationOutcome outcome = controller.Deflate(vm, nullptr, target);
    benchmark::DoNotOptimize(outcome.latency_seconds);
    controller.Reinflate(vm, nullptr, outcome.TotalReclaimed());
    if (trace_enabled) {
      telemetry.trace().Clear();  // keep memory flat over millions of iters
    }
  }
  state.SetLabel(trace_enabled ? "trace on" : "trace off");
}
BENCHMARK(BM_CascadeDeflateReinflateTelemetry)->Arg(0)->Arg(1);

void BM_MakeRoomProportional(benchmark::State& state) {
  const auto num_vms = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Server server(0, ResourceVector(4.0 * num_vms, 16384.0 * num_vms, 1e6, 1e6));
    for (int i = 0; i < num_vms; ++i) {
      server.AddVm(std::make_unique<Vm>(i, BenchVmSpec(i)));
    }
    LocalControllerConfig config;
    config.mode = DeflationMode::kVmLevel;
    LocalController controller(&server, config);
    state.ResumeTiming();
    const ReclaimResult result =
        controller.MakeRoom(ResourceVector(2.0 * num_vms, 8192.0 * num_vms, 0.0, 0.0));
    benchmark::DoNotOptimize(result.success);
  }
}
BENCHMARK(BM_MakeRoomProportional)->Arg(4)->Arg(16)->Arg(64);

void BM_PlacementPolicies(benchmark::State& state) {
  const auto policy = static_cast<PlacementPolicy>(state.range(0));
  std::vector<std::unique_ptr<Server>> servers;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    servers.push_back(
        std::make_unique<Server>(i, ResourceVector(32.0, 262144.0, 1000.0, 10000.0)));
    const int vms = static_cast<int>(rng.UniformInt(0, 5));
    for (int v = 0; v < vms; ++v) {
      servers.back()->AddVm(std::make_unique<Vm>(i * 10 + v, BenchVmSpec(v)));
    }
  }
  std::vector<Server*> raw;
  for (auto& s : servers) {
    raw.push_back(s.get());
  }
  const ResourceVector demand(4.0, 16384.0, 50.0, 500.0);
  for (auto _ : state) {
    const Result<size_t> placed = PlaceVm(demand, raw, policy, rng);
    benchmark::DoNotOptimize(placed.ok());
  }
}
BENCHMARK(BM_PlacementPolicies)
    ->Arg(static_cast<int>(PlacementPolicy::kBestFit))
    ->Arg(static_cast<int>(PlacementPolicy::kFirstFit))
    ->Arg(static_cast<int>(PlacementPolicy::kTwoChoices));

// Placement-scan shootout: the object-graph path (PlaceVm calling per-Server
// accessors through pointers) vs the structure-of-arrays path (PlaceVmFleet
// streaming FleetView columns), best-fit so every probe scans the whole
// fleet. SetItemsProcessed counts servers scanned, so the reported
// items-per-second rate is probes/s and time/iteration divided by the Arg is
// ns/probe. Both paths produce bit-identical winners; only the memory layout
// differs.
struct PlacementScanFixture {
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> raw;
  std::vector<uint32_t> rows;
  // Declared after servers so it is destroyed first (it detaches itself as
  // each server's observer), mirroring ClusterManager's member order.
  FleetView fleet;

  // Each server hosts [min_vms, max_vms] 4-core VMs on 32 cores.
  explicit PlacementScanFixture(int n, int min_vms = 0, int max_vms = 5) {
    Rng rng(5);
    for (int i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<Server>(
          i, ResourceVector(32.0, 262144.0, 1000.0, 10000.0)));
      const int vms = static_cast<int>(rng.UniformInt(min_vms, max_vms));
      for (int v = 0; v < vms; ++v) {
        servers.back()->AddVm(std::make_unique<Vm>(i * 10 + v, BenchVmSpec(v)));
      }
      raw.push_back(servers.back().get());
      rows.push_back(static_cast<uint32_t>(i));
    }
    fleet.Bind(servers);
    fleet.Refresh();
  }
};

void BM_PlacementScanObjectGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PlacementScanFixture fx(n);
  Rng rng(7);
  const ResourceVector demand(4.0, 16384.0, 50.0, 500.0);
  for (auto _ : state) {
    const Result<size_t> placed =
        PlaceVm(demand, fx.raw, PlacementPolicy::kBestFit, rng);
    benchmark::DoNotOptimize(placed.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScanObjectGraph)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PlacementScanFleetView(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PlacementScanFixture fx(n);
  Rng rng(7);
  const ResourceVector demand(4.0, 16384.0, 50.0, 500.0);
  for (auto _ : state) {
    const Result<size_t> placed =
        PlaceVmFleet(demand, fx.fleet, fx.rows, PlacementPolicy::kBestFit, rng);
    benchmark::DoNotOptimize(placed.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScanFleetView)->Arg(1000)->Arg(10000)->Arg(100000);

// The saturated case the max-tree targets (DESIGN.md §12): every server
// hosts 7 or 8 of its 8 VM slots, and a first-fit free-only probe for 8
// cores misses on every row. The scan climbs past whole tree nodes, so a
// miss tests O(log n) nodes instead of every row or every 64-row block.
// Same items/s and ns/probe convention as above; CI gates the 100k point.
void BM_PlacementScanFleetViewSaturated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PlacementScanFixture fx(n, /*min_vms=*/7, /*max_vms=*/8);
  Rng rng(7);
  const ResourceVector demand(8.0, 16384.0, 50.0, 500.0);
  for (auto _ : state) {
    const Result<size_t> placed =
        PlaceVmFleet(demand, fx.fleet, fx.rows, PlacementPolicy::kFirstFit, rng,
                     AvailabilityMode::kFreeOnly);
    benchmark::DoNotOptimize(placed.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlacementScanFleetViewSaturated)->Arg(1000)->Arg(10000)->Arg(100000);

// The upkeep after one VM change (DESIGN.md §12), on the same saturated
// fleet: a random server's first VM has one core reclaimed by the
// hypervisor (or given back, if it already was), then Refresh() refolds that
// server's accounting, re-mirrors its row and brings the max-tree above it
// up to date. One row is refreshed per iteration, so time/iteration is ns
// per refreshed row.
void BM_FleetViewRefresh(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PlacementScanFixture fx(n, /*min_vms=*/7, /*max_vms=*/8);
  Rng rng(11);
  const ResourceVector core(1.0, 0.0);
  for (auto _ : state) {
    const auto row = static_cast<size_t>(rng.UniformInt(0, n - 1));
    Vm& vm = *fx.servers[row]->vms().front();
    if (vm.hv_reclaimed().IsZero()) {
      vm.HvReclaim(core);
    } else {
      vm.HvRelease(core);
    }
    fx.fleet.Refresh();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetViewRefresh)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ZipfHeadFraction(benchmark::State& state) {
  const int64_t n = state.range(0);
  int64_t k = 1;
  for (auto _ : state) {
    k = (k * 7 + 13) % n + 1;
    benchmark::DoNotOptimize(ZipfHeadFraction(n, k, 0.95));
  }
}
BENCHMARK(BM_ZipfHeadFraction)->Arg(1 << 16)->Arg(1 << 24);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(9);
  ZipfDistribution zipf(20'000'000, 0.95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_SparkEngineSmallJob(benchmark::State& state) {
  const SparkWorkload wl = MakeKmeansWorkload(0.05);
  SparkExperimentConfig config;
  for (auto _ : state) {
    const SparkExperimentResult result = RunSparkExperiment(wl, config);
    benchmark::DoNotOptimize(result.makespan_s);
  }
}
BENCHMARK(BM_SparkEngineSmallJob);

// Ablation: the Spark policy's recomputation estimate -- worst-case r = 1
// vs the synchronous-execution heuristic. Measures decision quality as the
// realized slowdown of the policy's choice for K-means (where r = 1 wrongly
// forces VM-level).
void BM_PolicyAblationRHeuristic(benchmark::State& state) {
  const bool worst_case = state.range(0) == 1;
  const SparkWorkload wl = MakeKmeansWorkload(0.1);
  SparkExperimentConfig config;
  config.deflation_fraction = 0.5;
  for (auto _ : state) {
    // Reproduce the decision the policy would take, then run that mechanism.
    SparkPolicyInputs inputs;
    inputs.progress_c = 0.5;
    inputs.deflation_fractions = std::vector<double>(8, 0.5);
    inputs.r_estimate = worst_case ? 1.0 : 0.05;
    const SparkPolicyDecision decision = DecideSparkDeflation(inputs);
    config.approach = decision.choice == SparkDeflationChoice::kSelfDeflate
                          ? SparkReclamationApproach::kSelfDeflation
                          : SparkReclamationApproach::kVmLevel;
    const SparkExperimentResult result = RunSparkExperiment(wl, config);
    benchmark::DoNotOptimize(result.makespan_s);
  }
  state.SetLabel(worst_case ? "r=1 (worst case)" : "r heuristic");
}
BENCHMARK(BM_PolicyAblationRHeuristic)->Arg(0)->Arg(1);

// --- Simulator event-loop benchmarks (DESIGN.md §14) ------------------------
// Each reports two counters the scale-regression CI job gates on:
//   allocs_per_event  -- heap allocations per scheduled event in steady state
//                        (after a warm-up pass primes every pool/capacity);
//                        must be 0 for the arena-backed event core
//   ns_per_event      -- wall time per event (items_per_second inverse)
// The warm-up runs one full batch before the timed loop so the timed region
// measures recycled slots and stable vector capacities, not first-touch
// growth.

constexpr int kSimBatch = 512;

void BM_SimulatorEventLoop(benchmark::State& state) {
  Simulator sim;
  int64_t sink = 0;
  for (int i = 0; i < kSimBatch; ++i) {
    sim.After(1.0, [&sink] { ++sink; });
  }
  sim.Run();
  int64_t events = 0;
  const int64_t allocs_before = AllocCount();
  for (auto _ : state) {
    for (int i = 0; i < kSimBatch; ++i) {
      sim.After(1.0, [&sink] { ++sink; });
    }
    sim.Run();
    events += kSimBatch;
  }
  const int64_t allocs = AllocCount() - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_SimulatorEveryTick(benchmark::State& state) {
  Simulator sim;
  int64_t sink = 0;
  EventHandle tick = sim.Every(1.0, [&sink] { ++sink; });
  sim.Run(sim.now() + kSimBatch);  // warm-up: primes the queue + slot pools
  int64_t events = 0;
  const int64_t allocs_before = AllocCount();
  for (auto _ : state) {
    sim.Run(sim.now() + kSimBatch);
    events += kSimBatch;
  }
  const int64_t allocs = AllocCount() - allocs_before;
  tick.Cancel();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_SimulatorEveryTick);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  Simulator sim;
  int64_t sink = 0;
  std::vector<EventHandle> handles(kSimBatch);
  for (int i = 0; i < kSimBatch; ++i) {
    handles[static_cast<size_t>(i)] = sim.After(1.0, [&sink] { ++sink; });
  }
  for (EventHandle& h : handles) {
    h.Cancel();
  }
  sim.Run(sim.now() + 1.0);  // warm-up drains the cancelled batch
  int64_t events = 0;
  const int64_t allocs_before = AllocCount();
  for (auto _ : state) {
    for (int i = 0; i < kSimBatch; ++i) {
      handles[static_cast<size_t>(i)] = sim.After(1.0, [&sink] { ++sink; });
    }
    for (EventHandle& h : handles) {
      h.Cancel();
    }
    sim.Run(sim.now() + 1.0);
    events += kSimBatch;
  }
  const int64_t allocs = AllocCount() - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_SimulatorScheduleCancel);

// --- Snapshot restore and the shared arrival trace (DESIGN.md §15) --------
// The what-if service's per-query cost is one RestoreView off a shared blob.
// The base: 100 32-core servers serving an interactive mix over diurnal
// arrivals at 1.8x load, snapshotted at 6 h of a 12 h horizon (its elided
// trace holds ~57k arrivals). Arg 0 restores without a trace hint (the
// generator reruns and its output is checksummed); Arg 1 hands in the trace
// a first restore verified, as every what-if child does.

ClusterSimConfig InteractiveBaseConfig() {
  ClusterSimConfig c;
  c.num_servers = 100;
  c.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  c.trace.duration_s = 12.0 * 3600.0;
  c.trace.max_lifetime_s = 8.0 * 3600.0;
  c.trace.low_priority_fraction = 0.6;
  c.trace.seed = 11;
  c.trace = WithTargetLoad(c.trace, 1.8, c.num_servers, c.server_capacity);
  c.arrivals.enabled = true;
  c.arrivals.diurnal_amplitude = 0.6;
  c.arrivals.diurnal_period_s = 24.0 * 3600.0;
  c.arrivals.seed = 12;
  c.interactive.enabled = true;
  c.interactive.fraction = 0.45;
  c.interactive.seed = 13;
  c.interactive.slo_p99_ms = 80.0;
  c.interactive.control_period_s = 300.0;
  c.interactive.rate_rps_per_cpu = 60.0;
  c.interactive.rate_amplitude = 0.6;
  c.interactive.rate_period_s = 24.0 * 3600.0;
  c.cluster.placement = PlacementPolicy::kTwoChoices;
  c.reinflate_period_s = 300.0;
  return c;
}

const std::string& InteractiveBaseSnapshot() {
  static const std::string blob = [] {
    Result<SimSession> session = SimSession::Open(InteractiveBaseConfig());
    if (!session.ok()) {
      std::abort();
    }
    session.value().StepUntil(6.0 * 3600.0);
    return session.value().SnapshotBytes();
  }();
  return blob;
}

void BM_SnapshotRestoreView(benchmark::State& state) {
  const std::string& blob = InteractiveBaseSnapshot();
  SimSession::RestoreOptions options;
  options.threads = 1;
  if (state.range(0) != 0) {
    Result<SimSession> probe = SimSession::RestoreView(blob, options);
    if (!probe.ok()) {
      state.SkipWithError(probe.error().c_str());
      return;
    }
    options.trace = probe.value().trace();
  }
  for (auto _ : state) {
    TelemetryContext telemetry;
    options.telemetry = &telemetry;
    Result<SimSession> child = SimSession::RestoreView(blob, options);
    if (!child.ok()) {
      state.SkipWithError(child.error().c_str());
      return;
    }
    benchmark::DoNotOptimize(child.value().now());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_SnapshotRestoreView)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TraceFnv(benchmark::State& state) {
  Result<SimSession> session = SimSession::Open(InteractiveBaseConfig());
  if (!session.ok()) {
    state.SkipWithError(session.error().c_str());
    return;
  }
  const std::vector<TraceEvent>& events = session.value().trace()->events;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TraceFnv(events));
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_TraceFnv)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace defl

BENCHMARK_MAIN();
