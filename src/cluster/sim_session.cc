#include "src/cluster/sim_session.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/cluster/predictor.h"
#include "src/cluster/snapshot_schema.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/vm.h"
#include "src/sim/snapshot_io.h"

namespace defl {
namespace {

// The typed, serializable event queue. The closure-based Simulator cannot
// checkpoint (std::function is opaque), so the session replays the cluster
// simulation through seven reconstructible event kinds; `payload` indexes
// into state the snapshot carries (the fault timeline, the materialized
// trace) or names a server/VM directly. Scheduling and execution order
// mirror the old RunClusterSim closure program exactly -- same (time, seq)
// keys, same relative pushes -- so the event sequence, every RNG draw, and
// therefore every byte of telemetry are unchanged.
enum class SimEventKind : uint8_t {
  kFaultEvent = 0,     // payload: index into State::fault_events
  kMarkHealthy = 1,    // payload: server id (recovery probation expired)
  kVmArrival = 2,      // payload: trace index == VmId
  kVmCompletion = 3,   // payload: VmId (no-op if already preempted)
  kSampleTick = 4,     // payload unused; self-reschedules
  kReinflateTick = 5,  // payload unused; self-reschedules
  kSloTick = 6,        // payload unused; self-reschedules (interactive only)
};

struct QueueEntry {
  double when = 0.0;
  int64_t seq = 0;
  SimEventKind kind = SimEventKind::kSampleTick;
  int64_t payload = 0;
};

// Drift-free periodic chains: tick k fires at exactly k * period. The chains
// are seeded at t = period, so the fire index is recoverable from the entry's
// own timestamp -- snapshots carry no extra state. Accumulating
// `when + period` instead compounds one rounding error per tick over
// million-tick cloud runs.
double NextPeriodicFire(double when, double period) {
  return (std::round(when / period) + 1.0) * period;
}

// Heap comparator: the *earliest* (when, seq) entry is popped first; seq
// breaks same-time ties in scheduling order, the determinism backbone.
struct LaterEntry {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }
};

template <class Ar>
void Fields(Ar& ar, QueueEntry& e) {
  ar.F64("when", e.when);
  ar.I64("seq", e.seq);
  ar.Enum("kind", e.kind, SimEventKind::kSloTick);
  ar.I64("payload", e.payload);
}

}  // namespace

// Computed once per materialised trace; elided-trace snapshots store it so a
// restore can prove the arrivals it uses are the ones the run actually used.
uint64_t TraceFnv(const std::vector<TraceEvent>& trace) {
  SnapshotDigest digest;
  WriteArchive<SnapshotDigest> ar(digest);
  for (const TraceEvent& event : trace) {
    ar.Nest("trace", event);
  }
  return digest.Finish();
}

namespace {

// --- Interactive-serving workload mix (ROADMAP item 3) -------------------
// A seeded fraction of low-priority arrivals are re-tagged as web VMs that
// serve an open-loop request stream; the SLO tick evaluates their p99
// against the fig5-style latency model and, under the slo-aware policy,
// relieves violating VMs at the expense of batch co-tenants.

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool IsInteractiveSpec(const VmSpec& spec) {
  return spec.name.rfind("web", 0) == 0;
}

// Re-tags a seeded fraction of low-priority arrivals as interactive web VMs
// (deflatable to 25% of nominal, like the catalog's web entries). One
// Chance() draw per candidate event, in trace order, so the tagged set is a
// pure function of (trace, seed, fraction) -- regenerated identically on
// restore. Events already named "web*" (explicit replay traces) count as
// interactive without re-tagging. Arrival times and lifetimes are untouched,
// so pending queue entries indexing the trace stay valid across a re-tag.
void ApplyInteractiveMix(std::vector<TraceEvent>& trace,
                         const InteractiveSloConfig& mix) {
  Rng rng(mix.seed);
  for (size_t i = 0; i < trace.size(); ++i) {
    TraceEvent& event = trace[i];
    if (IsInteractiveSpec(event.spec) ||
        event.spec.priority != VmPriority::kLow) {
      continue;
    }
    if (!rng.Chance(mix.fraction)) {
      continue;
    }
    event.spec.name = "web-" + std::to_string(i);
    event.spec.min_size = event.spec.size * 0.25;
  }
}

int64_t CountInteractive(const std::vector<TraceEvent>& trace) {
  int64_t tagged = 0;
  for (const TraceEvent& event : trace) {
    if (IsInteractiveSpec(event.spec)) {
      ++tagged;
    }
  }
  return tagged;
}

// Freezes materialised events into a shareable trace; the checksum and the
// interactive count are computed here, once.
std::shared_ptr<const ArrivalTrace> FreezeTrace(std::vector<TraceEvent> events) {
  auto trace = std::make_shared<ArrivalTrace>();
  trace->events = std::move(events);
  trace->fnv = TraceFnv(trace->events);
  trace->interactive_tagged = CountInteractive(trace->events);
  return trace;
}

// Materialises a config-generated trace: the arrival generator the config
// names, then the interactive mix when enabled (checksummed after tagging).
// Open, every restore that cannot adopt a hint, and the `slo` re-tag all go
// through here, so there is one definition of "the trace this config
// generates".
std::shared_ptr<const ArrivalTrace> GenerateArrivalTrace(
    const ClusterSimConfig& config) {
  std::vector<TraceEvent> events =
      config.arrivals.enabled ? GenerateDiurnalTrace(config.trace, config.arrivals)
                              : GenerateTrace(config.trace);
  if (config.interactive.enabled) {
    ApplyInteractiveMix(events, config.interactive);
  }
  return FreezeTrace(std::move(events));
}

// Stateless per-VM phase offset for the diurnal request-rate curve
// (SplitMix64 finalizer over the mix seed and the VM id): every VM peaks at
// its own time of day without the session carrying per-VM generator state.
double InteractivePhaseS(uint64_t seed, VmId id, double period_s) {
  uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(id) + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return period_s * (static_cast<double>(z >> 11) * 0x1.0p-53);
}

// Open-loop offered load for one web VM at simulated time `now`: millions of
// aggregate users follow a sinusoidal diurnal curve, phase-shifted per VM.
double OfferedRps(const InteractiveSloConfig& mix, VmId id, double nominal_cpu,
                  double now) {
  const double phase = InteractivePhaseS(mix.seed, id, mix.rate_period_s);
  const double wave = std::sin(kTwoPi * (now + phase) / mix.rate_period_s);
  return std::max(0.0,
                  mix.rate_rps_per_cpu * nominal_cpu *
                      (1.0 + mix.rate_amplitude * wave));
}

// The snapshot sections after the config, in format order (DESIGN.md §11),
// one struct each so every field is named once.

// The arrival trace's identity. A config-generated trace is elided to this;
// an explicit one follows it inline, `size` events.
struct TraceStamp {
  bool generated = false;
  uint64_t size = 0;
  uint64_t fnv = 0;
};

template <class Ar>
void Fields(Ar& ar, TraceStamp& t) {
  ar.Bool("generated", t.generated);
  ar.U64("size", t.size);
  ar.U64("fnv", t.fnv);
}

// The event loop and the cluster manager's state apart from the hosted VMs.
struct LoopImage {
  double now = 0.0;
  int64_t next_seq = 0;
  int64_t events_executed = 0;
  std::vector<QueueEntry> queue;  // canonical (when, seq) order
  std::array<uint64_t, 4> rng = {};
  std::vector<ServerHealth> health;
  std::vector<VmId> preempted;
};

template <class Ar>
void Fields(Ar& ar, LoopImage& l) {
  ar.F64("now", l.now);
  ar.I64("next_seq", l.next_seq);
  ar.I64("events_executed", l.events_executed);
  ar.Vec("queue", l.queue, 8 * 3 + 1);
  for (uint64_t& word : l.rng) {
    ar.U64("rng", word);
  }
  ar.Vec("health", l.health, 1,
         [&ar](auto& h) { ar.Enum("health", h, ServerHealth::kRecovering); });
  ar.Vec("preempted", l.preempted, 8, [&ar](auto& id) { ar.I64("id", id); });
}

// One hosted VM: its spec and the state of every cascade layer.
struct VmImage {
  VmId id = 0;
  VmSpec spec;
  ResourceVector hv_reclaimed;
  ResourceVector unplugged;
  double balloon_mb = 0.0;
  double app_used_mb = 0.0;
  double page_cache_mb = 0.0;
  int pinned_cpus = 0;

  static VmImage Of(const Vm& vm) {
    const GuestOs& guest = vm.guest_os();
    return VmImage{vm.id(),           vm.spec(),          vm.hv_reclaimed(),
                   guest.unplugged(), guest.balloon_mb(), guest.app_used_mb(),
                   guest.page_cache_mb(), guest.pinned_cpus()};
  }
};

template <class Ar>
void Fields(Ar& ar, VmImage& v) {
  ar.I64("id", v.id);
  ar.Nest("spec", v.spec);
  ar.Nest("hv_reclaimed", v.hv_reclaimed);
  ar.Nest("unplugged", v.unplugged);
  ar.F64("balloon_mb", v.balloon_mb);
  ar.F64("app_used_mb", v.app_used_mb);
  ar.F64("page_cache_mb", v.page_cache_mb);
  ar.Int("pinned_cpus", v.pinned_cpus);
}

// Everything between the hosted VMs and the event trace's records.
struct TailImage {
  bool has_injector = false;
  FaultInjector::State injector;
  bool predictor_initialized = false;
  double predictor_mean = 0.0;
  double predictor_variance = 0.0;
  bool trace_enabled = false;
  MetricsRegistry::State metrics;
};

template <class Ar>
void Fields(Ar& ar, TailImage& t) {
  ar.Bool("has_injector", t.has_injector);
  if (t.has_injector) {
    ar.Nest("injector", t.injector);
  }
  ar.Bool("predictor_initialized", t.predictor_initialized);
  ar.F64("predictor_mean", t.predictor_mean);
  ar.F64("predictor_variance", t.predictor_variance);
  ar.Bool("trace_enabled", t.trace_enabled);
  ar.Nest("metrics", t.metrics);
}
constexpr size_t kTraceRecordBytes = 8 * 12 + 2;

}  // namespace

// Everything a running session owns. The address is pinned inside the
// session's unique_ptr, so the telemetry clock callback can capture `this`.
struct SimSession::State {
  ClusterSimConfig config;

  TelemetryContext* telemetry = nullptr;
  std::unique_ptr<TelemetryContext> owned_telemetry;
  std::unique_ptr<ClusterManager> manager;
  std::unique_ptr<FaultInjector> injector;
  // The plan's whole-server availability timeline, re-derived (not
  // serialized) from the plan on both Open and Restore -- ServerEventsFor is
  // a pure function of plan + server count.
  std::vector<FaultInjector::ServerEvent> fault_events;
  // The materialized arrival trace; VmId == index. Immutable and possibly
  // shared with other sessions restored off the same snapshot. Inlined into
  // snapshots only when it was handed in explicitly -- a config-generated
  // trace is regenerated (or adopted, verified) on restore and only its
  // length + checksum are serialized, keeping checkpoint I/O proportional to
  // live state, not trace length.
  std::shared_ptr<const ArrivalTrace> trace;
  bool trace_generated = false;
  EwmaPredictor predictor;

  SeriesHandle util_series;
  SeriesHandle oc_series;
  SeriesHandle server_oc_series;
  GaugeHandle low_vm_hours;
  GaugeHandle low_nominal_cpu_hours;
  GaugeHandle low_effective_cpu_hours;
  GaugeHandle high_cpu_hours;
  DistributionHandle allocation_quality;
  // Interactive-serving metrics: registered only when interactive.enabled,
  // so the registry layout (and every golden digest) of the existing
  // scenarios is unchanged.
  CounterHandle slo_checks;
  CounterHandle slo_violations;
  CounterHandle slo_reinflates;
  CounterHandle slo_victim_deflations;
  DistributionHandle slo_p99_dist;
  SeriesHandle slo_offered_series;
  SeriesHandle slo_p99_series;

  double now = 0.0;
  int64_t next_seq = 0;
  int64_t events_executed = 0;
  std::vector<QueueEntry> queue;  // binary heap under LaterEntry
  double dt_hours = 0.0;
  std::vector<ClusterManager::ServerUsageSample> usage_samples;  // scratch

  ~State() {
    if (telemetry != nullptr) {
      telemetry->trace().ClearClock();
    }
  }

  void Push(double when, SimEventKind kind, int64_t payload) {
    queue.push_back(QueueEntry{when, next_seq++, kind, payload});
    std::push_heap(queue.begin(), queue.end(), LaterEntry{});
  }

  void Execute(const QueueEntry& entry) {
    switch (entry.kind) {
      case SimEventKind::kFaultEvent: {
        const FaultInjector::ServerEvent& event =
            fault_events[static_cast<size_t>(entry.payload)];
        switch (event.kind) {
          case FaultKind::kServerCrash:
            manager->CrashServer(event.server);
            break;
          case FaultKind::kServerDegrade:
            manager->DegradeServer(event.server);
            break;
          case FaultKind::kServerRecover:
            manager->RecoverServer(event.server);
            Push(entry.when + config.recovery_grace_s, SimEventKind::kMarkHealthy,
                 event.server);
            break;
          default:
            break;
        }
        break;
      }
      case SimEventKind::kMarkHealthy:
        manager->MarkHealthy(entry.payload);
        break;
      case SimEventKind::kVmArrival: {
        const TraceEvent& event = trace->events[static_cast<size_t>(entry.payload)];
        auto vm = std::make_unique<Vm>(entry.payload, event.spec);
        const Result<ServerId> placed = manager->LaunchVm(std::move(vm));
        if (placed.ok()) {
          Push(entry.when + event.lifetime_s, SimEventKind::kVmCompletion,
               entry.payload);
        }
        break;
      }
      case SimEventKind::kVmCompletion:
        // The VM may have been preempted in the meantime; CompleteVm of a
        // missing VM is a no-op, so it needs no lookup first.
        manager->CompleteVm(entry.payload);
        break;
      case SimEventKind::kSampleTick:
        SampleTick();
        Push(NextPeriodicFire(entry.when, config.sample_period_s),
             SimEventKind::kSampleTick, 0);
        break;
      case SimEventKind::kReinflateTick:
        ReinflateTick();
        Push(NextPeriodicFire(entry.when, config.reinflate_period_s),
             SimEventKind::kReinflateTick, 0);
        break;
      case SimEventKind::kSloTick:
        SloTick();
        Push(NextPeriodicFire(entry.when, config.interactive.control_period_s),
             SimEventKind::kSloTick, 0);
        break;
    }
  }

  void RegisterInteractiveMetrics(MetricsRegistry& registry) {
    slo_checks = registry.Counter("slo/checks");
    slo_violations = registry.Counter("slo/violations");
    slo_reinflates = registry.Counter("slo/reinflate_ops");
    slo_victim_deflations = registry.Counter("slo/victim_deflations");
    slo_p99_dist = registry.Distribution("slo/p99_ms");
    slo_offered_series = registry.Series("slo/offered_rps");
    slo_p99_series = registry.Series("slo/worst_p99_ms");
  }

  // Relieves one SLO-violating web VM: restore its nominal allocation by
  // deflating batch/spark co-tenants on the same server (never another web
  // VM) and handing the freed resources back through the reverse cascade.
  // Victims are taken in hosting order -- the canonical order everything
  // else uses -- so the pass is deterministic at any thread count.
  void RelieveSloPressure(Server* server, LocalController* controller,
                          Vm* web, MetricsRegistry& registry) {
    const ResourceVector deficit =
        (web->spec().size - web->effective()).ClampNonNegative();
    if (!deficit.AnyPositive()) {
      return;
    }
    ResourceVector shortfall = (deficit - server->Free()).ClampNonNegative();
    if (shortfall.AnyPositive()) {
      for (const auto& hosted : server->vms()) {
        if (!shortfall.AnyPositive()) {
          break;
        }
        Vm* victim = hosted.get();
        if (victim == web || !victim->deflatable() ||
            IsInteractiveSpec(victim->spec())) {
          continue;
        }
        const ResourceVector take = shortfall.Min(victim->deflatable_amount());
        if (!take.AnyPositive()) {
          continue;
        }
        const DeflationOutcome outcome = controller->DeflateVm(victim->id(), take);
        const ResourceVector got = outcome.TotalReclaimed();
        if (got.AnyPositive()) {
          registry.Add(slo_victim_deflations);
        }
        shortfall = (shortfall - got).ClampNonNegative();
      }
    }
    const ResourceVector give = deficit.Min(server->Free());
    if (!give.AnyPositive()) {
      return;
    }
    ReinflatePlan plan;
    plan.entries.push_back(ReinflatePlan::Entry{web, give});
    controller->ApplyReinflate(plan);
    registry.Add(slo_reinflates);
  }

  // The SLO control loop (ROADMAP item 3): evaluate every interactive VM's
  // open-loop p99 against the target. Under the slo-aware policy a violating
  // VM is relieved immediately; under the uniform baseline the violation is
  // only counted and reclamation stays with the EuroSys policies. Sequential
  // in canonical (server, hosting) order -- the tick reads and mutates fleet
  // state, so it runs on the coordinating thread like plan application does.
  void SloTick() {
    const InteractiveSloConfig& mix = config.interactive;
    MetricsRegistry& registry = telemetry->metrics();
    double worst_p99_ms = 0.0;
    double total_offered = 0.0;
    for (Server* server : manager->servers()) {
      LocalController* controller = manager->controller(server->id());
      const auto& hosted = server->vms();
      for (size_t i = 0; i < hosted.size(); ++i) {
        Vm* web = hosted[i].get();
        if (!IsInteractiveSpec(web->spec())) {
          continue;
        }
        const double nominal_cpu = web->spec().size[ResourceKind::kCpu];
        const double effective_cpu = web->effective()[ResourceKind::kCpu];
        if (nominal_cpu <= 0.0) {
          continue;
        }
        const double offered = OfferedRps(mix, web->id(), nominal_cpu, now);
        total_offered += offered;
        const double d =
            std::clamp(1.0 - effective_cpu / nominal_cpu, 0.0, 1.0);
        const WebLatencyQuantiles q =
            WebLatencyUnderLoad(mix.latency, effective_cpu, d, offered);
        registry.Add(slo_checks);
        registry.Observe(slo_p99_dist, q.p99_ms);
        worst_p99_ms = std::max(worst_p99_ms, q.p99_ms);
        if (q.p99_ms <= mix.slo_p99_ms) {
          continue;
        }
        registry.Add(slo_violations);
        if (mix.slo_aware) {
          RelieveSloPressure(server, controller, web, registry);
        }
      }
    }
    registry.ObserveAt(slo_offered_series, now, total_offered);
    registry.ObserveAt(slo_p99_series, now, worst_p99_ms);
  }

  // The sampling sweep gathers every server's usage snapshot in parallel
  // (read-only, shard ownership over the accounting caches) and folds it
  // into the registry here in canonical (server, hosting) order -- the exact
  // sequence of registry calls the sequential loop made, so the exported
  // metrics are byte-identical for any thread count.
  void SampleTick() {
    MetricsRegistry& registry = telemetry->metrics();
    manager->CollectUsageSamples(&usage_samples);  // also warms all caches
    registry.ObserveAt(util_series, now, manager->Utilization());
    registry.ObserveAt(oc_series, now, manager->Overcommitment());
    for (const ClusterManager::ServerUsageSample& sample : usage_samples) {
      registry.ObserveAt(server_oc_series, now, sample.nominal_overcommitment);
      for (const ClusterManager::ServerUsageSample::VmUsage& vm : sample.vms) {
        if (vm.low_priority) {
          registry.AddTo(low_vm_hours, dt_hours);
          registry.AddTo(low_nominal_cpu_hours, vm.nominal_cpu * dt_hours);
          registry.AddTo(low_effective_cpu_hours, vm.effective_cpu * dt_hours);
          if (vm.nominal_cpu > 0.0) {
            registry.Observe(allocation_quality, vm.effective_cpu / vm.nominal_cpu);
          }
        } else {
          registry.AddTo(high_cpu_hours, vm.effective_cpu * dt_hours);
        }
      }
    }
  }

  // Proactive reinflation loop (optionally with predictive holdback). The
  // demand gather and the per-server planning run sharded in parallel; the
  // plans apply in canonical server order (DESIGN.md §10).
  void ReinflateTick() {
    const double high_pri_cpu = manager->HighPriorityEffectiveCpu();
    predictor.Observe(high_pri_cpu);
    double holdback_cpu_per_server = 0.0;
    if (config.predictive_holdback && predictor.initialized()) {
      const double expected_growth =
          std::max(0.0, predictor.UpperBound(1.0) - high_pri_cpu);
      holdback_cpu_per_server = expected_growth / config.num_servers;
    }
    manager->ReinflateSweep(holdback_cpu_per_server);
  }

  // Simulator::Run(until) semantics: every event with when <= until runs,
  // later events stay queued, and the clock lands exactly on `until`.
  void RunUntil(double until) {
    while (!queue.empty() && queue.front().when <= until) {
      std::pop_heap(queue.begin(), queue.end(), LaterEntry{});
      const QueueEntry entry = queue.back();
      queue.pop_back();
      assert(entry.when >= now);
      now = entry.when;
      ++events_executed;
      Execute(entry);
    }
    if (until > now) {
      now = until;
    }
  }
};

namespace {

// Construction shared by Open and Restore: telemetry binding, manager,
// fault injector, and metric registration, in the exact order the original
// RunClusterSim used -- reproducing it is what makes the registry layout
// (and hence DumpJson output and snapshot import) identical across runs.
std::unique_ptr<SimSession::State> BuildCore(const ClusterSimConfig& config,
                                             TelemetryContext* telemetry_override) {
  auto state = std::make_unique<SimSession::State>();
  state->config = config;
  state->predictor = EwmaPredictor(config.predictor_alpha);
  state->dt_hours = config.sample_period_s / 3600.0;

  TelemetryContext* sink =
      telemetry_override != nullptr ? telemetry_override : config.telemetry;
  if (sink != nullptr) {
    state->telemetry = sink;
  } else {
    // Private context so every result field can still be derived from the
    // registry; nothing will export the trace, so don't accumulate it.
    state->owned_telemetry = std::make_unique<TelemetryContext>();
    state->owned_telemetry->trace().set_enabled(false);
    state->telemetry = state->owned_telemetry.get();
  }
  SimSession::State* raw = state.get();
  state->telemetry->SetClock([raw] { return raw->now; });

  state->manager = std::make_unique<ClusterManager>(
      config.num_servers, config.server_capacity, config.cluster, state->telemetry);
  // Only built when the plan has rules, so a faultless run registers no
  // fault metrics and its output stays byte-identical to earlier builds.
  if (!config.fault_plan.rules.empty()) {
    state->injector = std::make_unique<FaultInjector>(config.fault_plan);
    state->injector->AttachTelemetry(state->telemetry);
    state->manager->AttachFaultInjector(state->injector.get());
    state->fault_events = state->injector->ServerEventsFor(config.num_servers);
  }

  MetricsRegistry& registry = state->telemetry->metrics();
  state->util_series = registry.Series("cluster/utilization");
  state->oc_series = registry.Series("cluster/overcommitment");
  state->server_oc_series = registry.Series("cluster/server_overcommitment");
  state->low_vm_hours = registry.Gauge("cluster/usage/low_pri_vm_hours");
  state->low_nominal_cpu_hours =
      registry.Gauge("cluster/usage/low_pri_nominal_cpu_hours");
  state->low_effective_cpu_hours =
      registry.Gauge("cluster/usage/low_pri_effective_cpu_hours");
  state->high_cpu_hours = registry.Gauge("cluster/usage/high_pri_cpu_hours");
  state->allocation_quality =
      registry.Distribution("cluster/low_pri/allocation_quality");
  // Registered last, and only for interactive runs: every pre-existing
  // scenario keeps its exact registry layout (ImportState and the golden
  // digests both depend on it).
  if (config.interactive.enabled) {
    state->RegisterInteractiveMetrics(registry);
  }
  return state;
}

Result<bool> ValidateConfig(const ClusterSimConfig& config) {
  if (config.num_servers <= 0) {
    return Error{"num_servers must be positive"};
  }
  if (config.sample_period_s <= 0.0) {
    return Error{"sample_period_s must be positive"};
  }
  if (config.reinflate_period_s < 0.0) {
    return Error{"reinflate_period_s must be non-negative"};
  }
  if (config.cluster.threads < 1) {
    return Error{"cluster.threads must be >= 1"};
  }
  if (config.trace.duration_s < 0.0) {
    return Error{"trace.duration_s must be non-negative"};
  }
  if (config.recovery_grace_s < 0.0) {
    return Error{"recovery_grace_s must be non-negative"};
  }
  const std::string arrivals_error = ValidateArrivalGen(config.arrivals);
  if (!arrivals_error.empty()) {
    return Error{"arrivals: " + arrivals_error};
  }
  if (config.interactive.enabled) {
    const InteractiveSloConfig& i = config.interactive;
    if (i.fraction < 0.0 || i.fraction > 1.0) {
      return Error{"interactive.fraction must be in [0, 1]"};
    }
    if (i.slo_p99_ms <= 0.0) {
      return Error{"interactive.slo_p99_ms must be positive"};
    }
    if (i.control_period_s <= 0.0) {
      return Error{"interactive.control_period_s must be positive"};
    }
    if (i.rate_rps_per_cpu < 0.0) {
      return Error{"interactive.rate_rps_per_cpu must be non-negative"};
    }
    if (i.rate_amplitude < 0.0 || i.rate_amplitude > 1.0) {
      return Error{"interactive.rate_amplitude must be in [0, 1]"};
    }
    if (i.rate_period_s <= 0.0) {
      return Error{"interactive.rate_period_s must be positive"};
    }
    if (i.latency.base_service_us <= 0.0) {
      return Error{"interactive.latency.base_service_us must be positive"};
    }
    if (i.latency.knee_fraction < 0.0 || i.latency.knee_fraction >= 1.0) {
      return Error{"interactive.latency.knee_fraction must be in [0, 1)"};
    }
    if (i.latency.max_utilization <= 0.0 || i.latency.max_utilization >= 1.0) {
      return Error{"interactive.latency.max_utilization must be in (0, 1)"};
    }
  }
  return true;
}

}  // namespace

SimSession::SimSession(std::unique_ptr<State> state) : state_(std::move(state)) {}
SimSession::SimSession(SimSession&&) noexcept = default;
SimSession& SimSession::operator=(SimSession&&) noexcept = default;
SimSession::~SimSession() = default;

Result<SimSession> SimSession::Open(const ClusterSimConfig& config) {
  const Result<bool> valid = ValidateConfig(config);
  if (!valid.ok()) {
    return Error{"invalid ClusterSimConfig: " + valid.error()};
  }
  std::unique_ptr<State> state = BuildCore(config, nullptr);
  if (!config.explicit_trace.empty()) {
    // An explicit trace is authoritative: VMs it already names "web*" are
    // interactive, nothing is re-tagged.
    state->trace = FreezeTrace(config.explicit_trace);
  } else {
    state->trace = GenerateArrivalTrace(config);
    state->trace_generated = true;
  }

  // Schedule the whole program in the exact order the batch runner did:
  // fault timeline, then trace arrivals, then the sampling tick, then the
  // reinflation tick. Sequence numbers (the same-time tie-break) depend only
  // on this order, which pins the event interleaving byte-for-byte.
  for (size_t i = 0; i < state->fault_events.size(); ++i) {
    state->Push(state->fault_events[i].time_s, SimEventKind::kFaultEvent,
                static_cast<int64_t>(i));
  }
  const std::vector<TraceEvent>& arrivals = state->trace->events;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    state->Push(arrivals[i].arrival_s, SimEventKind::kVmArrival,
                static_cast<int64_t>(i));
  }
  state->Push(config.sample_period_s, SimEventKind::kSampleTick, 0);
  if (config.reinflate_period_s > 0.0) {
    state->Push(config.reinflate_period_s, SimEventKind::kReinflateTick, 0);
  }
  if (config.interactive.enabled) {
    state->Push(config.interactive.control_period_s, SimEventKind::kSloTick, 0);
  }
  return SimSession(std::move(state));
}

double SimSession::now() const { return state_->now; }
double SimSession::duration_s() const { return state_->config.trace.duration_s; }
int64_t SimSession::events_executed() const { return state_->events_executed; }

bool SimSession::done() const {
  return state_->queue.empty() ||
         state_->queue.front().when > state_->config.trace.duration_s;
}

void SimSession::StepUntil(double t) {
  state_->RunUntil(std::min(t, state_->config.trace.duration_s));
}

int64_t SimSession::StepEvents(int64_t max_events) {
  const double horizon = state_->config.trace.duration_s;
  int64_t executed = 0;
  while (executed < max_events && !state_->queue.empty() &&
         state_->queue.front().when <= horizon) {
    std::pop_heap(state_->queue.begin(), state_->queue.end(), LaterEntry{});
    const QueueEntry entry = state_->queue.back();
    state_->queue.pop_back();
    state_->now = entry.when;
    ++state_->events_executed;
    state_->Execute(entry);
    ++executed;
  }
  return executed;
}

SimInspectView SimSession::Inspect() const {
  State& s = *state_;
  SimInspectView view;
  view.now_s = s.now;
  view.duration_s = s.config.trace.duration_s;
  view.events_executed = s.events_executed;
  view.pending_events = static_cast<int64_t>(s.queue.size());
  view.utilization = s.manager->Utilization();
  view.overcommitment = s.manager->Overcommitment();
  view.counters = s.manager->counters();
  const std::vector<ServerHealth>& health = s.manager->health_states();
  view.servers.reserve(health.size());
  for (Server* server : s.manager->servers()) {
    SimServerView sv;
    sv.id = server->id();
    sv.health = health[static_cast<size_t>(server->id())];
    sv.vm_count = static_cast<int64_t>(server->vm_count());
    sv.allocated = server->Allocated();
    sv.free = server->Free();
    sv.nominal_overcommitment = server->NominalOvercommitment();
    view.hosted_vms += sv.vm_count;
    view.servers.push_back(sv);
  }
  return view;
}

ClusterSimResult SimSession::Finish() {
  State& s = *state_;
  s.RunUntil(s.config.trace.duration_s);

  const MetricsRegistry& registry = s.telemetry->metrics();
  ClusterSimResult result;
  result.counters = s.manager->counters();
  const int64_t low = result.counters.launched_low_priority;
  result.preemption_probability =
      low > 0 ? static_cast<double>(result.counters.preempted) / static_cast<double>(low)
              : 0.0;
  const int64_t arrivals = result.counters.launched + result.counters.rejected;
  result.rejection_rate =
      arrivals > 0
          ? static_cast<double>(result.counters.rejected) / static_cast<double>(arrivals)
          : 0.0;
  // Everything below is a registry read: the result struct is a snapshot
  // view over the telemetry the run produced.
  result.mean_utilization =
      registry.SeriesTimeWeightedMean(s.util_series, s.config.trace.duration_s);
  result.mean_overcommitment =
      registry.SeriesTimeWeightedMean(s.oc_series, s.config.trace.duration_s);
  result.peak_overcommitment = registry.SeriesMax(s.oc_series);
  const auto& server_oc_points = registry.series_points(s.server_oc_series);
  result.server_overcommitment_samples.reserve(server_oc_points.size());
  for (const MetricsRegistry::TimePoint& point : server_oc_points) {
    result.server_overcommitment_samples.push_back(point.value);
  }
  result.usage.low_pri_vm_hours = registry.gauge(s.low_vm_hours);
  result.usage.low_pri_nominal_cpu_hours = registry.gauge(s.low_nominal_cpu_hours);
  result.usage.low_pri_effective_cpu_hours =
      registry.gauge(s.low_effective_cpu_hours);
  result.usage.high_pri_cpu_hours = registry.gauge(s.high_cpu_hours);
  result.usage.preemptions = result.counters.preempted;
  result.low_priority_allocation_quality =
      registry.distribution(s.allocation_quality).mean();
  result.crash_preemptions = result.counters.crash_preempted;
  result.crash_replacements = result.counters.crash_replaced;
  result.server_crashes = result.counters.server_crashes;
  result.server_recoveries = result.counters.server_recoveries;
  if (s.config.interactive.enabled) {
    result.interactive_vms = s.trace->interactive_tagged;
    const int64_t checks = registry.counter(s.slo_checks);
    const int64_t violations = registry.counter(s.slo_violations);
    result.slo_violation_rate =
        checks > 0 ? static_cast<double>(violations) / static_cast<double>(checks)
                   : 0.0;
    const RunningStats& p99 = registry.distribution(s.slo_p99_dist);
    result.slo_mean_p99_ms = p99.mean();
    result.slo_peak_p99_ms = p99.count() > 0 ? p99.max() : 0.0;
    result.slo_reinflate_ops = registry.counter(s.slo_reinflates);
    result.slo_victim_deflations = registry.counter(s.slo_victim_deflations);
  }
  return result;
}

TelemetryContext& SimSession::telemetry() { return *state_->telemetry; }
const ClusterSimConfig& SimSession::config() const { return state_->config; }
const std::shared_ptr<const ArrivalTrace>& SimSession::trace() const {
  return state_->trace;
}
ClusterManager& SimSession::manager() { return *state_->manager; }

std::string SimSession::SnapshotBytes() const {
  const State& s = *state_;
  SnapshotWriter w;
  WriteArchive<SnapshotWriter> ar(w);

  ar.Nest("config", s.config);

  // A config-generated trace is deterministic from the TraceConfig just
  // serialized, so only its length and checksum go into the snapshot; the
  // restore side regenerates and verifies (or adopts a hint that matches
  // both). Explicit traces (replay files, bench harnesses) have no
  // generator to rerun and are inlined in full.
  ar.Nest("trace", TraceStamp{s.trace_generated, s.trace->events.size(), s.trace->fnv});
  if (!s.trace_generated) {
    for (const TraceEvent& event : s.trace->events) {
      ar.Nest("trace", event);
    }
  }

  // Canonical queue image: sorted by (when, seq), independent of the heap's
  // internal array layout, so identical logical states snapshot to identical
  // bytes. Strictly-future VM arrivals are elided: arrival i was pushed at
  // Open with when = trace[i].arrival_s and seq = |fault timeline| + i and is
  // never re-pushed, so the restore side rebuilds them from the trace.
  // Arrivals AT `now` (an event-boundary snapshot can leave same-instant
  // stragglers unexecuted) are the only ones written out.
  LoopImage loop{s.now, s.next_seq, s.events_executed, {}, s.manager->SaveRngState(),
                 s.manager->health_states(), s.manager->pending_preempted()};
  for (const QueueEntry& entry : s.queue) {
    if (entry.kind != SimEventKind::kVmArrival || entry.when <= s.now) {
      loop.queue.push_back(entry);
    }
  }
  std::sort(loop.queue.begin(), loop.queue.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              return a.seq < b.seq;
            });
  ar.Nest("loop", loop);

  const std::vector<Server*> servers = s.manager->servers();
  ar.U64("servers", servers.size());
  for (Server* server : servers) {
    ar.U64("vms", server->vm_count());
    for (const auto& vm : server->vms()) {
      ar.Nest("vm", VmImage::Of(*vm));
    }
  }

  ar.Nest("tail", TailImage{s.injector != nullptr,
                            s.injector != nullptr ? s.injector->ExportState()
                                                  : FaultInjector::State{},
                            s.predictor.initialized(), s.predictor.mean(),
                            s.predictor.variance(), s.telemetry->trace().enabled(),
                            s.telemetry->metrics().ExportState()});
  ar.Vec("trace_events", s.telemetry->trace().events(), kTraceRecordBytes);

  return w.Finish();
}

Result<bool> SimSession::Snapshot(const std::string& path) const {
  return WriteSnapshotFile(SnapshotBytes(), path);
}

Result<SimSession> SimSession::Restore(const std::string& path,
                                       const RestoreOptions& options) {
  Result<std::string> bytes = ReadSnapshotFile(path);
  if (!bytes.ok()) {
    return Error{bytes.error()};
  }
  Result<SimSession> session = RestoreBytes(bytes.value(), options);
  if (!session.ok()) {
    return Error{"cannot restore " + path + ": " + session.error()};
  }
  return session;
}

Result<SimSession> SimSession::RestoreBytes(const std::string& bytes,
                                            const RestoreOptions& options) {
  return RestoreView(std::string_view(bytes), options);
}

Result<SimSession> SimSession::RestoreView(std::string_view bytes,
                                           const RestoreOptions& options) {
  Result<SnapshotReader> opened = SnapshotReader::OpenView(bytes);
  if (!opened.ok()) {
    return Error{opened.error()};
  }
  SnapshotReader& r = opened.value();
  ReadArchive ar(r);

  ClusterSimConfig config;
  ar.Nest("config", config);
  if (!r.ok()) {
    return Error{r.error()};
  }
  config.telemetry = nullptr;
  if (options.threads > 0) {
    config.cluster.threads = options.threads;
  }
  if (options.placement >= 0) {
    if (options.placement > static_cast<int>(PlacementPolicy::kTwoChoices)) {
      return Error{"placement override " + std::to_string(options.placement) +
                   " is not a PlacementPolicy (max " +
                   std::to_string(static_cast<int>(PlacementPolicy::kTwoChoices)) +
                   ")"};
    }
    config.cluster.placement = static_cast<PlacementPolicy>(options.placement);
  }
  const Result<bool> valid = ValidateConfig(config);
  if (!valid.ok()) {
    return Error{"snapshot carries an invalid config: " + valid.error()};
  }

  std::unique_ptr<State> state = BuildCore(config, options.telemetry);
  State& s = *state;

  TraceStamp stamp;
  ar.Nest("trace", stamp);
  if (r.ok() && stamp.generated) {
    // The trace was elided: the session must run on exactly the arrivals the
    // original session used, proven by the stored length/checksum. Pending
    // arrival events index into this list, so a generator that drifted
    // across builds must fail the restore, not corrupt it. A hinted trace
    // that passes the same test is adopted as is; anything else reruns the
    // generator and verifies its output.
    s.trace_generated = true;
    const std::shared_ptr<const ArrivalTrace>& hint = options.trace;
    if (hint != nullptr && hint->events.size() == stamp.size &&
        hint->fnv == stamp.fnv) {
#ifdef DEFL_CHECK_ACCOUNTING
      // The hint's checksum is trusted, not recomputed: re-prove it here so
      // an ArrivalTrace mutated after freezing (or built with a stale fnv)
      // cannot pass for the snapshot's trace.
      if (TraceFnv(hint->events) != hint->fnv) {
        DEFL_LOG(kError) << "adopted arrival trace: events no longer match "
                            "their checksum";
        std::abort();
      }
#endif
      s.trace = hint;
    } else {
      s.trace = GenerateArrivalTrace(s.config);
      if (s.trace->events.size() != stamp.size || s.trace->fnv != stamp.fnv) {
        r.Fail("snapshot's elided arrival trace cannot be regenerated: the "
               "generator produced " +
               std::to_string(s.trace->events.size()) +
               " arrivals, snapshot recorded " + std::to_string(stamp.size) +
               " (checksum " + (s.trace->fnv == stamp.fnv ? "matches" : "differs") +
               ")");
      }
    }
  } else if (r.ok()) {
    std::vector<TraceEvent> events;
    if (ar.Affords("trace.size", stamp.size, 8 * 2)) {
      events.resize(static_cast<size_t>(stamp.size));
    }
    for (TraceEvent& event : events) {
      if (!r.ok()) {
        break;
      }
      ar.Nest("trace", event);
    }
    // An explicit trace must never be re-sampled: pending arrival events
    // index into exactly this materialized list.
    s.config.explicit_trace = events;
    s.trace = FreezeTrace(std::move(events));
    if (r.ok() && s.trace->fnv != stamp.fnv) {
      r.Fail("snapshot's inlined arrival trace fails its checksum");
    }
  }

  LoopImage loop;
  ar.Nest("loop", loop);
  s.now = loop.now;
  s.next_seq = loop.next_seq;
  s.events_executed = loop.events_executed;
  s.queue = std::move(loop.queue);
  for (const QueueEntry& entry : s.queue) {
    if (!r.ok()) {
      break;
    }
    // Bound payloads so a logically-inconsistent snapshot cannot index out
    // of range later (the checksum only protects against corruption).
    bool payload_ok = true;
    switch (entry.kind) {
      case SimEventKind::kFaultEvent:
        payload_ok = entry.payload >= 0 &&
                     static_cast<size_t>(entry.payload) < s.fault_events.size();
        break;
      case SimEventKind::kMarkHealthy:
        payload_ok = entry.payload >= 0 && entry.payload < config.num_servers;
        break;
      case SimEventKind::kVmArrival:
      case SimEventKind::kVmCompletion:
        payload_ok = entry.payload >= 0 &&
                     static_cast<size_t>(entry.payload) < s.trace->events.size();
        break;
      case SimEventKind::kSloTick:
        // An SLO tick without the interactive config is inconsistent (its
        // reschedule would divide by a zero period).
        if (!config.interactive.enabled) {
          r.Fail("snapshot queues an SLO tick but interactive serving is "
                 "disabled in its config");
        }
        break;
      default:
        break;
    }
    if (!payload_ok) {
      r.Fail("snapshot queue entry payload " + std::to_string(entry.payload) +
             " is out of range for its event kind");
    }
  }
  // Rebuild the elided strictly-future arrivals (see SnapshotBytes): arrival
  // i re-enters with its Open-time sequence number, |fault timeline| + i, so
  // the same-time tie-break order is bit-exact.
  if (r.ok()) {
    const int64_t arrival_seq_base = static_cast<int64_t>(s.fault_events.size());
    const std::vector<TraceEvent>& arrivals = s.trace->events;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].arrival_s > s.now) {
        s.queue.push_back(QueueEntry{arrivals[i].arrival_s,
                                     arrival_seq_base + static_cast<int64_t>(i),
                                     SimEventKind::kVmArrival,
                                     static_cast<int64_t>(i)});
      }
    }
  }
  std::make_heap(s.queue.begin(), s.queue.end(), LaterEntry{});

  s.manager->RestoreRngState(loop.rng);
  if (r.ok() && !s.manager->RestoreHealthStates(loop.health)) {
    r.Fail("snapshot has " + std::to_string(loop.health.size()) +
           " server health entries for " + std::to_string(config.num_servers) +
           " servers");
  }
  s.manager->RestorePreempted(std::move(loop.preempted));

  const uint64_t server_count = ar.Count("servers", 8);
  if (r.ok() && server_count != static_cast<uint64_t>(config.num_servers)) {
    r.Fail("snapshot has " + std::to_string(server_count) +
           " server sections for " + std::to_string(config.num_servers) +
           " servers");
  }
  for (uint64_t server_id = 0; r.ok() && server_id < server_count; ++server_id) {
    const uint64_t vm_count = ar.Count("vms", 8);
    for (uint64_t i = 0; r.ok() && i < vm_count; ++i) {
      VmImage image;
      ar.Nest("vm", image);
      if (!r.ok()) {
        break;
      }
      // Reinstate the VM exactly as it was -- direct state injection, no
      // TryUnplug/HvReclaim replay (those would consume RNG/fault draws the
      // snapshotting run already took). Adoption in (server, hosting) order
      // replays the admission order, so per-server accounting caches
      // recompute to the exact same folds.
      auto vm = std::make_unique<Vm>(image.id, std::move(image.spec));
      vm->guest_os().set_app_used_mb(image.app_used_mb);
      vm->guest_os().set_page_cache_mb(image.page_cache_mb);
      vm->guest_os().set_pinned_cpus(image.pinned_cpus);
      vm->guest_os().RestoreDeflationState(image.unplugged, image.balloon_mb);
      vm->RestoreHvReclaimed(image.hv_reclaimed);
      s.manager->AdoptVm(std::move(vm), static_cast<ServerId>(server_id));
    }
  }

  TailImage tail;
  ar.Nest("tail", tail);
  if (r.ok() && tail.has_injector != (s.injector != nullptr)) {
    r.Fail("snapshot fault-injector presence does not match its fault plan");
  }
  if (r.ok() && tail.has_injector) {
    const Result<bool> imported = s.injector->ImportState(tail.injector);
    if (!imported.ok()) {
      r.Fail(imported.error());
    }
  }
  s.predictor.RestoreState(tail.predictor_initialized, tail.predictor_mean,
                           tail.predictor_variance);
  if (r.ok()) {
    // Wholesale value overwrite: erases the junk telemetry the adoption path
    // emitted above and reinstates every counter/gauge/distribution/series
    // exactly. Rejects a registry whose layout differs from the snapshot
    // (e.g. a RestoreOptions::telemetry context that was not fresh).
    const Result<bool> imported = s.telemetry->metrics().ImportState(tail.metrics);
    if (!imported.ok()) {
      r.Fail(imported.error());
    }
  }

  std::vector<TraceEventRecord> events;
  ar.Vec("trace_events", events, kTraceRecordBytes);
  if (r.ok()) {
    s.telemetry->trace().set_enabled(tail.trace_enabled);
    s.telemetry->trace().RestoreEvents(std::move(events));
  }

  // The SLO override (DESIGN.md §16) applies only after the full parse: the
  // trace checksum was verified against the ORIGINAL config's mix, and the
  // registry import needed the snapshot's exact layout. Enabling interactive
  // serving here appends the slo/* metrics to the registry tail -- the same
  // position BuildCore gives them -- and swaps in a session-private trace
  // regenerated under the new mix (never a write through a shared one), so
  // only future arrivals change; already-placed VMs keep their specs.
  if (r.ok() && options.slo.active) {
    const bool was_enabled = s.config.interactive.enabled;
    InteractiveSloConfig& mix = s.config.interactive;
    mix.enabled = true;
    if (options.slo.slo_p99_ms >= 0.0) {
      mix.slo_p99_ms = options.slo.slo_p99_ms;
    }
    if (options.slo.policy >= 0) {
      mix.slo_aware = options.slo.policy != 0;
    }
    if (options.slo.control_period_s >= 0.0) {
      mix.control_period_s = options.slo.control_period_s;
    }
    if (options.slo.fraction >= 0.0) {
      mix.fraction = options.slo.fraction;
    }
    const Result<bool> still_valid = ValidateConfig(s.config);
    if (!still_valid.ok()) {
      r.Fail("slo override yields an invalid config: " + still_valid.error());
    }
    if (r.ok() && (options.slo.fraction >= 0.0 || !was_enabled)) {
      if (s.trace_generated) {
        s.trace = GenerateArrivalTrace(s.config);
      } else if (options.slo.fraction >= 0.0) {
        r.Fail("slo override cannot re-tag an explicit trace (no generator "
               "to rerun); it tags by the \"web\" name prefix only");
      }
    }
    if (r.ok() && !was_enabled) {
      s.RegisterInteractiveMetrics(s.telemetry->metrics());
      s.Push(NextPeriodicFire(s.now, mix.control_period_s),
             SimEventKind::kSloTick, 0);
    }
  }

  if (!r.ok()) {
    return Error{r.error()};
  }
  if (!r.AtEnd()) {
    return Error{"snapshot has " + std::to_string(r.Remaining()) +
                 " unexpected trailing payload bytes"};
  }
  return SimSession(std::move(state));
}

}  // namespace defl
