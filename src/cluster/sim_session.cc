#include "src/cluster/sim_session.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/cluster/predictor.h"
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
constexpr uint8_t kMaxEventKind = 6;

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

// The Write* serializers are templated over the sink: a SnapshotWriter
// appends the bytes, a SnapshotDigest only hashes them (TraceFnv).
template <typename Sink>
void WriteResourceVector(Sink& w, const ResourceVector& v) {
  for (const ResourceKind kind : kAllResources) {
    w.WriteF64(v[kind]);
  }
}

ResourceVector ReadResourceVector(SnapshotReader& r) {
  ResourceVector v;
  for (const ResourceKind kind : kAllResources) {
    v[kind] = r.ReadF64();
  }
  return v;
}

template <typename Sink>
void WriteVmSpec(Sink& w, const VmSpec& spec) {
  w.WriteString(spec.name);
  WriteResourceVector(w, spec.size);
  w.WriteU8(static_cast<uint8_t>(spec.priority));
  WriteResourceVector(w, spec.min_size);
}

VmSpec ReadVmSpec(SnapshotReader& r) {
  VmSpec spec;
  spec.name = r.ReadString();
  spec.size = ReadResourceVector(r);
  const uint8_t priority = r.ReadU8();
  if (priority > static_cast<uint8_t>(VmPriority::kLow)) {
    r.Fail("snapshot VM priority byte " + std::to_string(priority) +
           " is out of range");
  }
  spec.priority = static_cast<VmPriority>(priority);
  spec.min_size = ReadResourceVector(r);
  return spec;
}

template <typename Sink>
void WriteTraceEvent(Sink& w, const TraceEvent& event) {
  w.WriteF64(event.arrival_s);
  w.WriteF64(event.lifetime_s);
  WriteVmSpec(w, event.spec);
}

}  // namespace

// Computed once per materialised trace; elided-trace snapshots store it so a
// restore can prove the arrivals it uses are the ones the run actually used.
uint64_t TraceFnv(const std::vector<TraceEvent>& trace) {
  SnapshotDigest digest;
  for (const TraceEvent& event : trace) {
    WriteTraceEvent(digest, event);
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

// Length prefix bounded against the remaining payload so a crafted count
// can never drive a near-infinite loop or allocation.
uint64_t ReadCount(SnapshotReader& r, size_t min_entry_bytes, const char* what) {
  const uint64_t n = r.ReadU64();
  if (r.ok() && min_entry_bytes > 0 &&
      n > r.Remaining() / min_entry_bytes) {
    r.Fail(std::string("snapshot ") + what + " count " + std::to_string(n) +
           " exceeds the remaining payload");
    return 0;
  }
  return n;
}

void WriteConfig(SnapshotWriter& w, const ClusterSimConfig& config) {
  w.WriteI64(config.num_servers);
  WriteResourceVector(w, config.server_capacity);
  const TraceConfig& t = config.trace;
  w.WriteF64(t.duration_s);
  w.WriteF64(t.arrival_rate_per_s);
  w.WriteF64(t.lifetime_alpha);
  w.WriteF64(t.min_lifetime_s);
  w.WriteF64(t.max_lifetime_s);
  w.WriteF64(t.low_priority_fraction);
  w.WriteU64(t.seed);
  w.WriteU64(t.catalog.size());
  for (const VmCatalogEntry& entry : t.catalog) {
    w.WriteString(entry.app);
    WriteResourceVector(w, entry.size);
    w.WriteF64(entry.min_fraction);
    w.WriteF64(entry.weight);
  }
  const ClusterConfig& c = config.cluster;
  w.WriteU8(static_cast<uint8_t>(c.placement));
  w.WriteU8(static_cast<uint8_t>(c.strategy));
  const LocalControllerConfig& lc = c.controller;
  w.WriteU8(static_cast<uint8_t>(lc.mode));
  w.WriteF64(lc.latency.swap_out_mbps);
  w.WriteF64(lc.latency.control_loop_overhead);
  w.WriteF64(lc.latency.unplug_cold_mbps);
  w.WriteF64(lc.latency.unplug_freed_mbps);
  w.WriteF64(lc.latency.app_free_mbps);
  w.WriteF64(lc.latency.app_fixed_s);
  w.WriteF64(lc.latency.cpu_unplug_s);
  w.WriteF64(lc.latency.balloon_mbps);
  w.WriteF64(lc.latency.fixed_s);
  w.WriteF64(lc.alpha);
  w.WriteU8(static_cast<uint8_t>(lc.split));
  w.WriteF64(lc.deflation_deadline_s);
  w.WriteF64(lc.guard.rpc_timeout_s);
  w.WriteI64(lc.guard.max_attempts);
  w.WriteF64(lc.guard.backoff_base_s);
  w.WriteF64(lc.guard.backoff_cap_s);
  w.WriteI64(lc.guard.breaker_threshold);
  w.WriteU64(c.seed);
  w.WriteI64(c.threads);
  w.WriteF64(config.sample_period_s);
  w.WriteF64(config.reinflate_period_s);
  w.WriteBool(config.predictive_holdback);
  w.WriteF64(config.predictor_alpha);
  w.WriteU64(config.fault_plan.seed);
  w.WriteU64(config.fault_plan.rules.size());
  for (const FaultRule& rule : config.fault_plan.rules) {
    w.WriteU8(static_cast<uint8_t>(rule.kind));
    w.WriteI64(rule.vm);
    w.WriteI64(rule.server);
    w.WriteF64(rule.probability);
    w.WriteF64(rule.magnitude);
    w.WriteF64(rule.start_s);
    w.WriteF64(rule.end_s);
    w.WriteI64(rule.max_count);
  }
  w.WriteF64(config.recovery_grace_s);
  // Format v2: the diurnal/bursty arrival generator parameters.
  const ArrivalGenConfig& a = config.arrivals;
  w.WriteBool(a.enabled);
  w.WriteF64(a.diurnal_amplitude);
  w.WriteF64(a.diurnal_period_s);
  w.WriteF64(a.diurnal_phase_s);
  w.WriteF64(a.burst_rate_per_s);
  w.WriteF64(a.burst_duration_s);
  w.WriteF64(a.burst_multiplier);
  w.WriteU64(a.seed);
  // Format v4: the interactive-serving workload mix + SLO controller.
  const InteractiveSloConfig& i = config.interactive;
  w.WriteBool(i.enabled);
  w.WriteF64(i.fraction);
  w.WriteU64(i.seed);
  w.WriteF64(i.slo_p99_ms);
  w.WriteBool(i.slo_aware);
  w.WriteF64(i.control_period_s);
  w.WriteF64(i.rate_rps_per_cpu);
  w.WriteF64(i.rate_amplitude);
  w.WriteF64(i.rate_period_s);
  w.WriteF64(i.latency.base_service_us);
  w.WriteF64(i.latency.knee_fraction);
  w.WriteF64(i.latency.graceful_slope);
  w.WriteF64(i.latency.cliff_power);
  w.WriteF64(i.latency.cliff_scale);
  w.WriteF64(i.latency.max_utilization);
}

ClusterSimConfig ReadConfig(SnapshotReader& r) {
  ClusterSimConfig config;
  config.num_servers = static_cast<int>(r.ReadI64());
  config.server_capacity = ReadResourceVector(r);
  TraceConfig& t = config.trace;
  t.duration_s = r.ReadF64();
  t.arrival_rate_per_s = r.ReadF64();
  t.lifetime_alpha = r.ReadF64();
  t.min_lifetime_s = r.ReadF64();
  t.max_lifetime_s = r.ReadF64();
  t.low_priority_fraction = r.ReadF64();
  t.seed = r.ReadU64();
  t.catalog.clear();
  const uint64_t catalog_size = ReadCount(r, 8 * 7, "catalog");
  for (uint64_t i = 0; r.ok() && i < catalog_size; ++i) {
    VmCatalogEntry entry;
    entry.app = r.ReadString();
    entry.size = ReadResourceVector(r);
    entry.min_fraction = r.ReadF64();
    entry.weight = r.ReadF64();
    t.catalog.push_back(std::move(entry));
  }
  ClusterConfig& c = config.cluster;
  c.placement = static_cast<PlacementPolicy>(r.ReadU8());
  c.strategy = static_cast<ReclamationStrategy>(r.ReadU8());
  LocalControllerConfig& lc = c.controller;
  lc.mode = static_cast<DeflationMode>(r.ReadU8());
  lc.latency.swap_out_mbps = r.ReadF64();
  lc.latency.control_loop_overhead = r.ReadF64();
  lc.latency.unplug_cold_mbps = r.ReadF64();
  lc.latency.unplug_freed_mbps = r.ReadF64();
  lc.latency.app_free_mbps = r.ReadF64();
  lc.latency.app_fixed_s = r.ReadF64();
  lc.latency.cpu_unplug_s = r.ReadF64();
  lc.latency.balloon_mbps = r.ReadF64();
  lc.latency.fixed_s = r.ReadF64();
  lc.alpha = r.ReadF64();
  lc.split = static_cast<DeflationSplit>(r.ReadU8());
  lc.deflation_deadline_s = r.ReadF64();
  lc.guard.rpc_timeout_s = r.ReadF64();
  lc.guard.max_attempts = static_cast<int>(r.ReadI64());
  lc.guard.backoff_base_s = r.ReadF64();
  lc.guard.backoff_cap_s = r.ReadF64();
  lc.guard.breaker_threshold = static_cast<int>(r.ReadI64());
  c.seed = r.ReadU64();
  c.threads = static_cast<int>(r.ReadI64());
  config.sample_period_s = r.ReadF64();
  config.reinflate_period_s = r.ReadF64();
  config.predictive_holdback = r.ReadBool();
  config.predictor_alpha = r.ReadF64();
  config.fault_plan.seed = r.ReadU64();
  const uint64_t num_rules = ReadCount(r, 1 + 8 * 7, "fault rule");
  for (uint64_t i = 0; r.ok() && i < num_rules; ++i) {
    FaultRule rule;
    const uint8_t kind = r.ReadU8();
    if (kind >= kNumFaultKinds) {
      r.Fail("snapshot fault kind byte " + std::to_string(kind) +
             " is out of range");
      break;
    }
    rule.kind = static_cast<FaultKind>(kind);
    rule.vm = r.ReadI64();
    rule.server = r.ReadI64();
    rule.probability = r.ReadF64();
    rule.magnitude = r.ReadF64();
    rule.start_s = r.ReadF64();
    rule.end_s = r.ReadF64();
    rule.max_count = r.ReadI64();
    config.fault_plan.rules.push_back(rule);
  }
  config.recovery_grace_s = r.ReadF64();
  ArrivalGenConfig& a = config.arrivals;
  a.enabled = r.ReadBool();
  a.diurnal_amplitude = r.ReadF64();
  a.diurnal_period_s = r.ReadF64();
  a.diurnal_phase_s = r.ReadF64();
  a.burst_rate_per_s = r.ReadF64();
  a.burst_duration_s = r.ReadF64();
  a.burst_multiplier = r.ReadF64();
  a.seed = r.ReadU64();
  InteractiveSloConfig& i = config.interactive;
  i.enabled = r.ReadBool();
  i.fraction = r.ReadF64();
  i.seed = r.ReadU64();
  i.slo_p99_ms = r.ReadF64();
  i.slo_aware = r.ReadBool();
  i.control_period_s = r.ReadF64();
  i.rate_rps_per_cpu = r.ReadF64();
  i.rate_amplitude = r.ReadF64();
  i.rate_period_s = r.ReadF64();
  i.latency.base_service_us = r.ReadF64();
  i.latency.knee_fraction = r.ReadF64();
  i.latency.graceful_slope = r.ReadF64();
  i.latency.cliff_power = r.ReadF64();
  i.latency.cliff_scale = r.ReadF64();
  i.latency.max_utilization = r.ReadF64();
  return config;
}

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
        // The VM may have been preempted in the meantime; completing a
        // missing VM is a no-op.
        if (manager->FindVm(entry.payload) != nullptr) {
          manager->CompleteVm(entry.payload);
        }
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

  WriteConfig(w, s.config);

  // A config-generated trace is deterministic from the TraceConfig just
  // serialized, so only its length and checksum go into the snapshot; the
  // restore side regenerates and verifies (or adopts a hint that matches
  // both). Explicit traces (replay files, bench harnesses) have no
  // generator to rerun and are inlined in full.
  w.WriteBool(s.trace_generated);
  w.WriteU64(s.trace->events.size());
  w.WriteU64(s.trace->fnv);
  if (!s.trace_generated) {
    for (const TraceEvent& event : s.trace->events) {
      WriteTraceEvent(w, event);
    }
  }

  w.WriteF64(s.now);
  w.WriteI64(s.next_seq);
  w.WriteI64(s.events_executed);

  // Canonical queue image: sorted by (when, seq), independent of the heap's
  // internal array layout, so identical logical states snapshot to identical
  // bytes. Strictly-future VM arrivals are elided: arrival i was pushed at
  // Open with when = trace[i].arrival_s and seq = |fault timeline| + i and is
  // never re-pushed, so the restore side rebuilds them from the trace.
  // Arrivals AT `now` (an event-boundary snapshot can leave same-instant
  // stragglers unexecuted) are the only ones written out.
  std::vector<QueueEntry> entries;
  entries.reserve(s.queue.size());
  for (const QueueEntry& entry : s.queue) {
    if (entry.kind == SimEventKind::kVmArrival && entry.when > s.now) {
      continue;
    }
    entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              return a.seq < b.seq;
            });
  w.WriteU64(entries.size());
  for (const QueueEntry& entry : entries) {
    w.WriteF64(entry.when);
    w.WriteI64(entry.seq);
    w.WriteU8(static_cast<uint8_t>(entry.kind));
    w.WriteI64(entry.payload);
  }

  const std::array<uint64_t, 4> rng = s.manager->SaveRngState();
  for (const uint64_t word : rng) {
    w.WriteU64(word);
  }
  const std::vector<ServerHealth>& health = s.manager->health_states();
  w.WriteU64(health.size());
  for (const ServerHealth h : health) {
    w.WriteU8(static_cast<uint8_t>(h));
  }
  const std::vector<VmId>& preempted = s.manager->pending_preempted();
  w.WriteU64(preempted.size());
  for (const VmId id : preempted) {
    w.WriteI64(id);
  }
  std::vector<Server*> servers = s.manager->servers();
  w.WriteU64(servers.size());
  for (Server* server : servers) {
    w.WriteU64(server->vm_count());
    for (const auto& vm : server->vms()) {
      w.WriteI64(vm->id());
      WriteVmSpec(w, vm->spec());
      WriteResourceVector(w, vm->hv_reclaimed());
      const GuestOs& guest = vm->guest_os();
      WriteResourceVector(w, guest.unplugged());
      w.WriteF64(guest.balloon_mb());
      w.WriteF64(guest.app_used_mb());
      w.WriteF64(guest.page_cache_mb());
      w.WriteI64(guest.pinned_cpus());
    }
  }

  w.WriteBool(s.injector != nullptr);
  if (s.injector != nullptr) {
    const FaultInjector::State fstate = s.injector->ExportState();
    w.WriteU64(fstate.site_draws.size());
    for (const auto& [kind, vm, server, draws] : fstate.site_draws) {
      w.WriteU8(kind);
      w.WriteI64(vm);
      w.WriteI64(server);
      w.WriteU64(draws);
    }
    w.WriteU64(fstate.rule_fires.size());
    for (const int64_t fires : fstate.rule_fires) {
      w.WriteI64(fires);
    }
    for (const int64_t count : fstate.injected) {
      w.WriteI64(count);
    }
  }

  w.WriteBool(s.predictor.initialized());
  w.WriteF64(s.predictor.mean());
  w.WriteF64(s.predictor.variance());

  w.WriteBool(s.telemetry->trace().enabled());
  const MetricsRegistry::State mstate = s.telemetry->metrics().ExportState();
  w.WriteU64(mstate.counters.size());
  for (const auto& [name, value] : mstate.counters) {
    w.WriteString(name);
    w.WriteI64(value);
  }
  w.WriteU64(mstate.gauges.size());
  for (const auto& [name, value] : mstate.gauges) {
    w.WriteString(name);
    w.WriteF64(value);
  }
  w.WriteU64(mstate.distributions.size());
  for (const MetricsRegistry::DistributionState& d : mstate.distributions) {
    w.WriteString(d.name);
    w.WriteI64(d.count);
    w.WriteF64(d.mean);
    w.WriteF64(d.m2);
    w.WriteF64(d.min);
    w.WriteF64(d.max);
    w.WriteF64(d.sum);
    w.WriteBool(d.has_histogram);
    if (d.has_histogram) {
      w.WriteU64(d.hist_counts.size());
      for (const int64_t count : d.hist_counts) {
        w.WriteI64(count);
      }
      w.WriteI64(d.hist_total);
      w.WriteI64(d.hist_dropped);
    }
  }
  w.WriteU64(mstate.series.size());
  for (const auto& [name, points] : mstate.series) {
    w.WriteString(name);
    w.WriteU64(points.size());
    for (const MetricsRegistry::TimePoint& point : points) {
      w.WriteF64(point.time);
      w.WriteF64(point.value);
    }
  }
  const TraceEventView events = s.telemetry->trace().events();
  w.WriteU64(events.size());
  for (const TraceEventRecord& event : events) {
    w.WriteF64(event.time);
    w.WriteU8(static_cast<uint8_t>(event.kind));
    w.WriteU8(static_cast<uint8_t>(event.layer));
    w.WriteI64(event.vm);
    w.WriteI64(event.server);
    WriteResourceVector(w, event.target);
    WriteResourceVector(w, event.reclaimed);
    w.WriteI64(event.outcome);
  }

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

  ClusterSimConfig config = ReadConfig(r);
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

  const bool trace_generated = r.ReadBool();
  if (trace_generated) {
    // The trace was elided: the session must run on exactly the arrivals the
    // original session used, proven by the stored length/checksum. Pending
    // arrival events index into this list, so a generator that drifted
    // across builds must fail the restore, not corrupt it. A hinted trace
    // that passes the same test is adopted as is; anything else reruns the
    // generator and verifies its output.
    const uint64_t trace_size = r.ReadU64();
    const uint64_t trace_fnv = r.ReadU64();
    if (r.ok()) {
      s.trace_generated = true;
      const std::shared_ptr<const ArrivalTrace>& hint = options.trace;
      if (hint != nullptr && hint->events.size() == trace_size &&
          hint->fnv == trace_fnv) {
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
        if (s.trace->events.size() != trace_size || s.trace->fnv != trace_fnv) {
          r.Fail("snapshot's elided arrival trace cannot be regenerated: the "
                 "generator produced " +
                 std::to_string(s.trace->events.size()) +
                 " arrivals, snapshot recorded " + std::to_string(trace_size) +
                 " (checksum " +
                 (s.trace->fnv == trace_fnv ? "matches" : "differs") + ")");
        }
      }
    }
  } else {
    const uint64_t trace_size = ReadCount(r, 8 * 2, "trace event");
    const uint64_t trace_fnv = r.ReadU64();
    std::vector<TraceEvent> events;
    events.reserve(static_cast<size_t>(trace_size));
    for (uint64_t i = 0; r.ok() && i < trace_size; ++i) {
      TraceEvent event;
      event.arrival_s = r.ReadF64();
      event.lifetime_s = r.ReadF64();
      event.spec = ReadVmSpec(r);
      events.push_back(std::move(event));
    }
    // An explicit trace must never be re-sampled: pending arrival events
    // index into exactly this materialized list.
    s.config.explicit_trace = events;
    s.trace = FreezeTrace(std::move(events));
    if (r.ok() && s.trace->fnv != trace_fnv) {
      r.Fail("snapshot's inlined arrival trace fails its checksum");
    }
  }

  s.now = r.ReadF64();
  s.next_seq = r.ReadI64();
  s.events_executed = r.ReadI64();

  const uint64_t queue_size = ReadCount(r, 8 * 3 + 1, "queue entry");
  s.queue.reserve(static_cast<size_t>(queue_size));
  for (uint64_t i = 0; r.ok() && i < queue_size; ++i) {
    QueueEntry entry;
    entry.when = r.ReadF64();
    entry.seq = r.ReadI64();
    const uint8_t kind = r.ReadU8();
    entry.payload = r.ReadI64();
    if (kind > kMaxEventKind) {
      r.Fail("snapshot queue entry kind byte " + std::to_string(kind) +
             " is out of range");
      break;
    }
    entry.kind = static_cast<SimEventKind>(kind);
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
      break;
    }
    s.queue.push_back(entry);
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

  std::array<uint64_t, 4> rng;
  for (uint64_t& word : rng) {
    word = r.ReadU64();
  }
  s.manager->RestoreRngState(rng);

  const uint64_t health_size = ReadCount(r, 1, "server health");
  std::vector<ServerHealth> health;
  health.reserve(static_cast<size_t>(health_size));
  for (uint64_t i = 0; r.ok() && i < health_size; ++i) {
    const uint8_t h = r.ReadU8();
    if (h > static_cast<uint8_t>(ServerHealth::kRecovering)) {
      r.Fail("snapshot server health byte " + std::to_string(h) +
             " is out of range");
      break;
    }
    health.push_back(static_cast<ServerHealth>(h));
  }
  if (r.ok() && !s.manager->RestoreHealthStates(health)) {
    r.Fail("snapshot has " + std::to_string(health.size()) +
           " server health entries for " + std::to_string(config.num_servers) +
           " servers");
  }

  const uint64_t preempted_size = ReadCount(r, 8, "pending preemption");
  std::vector<VmId> preempted;
  preempted.reserve(static_cast<size_t>(preempted_size));
  for (uint64_t i = 0; r.ok() && i < preempted_size; ++i) {
    preempted.push_back(r.ReadI64());
  }
  s.manager->RestorePreempted(std::move(preempted));

  const uint64_t server_count = ReadCount(r, 8, "server");
  if (r.ok() && server_count != static_cast<uint64_t>(config.num_servers)) {
    r.Fail("snapshot has " + std::to_string(server_count) +
           " server sections for " + std::to_string(config.num_servers) +
           " servers");
  }
  for (uint64_t server_id = 0; r.ok() && server_id < server_count; ++server_id) {
    const uint64_t vm_count = ReadCount(r, 8, "hosted VM");
    for (uint64_t i = 0; r.ok() && i < vm_count; ++i) {
      const VmId id = r.ReadI64();
      VmSpec spec = ReadVmSpec(r);
      const ResourceVector hv_reclaimed = ReadResourceVector(r);
      const ResourceVector unplugged = ReadResourceVector(r);
      const double balloon_mb = r.ReadF64();
      const double app_used_mb = r.ReadF64();
      const double page_cache_mb = r.ReadF64();
      const int64_t pinned_cpus = r.ReadI64();
      if (!r.ok()) {
        break;
      }
      // Reinstate the VM exactly as it was -- direct state injection, no
      // TryUnplug/HvReclaim replay (those would consume RNG/fault draws the
      // snapshotting run already took). Adoption in (server, hosting) order
      // replays the admission order, so per-server accounting caches
      // recompute to the exact same folds.
      auto vm = std::make_unique<Vm>(id, std::move(spec));
      vm->guest_os().set_app_used_mb(app_used_mb);
      vm->guest_os().set_page_cache_mb(page_cache_mb);
      vm->guest_os().set_pinned_cpus(static_cast<int>(pinned_cpus));
      vm->guest_os().RestoreDeflationState(unplugged, balloon_mb);
      vm->RestoreHvReclaimed(hv_reclaimed);
      s.manager->AdoptVm(std::move(vm), static_cast<ServerId>(server_id));
    }
  }

  const bool has_injector = r.ReadBool();
  if (r.ok() && has_injector != (s.injector != nullptr)) {
    r.Fail("snapshot fault-injector presence does not match its fault plan");
  }
  if (r.ok() && has_injector) {
    FaultInjector::State fstate;
    const uint64_t site_count = ReadCount(r, 1 + 8 * 3, "fault site");
    fstate.site_draws.reserve(static_cast<size_t>(site_count));
    for (uint64_t i = 0; r.ok() && i < site_count; ++i) {
      const uint8_t kind = r.ReadU8();
      const int64_t vm = r.ReadI64();
      const int64_t server = r.ReadI64();
      const uint64_t draws = r.ReadU64();
      fstate.site_draws.emplace_back(kind, vm, server, draws);
    }
    const uint64_t fire_count = ReadCount(r, 8, "rule fire");
    fstate.rule_fires.reserve(static_cast<size_t>(fire_count));
    for (uint64_t i = 0; r.ok() && i < fire_count; ++i) {
      fstate.rule_fires.push_back(r.ReadI64());
    }
    for (int64_t& count : fstate.injected) {
      count = r.ReadI64();
    }
    if (r.ok()) {
      const Result<bool> imported = s.injector->ImportState(fstate);
      if (!imported.ok()) {
        r.Fail(imported.error());
      }
    }
  }

  const bool predictor_initialized = r.ReadBool();
  const double predictor_mean = r.ReadF64();
  const double predictor_var = r.ReadF64();
  s.predictor.RestoreState(predictor_initialized, predictor_mean, predictor_var);

  const bool trace_enabled = r.ReadBool();
  MetricsRegistry::State mstate;
  const uint64_t counter_count = ReadCount(r, 8 * 2, "counter");
  for (uint64_t i = 0; r.ok() && i < counter_count; ++i) {
    std::string name = r.ReadString();
    const int64_t value = r.ReadI64();
    mstate.counters.emplace_back(std::move(name), value);
  }
  const uint64_t gauge_count = ReadCount(r, 8 * 2, "gauge");
  for (uint64_t i = 0; r.ok() && i < gauge_count; ++i) {
    std::string name = r.ReadString();
    const double value = r.ReadF64();
    mstate.gauges.emplace_back(std::move(name), value);
  }
  const uint64_t dist_count = ReadCount(r, 8 * 7 + 1, "distribution");
  for (uint64_t i = 0; r.ok() && i < dist_count; ++i) {
    MetricsRegistry::DistributionState d;
    d.name = r.ReadString();
    d.count = r.ReadI64();
    d.mean = r.ReadF64();
    d.m2 = r.ReadF64();
    d.min = r.ReadF64();
    d.max = r.ReadF64();
    d.sum = r.ReadF64();
    d.has_histogram = r.ReadBool();
    if (d.has_histogram) {
      const uint64_t bins = ReadCount(r, 8, "histogram bin");
      d.hist_counts.reserve(static_cast<size_t>(bins));
      for (uint64_t b = 0; r.ok() && b < bins; ++b) {
        d.hist_counts.push_back(r.ReadI64());
      }
      d.hist_total = r.ReadI64();
      d.hist_dropped = r.ReadI64();
    }
    mstate.distributions.push_back(std::move(d));
  }
  const uint64_t series_count = ReadCount(r, 8 * 2, "series");
  for (uint64_t i = 0; r.ok() && i < series_count; ++i) {
    std::string name = r.ReadString();
    const uint64_t point_count = ReadCount(r, 8 * 2, "series point");
    std::vector<MetricsRegistry::TimePoint> points;
    points.reserve(static_cast<size_t>(point_count));
    for (uint64_t p = 0; r.ok() && p < point_count; ++p) {
      MetricsRegistry::TimePoint point;
      point.time = r.ReadF64();
      point.value = r.ReadF64();
      points.push_back(point);
    }
    mstate.series.emplace_back(std::move(name), std::move(points));
  }
  if (r.ok()) {
    // Wholesale value overwrite: erases the junk telemetry the adoption path
    // emitted above and reinstates every counter/gauge/distribution/series
    // exactly. Rejects a registry whose layout differs from the snapshot
    // (e.g. a RestoreOptions::telemetry context that was not fresh).
    const Result<bool> imported = s.telemetry->metrics().ImportState(mstate);
    if (!imported.ok()) {
      r.Fail(imported.error());
    }
  }

  const uint64_t event_count = ReadCount(r, 8 * 12 + 2, "trace record");
  std::vector<TraceEventRecord> events;
  events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; r.ok() && i < event_count; ++i) {
    TraceEventRecord event;
    event.time = r.ReadF64();
    event.kind = static_cast<TraceEventKind>(r.ReadU8());
    event.layer = static_cast<CascadeLayer>(r.ReadU8());
    event.vm = r.ReadI64();
    event.server = r.ReadI64();
    event.target = ReadResourceVector(r);
    event.reclaimed = ReadResourceVector(r);
    event.outcome = static_cast<int32_t>(r.ReadI64());
    events.push_back(event);
  }
  if (r.ok()) {
    s.telemetry->trace().set_enabled(trace_enabled);
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
