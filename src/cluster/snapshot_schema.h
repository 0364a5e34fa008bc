// The SimSession snapshot schema, format v4 (DESIGN.md §11): one Fields()
// per serialized struct, naming its fields once in byte order. The archives
// in src/sim/snapshot_archive.h turn each list into the writer, the
// validating reader and the digest. A field added to one of these structs
// is serialized only once it is listed here, and the snapshot digests in
// tests/golden/snapshot_digests.txt pin the resulting bytes.
#ifndef SRC_CLUSTER_SNAPSHOT_SCHEMA_H_
#define SRC_CLUSTER_SNAPSHOT_SCHEMA_H_

#include "src/cluster/cluster_sim.h"
#include "src/faults/fault_injector.h"
#include "src/sim/snapshot_archive.h"
#include "src/telemetry/event_trace.h"
#include "src/telemetry/metrics.h"

namespace defl {

template <class Ar>
void Fields(Ar& ar, ResourceVector& v) {
  for (const ResourceKind kind : kAllResources) {
    ar.F64(ResourceKindName(kind), v[kind]);
  }
}

template <class Ar>
void Fields(Ar& ar, VmSpec& s) {
  ar.Str("name", s.name);
  ar.Nest("size", s.size);
  ar.Enum("priority", s.priority, VmPriority::kLow);
  ar.Nest("min_size", s.min_size);
}

// Also the unit TraceFnv checksums a trace by.
template <class Ar>
void Fields(Ar& ar, TraceEvent& e) {
  ar.F64("arrival_s", e.arrival_s);
  ar.F64("lifetime_s", e.lifetime_s);
  ar.Nest("spec", e.spec);
}

template <class Ar>
void Fields(Ar& ar, VmCatalogEntry& e) {
  ar.Str("app", e.app);
  ar.Nest("size", e.size);
  ar.F64("min_fraction", e.min_fraction);
  ar.F64("weight", e.weight);
}

template <class Ar>
void Fields(Ar& ar, TraceConfig& t) {
  ar.F64("duration_s", t.duration_s);
  ar.F64("arrival_rate_per_s", t.arrival_rate_per_s);
  ar.F64("lifetime_alpha", t.lifetime_alpha);
  ar.F64("min_lifetime_s", t.min_lifetime_s);
  ar.F64("max_lifetime_s", t.max_lifetime_s);
  ar.F64("low_priority_fraction", t.low_priority_fraction);
  ar.U64("seed", t.seed);
  ar.Vec("catalog", t.catalog, 8 * 7);
}

template <class Ar>
void Fields(Ar& ar, LatencyParams& l) {
  ar.F64("swap_out_mbps", l.swap_out_mbps);
  ar.F64("control_loop_overhead", l.control_loop_overhead);
  ar.F64("unplug_cold_mbps", l.unplug_cold_mbps);
  ar.F64("unplug_freed_mbps", l.unplug_freed_mbps);
  ar.F64("app_free_mbps", l.app_free_mbps);
  ar.F64("app_fixed_s", l.app_fixed_s);
  ar.F64("cpu_unplug_s", l.cpu_unplug_s);
  ar.F64("balloon_mbps", l.balloon_mbps);
  ar.F64("fixed_s", l.fixed_s);
}

template <class Ar>
void Fields(Ar& ar, AgentGuardConfig& g) {
  ar.F64("rpc_timeout_s", g.rpc_timeout_s);
  ar.Int("max_attempts", g.max_attempts);
  ar.F64("backoff_base_s", g.backoff_base_s);
  ar.F64("backoff_cap_s", g.backoff_cap_s);
  ar.Int("breaker_threshold", g.breaker_threshold);
}

template <class Ar>
void Fields(Ar& ar, LocalControllerConfig& c) {
  ar.Enum("mode", c.mode, DeflationMode::kBalloonLevel);
  ar.Nest("latency", c.latency);
  ar.F64("alpha", c.alpha);
  ar.Enum("split", c.split, DeflationSplit::kEqual);
  ar.F64("deflation_deadline_s", c.deflation_deadline_s);
  ar.Nest("guard", c.guard);
}

template <class Ar>
void Fields(Ar& ar, ClusterConfig& c) {
  ar.Enum("placement", c.placement, PlacementPolicy::kTwoChoices);
  ar.Enum("strategy", c.strategy, ReclamationStrategy::kPreemptionOnly);
  ar.Nest("controller", c.controller);
  ar.U64("seed", c.seed);
  ar.Int("threads", c.threads);
}

template <class Ar>
void Fields(Ar& ar, FaultRule& r) {
  ar.Enum("kind", r.kind, static_cast<FaultKind>(kNumFaultKinds - 1));
  ar.I64("vm", r.vm);
  ar.I64("server", r.server);
  ar.F64("probability", r.probability);
  ar.F64("magnitude", r.magnitude);
  ar.F64("start_s", r.start_s);
  ar.F64("end_s", r.end_s);
  ar.I64("max_count", r.max_count);
}

template <class Ar>
void Fields(Ar& ar, FaultPlan& p) {
  ar.U64("seed", p.seed);
  ar.Vec("rules", p.rules, 1 + 8 * 7);
}

// Format v2.
template <class Ar>
void Fields(Ar& ar, ArrivalGenConfig& a) {
  ar.Bool("enabled", a.enabled);
  ar.F64("diurnal_amplitude", a.diurnal_amplitude);
  ar.F64("diurnal_period_s", a.diurnal_period_s);
  ar.F64("diurnal_phase_s", a.diurnal_phase_s);
  ar.F64("burst_rate_per_s", a.burst_rate_per_s);
  ar.F64("burst_duration_s", a.burst_duration_s);
  ar.F64("burst_multiplier", a.burst_multiplier);
  ar.U64("seed", a.seed);
}

template <class Ar>
void Fields(Ar& ar, WebLatencyParams& l) {
  ar.F64("base_service_us", l.base_service_us);
  ar.F64("knee_fraction", l.knee_fraction);
  ar.F64("graceful_slope", l.graceful_slope);
  ar.F64("cliff_power", l.cliff_power);
  ar.F64("cliff_scale", l.cliff_scale);
  ar.F64("max_utilization", l.max_utilization);
}

// Format v4.
template <class Ar>
void Fields(Ar& ar, InteractiveSloConfig& i) {
  ar.Bool("enabled", i.enabled);
  ar.F64("fraction", i.fraction);
  ar.U64("seed", i.seed);
  ar.F64("slo_p99_ms", i.slo_p99_ms);
  ar.Bool("slo_aware", i.slo_aware);
  ar.F64("control_period_s", i.control_period_s);
  ar.F64("rate_rps_per_cpu", i.rate_rps_per_cpu);
  ar.F64("rate_amplitude", i.rate_amplitude);
  ar.F64("rate_period_s", i.rate_period_s);
  ar.Nest("latency", i.latency);
}

// Not serialized: explicit_trace (a snapshot inlines the trace itself when
// there is one) and telemetry (Restore takes its own sink).
template <class Ar>
void Fields(Ar& ar, ClusterSimConfig& c) {
  // Each server costs the payload at least a health byte and a u64 VM count,
  // so the reader bounds the count before BuildCore allocates any Server.
  ar.Int("num_servers", c.num_servers, 1 + 8);
  ar.Nest("server_capacity", c.server_capacity);
  ar.Nest("trace", c.trace);
  ar.Nest("cluster", c.cluster);
  ar.F64("sample_period_s", c.sample_period_s);
  ar.F64("reinflate_period_s", c.reinflate_period_s);
  ar.Bool("predictive_holdback", c.predictive_holdback);
  ar.F64("predictor_alpha", c.predictor_alpha);
  ar.Nest("fault_plan", c.fault_plan);
  ar.F64("recovery_grace_s", c.recovery_grace_s);
  ar.Nest("arrivals", c.arrivals);
  ar.Nest("interactive", c.interactive);
}

template <class Ar>
void Fields(Ar& ar, FaultInjector::State& s) {
  ar.Vec("site_draws", s.site_draws, 1 + 8 * 3, [&ar](auto& site) {
    ar.U8("kind", std::get<0>(site));
    ar.I64("vm", std::get<1>(site));
    ar.I64("server", std::get<2>(site));
    ar.U64("draws", std::get<3>(site));
  });
  ar.Vec("rule_fires", s.rule_fires, 8, [&ar](auto& n) { ar.I64("fires", n); });
  for (auto& n : s.injected) {
    ar.I64("injected", n);
  }
}

template <class Ar>
void Fields(Ar& ar, MetricsRegistry::TimePoint& p) {
  ar.F64("time", p.time);
  ar.F64("value", p.value);
}

template <class Ar>
void Fields(Ar& ar, MetricsRegistry::DistributionState& d) {
  ar.Str("name", d.name);
  ar.I64("count", d.count);
  ar.F64("mean", d.mean);
  ar.F64("m2", d.m2);
  ar.F64("min", d.min);
  ar.F64("max", d.max);
  ar.F64("sum", d.sum);
  ar.Bool("has_histogram", d.has_histogram);
  if (d.has_histogram) {
    ar.Vec("hist_counts", d.hist_counts, 8, [&ar](auto& n) { ar.I64("count", n); });
    ar.I64("hist_total", d.hist_total);
    ar.I64("hist_dropped", d.hist_dropped);
  }
}

template <class Ar>
void Fields(Ar& ar, MetricsRegistry::State& s) {
  ar.Vec("counters", s.counters, 8 * 2, [&ar](auto& c) {
    ar.Str("name", c.first);
    ar.I64("value", c.second);
  });
  ar.Vec("gauges", s.gauges, 8 * 2, [&ar](auto& g) {
    ar.Str("name", g.first);
    ar.F64("value", g.second);
  });
  ar.Vec("distributions", s.distributions, 8 * 7 + 1);
  ar.Vec("series", s.series, 8 * 2, [&ar](auto& series) {
    ar.Str("name", series.first);
    ar.Vec("points", series.second, 8 * 2);
  });
}

template <class Ar>
void Fields(Ar& ar, TraceEventRecord& e) {
  ar.F64("time", e.time);
  ar.Enum("kind", e.kind, TraceEventKind::kServerRecover);
  ar.Enum("layer", e.layer, CascadeLayer::kHypervisor);
  ar.I64("vm", e.vm);
  ar.I64("server", e.server);
  ar.Nest("target", e.target);
  ar.Nest("reclaimed", e.reclaimed);
  ar.Int("outcome", e.outcome);
}

}  // namespace defl

#endif  // SRC_CLUSTER_SNAPSHOT_SCHEMA_H_
