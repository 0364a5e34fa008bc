// Trace-driven cluster simulation (the Section 6.3 methodology): replay a
// VM arrival/lifetime trace through the cluster manager and measure
// utilization, overcommitment, and the probability that a low-priority VM
// is preempted -- with deflation-based or preemption-only reclamation.
#ifndef SRC_CLUSTER_CLUSTER_SIM_H_
#define SRC_CLUSTER_CLUSTER_SIM_H_

#include <cstdint>
#include <vector>

#include "src/apps/web_cluster.h"
#include "src/cluster/cluster_manager.h"
#include "src/cluster/pricing.h"
#include "src/cluster/trace.h"
#include "src/faults/fault_plan.h"

namespace defl {

// Interactive-serving workload mix (ROADMAP item 3, the Fuerst/Shenoy
// follow-up question): a fraction of low-priority arrivals are web VMs
// serving an open-loop diurnal request stream. A periodic SLO controller
// evaluates each web VM's p99 against the fig5-style latency model
// (WebLatencyParams) and -- when slo_aware -- relieves violating VMs by
// deflating batch/spark co-tenants and reinflating the web VM, as an
// alternative to the EuroSys uniform-proportional policies.
struct InteractiveSloConfig {
  bool enabled = false;
  // Fraction of low-priority trace arrivals re-tagged as interactive web
  // VMs (seeded, deterministic; explicit traces tag by "web" name prefix).
  double fraction = 0.3;
  uint64_t seed = 21;
  // Tail-latency target for interactive VMs, in milliseconds.
  double slo_p99_ms = 100.0;
  // true: the SLO-aware controller (prefer batch victims, reinflate web VMs
  // on SLO pressure); false: measure violations only and leave reclamation
  // to the uniform policies (the paper's baseline).
  bool slo_aware = true;
  double control_period_s = 60.0;
  // Open-loop request generator: per-VM offered load in requests/s is
  // rate_rps_per_cpu * nominal_cpus * (1 + amplitude*sin(2*pi*(t+phase)/T))
  // with a per-VM deterministic phase (millions of users in aggregate).
  double rate_rps_per_cpu = 30.0;
  double rate_amplitude = 0.6;
  double rate_period_s = 24.0 * 3600.0;
  WebLatencyParams latency;
};

struct ClusterSimConfig {
  int num_servers = 100;
  ResourceVector server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  TraceConfig trace;
  // When enabled, arrivals come from the diurnal/bursty generator
  // (GenerateDiurnalTrace) instead of the flat-rate Poisson process;
  // trace.arrival_rate_per_s remains the mean rate, so WithTargetLoad
  // composes unchanged. Ignored when explicit_trace is set.
  ArrivalGenConfig arrivals;
  // When non-empty, replayed instead of generating from `trace` (the paper
  // replays the Eucalyptus traces this way); `trace.duration_s` still bounds
  // the simulated horizon.
  std::vector<TraceEvent> explicit_trace;
  ClusterConfig cluster;
  double sample_period_s = 300.0;
  // Proactive reinflation: every period, servers return free resources to
  // their deflated VMs (0 = only reinflate when a VM completes, the paper's
  // baseline behavior).
  double reinflate_period_s = 0.0;
  // With predictive holdback (§7 future work), the reinflation loop keeps
  // back an EWMA-forecast of imminent high-priority demand growth instead of
  // reinflating everything and re-deflating moments later.
  bool predictive_holdback = false;
  double predictor_alpha = 0.2;
  // Failure injection (DESIGN.md §8). Rules with no effect in a cluster run
  // are ignored; server_crash/server_degrade/server_recover rules become
  // scheduled health transitions. An empty plan disables injection entirely
  // (and keeps the telemetry output byte-identical to a faultless build).
  FaultPlan fault_plan;
  // How long a recovered server stays on probation (kRecovering, excluded
  // from placement) before being promoted back to kHealthy.
  double recovery_grace_s = 600.0;
  // Interactive-serving workload mix + SLO controller (off by default; when
  // disabled the run is byte-identical to builds without the feature).
  InteractiveSloConfig interactive;
  // Telemetry sink: the run publishes every metric and trace event through
  // it and derives all result fields from it. nullptr = the session
  // owns a private context with the event trace disabled. Not part of the
  // serialized snapshot state; Restore() takes its own sink.
  TelemetryContext* telemetry = nullptr;
};

struct ClusterSimResult {
  ClusterCounters counters;
  // Fraction of launched low-priority VMs that were later revoked.
  double preemption_probability = 0.0;
  // Fraction of all arrivals that could not be placed.
  double rejection_rate = 0.0;
  double mean_utilization = 0.0;      // time-weighted, dominant dimension
  double mean_overcommitment = 0.0;   // time-weighted nominal demand / capacity
  double peak_overcommitment = 0.0;
  // Per-server nominal overcommitment, sampled periodically (Figure 8d).
  std::vector<double> server_overcommitment_samples;
  // Resource-hours delivered, for the §8 pricing models.
  UsageSummary usage;
  // Mean fraction of their nominal size that low-priority VMs actually had
  // (1.0 = never deflated); the "quality" of transient capacity.
  double low_priority_allocation_quality = 0.0;
  // Crash fallout, separate from the policy preemptions above: VMs revoked
  // because their server died and nothing else had room do not count against
  // the deflation policy's preemption probability.
  int64_t crash_preemptions = 0;
  int64_t crash_replacements = 0;
  int64_t server_crashes = 0;
  int64_t server_recoveries = 0;
  // Interactive-serving scenario (all zero unless interactive.enabled).
  int64_t interactive_vms = 0;        // arrivals tagged as web VMs
  double slo_violation_rate = 0.0;    // violating checks / total checks
  double slo_mean_p99_ms = 0.0;       // mean observed p99 across checks
  double slo_peak_p99_ms = 0.0;       // worst observed p99
  int64_t slo_reinflate_ops = 0;      // SLO-pressure reinflations of web VMs
  int64_t slo_victim_deflations = 0;  // batch co-tenants deflated to relieve
};

// Batch compatibility wrapper over SimSession (src/cluster/sim_session.h):
// opens a session on `config` and runs it to completion. The cluster manager
// / servers / controllers publish through config.telemetry (or a private
// context with the trace disabled when unset), the sampling loop records the
// cluster/utilization and cluster/overcommitment series, and every
// ClusterSimResult field is derived back from the registry. Drivers that
// want stepping, inspection, or checkpoint/restore use SimSession directly.
ClusterSimResult RunClusterSim(const ClusterSimConfig& config);

}  // namespace defl

#endif  // SRC_CLUSTER_CLUSTER_SIM_H_
