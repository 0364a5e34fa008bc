// The repository benchmark: one binary that runs a named workload against
// the public entry points of the simulator and the what-if service, checks
// the outputs, and prints one JSON result line.
//
//   perfbench --workload cloud_saturated --seed 1 --seconds 30 --trace 0
//             --work-dir .bench_build/perfbench/work --source-id <commit>
//
// --trace 0 prints the end-to-end metrics (wall clock only, no spans).
// --trace 1 runs the same work untraced and traced, checks that the traced
// run produced identical outcomes, and prints the per-layer
// metrics. Spans are taken here, around the calls into each layer; nothing
// inside src/ is instrumented. README.md in this directory documents the
// workloads, the metrics and how to read them.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/event_labeller.h"
#include "src/cluster/durable_session.h"
#include "src/cluster/placement.h"
#include "src/cluster/sim_session.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/service/query.h"
#include "src/service/whatif.h"
#include "src/sim/snapshot_io.h"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "g++ " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using defl::ClusterSimConfig;
using defl::Result;
using defl::SimSession;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Every stochastic input of a workload derives from the one --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  defl::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.NextU64();
}

// ---------------------------------------------------------------------------
// Checks: a failed check is printed at once and fails the run at the end.

bool g_correct = true;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    g_correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += g_correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// One traced layer boundary: how often it was crossed and the wall time
// spent inside it.
struct Span {
  int64_t count = 0;
  double busy_s = 0.0;
  void Add(double s) {
    ++count;
    busy_s += s;
  }
};

// Per-layer results of a traced run, keyed by the per_layer metric names in
// BENCHMARK.json. Spans expand into "<name>.count" and "<name>.busy_s".
struct LayerReport {
  std::map<std::string, Span> spans;
  std::map<std::string, double> values;
  double covered_s = 0.0;  // summed printed span time, for trace.coverage

  void AddSpan(const std::string& name, double s) {
    spans[name].Add(s);
    covered_s += s;
  }
  // A set-up call timed once and reported as seconds.
  void AddSeconds(const std::string& name, double s) {
    values[name] += s;
    covered_s += s;
  }
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in order. Every traced run prints
// all of them; a layer a workload does not exercise reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"cluster.launch_fit.count", "count"},
    {"cluster.launch_fit.busy_s", "s"},
    {"cluster.launch_deflate.count", "count"},
    {"cluster.launch_deflate.busy_s", "s"},
    {"cluster.launch_preempt.count", "count"},
    {"cluster.launch_preempt.busy_s", "s"},
    {"cluster.launch_reject.count", "count"},
    {"cluster.launch_reject.busy_s", "s"},
    {"cluster.complete.count", "count"},
    {"cluster.complete.busy_s", "s"},
    {"cluster.sample_tick.count", "count"},
    {"cluster.sample_tick.busy_s", "s"},
    {"cluster.reinflate_tick.count", "count"},
    {"cluster.reinflate_tick.busy_s", "s"},
    {"cluster.slo_tick.count", "count"},
    {"cluster.slo_tick.busy_s", "s"},
    {"cluster.other_event.count", "count"},
    {"cluster.other_event.busy_s", "s"},
    {"cluster.placed_ratio", "ratio"},
    {"cluster.probe_free_only.ns_per_row", "ns"},
    {"cluster.probe_deflatable.ns_per_row", "ns"},
    {"cluster.probe_preemptible.ns_per_row", "ns"},
    {"cluster.probe.count", "count"},
    {"cluster.probe.busy_s", "s"},
    {"cluster.probe.feasible_ratio", "ratio"},
    {"cluster.open_s", "s"},
    {"sim.trace_gen_s", "s"},
    {"core.make_room.calls", "count"},
    {"core.make_room.failures", "count"},
    {"core.make_room.useful_ratio", "ratio"},
    {"core.deflate.ops", "count"},
    {"core.deflate.target_missed", "count"},
    {"core.reinflate.ops", "count"},
    {"slo.checks", "count"},
    {"slo.violations", "count"},
    {"slo.victim_deflations", "count"},
    {"sim.durable_create.count", "count"},
    {"sim.durable_create.busy_s", "s"},
    {"sim.durable_step.count", "count"},
    {"sim.durable_step.busy_s", "s"},
    {"sim.checkpoint.count", "count"},
    {"sim.checkpoint.busy_s", "s"},
    {"sim.recover_s", "s"},
    {"sim.snapshot_write.count", "count"},
    {"sim.snapshot_write.busy_s", "s"},
    {"sim.snapshot_bytes", "bytes"},
    {"service.load_s", "s"},
    {"service.restore_child.count", "count"},
    {"service.restore_child.busy_s", "s"},
    {"service.answer_place.count", "count"},
    {"service.answer_place.busy_s", "s"},
    {"service.answer_fail.count", "count"},
    {"service.answer_fail.busy_s", "s"},
    {"service.answer_overcommit.count", "count"},
    {"service.answer_overcommit.busy_s", "s"},
    {"service.answer_run.count", "count"},
    {"service.answer_run.busy_s", "s"},
    {"service.answer_slo.count", "count"},
    {"service.answer_slo.busy_s", "s"},
    {"service.answer_self_s", "s"},
    {"service.error_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

std::vector<Metric> LayerMetrics(const LayerReport& report) {
  std::map<std::string, double> flat = report.values;
  for (const auto& [name, span] : report.spans) {
    flat[name + ".count"] = static_cast<double>(span.count);
    flat[name + ".busy_s"] = span.busy_s;
  }
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = flat.find(m.name);
    out.push_back({m.name, it != flat.end() ? it->second : 0.0, m.unit});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Modelled outcomes. The sim workloads take them from SimSession::Finish();
// the what-if base is read mid-run, where no Finish() result exists.

struct Outcome {
  int64_t launched = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t preempted = 0;
  double preemption_probability = 0.0;
  double rejection_rate = 0.0;
  double mean_utilization = 0.0;
  double allocation_quality = 0.0;
  double slo_violation_rate = 0.0;
  bool operator==(const Outcome&) const = default;
};

Outcome FromResult(const defl::ClusterSimResult& r) {
  Outcome o;
  o.launched = r.counters.launched;
  o.rejected = r.counters.rejected;
  o.completed = r.counters.completed;
  o.preempted = r.counters.preempted;
  o.preemption_probability = r.preemption_probability;
  o.rejection_rate = r.rejection_rate;
  o.mean_utilization = r.mean_utilization;
  o.allocation_quality = r.low_priority_allocation_quality;
  o.slo_violation_rate = r.slo_violation_rate;
  return o;
}

// The recovered what-if base at mid-horizon: the figures Finish() would
// report, read from the registry up to the session's current time.
Outcome ReadBaseOutcome(SimSession& session) {
  const defl::MetricsRegistry& r = session.telemetry().metrics();
  const defl::ClusterCounters c = session.manager().counters();
  Outcome o;
  o.launched = c.launched;
  o.rejected = c.rejected;
  o.completed = c.completed;
  o.preempted = c.preempted;
  o.preemption_probability = Ratio(static_cast<double>(c.preempted),
                                   static_cast<double>(c.launched_low_priority));
  o.rejection_rate = Ratio(static_cast<double>(c.rejected),
                           static_cast<double>(c.launched + c.rejected));
  o.mean_utilization = r.SeriesTimeWeightedMean(
      r.FindSeries("cluster/utilization"), session.now());
  o.allocation_quality =
      r.distribution(r.FindDistribution("cluster/low_pri/allocation_quality"))
          .mean();
  o.slo_violation_rate = Ratio(static_cast<double>(r.CounterValue("slo/violations")),
                               static_cast<double>(r.CounterValue("slo/checks")));
  return o;
}

int64_t LifecycleEvents(const Outcome& o) {
  return o.launched + o.rejected + o.completed + o.preempted;
}

using Counters = std::vector<std::pair<std::string, int64_t>>;

Counters ReadCounters(SimSession& session) {
  return session.telemetry().metrics().ExportState().counters;
}

void AddOutcomeMetrics(const Outcome& o, std::vector<Metric>* out) {
  out->push_back({"preemption_probability", o.preemption_probability, "ratio"});
  out->push_back({"rejection_rate", o.rejection_rate, "ratio"});
  out->push_back({"mean_utilization", o.mean_utilization, "ratio"});
  out->push_back({"allocation_quality", o.allocation_quality, "ratio"});
  out->push_back({"slo_violation_rate", o.slo_violation_rate, "ratio"});
}

// Registry counts of the cluster, core and SLO layers at the end of a
// traced run.
void AddRegistryLayers(SimSession& session, LayerReport* report) {
  const defl::ClusterCounters c = session.manager().counters();
  report->values["cluster.placed_ratio"] = Ratio(
      static_cast<double>(c.launched), static_cast<double>(c.launched + c.rejected));
  const defl::MetricsRegistry& r = session.telemetry().metrics();
  const double calls = static_cast<double>(r.CounterValue("controller/make_room/calls"));
  const double failures =
      static_cast<double>(r.CounterValue("controller/make_room/failures"));
  report->values["core.make_room.calls"] = calls;
  report->values["core.make_room.failures"] = failures;
  report->values["core.make_room.useful_ratio"] = Ratio(calls - failures, calls);
  report->values["core.deflate.ops"] =
      static_cast<double>(r.CounterValue("cascade/deflate/ops"));
  report->values["core.deflate.target_missed"] =
      static_cast<double>(r.CounterValue("cascade/deflate/target_missed"));
  report->values["core.reinflate.ops"] =
      static_cast<double>(r.CounterValue("cascade/reinflate/ops"));
  report->values["slo.checks"] = static_cast<double>(r.CounterValue("slo/checks"));
  report->values["slo.violations"] =
      static_cast<double>(r.CounterValue("slo/violations"));
  report->values["slo.victim_deflations"] =
      static_cast<double>(r.CounterValue("slo/victim_deflations"));
}

// ---------------------------------------------------------------------------
// Workload configurations.

// The examples/interactive.workload mix: diurnal load 1.8, 45% web VMs under
// the slo policy with a p99 target of 80 ms.
ClusterSimConfig InteractiveConfig(uint64_t seed, int servers, double duration_h) {
  ClusterSimConfig c;
  c.num_servers = servers;
  c.server_capacity = defl::ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  c.trace.duration_s = duration_h * 3600.0;
  c.trace.max_lifetime_s = std::min(c.trace.duration_s, 8.0 * 3600.0);
  c.trace.low_priority_fraction = 0.6;
  c.trace.seed = DeriveSeed(seed, 1);
  c.trace = defl::WithTargetLoad(c.trace, 1.8, servers, c.server_capacity);
  c.arrivals.enabled = true;
  c.arrivals.diurnal_amplitude = 0.6;
  c.arrivals.diurnal_period_s = 24.0 * 3600.0;
  c.arrivals.seed = DeriveSeed(seed, 2);
  c.interactive.enabled = true;
  c.interactive.fraction = 0.45;
  c.interactive.seed = DeriveSeed(seed, 3);
  c.interactive.slo_p99_ms = 80.0;
  c.interactive.slo_aware = true;
  c.interactive.control_period_s = 300.0;
  c.interactive.rate_rps_per_cpu = 60.0;
  c.interactive.rate_amplitude = 0.6;
  c.interactive.rate_period_s = 24.0 * 3600.0;
  c.cluster.placement = defl::PlacementPolicy::kTwoChoices;
  c.cluster.seed = DeriveSeed(seed, 4);
  c.cluster.threads = 1;
  c.reinflate_period_s = 300.0;
  return c;
}

constexpr int kCloudServers = 3000;
constexpr double kCloudDurationH = 4.0;

// Many small servers under diurnal arrivals at 1.6x mean load: the fleet
// saturates, so 2-choices keeps falling back to full fleet scans. A diurnal
// amplitude of 0.2 keeps the fleet saturated through the trough (load
// 1.28x-1.92x). At 0.6 the trough emptied the fleet, a 2000-event step took
// either 2-8 ms or 20-35 ms, and query_p50_ms fell on the slope between the
// two and moved from seed to seed by 0.2-0.28 of its median. Four hours:
// over two, the seed alone moved slo_violation_rate by 0.16 of its median
// (0.065 over four). No burst windows: over a 2 h horizon the handful of
// Poisson bursts swung each
// seed's outcomes by more than any bound could allow. Web VMs under the
// measurement-only (uniform) SLO policy give the run a violation rate
// without adding any relief work. One thread: with a second one every
// fallback scan is sharded over the pool, which on 4 shared vCPUs ran 23%
// slower and swung events_per_s from seed to seed by 0.18 of its median
// (0.026 with one thread, runs alternated).
ClusterSimConfig CloudSaturatedConfig(uint64_t seed) {
  ClusterSimConfig c;
  c.num_servers = kCloudServers;
  c.server_capacity = defl::ResourceVector(8.0, 64.0 * 1024.0, 500.0, 5000.0);
  c.trace.duration_s = kCloudDurationH * 3600.0;
  c.trace.max_lifetime_s = 8.0 * 3600.0;
  c.trace.seed = DeriveSeed(seed, 1);
  c.trace = defl::WithTargetLoad(c.trace, 1.6, kCloudServers, c.server_capacity);
  c.arrivals.enabled = true;
  c.arrivals.diurnal_amplitude = 0.2;
  c.arrivals.diurnal_period_s = kCloudDurationH * 3600.0 / 2.0;
  c.arrivals.seed = DeriveSeed(seed, 2);
  c.interactive.enabled = true;
  c.interactive.fraction = 0.3;
  c.interactive.seed = DeriveSeed(seed, 3);
  c.interactive.slo_p99_ms = 40.0;
  c.interactive.slo_aware = false;
  c.interactive.control_period_s = 300.0;
  c.sample_period_s = 900.0;
  c.cluster.placement = defl::PlacementPolicy::kTwoChoices;
  c.cluster.seed = DeriveSeed(seed, 4);
  c.cluster.threads = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Simulation workloads (cloud_saturated, interactive_slo).

// The client-visible request of a simulation run: advance the live session
// by a fixed batch of events. Batches of events, not of simulated time: under
// a diurnal load the work per simulated hour swings between two extremes, so
// a median over time steps fell between them and jumped from seed to seed.
constexpr int64_t kStepEvents = 2000;

struct SimRep {
  double setup_s = 0.0;
  double run_s = 0.0;  // stepping plus Finish()
  std::vector<double> step_ms;
  Outcome outcome;
  Counters counters;
};

SimRep RunSimUntraced(const ClusterSimConfig& config) {
  SimRep rep;
  const Clock::time_point setup_start = Clock::now();
  Result<SimSession> opened = SimSession::Open(config);
  rep.setup_s = Since(setup_start);
  Check(opened.ok(), "SimSession::Open: " + (opened.ok() ? "" : opened.error()));
  if (!opened.ok()) {
    return rep;
  }
  SimSession& session = opened.value();
  const Clock::time_point run_start = Clock::now();
  for (;;) {
    const Clock::time_point step_start = Clock::now();
    const int64_t ran = session.StepEvents(kStepEvents);
    if (ran < kStepEvents) {
      break;  // the partial last batch counts in run_s only
    }
    rep.step_ms.push_back(1e3 * Since(step_start));
  }
  rep.outcome = FromResult(session.Finish());
  rep.run_s = Since(run_start);
  rep.counters = ReadCounters(session);
  return rep;
}

// Fixed probe shapes, as fractions of one server's capacity: a quarter, a
// half and a whole server. The whole-server shape rarely fits on a busy
// fleet, so its free-only probe walks every row -- the saturated case.
constexpr double kProbeFractions[] = {0.25, 0.5, 1.0};

struct ProbeStats {
  std::array<double, 3> ns{};
  std::array<double, 3> rows{};
  int64_t probes = 0;
  int64_t feasible = 0;
};

// First-fit over the eligible rows, the same scan 2-choices falls back to;
// first-fit makes the rows scanned known: up to the hit, or all on a miss.
// The probes run without the thread pool, whatever the session's thread
// count: a sharded scan has every chunk scan to its own first fit, so the
// rows it reads would not be the rows up to the hit.
// The probe draws from its own Rng and places nothing.
void ProbeFleet(SimSession& session, ProbeStats* stats, LayerReport* report) {
  static constexpr defl::AvailabilityMode kModes[] = {
      defl::AvailabilityMode::kFreeOnly,
      defl::AvailabilityMode::kFreePlusDeflatable,
      defl::AvailabilityMode::kFreePlusPreemptible};
  defl::FleetView& fleet = session.manager().fleet();
  std::vector<uint32_t> candidates;
  for (size_t row = 0; row < fleet.size(); ++row) {
    if (fleet.eligible(row)) {
      candidates.push_back(static_cast<uint32_t>(row));
    }
  }
  if (candidates.empty()) {
    return;
  }
  // Bring the mirror up to date first, so ns_per_row measures the scan and
  // not the refresh the next placement would have done anyway. The refresh
  // still counts in the probe span's busy_s.
  const Clock::time_point refresh_start = Clock::now();
  fleet.Refresh();
  const double refresh_s = Since(refresh_start);
  report->spans["cluster.probe"].busy_s += refresh_s;
  report->covered_s += refresh_s;
  defl::Rng rng(1);
  const defl::ResourceVector capacity = session.config().server_capacity;
  for (size_t m = 0; m < 3; ++m) {
    for (const double fraction : kProbeFractions) {
      const Clock::time_point start = Clock::now();
      const Result<size_t> placed =
          defl::PlaceVmFleet(capacity * fraction, fleet, candidates,
                             defl::PlacementPolicy::kFirstFit, rng, kModes[m],
                             /*pool=*/nullptr);
      const double s = Since(start);
      report->AddSpan("cluster.probe", s);
      stats->ns[m] += 1e9 * s;
      stats->rows[m] += placed.ok() ? static_cast<double>(placed.value() + 1)
                                    : static_cast<double>(candidates.size());
      ++stats->probes;
      stats->feasible += placed.ok() ? 1 : 0;
    }
  }
}

void AddProbeMetrics(const ProbeStats& stats, LayerReport* report) {
  static constexpr const char* kNames[] = {
      "cluster.probe_free_only.ns_per_row", "cluster.probe_deflatable.ns_per_row",
      "cluster.probe_preemptible.ns_per_row"};
  for (size_t m = 0; m < 3; ++m) {
    report->values[kNames[m]] = Ratio(stats.ns[m], stats.rows[m]);
  }
  report->values["cluster.probe.feasible_ratio"] =
      Ratio(static_cast<double>(stats.feasible), static_cast<double>(stats.probes));
}

// Steps `session` one event at a time until `done` says stop, putting each
// step's wall time into the span of its label, and probes the fleet after
// every sampling tick. Returns the labeller's per-label counts.
std::array<int64_t, kNumEventLabels> StepTraced(
    SimSession& session, const std::function<bool()>& done, ProbeStats* probes,
    LayerReport* report) {
  EventLabeller labeller(session);
  std::array<Span, kNumEventLabels> spans{};
  while (!done()) {
    const Clock::time_point start = Clock::now();
    const int64_t ran = session.StepEvents(1);
    const double s = Since(start);
    if (ran == 0) {
      break;
    }
    const EventLabel label = labeller.LabelStep();
    spans[static_cast<size_t>(label)].Add(s);
    if (label == EventLabel::kSampleTick) {
      ProbeFleet(session, probes, report);
    }
  }
  for (size_t i = 0; i < kNumEventLabels; ++i) {
    const Span& span = spans[i];
    Span& total = report->spans[EventLabelName(static_cast<EventLabel>(i))];
    total.count += span.count;
    total.busy_s += span.busy_s;
    report->covered_s += span.busy_s;
  }
  return labeller.counts();
}

// The labeller, run from a freshly opened session, is complete when every
// launch lands in one launch_* span, every completion in cluster.complete,
// and every executed event in one span.
void CheckLabels(const std::array<int64_t, kNumEventLabels>& counts,
                 const defl::ClusterCounters& after, int64_t events_executed) {
  auto count = [&](EventLabel l) { return counts[static_cast<size_t>(l)]; };
  const int64_t launches = count(EventLabel::kLaunchFit) +
                           count(EventLabel::kLaunchDeflate) +
                           count(EventLabel::kLaunchPreempt) +
                           count(EventLabel::kLaunchReject);
  int64_t all = 0;
  for (const int64_t c : counts) {
    all += c;
  }
  Check(launches == after.launched + after.rejected,
        "labeller: launch_* spans != launched + rejected");
  Check(count(EventLabel::kComplete) == after.completed,
        "labeller: cluster.complete != completed");
  Check(all == events_executed, "labeller: spans != events executed");
}

struct RunTotals {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Moves the calling thread to each CPU it may use in turn, and back to all of
// them when destroyed. A single-threaded run otherwise stays on the vCPU it
// started on. On a shared host the vCPUs differed in speed by up to a third,
// so a run's median followed the one vCPU it was given: six runs of one seed
// spread by 0.09 of their median events_per_s unrotated, 0.04 rotated.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

RunTotals RunSimWorkload(const ClusterSimConfig& config, double seconds,
                         bool trace, std::vector<Metric>* out) {
  RunTotals totals;
  if (!trace) {
    // Repeat whole runs (set-up included), each on the next CPU, until the
    // time is up, then report medians across them.
    constexpr size_t kMinReps = 3;
    std::vector<SimRep> reps;
    CpuRotation cpus;
    const Clock::time_point start = Clock::now();
    while (reps.size() < kMinReps || Since(start) < seconds) {
      cpus.Next();
      reps.push_back(RunSimUntraced(config));
    }
    std::vector<double> setup_s, events_per_s, queries_per_s, step_ms;
    for (const SimRep& rep : reps) {
      Check(rep.outcome == reps[0].outcome && rep.counters == reps[0].counters,
            "repeated runs of one seed disagree");
      setup_s.push_back(rep.setup_s);
      events_per_s.push_back(
          Ratio(static_cast<double>(LifecycleEvents(rep.outcome)), rep.run_s));
      std::printf("# run: setup %.4f s, %.4f s stepping, %.0f events/s\n",
                  rep.setup_s, rep.run_s, events_per_s.back());
      queries_per_s.push_back(
          Ratio(static_cast<double>(rep.step_ms.size()), rep.run_s));
      step_ms.insert(step_ms.end(), rep.step_ms.begin(), rep.step_ms.end());
      totals.attempted += rep.outcome.launched + rep.outcome.rejected;
    }
    std::printf("# %zu runs, %zu step samples of %lld events\n", reps.size(),
                step_ms.size(), static_cast<long long>(kStepEvents));
    out->push_back({"events_per_s", Median(events_per_s), "1/s"});
    out->push_back({"setup_s", Median(setup_s), "s"});
    out->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    out->push_back({"queries_per_s", Median(queries_per_s), "1/s"});
    out->push_back({"query_p50_ms", Percentile(step_ms, 0.50), "ms"});
    out->push_back({"query_p95_ms", Percentile(step_ms, 0.95), "ms"});
    AddOutcomeMetrics(reps[0].outcome, out);
    return totals;
  }

  // Traced: the same run stepped event by event with spans, which must reach
  // the end state of the untraced runs around it. The faster untraced run
  // (the first one also warms the allocator) is the overhead reference.
  Clock::time_point ref_start = Clock::now();
  const SimRep ref = RunSimUntraced(config);
  double untraced_wall_s = Since(ref_start);

  LayerReport report;
  const Clock::time_point gen_start = Clock::now();
  const std::vector<defl::TraceEvent> trace_events =
      defl::GenerateDiurnalTrace(config.trace, config.arrivals);
  report.values["sim.trace_gen_s"] = Since(gen_start);
  Check(!trace_events.empty(), "GenerateDiurnalTrace produced no arrivals");

  const Clock::time_point traced_start = Clock::now();
  Result<SimSession> opened = SimSession::Open(config);
  report.AddSeconds("cluster.open_s", Since(traced_start));
  Check(opened.ok(), "SimSession::Open (traced)");
  if (!opened.ok()) {
    return totals;
  }
  SimSession& session = opened.value();
  ProbeStats probes;
  const auto counts = StepTraced(
      session, [&session] { return session.done(); }, &probes, &report);
  // Every event has run, so Finish() only reads the registry; it has no span.
  const defl::ClusterSimResult result = session.Finish();
  const double traced_wall_s = Since(traced_start);

  ref_start = Clock::now();
  const SimRep ref2 = RunSimUntraced(config);
  untraced_wall_s = std::min(untraced_wall_s, Since(ref_start));
  Check(ref2.outcome == ref.outcome, "repeated runs of one seed disagree");

  Check(FromResult(result) == ref.outcome,
        "traced run outcome differs from untraced run");
  Check(ReadCounters(session) == ref.counters,
        "traced run counters differ from untraced run");
  CheckLabels(counts, result.counters, session.events_executed());

  AddProbeMetrics(probes, &report);
  AddRegistryLayers(session, &report);
  report.values["trace.coverage"] = Ratio(report.covered_s, traced_wall_s);
  report.values["trace.overhead"] = Ratio(traced_wall_s, untraced_wall_s);
  totals.attempted = result.counters.launched + result.counters.rejected;
  *out = LayerMetrics(report);
  return totals;
}

// ---------------------------------------------------------------------------
// What-if workload (whatif_batch).

constexpr int kBaseServers = 100;
constexpr double kBaseDurationH = 12.0;
constexpr int kBaseHours = 6;  // built to mid-horizon, checkpointed hourly
constexpr size_t kQueries = 200;
constexpr int kClients = 2;
// Latency and throughput are taken per window of this many consecutively
// issued queries and reported as medians over the complete windows, so a
// burst of host load moves only the windows it falls in. A window is a
// quarter of the query list, so every window holds the same mix.
constexpr size_t kWindow = 50;

// Seeded query mix: every ten queries hold each of the five kinds once with
// hours=0.25 and once with hours=0.5, so the mix (and the latency
// distribution it sets) is the same for every seed; the seed draws the
// kinds' parameters. Every draw is its own statement, so the draw order
// (and the queries) cannot depend on the compiler's argument evaluation
// order.
std::vector<std::string> MakeQueryLines(uint64_t seed) {
  defl::Rng rng(DeriveSeed(seed, 10));
  std::vector<std::string> lines;
  char buf[256];
  for (size_t i = 0; i < kQueries; ++i) {
    const double hours = (i / 5) % 2 == 0 ? 0.25 : 0.5;
    switch (i % 5) {
      case 0: {
        const int64_t count = rng.UniformInt(10, 60);
        const int64_t cpu = int64_t{1} << rng.UniformInt(0, 2);
        const char* prio = rng.Chance(0.2) ? "high" : "low";
        std::snprintf(buf, sizeof(buf),
                      "place count=%lld cpu=%lld mem=%lld prio=%s hours=%g",
                      static_cast<long long>(count), static_cast<long long>(cpu),
                      static_cast<long long>(cpu * 2048), prio, hours);
        break;
      }
      case 1: {
        const double fraction = rng.Uniform(0.05, 0.3);
        const int64_t fail_seed = rng.UniformInt(1, 1000);
        std::snprintf(buf, sizeof(buf), "fail fraction=%.2f seed=%lld hours=%g",
                      fraction, static_cast<long long>(fail_seed), hours);
        break;
      }
      case 2: {
        const double target = rng.Uniform(1.2, 1.8);
        const int64_t limit = rng.UniformInt(100, 400);
        std::snprintf(buf, sizeof(buf),
                      "overcommit target=%.2f cpu=2 mem=4096 limit=%lld hours=%g",
                      target, static_cast<long long>(limit), hours);
        break;
      }
      case 3:
        std::snprintf(buf, sizeof(buf), "run hours=%g", 2.0 * hours);
        break;
      default: {
        const int64_t p99 = 40 * rng.UniformInt(1, 3);
        const double fraction = rng.Uniform(0.2, 0.5);
        const char* policy = rng.Chance(0.5) ? "slo" : "uniform";
        std::snprintf(buf, sizeof(buf), "slo p99=%lld fraction=%.2f policy=%s hours=%g",
                      static_cast<long long>(p99), fraction, policy, hours);
        break;
      }
    }
    lines.push_back(buf);
  }
  return lines;
}

struct Base {
  std::string blob;
  Outcome outcome;
  int64_t events_executed = 0;
  double setup_s = 0.0;
  std::unique_ptr<defl::WhatIfService> service;
};

// The deflation_server --recover-dir path: a durable run to mid-horizon with
// hourly checkpoints, recovered from disk, serialized and loaded.
Base BuildBase(const ClusterSimConfig& config, const std::string& dir,
               LayerReport* report) {
  auto span = [report](const char* name, Clock::time_point start) {
    if (report != nullptr) {
      report->AddSpan(name, Since(start));
    }
  };
  Base base;
  std::filesystem::remove_all(dir);
  const Clock::time_point setup_start = Clock::now();
  {
    defl::DurableSession::Options options;
    options.dir = dir;
    options.checkpoint_every_s = 0.0;  // the hourly checkpoints are taken below
    Clock::time_point t = Clock::now();
    Result<defl::DurableSession> durable = defl::DurableSession::Create(config, options);
    span("sim.durable_create", t);
    Check(durable.ok(), "DurableSession::Create: " +
                            (durable.ok() ? std::string() : durable.error()));
    if (!durable.ok()) {
      return base;
    }
    for (int h = 1; h <= kBaseHours; ++h) {
      t = Clock::now();
      const Result<bool> stepped = durable.value().StepUntil(h * 3600.0);
      span("sim.durable_step", t);
      t = Clock::now();
      const Result<bool> ckpt = durable.value().Checkpoint();
      span("sim.checkpoint", t);
      Check(stepped.ok() && ckpt.ok(), "durable step or checkpoint failed");
    }
  }
  Clock::time_point t = Clock::now();
  Result<SimSession> recovered = SimSession::Recover(dir);
  if (report != nullptr) {
    report->AddSeconds("sim.recover_s", Since(t));
  }
  Check(recovered.ok(), "SimSession::Recover");
  if (!recovered.ok()) {
    return base;
  }
  t = Clock::now();
  base.blob = recovered.value().SnapshotBytes();
  span("sim.snapshot_write", t);
  base.outcome = ReadBaseOutcome(recovered.value());
  base.events_executed = recovered.value().events_executed();
  t = Clock::now();
  Result<defl::WhatIfService> loaded = defl::WhatIfService::Load(base.blob);
  if (report != nullptr) {
    report->AddSeconds("service.load_s", Since(t));
  }
  base.setup_s = Since(setup_start);
  std::filesystem::remove_all(dir);
  Check(loaded.ok(), "WhatIfService::Load");
  if (loaded.ok()) {
    base.service =
        std::make_unique<defl::WhatIfService>(std::move(loaded.value()));
  }
  return base;
}

struct Answered {
  size_t seq = 0;    // issue order across all clients
  size_t index = 0;  // position in the query list
  double issued_s = 0.0;  // since the pass started
  double done_s = 0.0;
  double latency_ms = 0.0;
  bool ok = false;
  std::string text;
};

int64_t AnswerEvents(const std::string& answer) {
  const size_t at = answer.find("\"events\":");
  return at == std::string::npos ? 0 : std::strtoll(answer.c_str() + at + 9, nullptr, 10);
}

// A failed restore, or an answer line that reports an error.
bool IsError(bool ok, const std::string& text) {
  return !ok || text.rfind("{\"error\"", 0) == 0;
}

struct Pass {
  std::vector<Answered> answered;  // in issue order
  std::vector<std::string> first;  // answer text per query, input order
};

// Closed loop: `clients` threads each issue the next query as soon as their
// previous one returns, cycling through the list until at least one full
// pass is done and `seconds` have passed. Answers to repeated queries must
// match the first pass byte for byte.
Pass RunClosedLoop(const defl::WhatIfService& service,
                   const std::vector<defl::WhatIfQuery>& queries, int clients,
                   double seconds) {
  Pass pass;
  std::atomic<size_t> next{0};
  std::vector<std::vector<Answered>> per_client(static_cast<size_t>(clients));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size() && Since(start) >= seconds) {
          return;
        }
        Answered a;
        a.seq = i;
        a.index = i % queries.size();
        const Clock::time_point issued = Clock::now();
        Result<std::string> answer = service.Answer(queries[a.index]);
        const Clock::time_point done = Clock::now();
        a.issued_s = std::chrono::duration<double>(issued - start).count();
        a.done_s = std::chrono::duration<double>(done - start).count();
        a.latency_ms = 1e3 * std::chrono::duration<double>(done - issued).count();
        a.ok = answer.ok();
        a.text = answer.ok() ? std::move(answer.value()) : answer.error();
        per_client[static_cast<size_t>(c)].push_back(std::move(a));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  pass.first.resize(queries.size());
  std::vector<bool> seen(queries.size(), false);
  for (auto& answers : per_client) {
    for (Answered& a : answers) {
      pass.answered.push_back(std::move(a));
    }
  }
  std::sort(pass.answered.begin(), pass.answered.end(),
            [](const Answered& x, const Answered& y) { return x.seq < y.seq; });
  for (const Answered& a : pass.answered) {
    if (!seen[a.index]) {
      seen[a.index] = true;
      pass.first[a.index] = a.text;
    } else {
      Check(a.text == pass.first[a.index], "repeated query answered differently");
    }
  }
  return pass;
}

// The client-visible figures of one window of kWindow queries. Its rates
// divide by the time from its first issue to its last answer.
struct Window {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double queries_per_s = 0.0;
  double events_per_s = 0.0;
};

// The complete windows of a pass whose answers are sorted by issue order.
std::vector<Window> Windows(const Pass& pass) {
  std::vector<Window> windows;
  for (size_t begin = 0; begin + kWindow <= pass.answered.size(); begin += kWindow) {
    std::vector<double> latency_ms;
    double first_issued_s = pass.answered[begin].issued_s;
    double last_done_s = 0.0;
    int64_t events = 0;
    for (size_t k = begin; k < begin + kWindow; ++k) {
      const Answered& a = pass.answered[k];
      latency_ms.push_back(a.latency_ms);
      first_issued_s = std::min(first_issued_s, a.issued_s);
      last_done_s = std::max(last_done_s, a.done_s);
      events += AnswerEvents(a.text);
    }
    const double wall_s = last_done_s - first_issued_s;
    windows.push_back({Percentile(latency_ms, 0.50), Percentile(latency_ms, 0.95),
                       Ratio(static_cast<double>(kWindow), wall_s),
                       Ratio(static_cast<double>(events), wall_s)});
  }
  return windows;
}

double MedianOf(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> values;
  for (const Window& w : windows) {
    values.push_back(w.*field);
  }
  return Median(values);
}

std::vector<defl::WhatIfQuery> ParseQueries(const std::vector<std::string>& lines) {
  std::vector<defl::WhatIfQuery> queries;
  for (const std::string& line : lines) {
    Result<defl::WhatIfQuery> q = defl::ParseQuery(line);
    Check(q.ok(), "query does not parse: " + line);
    if (q.ok()) {
      queries.push_back(q.value());
    }
  }
  return queries;
}

// The blob must be untouched by any number of concurrent children.
void CheckBlob(const defl::WhatIfService& service) {
  const std::string& blob = service.blob();
  Check(defl::SnapshotFnv1a64(blob.data(), blob.size()) == service.blob_fnv(),
        "base blob changed while answering");
}

// SnapshotBytes of the recovered base must equal that of an uninterrupted
// session at the same simulated time. With a report, the uninterrupted
// session is stepped event by event and its events are labelled.
void CheckAgainstUninterrupted(const ClusterSimConfig& config, const Base& base,
                               LayerReport* report) {
  Clock::time_point t = Clock::now();
  Result<SimSession> opened = SimSession::Open(config);
  if (report != nullptr) {
    report->AddSeconds("cluster.open_s", Since(t));
  }
  Check(opened.ok(), "SimSession::Open (uninterrupted base)");
  if (!opened.ok()) {
    return;
  }
  SimSession& session = opened.value();
  if (report != nullptr) {
    ProbeStats probes;
    const auto counts = StepTraced(
        session,
        [&session, &base] { return session.events_executed() >= base.events_executed; },
        &probes, report);
    AddProbeMetrics(probes, report);
    session.StepUntil(kBaseHours * 3600.0);  // no events left; lands the clock
    CheckLabels(counts, session.manager().counters(), session.events_executed());
    AddRegistryLayers(session, report);
  } else {
    session.StepUntil(kBaseHours * 3600.0);
  }
  t = Clock::now();
  const std::string bytes = session.SnapshotBytes();
  if (report != nullptr) {
    report->AddSpan("sim.snapshot_write", Since(t));
  }
  Check(bytes == base.blob, "recovered base snapshot != uninterrupted snapshot");
}

RunTotals RunWhatIfWorkload(uint64_t seed, double seconds, bool trace,
                            const std::string& work_dir, std::vector<Metric>* out) {
  RunTotals totals;
  const ClusterSimConfig config = InteractiveConfig(seed, kBaseServers, kBaseDurationH);
  const std::string dir = work_dir + "/whatif-base";
  const std::vector<std::string> lines = MakeQueryLines(seed);
  const std::vector<defl::WhatIfQuery> queries = ParseQueries(lines);
  if (queries.size() != lines.size()) {
    return totals;
  }

  if (!trace) {
    // Set up several times for a steady setup_s; serve from the last base.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    Base base;
    for (int i = 0; i < kSetups; ++i) {
      base = BuildBase(config, dir, nullptr);
      setup_s.push_back(base.setup_s);
      if (base.service == nullptr) {
        return totals;
      }
    }
    CheckAgainstUninterrupted(config, base, nullptr);
    const Pass pass = RunClosedLoop(*base.service, queries, kClients, seconds);
    CheckBlob(*base.service);
    for (const Answered& a : pass.answered) {
      totals.failed += IsError(a.ok, a.text) ? 1 : 0;
    }
    totals.attempted = static_cast<int64_t>(pass.answered.size());
    const std::vector<Window> windows = Windows(pass);
    std::printf(
        "# %zu set-ups, %zu query samples from %d closed-loop clients, "
        "medians over %zu windows of %zu\n",
        setup_s.size(), pass.answered.size(), kClients, windows.size(), kWindow);
    out->push_back({"events_per_s", MedianOf(windows, &Window::events_per_s), "1/s"});
    out->push_back({"setup_s", Median(setup_s), "s"});
    out->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    out->push_back({"queries_per_s", MedianOf(windows, &Window::queries_per_s), "1/s"});
    out->push_back({"query_p50_ms", MedianOf(windows, &Window::p50_ms), "ms"});
    out->push_back({"query_p95_ms", MedianOf(windows, &Window::p95_ms), "ms"});
    AddOutcomeMetrics(base.outcome, out);
    return totals;
  }

  // Untraced reference: set-up, the uninterrupted-base check and one serial
  // pass; the concurrent pass beside it supplies the answers to compare.
  Clock::time_point start = Clock::now();
  const Base ref = BuildBase(config, dir, nullptr);
  if (ref.service == nullptr) {
    return totals;
  }
  CheckAgainstUninterrupted(config, ref, nullptr);
  std::vector<std::string> serial_untraced;
  for (const defl::WhatIfQuery& q : queries) {
    Result<std::string> answer = ref.service->Answer(q);
    serial_untraced.push_back(answer.ok() ? answer.value() : answer.error());
  }
  const double untraced_wall_s = Since(start);
  const Pass concurrent = RunClosedLoop(*ref.service, queries, kClients, 0.0);
  CheckBlob(*ref.service);

  LayerReport report;
  start = Clock::now();
  const Base base = BuildBase(config, dir, &report);
  if (base.service == nullptr) {
    return totals;
  }
  report.values["sim.snapshot_bytes"] = static_cast<double>(base.blob.size());
  CheckAgainstUninterrupted(config, base, &report);
  // Serial traced pass: each query's restore is timed on its own first (a
  // child forked and dropped exactly as Answer forks it), then the answer.
  double restore_s = 0.0;
  double answer_s = 0.0;
  std::vector<std::string> serial_traced;
  for (const defl::WhatIfQuery& q : queries) {
    defl::SimSession::RestoreOptions::SloOverride slo;
    if (q.kind == defl::QueryKind::kSlo) {
      slo.active = true;
      slo.slo_p99_ms = q.slo_p99_ms;
      slo.fraction = q.mix_fraction;
      slo.policy = q.slo_policy;
      slo.control_period_s = q.slo_period_s;
    }
    Clock::time_point t = Clock::now();
    {
      defl::TelemetryContext telemetry;
      const Result<SimSession> child = base.service->RestoreChild(
          &telemetry, -1, slo.active ? &slo : nullptr);
      Check(child.ok(), "WhatIfService::RestoreChild");
    }
    const double r = Since(t);
    report.AddSpan("service.restore_child", r);
    restore_s += r;
    t = Clock::now();
    Result<std::string> answer = base.service->Answer(q);
    const double a = Since(t);
    report.AddSpan(std::string("service.answer_") + defl::QueryKindName(q.kind), a);
    answer_s += a;
    serial_traced.push_back(answer.ok() ? answer.value() : answer.error());
    totals.failed += IsError(answer.ok(), serial_traced.back()) ? 1 : 0;
  }
  const double traced_wall_s = Since(start);
  CheckBlob(*base.service);
  Check(concurrent.first == serial_traced,
        "concurrent answers differ from serial traced answers");
  Check(serial_untraced == serial_traced,
        "serial untraced answers differ from serial traced answers");
  Check(base.blob == ref.blob, "traced base differs from untraced base");

  totals.attempted = static_cast<int64_t>(queries.size());
  report.values["service.answer_self_s"] = answer_s - restore_s;
  report.values["service.error_ratio"] =
      Ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted));
  report.values["trace.coverage"] = Ratio(report.covered_s, traced_wall_s);
  report.values["trace.overhead"] = Ratio(traced_wall_s, untraced_wall_s);
  *out = LayerMetrics(report);
  return totals;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string source_id = "unknown";
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cloud_saturated|interactive_slo|whatif_batch --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--source-id ID]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--source-id") {
      opt.source_id = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.seconds <= 0.0 ||
      opt.trace < 0 || opt.work_dir.empty()) {
    return Usage("missing or malformed arguments");
  }
  // Deliberate over-admission warnings from what-if children are expected.
  defl::SetLogLevel(defl::LogLevel::kError);
#ifdef __GLIBC__
  // One malloc arena per what-if client plus the main thread's, so no two
  // clients share an arena lock: with a single arena the clients contend
  // for it, and queries ran 10% slower in alternated runs of one seed.
  // A fixed mmap threshold stops glibc from raising it after each large
  // free, so a freed child's large buffers go back to the system and peak
  // RSS follows the live data. With per-client arenas and the dynamic
  // threshold, peak RSS read 58, 65 or 78 MB depending on the seed; with a
  // single arena it moved by 0.08 of its median on one seed.
  mallopt(M_ARENA_MAX, kClients + 1);
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  std::printf(
      "# host {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      opt.source_id.c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace);

  std::vector<Metric> metrics;
  RunTotals totals;
  const bool trace = opt.trace == 1;
  if (opt.workload == "cloud_saturated") {
    totals = RunSimWorkload(CloudSaturatedConfig(opt.seed), opt.seconds, trace, &metrics);
  } else if (opt.workload == "interactive_slo") {
    totals = RunSimWorkload(InteractiveConfig(opt.seed, 200, 24.0), opt.seconds,
                            trace, &metrics);
  } else if (opt.workload == "whatif_batch") {
    totals = RunWhatIfWorkload(opt.seed, opt.seconds, trace, opt.work_dir, &metrics);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  Check(totals.attempted > 0, "nothing was attempted");
  Check(totals.failed == 0, "some operations failed");
  PrintResult(std::max<int64_t>(totals.attempted, 1), totals.failed, metrics);
  return g_correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
