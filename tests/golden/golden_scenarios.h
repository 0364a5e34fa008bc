// The golden scenario matrix shared by the golden suites: the output
// digests (golden_determinism_test) and the snapshot-byte digests
// (snapshot_digests_test) pin the same twelve configurations.
#ifndef TESTS_GOLDEN_GOLDEN_SCENARIOS_H_
#define TESTS_GOLDEN_GOLDEN_SCENARIOS_H_

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/cluster/cluster_sim.h"
#include "src/faults/fault_plan.h"

#ifndef DEFL_SOURCE_DIR
#error "build must define DEFL_SOURCE_DIR"
#endif

namespace defl {

// Scenario matrix: the deflation_sim defaults at small scale, one variant
// per placement policy and strategy, plus one per shipped fault plan.
inline const char* const kScenarios[] = {
    "base",           "first_fit",     "two_choices",    "preemption_only",
    "reinflate",      "predictive",    "diurnal",        "faults_basic",
    "faults_wire",    "faults_cluster", "interactive",   "interactive_uniform",
};

inline ClusterSimConfig MakeConfig(const std::string& name) {
  ClusterSimConfig config;
  config.num_servers = 40;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = 42;
  config.trace.duration_s = 3.0 * 3600.0;
  config.trace.max_lifetime_s = 2.0 * 3600.0;
  config.trace.low_priority_fraction = 0.6;
  config.trace =
      WithTargetLoad(config.trace, 1.6, config.num_servers, config.server_capacity);

  if (name == "first_fit") {
    config.cluster.placement = PlacementPolicy::kFirstFit;
  } else if (name == "two_choices") {
    config.cluster.placement = PlacementPolicy::kTwoChoices;
  } else if (name == "preemption_only") {
    config.cluster.strategy = ReclamationStrategy::kPreemptionOnly;
  } else if (name == "reinflate") {
    config.reinflate_period_s = 600.0;
  } else if (name == "predictive") {
    config.reinflate_period_s = 600.0;
    config.predictive_holdback = true;
  } else if (name == "diurnal") {
    // Diurnal/bursty arrivals (src/sim/arrival_gen.h): a short period so the
    // 3-hour horizon covers peaks and troughs, with bursts layered on top.
    config.reinflate_period_s = 600.0;
    config.arrivals.enabled = true;
    config.arrivals.diurnal_amplitude = 0.7;
    config.arrivals.diurnal_period_s = 2.0 * 3600.0;
    config.arrivals.burst_rate_per_s = 2.0 / 3600.0;
    config.arrivals.burst_duration_s = 900.0;
    config.arrivals.burst_multiplier = 3.0;
    config.arrivals.seed = 17;
  } else if (name.rfind("interactive", 0) == 0) {
    // Interactive-serving mix (DESIGN.md §16) over diurnal arrivals: a tight
    // SLO plus a high per-CPU request rate so violations (and, for the
    // slo-aware variant, controller interventions) occur within 3 hours.
    // `interactive` runs the SLO-aware controller; `interactive_uniform`
    // measures the same workload under the uniform baseline.
    config.reinflate_period_s = 600.0;
    config.arrivals.enabled = true;
    config.arrivals.diurnal_amplitude = 0.6;
    config.arrivals.diurnal_period_s = 2.0 * 3600.0;
    config.arrivals.seed = 17;
    config.interactive.enabled = true;
    config.interactive.fraction = 0.45;
    config.interactive.slo_p99_ms = 60.0;
    config.interactive.slo_aware = (name == "interactive");
    config.interactive.control_period_s = 300.0;
    config.interactive.rate_rps_per_cpu = 120.0;
    config.interactive.rate_period_s = 2.0 * 3600.0;
  } else if (name.rfind("faults_", 0) == 0) {
    const std::string path =
        std::string(DEFL_SOURCE_DIR "/examples/") + name + ".plan";
    Result<FaultPlan> plan = LoadFaultPlanFile(path);
    EXPECT_TRUE(plan.ok()) << path << ": " << plan.error();
    if (plan.ok()) {
      config.fault_plan = std::move(plan.value());
    }
    config.reinflate_period_s = 600.0;
  }
  return config;
}

}  // namespace defl

#endif  // TESTS_GOLDEN_GOLDEN_SCENARIOS_H_
