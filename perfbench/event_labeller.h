// Labels single simulation steps by the registry deltas they cause. The
// benchmark's traced run drives a SimSession with StepEvents(1) and asks the
// labeller which kind of event just ran, so the wall time of every executed
// event lands in exactly one span without any tracing inside the simulator.
#ifndef PERFBENCH_EVENT_LABELLER_H_
#define PERFBENCH_EVENT_LABELLER_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/cluster/sim_session.h"

namespace perfbench {

enum class EventLabel {
  kLaunchFit,      // launched into free capacity
  kLaunchDeflate,  // launched after MakeRoom deflated co-tenants
  kLaunchPreempt,  // launched after revoking low-priority VMs
  kLaunchReject,   // arrival that could not be placed
  kComplete,       // a hosted VM completed
  kSampleTick,     // utilization/overcommitment sampling sweep
  kReinflateTick,  // proactive reinflation sweep
  kSloTick,        // interactive SLO control tick
  kOther,          // anything else (e.g. completion of an already-preempted VM)
};
inline constexpr size_t kNumEventLabels = 9;

// Span name of a label, e.g. "cluster.launch_fit".
const char* EventLabelName(EventLabel label);

class EventLabeller {
 public:
  // Resolves the registry handles of `session` and takes the baseline
  // reading. The session must outlive the labeller.
  explicit EventLabeller(defl::SimSession& session);

  // Classifies the one event executed since the previous call (or since
  // construction) and moves the baseline forward.
  EventLabel LabelStep();

  const std::array<int64_t, kNumEventLabels>& counts() const { return counts_; }

 private:
  struct Reading {
    int64_t launched = 0;
    int64_t rejected = 0;
    int64_t preempted = 0;
    int64_t deflation_ops = 0;
    int64_t completed = 0;
    size_t samples = 0;
    size_t slo_ticks = 0;
  };
  Reading Read() const;

  defl::SimSession& session_;
  defl::CounterHandle launched_;
  defl::CounterHandle rejected_;
  defl::CounterHandle preempted_;
  defl::CounterHandle deflation_ops_;
  defl::CounterHandle completed_;
  defl::SeriesHandle samples_;
  defl::SeriesHandle slo_ticks_;
  double reinflate_period_s_ = 0.0;
  Reading last_;
  std::array<int64_t, kNumEventLabels> counts_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_EVENT_LABELLER_H_
