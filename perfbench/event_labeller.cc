#include "perfbench/event_labeller.h"

#include <cmath>

namespace perfbench {

const char* EventLabelName(EventLabel label) {
  switch (label) {
    case EventLabel::kLaunchFit:
      return "cluster.launch_fit";
    case EventLabel::kLaunchDeflate:
      return "cluster.launch_deflate";
    case EventLabel::kLaunchPreempt:
      return "cluster.launch_preempt";
    case EventLabel::kLaunchReject:
      return "cluster.launch_reject";
    case EventLabel::kComplete:
      return "cluster.complete";
    case EventLabel::kSampleTick:
      return "cluster.sample_tick";
    case EventLabel::kReinflateTick:
      return "cluster.reinflate_tick";
    case EventLabel::kSloTick:
      return "cluster.slo_tick";
    case EventLabel::kOther:
      return "cluster.other_event";
  }
  return "cluster.other_event";
}

EventLabeller::EventLabeller(defl::SimSession& session) : session_(session) {
  const defl::MetricsRegistry& registry = session.telemetry().metrics();
  launched_ = registry.FindCounter("cluster/vms/launched");
  rejected_ = registry.FindCounter("cluster/vms/rejected");
  preempted_ = registry.FindCounter("cluster/vms/preempted");
  deflation_ops_ = registry.FindCounter("cluster/deflation_ops");
  completed_ = registry.FindCounter("cluster/vms/completed");
  samples_ = registry.FindSeries("cluster/utilization");
  // Registered only when the interactive mix is on; an invalid handle reads
  // as an empty series, so the SLO label simply never fires.
  slo_ticks_ = registry.FindSeries("slo/offered_rps");
  reinflate_period_s_ = session.config().reinflate_period_s;
  last_ = Read();
}

EventLabeller::Reading EventLabeller::Read() const {
  const defl::MetricsRegistry& registry = session_.telemetry().metrics();
  Reading r;
  r.launched = registry.counter(launched_);
  r.rejected = registry.counter(rejected_);
  r.preempted = registry.counter(preempted_);
  r.deflation_ops = registry.counter(deflation_ops_);
  r.completed = registry.counter(completed_);
  r.samples = registry.series_points(samples_).size();
  r.slo_ticks = registry.series_points(slo_ticks_).size();
  return r;
}

EventLabel EventLabeller::LabelStep() {
  const Reading now = Read();
  EventLabel label = EventLabel::kOther;
  if (now.rejected > last_.rejected) {
    label = EventLabel::kLaunchReject;
  } else if (now.launched > last_.launched) {
    if (now.preempted > last_.preempted) {
      label = EventLabel::kLaunchPreempt;
    } else if (now.deflation_ops > last_.deflation_ops) {
      label = EventLabel::kLaunchDeflate;
    } else {
      label = EventLabel::kLaunchFit;
    }
  } else if (now.completed > last_.completed) {
    label = EventLabel::kComplete;
  } else if (now.samples > last_.samples) {
    label = EventLabel::kSampleTick;
  } else if (now.slo_ticks > last_.slo_ticks) {
    label = EventLabel::kSloTick;
  } else if (reinflate_period_s_ > 0.0) {
    // A reinflation sweep that found nothing to return moves no counter, so
    // it is recognised by its clock: ticks fire exactly on multiples of the
    // period (the simulator computes them the same way), while arrivals and
    // completions sit at continuous random times.
    const double t = session_.now();
    if (t == std::round(t / reinflate_period_s_) * reinflate_period_s_) {
      label = EventLabel::kReinflateTick;
    }
  }
  last_ = now;
  ++counts_[static_cast<size_t>(label)];
  return label;
}

}  // namespace perfbench
