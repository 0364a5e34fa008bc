// The event labeller must be complete on a tiny session: every executed
// event falls in exactly one label, the launch labels sum to launched +
// rejected, and cluster.complete equals the completed counter.
#include "perfbench/event_labeller.h"

#include <gtest/gtest.h>

#include "src/cluster/sim_session.h"
#include "src/cluster/trace.h"

namespace perfbench {
namespace {

defl::ClusterSimConfig TinyConfig(bool interactive) {
  defl::ClusterSimConfig c;
  c.num_servers = 4;
  c.trace.duration_s = 4.0 * 3600.0;
  c.trace.max_lifetime_s = 2.0 * 3600.0;
  c.trace = defl::WithTargetLoad(c.trace, 1.8, c.num_servers, c.server_capacity);
  c.cluster.placement = defl::PlacementPolicy::kTwoChoices;
  c.reinflate_period_s = 300.0;
  c.interactive.enabled = interactive;
  c.interactive.control_period_s = 300.0;
  c.interactive.slo_p99_ms = 80.0;
  return c;
}

struct Labelled {
  std::array<int64_t, kNumEventLabels> counts{};
  defl::ClusterCounters counters;
  int64_t events = 0;
};

Labelled StepAll(const defl::ClusterSimConfig& config) {
  defl::Result<defl::SimSession> opened = defl::SimSession::Open(config);
  EXPECT_TRUE(opened.ok());
  defl::SimSession& session = opened.value();
  EventLabeller labeller(session);
  while (session.StepEvents(1) == 1) {
    labeller.LabelStep();
  }
  Labelled out;
  out.counts = labeller.counts();
  out.counters = session.manager().counters();
  out.events = session.events_executed();
  return out;
}

int64_t Count(const Labelled& l, EventLabel label) {
  return l.counts[static_cast<size_t>(label)];
}

class EventLabellerTest : public testing::TestWithParam<bool> {};

TEST_P(EventLabellerTest, EveryEventHasExactlyOneLabel) {
  const Labelled l = StepAll(TinyConfig(GetParam()));
  int64_t all = 0;
  for (const int64_t c : l.counts) {
    all += c;
  }
  EXPECT_EQ(all, l.events);
  EXPECT_EQ(Count(l, EventLabel::kLaunchFit) + Count(l, EventLabel::kLaunchDeflate) +
                Count(l, EventLabel::kLaunchPreempt) + Count(l, EventLabel::kLaunchReject),
            l.counters.launched + l.counters.rejected);
  EXPECT_EQ(Count(l, EventLabel::kLaunchReject), l.counters.rejected);
  EXPECT_EQ(Count(l, EventLabel::kComplete), l.counters.completed);
  // 300 s sampling and reinflation over a 4 h horizon: one tick each per period.
  EXPECT_EQ(Count(l, EventLabel::kSampleTick), 48);
  EXPECT_EQ(Count(l, EventLabel::kReinflateTick), 48);
  EXPECT_EQ(Count(l, EventLabel::kSloTick), GetParam() ? 48 : 0);
  // The load is high enough to exercise every launch outcome.
  EXPECT_GT(Count(l, EventLabel::kLaunchFit), 0);
  EXPECT_GT(Count(l, EventLabel::kLaunchDeflate), 0);
  EXPECT_GT(Count(l, EventLabel::kLaunchReject), 0);
}

INSTANTIATE_TEST_SUITE_P(Mix, EventLabellerTest, testing::Bool());

}  // namespace
}  // namespace perfbench
