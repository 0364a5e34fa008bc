// Property test for the what-if service's concurrency contract (DESIGN.md
// §15): a randomized batch of queries answered (a) serially and (b)
// concurrently at several worker counts against the same base snapshot must
// produce bitwise-identical per-query results, and the shared base blob
// must hash identically before and after -- queries are isolated
// copy-on-restore children and never write through the blob. Runs under
// the TSan CI matrix; query batches are seeded from DEFL_FAULT_SEED so each
// CI leg explores a different batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/common/rng.h"
#include "src/service/query.h"
#include "src/service/sweep.h"
#include "src/service/whatif.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

ClusterSimConfig SmallConfig(uint64_t seed) {
  ClusterSimConfig config;
  config.num_servers = 8;
  config.server_capacity = ResourceVector(16.0, 128.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 3600.0;
  config.trace.seed = seed;
  config.trace =
      WithTargetLoad(config.trace, 1.5, config.num_servers, config.server_capacity);
  config.reinflate_period_s = 600.0;
  return config;
}

// The same fleet serving an interactive mix over diurnal arrivals, so `slo`
// queries without fraction= keep the snapshotted mix and with it re-tag.
ClusterSimConfig InteractiveConfig(uint64_t seed) {
  ClusterSimConfig config = SmallConfig(seed);
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.6;
  config.arrivals.diurnal_period_s = 3600.0;
  config.arrivals.seed = seed;
  config.interactive.enabled = true;
  config.interactive.fraction = 0.45;
  config.interactive.slo_p99_ms = 60.0;
  config.interactive.control_period_s = 300.0;
  config.interactive.rate_rps_per_cpu = 120.0;
  config.interactive.rate_period_s = 3600.0;
  return config;
}

std::string SnapshotAtOneHour(const ClusterSimConfig& config) {
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  if (!session.ok()) {
    return "";
  }
  session.value().StepUntil(3600.0);
  return session.value().SnapshotBytes();
}

// A mid-run snapshot (half the horizon still ahead), so `run`/`hours=`
// queries genuinely simulate instead of hitting the horizon clamp.
std::string MidRunSnapshot() { return SnapshotAtOneHour(SmallConfig(TestSeed())); }

WhatIfQuery RandomQuery(Rng& rng) {
  WhatIfQuery query;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      query.kind = QueryKind::kPlace;
      query.count = rng.UniformInt(1, 40);
      query.shape = ResourceVector(static_cast<double>(rng.UniformInt(1, 8)),
                                   static_cast<double>(rng.UniformInt(1, 16)) *
                                       1024.0);
      query.priority = rng.Chance(0.3) ? VmPriority::kHigh : VmPriority::kLow;
      query.hours = rng.Chance(0.5) ? rng.Uniform(0.1, 0.5) : 0.0;
      break;
    case 1:
      query.kind = QueryKind::kFail;
      query.fraction = rng.Uniform(0.0, 0.6);
      query.seed = rng.NextU64();
      query.hours = rng.Chance(0.5) ? rng.Uniform(0.1, 0.5) : 0.0;
      break;
    case 2:
      query.kind = QueryKind::kOvercommit;
      query.target = rng.Uniform(1.1, 1.9);
      query.shape = ResourceVector(2.0, 4096.0);
      query.limit = rng.UniformInt(10, 120);
      break;
    default:
      query.kind = QueryKind::kRun;
      query.hours = rng.Uniform(0.1, 1.0);
      break;
  }
  return query;
}

TEST(WhatIfDeterminismTest, ConcurrentBatchesMatchSerialBitwise) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const WhatIfService& service = loaded.value();
  const uint64_t blob_fnv_before = service.blob_fnv();

  Rng rng(TestSeed() ^ 0x817a71f5ULL);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RandomQuery(rng));
  }

  const std::string serial = service.AnswerBatch(queries, 1);
  ASSERT_FALSE(serial.empty());
  for (const int workers : {2, 7}) {
    EXPECT_EQ(serial, service.AnswerBatch(queries, workers))
        << "workers=" << workers << " changed a query answer";
  }
  // The shared blob is read-only: no query may have written through it.
  EXPECT_EQ(blob_fnv_before,
            SnapshotFnv1a64(service.blob().data(), service.blob().size()));
}

TEST(WhatIfDeterminismTest, RepeatedConcurrentBatchesAreStable) {
  // Two concurrent runs of the same batch on one service instance: the
  // service holds no per-query mutable state, so the reports must match.
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  Rng rng(TestSeed() ^ 0x5eedba7cULL);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(RandomQuery(rng));
  }
  const std::string first = loaded.value().AnswerBatch(queries, 7);
  EXPECT_EQ(first, loaded.value().AnswerBatch(queries, 7));
}

TEST(WhatIfDeterminismTest, AnswersDependOnlyOnBlobAndQuery) {
  // Two service instances over the same bytes answer identically: nothing
  // about an instance (load order, prior answers) leaks into a result.
  const std::string blob = MidRunSnapshot();
  Result<WhatIfService> a = WhatIfService::Load(blob);
  Result<WhatIfService> b = WhatIfService::Load(blob);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(TestSeed() ^ 0x0b10bULL);
  const WhatIfQuery query = RandomQuery(rng);
  // Warm instance `a` with a different query first.
  (void)a.value().Answer(RandomQuery(rng));
  Result<std::string> from_a = a.value().Answer(query);
  Result<std::string> from_b = b.value().Answer(query);
  ASSERT_TRUE(from_a.ok() && from_b.ok());
  EXPECT_EQ(from_a.value(), from_b.value());
}

TEST(WhatIfDeterminismTest, CorruptBlobIsRejectedAtLoad) {
  std::string blob = MidRunSnapshot();
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  Result<WhatIfService> loaded = WhatIfService::Load(std::move(blob));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("snapshot blob rejected"), std::string::npos)
      << loaded.error();
}

TEST(WhatIfDeterminismTest, PlacementOverrideChangesOnlyFuturePolicy) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  TelemetryContext telemetry;
  Result<SimSession> child = loaded.value().RestoreChild(
      &telemetry, static_cast<int>(PlacementPolicy::kTwoChoices));
  ASSERT_TRUE(child.ok()) << child.error();
  EXPECT_EQ(child.value().config().cluster.placement,
            PlacementPolicy::kTwoChoices);

  TelemetryContext telemetry2;
  Result<SimSession> bad = loaded.value().RestoreChild(&telemetry2, 99);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("placement override"), std::string::npos)
      << bad.error();
}

TEST(WhatIfSweepTest, WorkerCountDoesNotChangeSweepReport) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  SweepGrid grid;
  grid.policies = {PlacementPolicy::kBestFit, PlacementPolicy::kTwoChoices};
  grid.fail_fractions = {0.0, 0.25};
  grid.overcommit_targets = {1.4};
  grid.intensities = {0.5, 1.0};
  grid.hours = 0.5;
  grid.shape = ResourceVector(2.0, 4096.0);
  grid.limit = 60;
  SweepOrchestrator orchestrator(&loaded.value());
  Result<std::string> one = orchestrator.Run(grid, 1);
  ASSERT_TRUE(one.ok()) << one.error();
  for (const int workers : {2, 8}) {
    Result<std::string> many = orchestrator.Run(grid, workers);
    ASSERT_TRUE(many.ok()) << many.error();
    EXPECT_EQ(one.value(), many.value()) << "workers=" << workers;
  }
  // 2 policies x 2 fractions x 1 target x 2 intensities.
  EXPECT_NE(one.value().find("# sweep cells=8 "), std::string::npos)
      << one.value();
}

// --- The shared arrival trace (DESIGN.md §15) ------------------------------
// Children adopt the trace the service verified at Load instead of
// regenerating the workload. These properties pin that adoption is
// invisible: same answers as a child that regenerates, no adoption of a
// trace that is not the snapshot's, and no write through the shared copy.

std::vector<WhatIfQuery> EveryKindQueries() {
  const char* const lines[] = {
      "place count=20 cpu=2 mem=4096 hours=0.5",
      "place count=6 cpu=4 mem=8192 prio=high",
      "fail fraction=0.25 seed=7 hours=0.5",
      "overcommit target=1.6 cpu=2 mem=4096 limit=80",
      "run hours=0.5",
      "slo hours=0.5",
      "slo p99=40 policy=uniform hours=0.5",
      "slo fraction=0.8 hours=0.5",
      "slo p99=80 fraction=0.2 policy=slo hours=0.5",
  };
  std::vector<WhatIfQuery> queries;
  for (const char* line : lines) {
    Result<WhatIfQuery> query = ParseQuery(line);
    EXPECT_TRUE(query.ok()) << line << ": " << query.error();
    if (query.ok()) {
      queries.push_back(query.value());
    }
  }
  return queries;
}

// Restores a child exactly as WhatIfService::Answer does, but with `hint` as
// the trace (nullptr: none, so the trace is regenerated or read inline).
Result<SimSession> RestoreWithHint(const std::string& blob, const WhatIfQuery& query,
                                   std::shared_ptr<const ArrivalTrace> hint,
                                   TelemetryContext* telemetry) {
  SimSession::RestoreOptions options;
  options.telemetry = telemetry;
  options.threads = 1;
  options.slo = WhatIfService::SloOverrideFor(query);
  options.trace = std::move(hint);
  return SimSession::RestoreView(blob, options);
}

std::string AnswerWithHint(const std::string& blob, const WhatIfQuery& query,
                           std::shared_ptr<const ArrivalTrace> hint) {
  TelemetryContext telemetry;
  Result<SimSession> child = RestoreWithHint(blob, query, std::move(hint), &telemetry);
  EXPECT_TRUE(child.ok()) << child.error();
  return child.ok() ? WhatIfService::AnswerOn(child.value(), query) : "";
}

TEST(WhatIfSharedTraceTest, ChildrenAdoptTheVerifiedTraceUnlessRetagging) {
  Result<WhatIfService> loaded =
      WhatIfService::Load(SnapshotAtOneHour(InteractiveConfig(TestSeed())));
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const WhatIfService& service = loaded.value();
  ASSERT_NE(service.trace(), nullptr);
  for (const WhatIfQuery& query : EveryKindQueries()) {
    TelemetryContext telemetry;
    Result<SimSession> child = RestoreWithHint(service.blob(), query,
                                               service.trace(), &telemetry);
    ASSERT_TRUE(child.ok()) << child.error();
    const std::string kind = QueryKindName(query.kind);
    if (query.kind == QueryKind::kSlo && query.mix_fraction >= 0.0) {
      // A new mix re-tags a child-private copy.
      EXPECT_NE(child.value().trace(), service.trace()) << kind;
      EXPECT_NE(child.value().trace()->fnv, service.trace()->fnv) << kind;
    } else {
      EXPECT_EQ(child.value().trace(), service.trace()) << kind;
    }
  }
}

TEST(WhatIfSharedTraceTest, HintedAnswersMatchUnhintedForEveryKind) {
  for (const bool interactive : {false, true}) {
    const std::string blob = SnapshotAtOneHour(
        interactive ? InteractiveConfig(TestSeed()) : SmallConfig(TestSeed()));
    Result<WhatIfService> loaded = WhatIfService::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    const std::vector<WhatIfQuery> queries = EveryKindQueries();
    std::string unhinted;
    for (const WhatIfQuery& query : queries) {
      const std::string expected = AnswerWithHint(blob, query, nullptr);
      Result<std::string> answer = loaded.value().Answer(query);
      ASSERT_TRUE(answer.ok()) << answer.error();
      EXPECT_EQ(expected, answer.value())
          << "interactive=" << interactive << " kind " << QueryKindName(query.kind);
      unhinted += expected + "\n";
    }
    // The batch path (hinted, concurrent) lands on the same lines.
    const std::string batch = loaded.value().AnswerBatch(queries, 3);
    EXPECT_EQ(batch.substr(0, unhinted.size()), unhinted)
        << "interactive=" << interactive;
  }
}

TEST(WhatIfSharedTraceTest, ForeignHintIsNotAdopted) {
  // A trace from another blob (another seed) fails the size/checksum test,
  // so the child regenerates its own and answers as if unhinted.
  Result<WhatIfService> other =
      WhatIfService::Load(SnapshotAtOneHour(InteractiveConfig(TestSeed() + 1)));
  ASSERT_TRUE(other.ok()) << other.error();
  const std::shared_ptr<const ArrivalTrace> foreign = other.value().trace();
  const std::string blob = SnapshotAtOneHour(InteractiveConfig(TestSeed()));
  for (const WhatIfQuery& query : EveryKindQueries()) {
    const std::string kind = QueryKindName(query.kind);
    TelemetryContext telemetry;
    Result<SimSession> child = RestoreWithHint(blob, query, foreign, &telemetry);
    ASSERT_TRUE(child.ok()) << child.error();
    EXPECT_NE(child.value().trace(), foreign) << kind;
    EXPECT_NE(child.value().trace()->fnv, foreign->fnv) << kind;
    EXPECT_EQ(WhatIfService::AnswerOn(child.value(), query),
              AnswerWithHint(blob, query, nullptr))
        << kind;
  }
}

TEST(WhatIfSharedTraceTest, ExplicitTraceSnapshotIgnoresHint) {
  // The same events, handed in explicitly: the snapshot inlines them. A hint
  // from the generated twin matches size and checksum exactly, yet the
  // inline trace is authoritative and the hint is not adopted.
  ClusterSimConfig generated = SmallConfig(TestSeed());
  Result<SimSession> twin = SimSession::Open(generated);
  ASSERT_TRUE(twin.ok()) << twin.error();
  const std::shared_ptr<const ArrivalTrace> hint = twin.value().trace();
  ClusterSimConfig explicit_config = generated;
  explicit_config.explicit_trace = hint->events;
  const std::string blob = SnapshotAtOneHour(explicit_config);

  const WhatIfQuery run = ParseQuery("run hours=0.5").value();
  TelemetryContext telemetry;
  Result<SimSession> child = RestoreWithHint(blob, run, hint, &telemetry);
  ASSERT_TRUE(child.ok()) << child.error();
  EXPECT_EQ(child.value().trace()->fnv, hint->fnv);
  EXPECT_NE(child.value().trace(), hint);
  EXPECT_TRUE(child.value().SnapshotBytes() == blob);

  Result<WhatIfService> loaded = WhatIfService::Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  for (const WhatIfQuery& query : EveryKindQueries()) {
    if (query.kind == QueryKind::kSlo && query.mix_fraction >= 0.0) {
      continue;  // cannot re-tag an explicit trace (rejected either way)
    }
    Result<std::string> answer = loaded.value().Answer(query);
    ASSERT_TRUE(answer.ok()) << answer.error();
    EXPECT_EQ(answer.value(), AnswerWithHint(blob, query, nullptr))
        << QueryKindName(query.kind);
  }
}

TEST(WhatIfSharedTraceTest, ConcurrentSloRetagsNeverWriteTheSharedTrace) {
  Result<WhatIfService> loaded =
      WhatIfService::Load(SnapshotAtOneHour(InteractiveConfig(TestSeed())));
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const WhatIfService& service = loaded.value();
  const ArrivalTrace& shared = *service.trace();
  const uint64_t fnv_at_load = shared.fnv;
  ASSERT_EQ(TraceFnv(shared.events), fnv_at_load);

  Rng rng(TestSeed() ^ 0x7e7a95ULL);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 8; ++i) {
    WhatIfQuery query;
    query.kind = QueryKind::kSlo;
    query.mix_fraction = rng.Uniform(0.0, 1.0);
    query.hours = rng.Uniform(0.1, 0.4);
    queries.push_back(query);
  }
  const std::string serial = service.AnswerBatch(queries, 1);
  for (const int workers : {2, 7}) {
    EXPECT_EQ(serial, service.AnswerBatch(queries, workers))
        << "workers=" << workers << " changed an slo answer";
  }
  // Recomputed, not read back: the events themselves are untouched.
  EXPECT_EQ(TraceFnv(shared.events), fnv_at_load);
  EXPECT_EQ(service.blob_fnv(),
            SnapshotFnv1a64(service.blob().data(), service.blob().size()));
}

#ifdef DEFL_CHECK_ACCOUNTING
TEST(WhatIfSharedTraceDeathTest, CheckedBuildAbortsOnATamperedHint) {
  // A hint's checksum is trusted in release builds. Checked builds re-prove
  // it, so events changed after the checksum was taken abort the restore
  // instead of passing for the snapshot's arrivals.
  const std::string blob = SnapshotAtOneHour(SmallConfig(TestSeed()));
  Result<WhatIfService> loaded = WhatIfService::Load(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  auto tampered = std::make_shared<ArrivalTrace>(*loaded.value().trace());
  ASSERT_FALSE(tampered->events.empty());
  tampered->events.back().lifetime_s += 1.0;  // fnv left stale
  const WhatIfQuery run = ParseQuery("run hours=0.5").value();
  EXPECT_DEATH(
      {
        TelemetryContext telemetry;
        (void)RestoreWithHint(blob, run, tampered, &telemetry);
      },
      "no longer match");
}
#endif

}  // namespace
}  // namespace defl
