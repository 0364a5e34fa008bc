// Golden end-to-end determinism suite (DESIGN.md §10): every simulation
// scenario -- including each shipped examples/*.plan fault plan -- must
// produce byte-identical metrics JSON and event-trace JSONL whether it runs
// on 1 thread or 8. On top of the pairwise comparison, the 1-thread output
// is hashed and pinned against tests/golden/golden_digests.txt, so any
// change to the simulation's observable output (intended or not) shows up
// in review as a digest diff.
//
// To regenerate after an intended output change:
//   DEFL_UPDATE_GOLDEN=1 ./golden_determinism_test
// then copy the printed block into tests/golden/golden_digests.txt.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_sim.h"
#include "src/cluster/sim_session.h"
#include "src/telemetry/telemetry.h"
#include "tests/golden/golden_scenarios.h"

namespace defl {
namespace {

constexpr const char* kDigestFile =
    DEFL_SOURCE_DIR "/tests/golden/golden_digests.txt";

// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms for the
// byte-stream pinning this suite needs (not cryptographic, not required).
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HexDigest(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// Runs the scenario at the given thread count and returns the full
// observable output: metrics JSON, then the event-trace JSONL.
std::string RunScenario(const std::string& name, int threads) {
  ClusterSimConfig config = MakeConfig(name);
  config.cluster.threads = threads;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  RunClusterSim(config);
  std::ostringstream out;
  telemetry.metrics().DumpJson(out);
  out << "\n";
  telemetry.trace().DumpJsonl(out);
  return out.str();
}

// Runs the scenario to its halfway point, snapshots, drops the session (as
// if the process were killed), restores into a FRESH telemetry context at a
// different thread count, and finishes. Returns the resumed run's output.
std::string RunScenarioWithSnapshot(const std::string& name, int threads,
                                    int restore_threads) {
  ClusterSimConfig config = MakeConfig(name);
  config.cluster.threads = threads;
  std::string bytes;
  {
    TelemetryContext telemetry;
    telemetry.trace().set_enabled(true);
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    EXPECT_TRUE(session.ok()) << session.error();
    if (!session.ok()) {
      return "";
    }
    session.value().StepUntil(config.trace.duration_s / 2.0);
    bytes = session.value().SnapshotBytes();
  }
  TelemetryContext resumed;
  SimSession::RestoreOptions options;
  options.telemetry = &resumed;
  options.threads = restore_threads;
  Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  EXPECT_TRUE(restored.ok()) << restored.error();
  if (!restored.ok()) {
    return "";
  }
  restored.value().Finish();
  std::ostringstream out;
  resumed.metrics().DumpJson(out);
  out << "\n";
  resumed.trace().DumpJsonl(out);
  return out.str();
}

std::map<std::string, std::string> LoadDigests() {
  std::map<std::string, std::string> digests;
  std::ifstream in(kDigestFile);
  std::string name;
  std::string digest;
  while (in >> name >> digest) {
    digests[name] = digest;
  }
  return digests;
}

class GoldenDeterminismTest : public testing::TestWithParam<const char*> {};

TEST_P(GoldenDeterminismTest, ThreadCountDoesNotChangeOutput) {
  const std::string name = GetParam();
  const std::string one = RunScenario(name, 1);
  const std::string eight = RunScenario(name, 8);
  // Byte-for-byte: the sharded sweeps must be invisible in the output.
  ASSERT_EQ(one, eight) << "scenario " << name
                        << ": output differs between --threads 1 and 8";
  EXPECT_FALSE(one.empty());
}

TEST_P(GoldenDeterminismTest, MatchesCheckedInDigest) {
  const std::string name = GetParam();
  const std::string digest = HexDigest(Fnv1a64(RunScenario(name, 1)));
  if (std::getenv("DEFL_UPDATE_GOLDEN") != nullptr) {
    // Regeneration mode: print the line to paste into the digest file.
    std::printf("GOLDEN %s %s\n", name.c_str(), digest.c_str());
    GTEST_SKIP() << "DEFL_UPDATE_GOLDEN set; printed new digest";
  }
  const std::map<std::string, std::string> digests = LoadDigests();
  const auto it = digests.find(name);
  ASSERT_NE(it, digests.end())
      << "no digest for scenario '" << name << "' in " << kDigestFile
      << "; regenerate with DEFL_UPDATE_GOLDEN=1";
  EXPECT_EQ(it->second, digest)
      << "scenario " << name << " output changed; if intended, regenerate "
      << kDigestFile << " with DEFL_UPDATE_GOLDEN=1";
}

TEST_P(GoldenDeterminismTest, SnapshotMidRunDoesNotChangeOutput) {
  // Kill-at-halfway + restore must be byte-invisible against the same
  // uninterrupted output the digest file pins, at both thread pairings.
  const std::string name = GetParam();
  const std::string uninterrupted = RunScenario(name, 1);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(uninterrupted, RunScenarioWithSnapshot(name, 1, 8))
      << "scenario " << name << ": snapshot at threads 1, restore at 8";
  EXPECT_EQ(uninterrupted, RunScenarioWithSnapshot(name, 8, 1))
      << "scenario " << name << ": snapshot at threads 8, restore at 1";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenDeterminismTest,
                         testing::ValuesIn(kScenarios),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace defl
