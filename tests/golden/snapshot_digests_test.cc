// Golden snapshot bytes (DESIGN.md §11): for every golden scenario, the
// FNV-1a-64 of SimSession::SnapshotBytes() right after Open (t = 0) and at a
// fixed mid-run time is pinned against tests/golden/snapshot_digests.txt.
// Snapshot files outlive the build that wrote them (checkpoints, durable run
// directories, what-if blobs), so any drift in the format -- a field added,
// a checksum computed over different bytes -- would make every existing file
// unrestorable; here it fails review as a digest diff instead. A second leg
// proves restore-then-re-snapshot is the identity on those bytes.
//
// To regenerate after an intended format change (which must also bump
// kSnapshotFormatVersion):
//   DEFL_UPDATE_GOLDEN=1 ./snapshot_digests_test
// then copy the printed block into tests/golden/snapshot_digests.txt.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/cluster/sim_session.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"
#include "tests/golden/golden_scenarios.h"

namespace defl {
namespace {

constexpr const char* kDigestFile =
    DEFL_SOURCE_DIR "/tests/golden/snapshot_digests.txt";

// The two pinned instants: before any event runs, and halfway through the
// scenarios' 3 h horizon.
struct Instant {
  const char* label;
  double t_s;
};
constexpr Instant kInstants[] = {{"t0", 0.0}, {"mid", 1.5 * 3600.0}};

std::string HexDigest(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// Snapshot of the scenario at `t_s`, event trace recording on so the
// snapshot's telemetry section is exercised too.
std::string SnapshotAt(const std::string& name, double t_s) {
  ClusterSimConfig config = MakeConfig(name);
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  if (!session.ok()) {
    return "";
  }
  if (t_s > 0.0) {
    session.value().StepUntil(t_s);
  }
  return session.value().SnapshotBytes();
}

std::map<std::string, std::string> LoadDigests() {
  std::map<std::string, std::string> digests;
  std::ifstream in(kDigestFile);
  std::string key;
  std::string digest;
  while (in >> key >> digest) {
    digests[key] = digest;
  }
  return digests;
}

class SnapshotDigestTest : public testing::TestWithParam<const char*> {};

TEST_P(SnapshotDigestTest, BytesMatchCheckedInDigest) {
  const std::string name = GetParam();
  const bool update = std::getenv("DEFL_UPDATE_GOLDEN") != nullptr;
  const std::map<std::string, std::string> digests = LoadDigests();
  for (const Instant& at : kInstants) {
    const std::string bytes = SnapshotAt(name, at.t_s);
    ASSERT_FALSE(bytes.empty());
    const std::string key = name + "@" + at.label;
    const std::string digest =
        HexDigest(SnapshotFnv1a64(bytes.data(), bytes.size()));
    if (update) {
      std::printf("GOLDEN %s %s\n", key.c_str(), digest.c_str());
      continue;
    }
    const auto it = digests.find(key);
    ASSERT_NE(it, digests.end())
        << "no snapshot digest for '" << key << "' in " << kDigestFile
        << "; regenerate with DEFL_UPDATE_GOLDEN=1";
    EXPECT_EQ(it->second, digest)
        << "snapshot bytes of '" << key << "' changed; existing snapshot files "
        << "would no longer restore. If intended, bump the format version and "
        << "regenerate " << kDigestFile << " with DEFL_UPDATE_GOLDEN=1";
  }
  if (update) {
    GTEST_SKIP() << "DEFL_UPDATE_GOLDEN set; printed new digests";
  }
}

TEST_P(SnapshotDigestTest, RestoreThenResnapshotIsIdentity) {
  const std::string name = GetParam();
  for (const Instant& at : kInstants) {
    const std::string bytes = SnapshotAt(name, at.t_s);
    ASSERT_FALSE(bytes.empty());
    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
    ASSERT_TRUE(restored.ok()) << name << "@" << at.label << ": "
                               << restored.error();
    EXPECT_TRUE(restored.value().SnapshotBytes() == bytes)
        << name << "@" << at.label << ": re-snapshot differs from the input";
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SnapshotDigestTest,
                         testing::ValuesIn(kScenarios),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace defl
