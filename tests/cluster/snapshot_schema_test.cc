// The snapshot schema (src/cluster/snapshot_schema.h, DESIGN.md §11). The
// validating reader must reject every out-of-range enum byte, narrowed int
// and unaffordable count with an error naming the field, even when the
// integrity footer has been recomputed over the damage. And every
// ClusterSimConfig field the schema lists must matter: perturbing it must
// change the snapshot bytes and either change the run or appear on the
// commented non-semantic list below.
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/sim_session.h"
#include "src/cluster/snapshot_schema.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

// Magic (8 bytes) + format version (u32) precede the payload.
constexpr size_t kHeaderBytes = 12;
constexpr size_t kFooterBytes = 8;

// Test-only archive: visits every leaf field of a schema in byte order,
// tracking its dotted path (vector elements as name[i]) and its offset in
// the encoding, and hands `visit` a closure that changes the field in place
// to a different value a valid config keeps valid.
class FieldWalker {
 public:
  using Visit = std::function<void(const std::string& path, size_t offset,
                                   const std::function<void()>& perturb)>;
  explicit FieldWalker(Visit visit) : visit_(std::move(visit)) {}

  size_t offset() const { return offset_; }

  void F64(const char* name, double& v) {
    Leaf(name, 8, [&v] { v = v == 0.0 ? 0.25 : v * 0.75; });
  }
  void U64(const char* name, uint64_t& v) { Leaf(name, 8, [&v] { ++v; }); }
  void I64(const char* name, int64_t& v) { Leaf(name, 8, [&v] { ++v; }); }
  void U8(const char* name, uint8_t& v) { Leaf(name, 1, [&v] { ++v; }); }
  void Bool(const char* name, bool& v) { Leaf(name, 1, [&v] { v = !v; }); }
  void Str(const char* name, std::string& v) {
    Leaf(name, 8 + v.size(), [&v] { v += "x"; });
  }
  template <class E>
  void Enum(const char* name, E& v, E max) {
    Leaf(name, 1, [&v, max] {
      v = static_cast<E>((static_cast<int>(v) + 1) % (static_cast<int>(max) + 1));
    });
  }
  template <class T>
  void Int(const char* name, T& v, size_t = 0) {
    Leaf(name, 8, [&v] { ++v; });
  }
  template <class T, class Each>
  void Vec(const char* name, std::vector<T>& v, size_t, Each&& each) {
    offset_ += 8;
    for (size_t i = 0; i < v.size(); ++i) {
      path_.push_back(std::string(name) + "[" + std::to_string(i) + "]");
      each(v[i]);
      path_.pop_back();
    }
  }
  template <class T>
  void Vec(const char* name, std::vector<T>& v, size_t min_bytes) {
    Vec(name, v, min_bytes, [this](T& item) { Fields(*this, item); });
  }
  template <class T>
  void Nest(const char* name, T& v) {
    path_.emplace_back(name);
    Fields(*this, v);
    path_.pop_back();
  }

 private:
  void Leaf(const char* name, size_t bytes, const std::function<void()>& perturb) {
    std::string path;
    for (const std::string& part : path_) {
      path += part + ".";
    }
    visit_(path + name, offset_, perturb);
    offset_ += bytes;
  }

  Visit visit_;
  std::vector<std::string> path_;
  size_t offset_ = 0;
};

// Payload offset of every config field in a snapshot of `config`.
std::map<std::string, size_t> ConfigOffsets(ClusterSimConfig config) {
  std::map<std::string, size_t> offsets;
  FieldWalker walker([&](const std::string& path, size_t offset,
                         const std::function<void()>&) {
    offsets[path] = kHeaderBytes + offset;
  });
  Fields(walker, config);
  return offsets;
}

// Overwrites `width` little-endian bytes at `offset` and reseals the footer,
// so only the schema's own checks stand between the damage and a restore.
std::string PokeAndReseal(std::string bytes, size_t offset, uint64_t value,
                          size_t width) {
  for (size_t i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  const size_t body = bytes.size() - kFooterBytes;
  const uint64_t fnv = SnapshotFnv1a64(bytes.data(), body);
  for (size_t i = 0; i < kFooterBytes; ++i) {
    bytes[body + i] = static_cast<char>((fnv >> (8 * i)) & 0xff);
  }
  return bytes;
}

FaultRule Rule(FaultKind kind, double p, double magnitude, double start_s,
               double end_s, int64_t max_count) {
  FaultRule rule;
  rule.kind = kind;
  rule.probability = p;
  rule.magnitude = magnitude;
  rule.start_s = start_s;
  rule.end_s = end_s;
  rule.max_count = max_count;
  return rule;
}

FaultRule ServerEvent(FaultKind kind, int64_t server, double at_s) {
  FaultRule rule = Rule(kind, 1.0, 1.0, at_s, at_s, -1);
  rule.server = server;
  return rule;
}

// Every section on: diurnal/bursty arrivals, the interactive mix under the
// slo-aware controller, reinflation with predictive holdback, 2-choices
// placement (so the cluster seed draws), a deflation deadline tight enough to
// clip, a server crash and recovery, and sampled mechanism faults inside a
// window that deflations straddle.
ClusterSimConfig EverySection() {
  ClusterSimConfig config;
  config.num_servers = 10;
  config.trace.seed = 42;
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 1.5 * 3600.0;
  config.trace =
      WithTargetLoad(config.trace, 1.7, config.num_servers, config.server_capacity);
  config.cluster.placement = PlacementPolicy::kTwoChoices;
  config.cluster.controller.alpha = 0.05;
  config.cluster.controller.deflation_deadline_s = 3.0;
  config.reinflate_period_s = 600.0;
  config.predictive_holdback = true;
  config.recovery_grace_s = 300.0;
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.6;
  config.arrivals.diurnal_period_s = 3600.0;
  config.arrivals.diurnal_phase_s = 600.0;
  config.arrivals.burst_rate_per_s = 3.0 / 3600.0;
  config.arrivals.burst_duration_s = 600.0;
  config.arrivals.burst_multiplier = 3.0;
  config.arrivals.seed = 17;
  config.interactive.enabled = true;
  config.interactive.fraction = 0.45;
  config.interactive.slo_p99_ms = 60.0;
  config.interactive.control_period_s = 300.0;
  config.interactive.rate_rps_per_cpu = 120.0;
  config.interactive.rate_period_s = 3600.0;
  config.fault_plan.seed = 5;
  config.fault_plan.rules = {
      Rule(FaultKind::kUnplugPartial, 0.3, 0.6, 1200.0, 4800.0, -1),
      Rule(FaultKind::kHvLatencySpike, 0.3, 3.0, 1200.0, 4800.0, -1),
      ServerEvent(FaultKind::kServerCrash, 3, 1800.0),
      ServerEvent(FaultKind::kServerRecover, 3, 3600.0),
  };
  return config;
}

// Fields that are serialized (a restore must reproduce them) but cannot
// change EverySection's outputs. `[*]` matches any vector index.
const char* const kNonSemantic[] = {
    // Outputs are byte-identical at every thread count (DESIGN.md §10).
    "cluster.threads",
    // Catalog names only label the VMs (spark-12); a name would matter only
    // through a "web" prefix, which tags a VM interactive.
    "trace.catalog[*].app",
    // The cluster manager registers no deflation agents, so the cascade's
    // application stage and the agent guard around it never run in a
    // cluster simulation (the single-server tools use them). Without
    // application-freed memory, unplug takes only memory the guest has
    // free, so nothing migrates cold (kOsOnly forces cold unplug).
    "cluster.controller.latency.app_free_mbps",
    "cluster.controller.latency.app_fixed_s",
    "cluster.controller.latency.unplug_cold_mbps",
    "cluster.controller.guard.rpc_timeout_s",
    "cluster.controller.guard.max_attempts",
    "cluster.controller.guard.backoff_base_s",
    "cluster.controller.guard.backoff_cap_s",
    "cluster.controller.guard.breaker_threshold",
    // Only DeflationMode::kBalloonLevel inflates a balloon.
    "cluster.controller.latency.balloon_mbps",
    // Server events are scheduled, not sampled: only kind, server and
    // start_s apply (FaultInjector::ServerEventsFor).
    "fault_plan.rules[2].vm",
    "fault_plan.rules[2].probability",
    "fault_plan.rules[2].magnitude",
    "fault_plan.rules[2].end_s",
    "fault_plan.rules[2].max_count",
    "fault_plan.rules[3].vm",
    "fault_plan.rules[3].probability",
    "fault_plan.rules[3].magnitude",
    "fault_plan.rules[3].end_s",
    "fault_plan.rules[3].max_count",
};

bool IsNonSemantic(const std::string& path) {
  std::string pattern;
  for (size_t i = 0; i < path.size(); ++i) {
    pattern += path[i];
    if (path[i] == '[') {
      pattern += '*';
      i = path.find(']', i) - 1;
    }
  }
  for (const char* tagged : kNonSemantic) {
    if (pattern == tagged || path == tagged) {
      return true;
    }
  }
  return false;
}

struct RunOutputs {
  bool opened = false;
  std::string snapshot_t0;
  uint64_t run_digest = 0;  // the registry and event trace at the end
};

RunOutputs RunToEnd(const ClusterSimConfig& base) {
  RunOutputs out;
  ClusterSimConfig config = base;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  if (!session.ok()) {
    return out;
  }
  out.opened = true;
  out.snapshot_t0 = session.value().SnapshotBytes();
  session.value().Finish();
  // Every exported output derives from these two, and the schema's digest
  // archive compares them field by field without rendering JSON.
  SnapshotDigest digest;
  WriteArchive<SnapshotDigest> ar(digest);
  ar.Nest("metrics", telemetry.metrics().ExportState());
  ar.Vec("trace_events", telemetry.trace().events(), 0);
  out.run_digest = digest.Finish();
  return out;
}

TEST(SnapshotSchemaTest, WalkerCoversTheWrittenConfigBytes) {
  // The walker's offsets are only trustworthy if it visits exactly the bytes
  // the writer emits for the config section.
  ClusterSimConfig config = EverySection();
  SnapshotWriter w;
  WriteArchive<SnapshotWriter> ar(w);
  ar.Nest("config", config);
  const size_t written = w.Finish().size() - kHeaderBytes - kFooterBytes;
  FieldWalker walker([](const std::string&, size_t, const std::function<void()>&) {});
  Fields(walker, config);
  EXPECT_EQ(walker.offset(), written);
}

TEST(SnapshotSchemaTest, EveryConfigFieldIsSemanticOrTagged) {
  const ClusterSimConfig base = EverySection();
  const RunOutputs reference = RunToEnd(base);
  ASSERT_TRUE(reference.opened);

  std::vector<std::string> paths;
  {
    ClusterSimConfig scratch = base;
    FieldWalker walker([&](const std::string& path, size_t,
                           const std::function<void()>&) { paths.push_back(path); });
    Fields(walker, scratch);
  }
  ASSERT_GT(paths.size(), 90u);

  for (size_t target = 0; target < paths.size(); ++target) {
    const std::string& path = paths[target];
    ClusterSimConfig perturbed = base;
    size_t index = 0;
    FieldWalker walker([&](const std::string&, size_t,
                           const std::function<void()>& perturb) {
      if (index++ == target) {
        perturb();
      }
    });
    Fields(walker, perturbed);
    const RunOutputs run = RunToEnd(perturbed);
    ASSERT_TRUE(run.opened) << path << ": the perturbed config is invalid";
    EXPECT_NE(run.snapshot_t0, reference.snapshot_t0)
        << path << ": perturbing the field leaves the snapshot bytes unchanged";
    const bool semantic = run.run_digest != reference.run_digest;
    if (IsNonSemantic(path)) {
      EXPECT_FALSE(semantic) << path
                             << " is tagged non-semantic but changes the run";
    } else {
      EXPECT_TRUE(semantic) << path
                            << " changes no output of the every-section run and "
                               "is not tagged non-semantic";
    }
  }
}

// A mid-run snapshot with a fault plan and recorded trace events, so every
// section the damage tests touch is present.
std::string FaultedSnapshot(ClusterSimConfig* config_out) {
  ClusterSimConfig config = EverySection();
  config.trace.duration_s = 3600.0;
  *config_out = config;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  return session.value().SnapshotBytes();
}

struct Damage {
  const char* path;  // as FieldWalker names it
  uint64_t value;
  size_t width;
};

void ExpectRejected(const std::string& bytes, const std::string& field) {
  const Result<SimSession> restored = SimSession::RestoreBytes(bytes);
  ASSERT_FALSE(restored.ok()) << field << " restored despite the damage";
  EXPECT_NE(restored.error().find(field), std::string::npos)
      << "error does not name " << field << ": " << restored.error();
}

TEST(SnapshotSchemaTest, RejectsOutOfRangeConfigFields) {
  ClusterSimConfig config;
  const std::string bytes = FaultedSnapshot(&config);
  ASSERT_TRUE(SimSession::RestoreBytes(bytes).ok());
  const std::map<std::string, size_t> offsets = ConfigOffsets(config);
  constexpr uint64_t kWide = (uint64_t{1} << 32) + 4;  // narrows to 4
  const Damage cases[] = {
      {"cluster.placement", 7, 1},
      {"cluster.strategy", 9, 1},
      {"cluster.controller.mode", 200, 1},
      {"cluster.controller.split", 2, 1},
      {"fault_plan.rules[0].kind", kNumFaultKinds, 1},
      {"num_servers", kWide, 8},
      {"cluster.threads", kWide, 8},
      {"cluster.controller.guard.max_attempts", kWide, 8},
      {"cluster.controller.guard.breaker_threshold", kWide, 8},
  };
  for (const Damage& damage : cases) {
    const auto it = offsets.find(damage.path);
    ASSERT_NE(it, offsets.end()) << damage.path;
    // The reader names the field by its schema path, vector index elided.
    std::string field = damage.path;
    const size_t bracket = field.find('[');
    if (bracket != std::string::npos) {
      field.erase(bracket, field.find(']') - bracket + 1);
    }
    ExpectRejected(PokeAndReseal(bytes, it->second, damage.value, damage.width),
                   field);
  }
}

TEST(SnapshotSchemaTest, RejectsOutOfRangeTraceRecordFields) {
  // The event trace's records are the last section: the final record's
  // fields sit at fixed distances from the footer.
  ClusterSimConfig config;
  const std::string bytes = FaultedSnapshot(&config);
  constexpr size_t kRecordBytes = 8 * 12 + 2;
  const size_t record = bytes.size() - kFooterBytes - kRecordBytes;
  ExpectRejected(PokeAndReseal(bytes, record + 8, 0xff, 1), "trace_events.kind");
  ExpectRejected(PokeAndReseal(bytes, record + 9, 5, 1), "trace_events.layer");
  ExpectRejected(
      PokeAndReseal(bytes, record + kRecordBytes - 8, uint64_t{1} << 31, 8),
      "trace_events.outcome");
}

TEST(SnapshotSchemaTest, RejectsAServerCountThePayloadCannotHold) {
  // 2^30 servers would need at least 9 GiB of per-server sections. The
  // reader rejects the count while parsing the config, before BuildCore
  // could allocate a single Server (doing so would take minutes and
  // gigabytes, not a failed restore).
  ClusterSimConfig config;
  const std::string bytes = FaultedSnapshot(&config);
  const std::map<std::string, size_t> offsets = ConfigOffsets(config);
  const std::string damaged =
      PokeAndReseal(bytes, offsets.at("num_servers"), uint64_t{1} << 30, 8);
  const Result<SimSession> restored = SimSession::RestoreBytes(damaged);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().find("config.num_servers count 1073741824 exceeds "
                                  "the remaining payload"),
            std::string::npos)
      << restored.error();
}

}  // namespace
}  // namespace defl
