// SimSession: the steppable public surface of the cluster simulation.
// Where RunClusterSim() replays a whole trace in one opaque call, a session
// lets an external driver interleave with the simulation -- advance to a
// chosen time, inspect live cluster state, checkpoint to disk, and resume a
// killed run days later:
//
//   Result<SimSession> session = SimSession::Open(config);
//   session.value().StepUntil(12 * 3600.0);
//   session.value().Snapshot("run.snap");       // kill-safe checkpoint
//   ...
//   Result<SimSession> resumed = SimSession::Restore("run.snap");
//   ClusterSimResult result = resumed.value().Finish();
//
// Determinism contract (DESIGN.md §11): a snapshot captures the *complete*
// simulation state -- virtual clock, pending event queue, RNG streams,
// fault-injector cursors, per-VM deflation state, telemetry registry and
// event trace -- so kill + Restore at any step boundary produces output
// byte-identical to the uninterrupted run, for any thread count on either
// side of the checkpoint. RunClusterSim() is now a thin wrapper over this
// class: Open + Finish.
#ifndef SRC_CLUSTER_SIM_SESSION_H_
#define SRC_CLUSTER_SIM_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster_sim.h"
#include "src/common/result.h"

namespace defl {

// Read-only live views returned by SimSession::Inspect().
struct SimServerView {
  ServerId id = -1;
  ServerHealth health = ServerHealth::kHealthy;
  int64_t vm_count = 0;
  ResourceVector allocated;
  ResourceVector free;
  double nominal_overcommitment = 0.0;
};

struct SimInspectView {
  double now_s = 0.0;
  double duration_s = 0.0;
  int64_t events_executed = 0;
  int64_t pending_events = 0;  // still queued (including past the horizon)
  int64_t hosted_vms = 0;
  double utilization = 0.0;
  double overcommitment = 0.0;
  ClusterCounters counters;
  std::vector<SimServerView> servers;
};

// A materialised arrival trace, frozen once built so any number of
// sessions -- concurrently, from different threads -- can share one copy.
// VmId == index into `events`. `fnv` is the checksum a snapshot records for
// the trace (the FNV-1a of its serialized form, format v4), and
// `interactive_tagged` counts the events named "web*".
struct ArrivalTrace {
  std::vector<TraceEvent> events;
  uint64_t fnv = 0;
  int64_t interactive_tagged = 0;
};

// The checksum ArrivalTrace::fnv holds and snapshots record for a trace: the
// FNV-1a-64 of the sealed blob a SnapshotWriter would produce from the events
// alone (header, each event's fields, footer), streamed without building it.
uint64_t TraceFnv(const std::vector<TraceEvent>& trace);

class SimSession {
 public:
  struct RestoreOptions {
    // Publish into this context instead of a session-private one. It must be
    // freshly constructed (no metrics registered): Restore rebuilds the
    // snapshot's registry layout inside it and rejects any mismatch.
    TelemetryContext* telemetry = nullptr;
    // > 0 overrides the snapshotted ClusterConfig::threads. Outputs are
    // byte-identical for every value (DESIGN.md §10), so a snapshot taken
    // at --threads 8 restores exactly on a single-core box.
    int threads = 0;
    // >= 0 overrides the snapshotted placement policy (a PlacementPolicy
    // cast to int). The restored fleet state is untouched -- only future
    // placement decisions change. This is the sweep orchestrator's policy
    // axis (DESIGN.md §15); out-of-range values fail the restore.
    int placement = -1;
    // Interactive-serving override (the `slo` what-if query, DESIGN.md §16):
    // enables the SLO controller on the restored child -- or adjusts an
    // already-interactive run -- without disturbing restored fleet state.
    // Negative fields keep the snapshotted value. Overriding `fraction`
    // re-tags the regenerated trace, so it fails on explicit-trace
    // snapshots (there is no generator to rerun).
    struct SloOverride {
      bool active = false;
      double slo_p99_ms = -1.0;
      double fraction = -1.0;
      int policy = -1;  // 0 = uniform baseline, 1 = slo-aware
      double control_period_s = -1.0;
    };
    SloOverride slo;
    // A verified trace to adopt instead of regenerating one (the what-if
    // service passes its base session's trace() to every child). Adopted
    // only when the snapshot's trace is config-generated (elided) and this
    // trace's size and checksum equal the pair the snapshot recorded -- the
    // same test a regenerated trace must pass. Otherwise it is ignored and
    // the trace is regenerated and verified (or read inline) as without it.
    // Never written through: an `slo` fraction override re-tags a private
    // copy.
    std::shared_ptr<const ArrivalTrace> trace;
  };

  // Builds the session and schedules the whole run (fault timeline, trace
  // arrivals, sampling and reinflation ticks) without executing anything:
  // the clock is at 0 until the first Step*. Fails on an invalid config.
  static Result<SimSession> Open(const ClusterSimConfig& config);

  // Rebuilds a session from Snapshot() output. Corrupted, truncated, or
  // version-skewed snapshots fail with a descriptive error, never a crash.
  static Result<SimSession> Restore(const std::string& path,
                                    const RestoreOptions& options);
  // Rebuilds a session from a durable run directory (DESIGN.md §13): loads
  // the newest valid checkpoint snapshot and re-applies the write-ahead
  // journal's command suffix, yielding the state an uninterrupted run would
  // hold -- no matter where (even mid-checkpoint or mid-WAL-append) the
  // writing process was SIGKILLed. Read-only: the directory is not touched;
  // use DurableSession to continue the run. Defined in durable_session.cc.
  static Result<SimSession> Recover(const std::string& dir,
                                    const RestoreOptions& options);
  static Result<SimSession> Recover(const std::string& dir) {
    return Recover(dir, RestoreOptions());
  }
  static Result<SimSession> Restore(const std::string& path) {
    return Restore(path, RestoreOptions());
  }
  static Result<SimSession> RestoreBytes(const std::string& bytes,
                                         const RestoreOptions& options);
  static Result<SimSession> RestoreBytes(const std::string& bytes) {
    return RestoreBytes(bytes, RestoreOptions());
  }
  // Zero-copy restore over caller-kept memory: the blob is only read during
  // the call and never written, so any number of sessions -- including
  // concurrently, from different threads -- can fork off one shared const
  // blob (the what-if service's copy-on-restore children, DESIGN.md §15).
  static Result<SimSession> RestoreView(std::string_view bytes,
                                        const RestoreOptions& options);

  SimSession(SimSession&&) noexcept;
  SimSession& operator=(SimSession&&) noexcept;
  ~SimSession();

  double now() const;
  double duration_s() const;
  int64_t events_executed() const;
  // True when no pending event is due within the simulated horizon.
  bool done() const;

  // Executes every event due at or before min(t, duration) and advances the
  // clock to that time (matching Simulator::Run boundary semantics).
  void StepUntil(double t);
  // Executes up to `max_events` due events, advancing the clock only as far
  // as the last one executed. Returns how many ran.
  int64_t StepEvents(int64_t max_events);

  SimInspectView Inspect() const;

  // Serializes the complete deterministic state (format: DESIGN.md §11).
  // Snapshot() writes atomically (temp file + rename).
  std::string SnapshotBytes() const;
  Result<bool> Snapshot(const std::string& path) const;

  // Runs the remainder of the simulation and derives the result from the
  // telemetry registry, exactly as RunClusterSim always has.
  ClusterSimResult Finish();

  // The telemetry context the run publishes through (session-owned unless a
  // sink was supplied via ClusterSimConfig::telemetry / RestoreOptions).
  TelemetryContext& telemetry();
  const ClusterSimConfig& config() const;
  // The session's immutable arrival trace; pass it as RestoreOptions::trace
  // to restore further sessions off the same snapshot without regenerating.
  const std::shared_ptr<const ArrivalTrace>& trace() const;
  // Deep access for tests and embedders; treat as read-only between steps.
  ClusterManager& manager();

  // Opaque implementation state (defined in sim_session.cc; public only so
  // the build helpers there can construct it).
  struct State;

 private:
  explicit SimSession(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_SIM_SESSION_H_
