// Virtual machine model. A Vm tracks its allocation state across the two
// mechanical deflation layers:
//   * OS level   -- resources hot-unplugged from the guest (GuestOs),
//   * hypervisor -- resources overcommitted underneath the guest
//                   (CPU-share throttling, memory resident limit, I/O caps).
// Application-level deflation changes the app's own configuration and is
// tracked by the deflation agents (src/core), not here.
//
// Invariants (enforced by the mutators):
//   effective() = spec - unplugged - hv_reclaimed  >= 0 element-wise
//   hv_reclaimed <= guest_visible = spec - unplugged
#ifndef SRC_HYPERVISOR_VM_H_
#define SRC_HYPERVISOR_VM_H_

#include <cstdint>
#include <string>

#include "src/hypervisor/guest_os.h"
#include "src/resources/resource_vector.h"

namespace defl {

using VmId = int64_t;

enum class VmPriority {
  kHigh,  // non-deflatable, non-preemptible
  kLow,   // deflatable (transient)
};

enum class VmState { kPending, kRunning, kPreempted, kCompleted };

struct VmSpec {
  std::string name;
  ResourceVector size;
  VmPriority priority = VmPriority::kLow;
  // Minimum viable allocation; deflating below this is infeasible and the
  // cluster manager preempts instead (Section 5). Defaults to zero =
  // fully deflatable.
  ResourceVector min_size;
};

// What the application actually experiences; consumed by the app performance
// models in src/apps and src/spark.
struct EffectiveAllocation {
  // CPUs the guest sees (after hot-unplug).
  double visible_cpus = 0.0;
  // Physical CPU capacity backing them (after hypervisor shares). When
  // cpu_capacity < visible_cpus the vCPUs are multiplexed and lock-holder
  // preemption penalties apply.
  double cpu_capacity = 0.0;
  // Memory the guest sees (after hot-unplug).
  double guest_memory_mb = 0.0;
  // Hypervisor-backed resident memory; guest pages beyond this are swapped.
  double resident_memory_mb = 0.0;
  double disk_bw = 0.0;
  double net_bw = 0.0;
  // Guest page cache still standing (hot-unplug consumes it after the
  // truly-free pool); I/O-reuse-heavy apps slow down when it shrinks.
  double page_cache_mb = 0.0;

  // True when the hypervisor is multiplexing vCPUs onto fewer cores.
  bool cpu_multiplexed(double eps = 1e-9) const {
    return cpu_capacity + eps < visible_cpus;
  }
  // True when guest memory is not fully backed (host swapping active).
  bool memory_overcommitted(double eps = 1e-9) const {
    return resident_memory_mb + eps < guest_memory_mb;
  }
};

// A Vm observes its own GuestOs (unplug/balloon mutations) and forwards
// every allocation change -- its own hypervisor-level mutations included --
// to the listener its host server installs, so server-level accounting can
// be cached instead of recomputed by scanning VMs.
class Vm : public AllocationListener {
 public:
  Vm(VmId id, VmSpec spec, const GuestOs::Params& os_params = GuestOs::Params());
  // Moves rebind the guest-OS observer to the new object and drop the host
  // listener: a hosted VM is owned by its server and is never moved.
  Vm(Vm&& other) noexcept;
  Vm& operator=(Vm&& other) noexcept;

  VmId id() const { return id_; }
  const VmSpec& spec() const { return spec_; }
  const ResourceVector& size() const { return spec_.size; }
  VmPriority priority() const { return spec_.priority; }
  bool deflatable() const { return spec_.priority == VmPriority::kLow; }

  VmState state() const { return state_; }
  void set_state(VmState state) { state_ = state; }

  GuestOs& guest_os() { return guest_os_; }
  const GuestOs& guest_os() const { return guest_os_; }

  // --- Allocation views ---

  // What the guest OS sees (after unplug).
  ResourceVector guest_visible() const { return guest_os_.visible(); }
  // What is physically backed (after unplug and hypervisor reclamation).
  ResourceVector effective() const;
  // Resources still reclaimable before hitting min_size (zero for high-pri).
  ResourceVector deflatable_amount() const;
  // The same, given this VM's effective() already computed: a caller that
  // needs both pays for effective() once.
  ResourceVector deflatable_amount(const ResourceVector& effective) const;
  // Per-resource deflation fraction: 1 - effective/spec, in [0, 1].
  double DeflationFraction(ResourceKind kind) const;
  // max over resources of DeflationFraction -- the "d" of Section 4.1.
  double MaxDeflationFraction() const;

  EffectiveAllocation allocation() const;

  // --- Hypervisor-level mechanism (overcommitment) ---

  // Reclaims up to `amount` via hypervisor overcommitment (CPU shares,
  // memory limit, I/O throttling). Clamped so effective() stays >= 0.
  // Returns what was actually reclaimed.
  ResourceVector HvReclaim(const ResourceVector& amount);
  // Releases previously overcommitted resources (reinflation step 1).
  // Returns what was actually released.
  ResourceVector HvRelease(const ResourceVector& amount);
  const ResourceVector& hv_reclaimed() const { return hv_reclaimed_; }

  // Called after guest unplug: hypervisor reclamation of a resource can
  // never exceed what the guest still sees; re-clamps and returns any
  // excess that became automatically free (unplugged memory is returned to
  // the host without needing overcommitment).
  void ClampHvToVisible();

  // Deterministic checkpoint/restore (SimSession snapshots): reinstates the
  // hypervisor-level reclamation directly, bypassing the HvReclaim clamping
  // (the snapshotted value already satisfied the invariants when taken).
  void RestoreHvReclaimed(const ResourceVector& amount) {
    hv_reclaimed_ = amount;
    NotifyAllocationChanged();
  }

  // --- Accounting change notification ---

  // Installs the observer told about every allocation-affecting mutation of
  // this VM (set by the host server on AddVm, cleared on RemoveVm).
  void set_allocation_listener(AllocationListener* listener) { listener_ = listener; }
  // Guest-OS mutations arrive here and are forwarded to the host listener.
  void OnAllocationChanged() override;

 private:
  void NotifyAllocationChanged();

  VmId id_;
  VmSpec spec_;
  VmState state_ = VmState::kPending;
  GuestOs guest_os_;
  ResourceVector hv_reclaimed_;
  AllocationListener* listener_ = nullptr;
};

}  // namespace defl

#endif  // SRC_HYPERVISOR_VM_H_
