#include "src/hypervisor/vm.h"

#include <algorithm>
#include <cassert>

namespace defl {

Vm::Vm(VmId id, VmSpec spec, const GuestOs::Params& os_params)
    : id_(id), spec_(std::move(spec)), guest_os_(spec_.size, os_params) {
  guest_os_.set_fault_scope(id_);
  guest_os_.set_allocation_listener(this);
}

Vm::Vm(Vm&& other) noexcept
    : id_(other.id_),
      spec_(std::move(other.spec_)),
      state_(other.state_),
      guest_os_(std::move(other.guest_os_)),
      hv_reclaimed_(other.hv_reclaimed_) {
  guest_os_.set_allocation_listener(this);
}

Vm& Vm::operator=(Vm&& other) noexcept {
  if (this != &other) {
    id_ = other.id_;
    spec_ = std::move(other.spec_);
    state_ = other.state_;
    guest_os_ = std::move(other.guest_os_);
    hv_reclaimed_ = other.hv_reclaimed_;
    guest_os_.set_allocation_listener(this);
    listener_ = nullptr;
  }
  return *this;
}

void Vm::OnAllocationChanged() { NotifyAllocationChanged(); }

void Vm::NotifyAllocationChanged() {
  if (listener_ != nullptr) {
    listener_->OnAllocationChanged();
  }
}

ResourceVector Vm::effective() const {
  // Balloon-pinned memory has been handed back to the host.
  ResourceVector balloon;
  balloon[ResourceKind::kMemory] = guest_os_.balloon_mb();
  return (guest_visible() - balloon - hv_reclaimed_).ClampNonNegative();
}

ResourceVector Vm::deflatable_amount() const {
  return deflatable() ? deflatable_amount(effective()) : ResourceVector::Zero();
}

ResourceVector Vm::deflatable_amount(const ResourceVector& effective) const {
  if (!deflatable()) {
    return ResourceVector::Zero();
  }
  return (effective - spec_.min_size).ClampNonNegative();
}

double Vm::DeflationFraction(ResourceKind kind) const {
  const double total = spec_.size[kind];
  if (total <= 0.0) {
    return 0.0;
  }
  return std::clamp(1.0 - effective()[kind] / total, 0.0, 1.0);
}

double Vm::MaxDeflationFraction() const {
  double d = 0.0;
  for (const ResourceKind kind : kAllResources) {
    if (spec_.size[kind] > 0.0) {
      d = std::max(d, DeflationFraction(kind));
    }
  }
  return d;
}

EffectiveAllocation Vm::allocation() const {
  const ResourceVector vis = guest_visible();
  const ResourceVector eff = effective();
  EffectiveAllocation a;
  a.visible_cpus = vis.cpu();
  a.cpu_capacity = eff.cpu();
  // Balloon-pinned memory and its fragmentation waste are invisible-in-
  // effect: the guest sees them but applications cannot use them.
  a.guest_memory_mb = guest_os_.UsableMemoryMb();
  a.resident_memory_mb = std::min(eff.memory_mb(), a.guest_memory_mb);
  a.disk_bw = eff.disk_bw();
  a.net_bw = eff.net_bw();
  a.page_cache_mb = guest_os_.page_cache_mb();
  return a;
}

ResourceVector Vm::HvReclaim(const ResourceVector& amount) {
  // Cannot take more than what is currently backed.
  const ResourceVector take = amount.ClampNonNegative().Min(effective());
  hv_reclaimed_ += take;
  NotifyAllocationChanged();
  return take;
}

ResourceVector Vm::HvRelease(const ResourceVector& amount) {
  const ResourceVector give = amount.ClampNonNegative().Min(hv_reclaimed_);
  hv_reclaimed_ -= give;
  NotifyAllocationChanged();
  return give;
}

void Vm::ClampHvToVisible() {
  ResourceVector ceiling = guest_visible();
  ceiling[ResourceKind::kMemory] =
      std::max(0.0, ceiling.memory_mb() - guest_os_.balloon_mb());
  hv_reclaimed_ = hv_reclaimed_.Min(ceiling).ClampNonNegative();
  NotifyAllocationChanged();
}

}  // namespace defl
