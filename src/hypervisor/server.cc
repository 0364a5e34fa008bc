#include "src/hypervisor/server.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/common/logging.h"

namespace defl {

Server::Server(ServerId id, ResourceVector capacity) : id_(id), capacity_(capacity) {}

void Server::AttachTelemetry(TelemetryContext* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    metrics_ = {};
    return;
  }
  MetricsRegistry& registry = telemetry_->metrics();
  metrics_.vms_added = registry.Counter("server/vm/added");
  metrics_.vms_removed = registry.Counter("server/vm/removed");
  metrics_.overcommit_entries = registry.Counter("server/overcommit/entries");
}

void Server::RecordOvercommitTransition(double before, int64_t vm) {
  const double after = NominalOvercommitment();
  const bool was_over = before > 1.0 + 1e-9;
  const bool is_over = after > 1.0 + 1e-9;
  if (was_over == is_over) {
    return;
  }
  if (is_over) {
    telemetry_->metrics().Add(metrics_.overcommit_entries);
  }
  // Reuse the target vector to carry the overcommit factors: cpu slot =
  // factor before the transition, memory slot = factor after.
  ResourceVector factors;
  factors[ResourceKind::kCpu] = before;
  factors[ResourceKind::kMemory] = after;
  telemetry_->trace().Record(
      is_over ? TraceEventKind::kOvercommitEnter : TraceEventKind::kOvercommitExit,
      CascadeLayer::kHypervisor, vm, id_, factors, ResourceVector::Zero(), 0);
}

Vm* Server::AddVm(std::unique_ptr<Vm> vm) {
  assert(vm != nullptr);
  if (!vm->effective().AllLeq(Free())) {
    DEFL_LOG(kWarn) << "server " << id_ << ": admitting VM " << vm->id()
                    << " beyond free capacity";
  }
  vm->set_state(VmState::kRunning);
  const double oc_before = telemetry_ != nullptr ? NominalOvercommitment() : 0.0;
  vms_.push_back(std::move(vm));
  Vm* added = vms_.back().get();
  added->set_allocation_listener(this);
  OnAllocationChanged();
  if (telemetry_ != nullptr) {
    telemetry_->metrics().Add(metrics_.vms_added);
    telemetry_->trace().Record(TraceEventKind::kVmLaunch, CascadeLayer::kNone,
                               added->id(), id_, added->size(), added->effective(), 0);
    RecordOvercommitTransition(oc_before, added->id());
  }
  return added;
}

std::unique_ptr<Vm> Server::RemoveVm(VmId id) {
  const auto it = std::find_if(vms_.begin(), vms_.end(),
                               [id](const auto& vm) { return vm->id() == id; });
  if (it == vms_.end()) {
    return nullptr;
  }
  const double oc_before = telemetry_ != nullptr ? NominalOvercommitment() : 0.0;
  std::unique_ptr<Vm> out = std::move(*it);
  vms_.erase(it);
  out->set_allocation_listener(nullptr);
  OnAllocationChanged();
  if (telemetry_ != nullptr) {
    telemetry_->metrics().Add(metrics_.vms_removed);
    telemetry_->trace().Record(TraceEventKind::kVmRemove, CascadeLayer::kNone,
                               out->id(), id_, out->size(), out->effective(), 0);
    RecordOvercommitTransition(oc_before, out->id());
  }
  return out;
}

Vm* Server::FindVm(VmId id) {
  const auto it = std::find_if(vms_.begin(), vms_.end(),
                               [id](const auto& vm) { return vm->id() == id; });
  return it != vms_.end() ? it->get() : nullptr;
}

ServerAccounting Server::RecomputeAccounting() const {
  // One pass, but each aggregate folds its own accumulator in hosting
  // order: the result is bit-identical to the dedicated per-aggregate loops
  // this cache replaced (placement output must not shift by even one ulp).
  ServerAccounting out;
  for (const auto& vm : vms_) {
    const ResourceVector effective = vm->effective();
    out.allocated += effective;
    out.deflatable += vm->deflatable_amount(effective);
    if (vm->priority() == VmPriority::kLow) {
      out.preemptible += effective;
    }
    out.nominal += vm->size();
  }
  return out;
}

bool Server::AccountingConsistent() const {
  return accounting_dirty_ || accounting_ == RecomputeAccounting();
}

const ServerAccounting& Server::accounting() const {
  if (accounting_dirty_) {
    accounting_ = RecomputeAccounting();
    accounting_dirty_ = false;
  }
#ifdef DEFL_CHECK_ACCOUNTING
  else if (!AccountingConsistent()) {
    // A mutation bypassed the AllocationListener hooks: the cached
    // aggregates no longer match the hosted VMs. This is a bug in whatever
    // mutated the VM, not recoverable bookkeeping -- fail loudly.
    DEFL_LOG(kError) << "server " << id_
                     << ": cached accounting drifted from recompute "
                        "(allocation mutated without notification)";
    std::abort();
  }
#endif
  return accounting_;
}

ResourceVector Server::Allocated() const { return accounting().allocated; }

ResourceVector Server::Free() const {
  return (capacity_ - Allocated()).ClampNonNegative();
}

ResourceVector Server::Deflatable() const { return accounting().deflatable; }

ResourceVector Server::Availability() const { return Free() + Deflatable(); }

ResourceVector Server::Preemptible() const { return accounting().preemptible; }

ResourceVector Server::NominalDemand() const { return accounting().nominal; }

double Server::NominalOvercommitment() const {
  const ResourceVector& nominal = accounting().nominal;
  double oc = 0.0;
  for (const ResourceKind kind : kAllResources) {
    if (capacity_[kind] > 0.0) {
      oc = std::max(oc, nominal[kind] / capacity_[kind]);
    }
  }
  return oc;
}

double Server::Utilization() const {
  const ResourceVector alloc = Allocated();
  double util = 0.0;
  for (const ResourceKind kind : kAllResources) {
    if (capacity_[kind] > 0.0) {
      util = std::max(util, alloc[kind] / capacity_[kind]);
    }
  }
  return std::min(util, 1.0);
}

bool Server::CanFitWithDeflation(const ResourceVector& demand) const {
  return demand.AllLeq(Availability());
}

}  // namespace defl
