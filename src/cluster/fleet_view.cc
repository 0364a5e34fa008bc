#include "src/cluster/fleet_view.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/logging.h"

namespace defl {

FleetView::~FleetView() {
  if (servers_ == nullptr) {
    return;
  }
  for (const auto& server : *servers_) {
    server->set_observer(nullptr);
  }
}

void FleetView::Bind(const std::vector<std::unique_ptr<Server>>& servers) {
  assert(servers_ == nullptr && "FleetView already bound");
  servers_ = &servers;
  count_ = servers.size();
  for (auto& col : free_) col.resize(count_);
  for (auto& col : deflatable_) col.resize(count_);
  for (auto& col : preemptible_) col.resize(count_);
  for (auto& col : nominal_) col.resize(count_);
  eligible_.assign(count_, 1);
  // Levels up to the first whose single node covers every row, and at least
  // up to the blocks the scan tests.
  top_level_ = kBlockLevel;
  while (count_ > (size_t{1} << top_level_)) {
    ++top_level_;
  }
  level_offset_.assign(static_cast<size_t>(top_level_) + 1, 0);
  size_t nodes = 0;
  for (int level = 1; level <= top_level_; ++level) {
    level_offset_[level] = nodes;
    nodes += LevelSize(level);
  }
  // NaN until the first Refresh() builds the tree: never skippable.
  BlockMax unbuilt;
  unbuilt.fill(std::numeric_limits<double>::quiet_NaN());
  for (auto& tree : tree_) tree.assign(nodes, unbuilt);
  dirty_.assign(count_, 0);
  dirty_rows_.clear();
  dirty_rows_.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    assert(servers[i]->id() == static_cast<ServerId>(i) &&
           "FleetView requires dense server ids (id == row)");
    servers[i]->set_observer(this);
    MarkDirty(i);
  }
}

void FleetView::OnServerAllocationChanged(ServerId id) {
  MarkDirty(static_cast<size_t>(id));
}

void FleetView::MarkDirty(size_t row) {
  assert(row < count_);
  if (dirty_[row] == 0) {
    dirty_[row] = 1;
    dirty_rows_.push_back(static_cast<uint32_t>(row));
  }
}

void FleetView::MarkAllDirty() {
  for (size_t i = 0; i < count_; ++i) {
    MarkDirty(i);
  }
}

void FleetView::RefreshRow(size_t row) {
  // Read through the same public accessors the object-graph scan would
  // call: the mirrored bits are exactly the bits that scan would have seen
  // (and the read warms/validates the server's own accounting cache).
  const Server& server = *(*servers_)[row];
  const ResourceVector free = server.Free();
  const ResourceVector deflatable = server.Deflatable();
  const ResourceVector preemptible = server.Preemptible();
  const ResourceVector nominal = server.NominalDemand();
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    free_[k][row] = free[kind];
    deflatable_[k][row] = deflatable[kind];
    preemptible_[k][row] = preemptible[kind];
    nominal_[k][row] = nominal[kind];
  }
}

namespace {

constexpr auto kFree = static_cast<size_t>(AvailabilityMode::kFreeOnly);
constexpr auto kDeflatable = static_cast<size_t>(AvailabilityMode::kFreePlusDeflatable);
constexpr auto kPreemptible = static_cast<size_t>(AvailabilityMode::kFreePlusPreemptible);

// The larger of two maxima, NaN when either is NaN (a NaN availability
// passes the scan's per-row test, so no node above it may be skipped on
// that dimension).
double NanMax(double a, double b) { return (a > b || a != a) ? a : b; }

}  // namespace

FleetView::NodeMax FleetView::ReadAvailability(size_t row) const {
  NodeMax out;
  for (size_t k = 0; k < kNumResources; ++k) {
    const double free = free_[k][row];
    // + 0.0 turns -0.0 into +0.0: a node's bits must not depend on which of
    // two equal children it copied.
    out.mode[kFree][k] = free + 0.0;
    out.mode[kDeflatable][k] = (free + deflatable_[k][row]) + 0.0;
    out.mode[kPreemptible][k] = (free + preemptible_[k][row]) + 0.0;
  }
  return out;
}

FleetView::NodeMax FleetView::StoredNode(int level, size_t node) const {
  NodeMax out;
  for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
    out.mode[mode] = tree_[mode][level_offset_[level] + node];
  }
  return out;
}

void FleetView::StoreNode(int level, size_t node, const NodeMax& value) {
  for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
    tree_[mode][level_offset_[level] + node] = value.mode[mode];
  }
}

FleetView::NodeMax FleetView::ComputeNode(int level, size_t node) const {
  const auto child = [&](size_t index) {
    return level == 1 ? ReadAvailability(index) : StoredNode(level - 1, index);
  };
  NodeMax out = child(2 * node);
  if (2 * node + 1 < LevelSize(level - 1)) {
    const NodeMax right = child(2 * node + 1);
    for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
      for (size_t k = 0; k < kNumResources; ++k) {
        out.mode[mode][k] = NanMax(out.mode[mode][k], right.mode[mode][k]);
      }
    }
  }
  return out;
}

bool FleetView::NodeCurrent(int level, size_t node, const NodeMax& fresh) const {
  const NodeMax stored = StoredNode(level, node);
  return std::memcmp(&fresh, &stored, sizeof(NodeMax)) == 0;
}

void FleetView::UpdateAncestors(size_t row) {
  size_t node = row >> 1;
  for (int level = 1; level <= top_level_; ++level, node >>= 1) {
    const NodeMax fresh = ComputeNode(level, node);
    if (NodeCurrent(level, node, fresh)) {
      return;  // every node above is a function of this one and its siblings
    }
    StoreNode(level, node, fresh);
  }
}

void FleetView::RebuildTree() {
  for (int level = 1; level <= top_level_; ++level) {
    for (size_t node = 0; node < LevelSize(level); ++node) {
      StoreNode(level, node, ComputeNode(level, node));
    }
  }
}

bool FleetView::TreeConsistent() const {
  for (int level = 1; level <= top_level_; ++level) {
    for (size_t node = 0; node < LevelSize(level); ++node) {
      if (!NodeCurrent(level, node, ComputeNode(level, node))) {
        return false;
      }
    }
  }
  return true;
}

void FleetView::Refresh() {
  if (dirty_rows_.empty()) {
    return;
  }
  // Canonical ascending order regardless of mutation arrival order. When
  // most rows are dirty (initial bind, post-restore) a bitmap sweep beats
  // sorting a near-full permutation, and one bottom-up rebuild beats
  // walking each row's ancestors.
  if (dirty_rows_.size() >= count_ / 4 + 1) {
    for (size_t row = 0; row < count_; ++row) {
      if (dirty_[row] != 0) {
        RefreshRow(row);
        dirty_[row] = 0;
      }
    }
    RebuildTree();
  } else {
    std::sort(dirty_rows_.begin(), dirty_rows_.end());
    for (const uint32_t row : dirty_rows_) {
      RefreshRow(row);
      dirty_[row] = 0;
      UpdateAncestors(row);
    }
  }
  dirty_rows_.clear();
#ifdef DEFL_CHECK_ACCOUNTING
  // Every node, not only the ones just touched: a column written outside
  // Refresh() would leave some other node stale.
  if (!TreeConsistent()) {
    DEFL_LOG(kError) << "fleet view max-tree drifted from its children";
    std::abort();
  }
#endif
}

FleetEntry FleetView::Entry(size_t row) const {
  FleetEntry entry;
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    entry.free[kind] = free_[k][row];
    entry.deflatable[kind] = deflatable_[k][row];
    entry.preemptible[kind] = preemptible_[k][row];
    entry.nominal[kind] = nominal_[k][row];
  }
  entry.eligible = eligible_[row] != 0;
  return entry;
}

bool FleetView::RowConsistent(size_t row) const {
  const Server& server = *(*servers_)[row];
  const FleetEntry entry = Entry(row);
  return entry.free == server.Free() && entry.deflatable == server.Deflatable() &&
         entry.preemptible == server.Preemptible() &&
         entry.nominal == server.NominalDemand();
}

}  // namespace defl
