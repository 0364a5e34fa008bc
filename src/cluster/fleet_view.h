// Structure-of-arrays mirror of the placement/accounting hot state
// (DESIGN.md §12). The object graph (Server -> Vm -> GuestOs) stays the
// source of truth; FleetView keeps flat parallel arrays of each server's
// free / deflatable / preemptible / nominal resource components plus a
// candidate-eligibility bit, so the placement scans can run as branch-light
// contiguous loops instead of pointer-chasing through per-server caches.
//
// Coherence protocol: FleetView installs itself as every server's
// ServerObserver, riding the same AllocationListener dirty-flag chain that
// invalidates the per-server accounting caches (GuestOs -> Vm -> Server).
// Any mutation that dirties a server's cache also marks that server's row
// here; Refresh() then re-reads the dirty rows from the object graph in
// ascending row order. Because each row is refreshed from the very accessors
// the object-graph scan would have called (Free/Deflatable/Preemptible/
// NominalDemand), the mirrored values are bit-identical to the object path,
// and every scan outcome (feasibility, fitness, tie-breaks) is too.
//
// Threading (DESIGN.md §10): mutations -- and therefore dirty-marking and
// Refresh() -- happen only on the coordinator thread. Parallel placement
// scans read only the flat arrays, never the Server objects, so shard
// workers touch no lazily-refreshing caches through this path.
//
// Max-tree (DESIGN.md §12): a binary tree over the rows by row id. A
// level-l node covers rows [j * 2^l, (j + 1) * 2^l) and keeps, per
// availability mode and dimension, the maximum of the exact double the scan
// tests for those rows (free, free + deflatable, or free + preemptible),
// normalised with + 0.0 so -0.0 never appears. The max propagates NaN per
// dimension (the per-row test treats a NaN availability as feasible). After
// a row is refreshed its ancestors are recomputed from their two children,
// stopping at the first one whose values are bitwise unchanged; a bulk
// refresh rebuilds the tree bottom-up once. Rounding is monotone, so a
// demand that exceeds a node's maximum plus the scan's epsilon in any
// dimension fits no row under it, and the scan skips those rows without
// changing any outcome. Level kBlockLevel is the 64-row block the scan tests
// first; it climbs from there while the parent fails too.
//
// Snapshots never serialize a FleetView: it is derived state, rebuilt from
// the restored object graph (all rows start dirty), so the snapshot format
// stays independent of this layout.
#ifndef SRC_CLUSTER_FLEET_VIEW_H_
#define SRC_CLUSTER_FLEET_VIEW_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/hypervisor/server.h"
#include "src/resources/resource_vector.h"

namespace defl {

// What counts as a server's availability for a given arrival:
//   kFreeOnly            -- untouched resources only (no reclamation),
//   kFreePlusDeflatable  -- free + what deflation can reclaim (low-priority
//                           arrivals under deflation-based management),
//   kFreePlusPreemptible -- free + everything low-priority VMs hold (high-
//                           priority arrivals, which may displace them).
enum class AvailabilityMode { kFreeOnly, kFreePlusDeflatable, kFreePlusPreemptible };
inline constexpr int kNumAvailabilityModes = 3;

// Per-dimension maxima of one max-tree node's availability under one mode.
using BlockMax = std::array<double, kNumResources>;

// One mirrored row materialized back into vectors, for tests and checks.
struct FleetEntry {
  ResourceVector free;
  ResourceVector deflatable;
  ResourceVector preemptible;
  ResourceVector nominal;
  bool eligible = false;
};

class FleetView : public ServerObserver {
 public:
  // The tree level the scan tests first: block b is the level-kBlockLevel
  // node covering rows [b * kBlockRows, (b + 1) * kBlockRows), the last
  // block possibly fewer.
  static constexpr int kBlockLevel = 6;
  static constexpr size_t kBlockRows = size_t{1} << kBlockLevel;

  FleetView() = default;
  ~FleetView() override;

  // Self-registers as each server's observer; non-copyable, non-movable.
  FleetView(const FleetView&) = delete;
  FleetView& operator=(const FleetView&) = delete;

  // Binds to the server list and installs this view as every server's
  // change observer. Requires dense ids (servers[i]->id() == i): the id IS
  // the row index. Server addresses must stay stable for the lifetime of
  // the binding (they do: the list holds unique_ptrs). All rows start
  // dirty and eligible.
  void Bind(const std::vector<std::unique_ptr<Server>>& servers);

  size_t size() const { return count_; }
  bool bound() const { return servers_ != nullptr; }

  // ServerObserver: called on every allocation-affecting mutation of
  // server `id` (coordinator thread only); marks the row stale.
  void OnServerAllocationChanged(ServerId id) override;

  void MarkDirty(size_t row);
  void MarkAllDirty();
  bool HasDirty() const { return !dirty_rows_.empty(); }

  // Candidate eligibility (healthy servers accept placements). Maintained
  // by the cluster layer on health transitions, not by the observer chain.
  void SetEligible(size_t row, bool eligible) {
    eligible_[row] = eligible ? 1 : 0;
  }
  bool eligible(size_t row) const { return eligible_[row] != 0; }

  // Re-reads every dirty row from its Server in ascending row order,
  // brings the max-tree above those rows up to date, then clears the dirty
  // set. O(1) when nothing is dirty. Must run on the coordinator thread
  // before any scan consumes the columns.
  void Refresh();

  // Column base pointers for the flat placement scans (valid after Bind;
  // read-only, coherent after Refresh()).
  const double* free_col(ResourceKind k) const {
    return free_[static_cast<size_t>(k)].data();
  }
  const double* deflatable_col(ResourceKind k) const {
    return deflatable_[static_cast<size_t>(k)].data();
  }
  const double* preemptible_col(ResourceKind k) const {
    return preemptible_[static_cast<size_t>(k)].data();
  }
  const double* nominal_col(ResourceKind k) const {
    return nominal_[static_cast<size_t>(k)].data();
  }

  // The max-tree under `mode`: level_max(mode, l)[j] is node j of level l,
  // for 1 <= l <= top_level(); level l has (size() + 2^l - 1) >> l nodes.
  // Coherent after Refresh().
  int top_level() const { return top_level_; }
  const BlockMax* level_max(AvailabilityMode mode, int level) const {
    return tree_[static_cast<size_t>(mode)].data() + level_offset_[level];
  }
  // The level-kBlockLevel nodes, indexed by block (row / kBlockRows).
  size_t num_blocks() const { return (count_ + kBlockRows - 1) / kBlockRows; }
  const BlockMax* block_max(AvailabilityMode mode) const {
    return level_max(mode, kBlockLevel);
  }

  // Row materialized back into vectors (no refresh; callers wanting
  // coherent values call Refresh() first).
  FleetEntry Entry(size_t row) const;

  // True when row's mirrored values are exactly (bitwise) equal to the
  // server's accessors right now. Property tests call this after Refresh().
  bool RowConsistent(size_t row) const;

  // True when every max-tree node equals (bitwise) the NaN-propagating max
  // of its children, the level-1 nodes read from the columns. Refresh()
  // checks it in DEFL_CHECK_ACCOUNTING builds.
  bool TreeConsistent() const;

 private:
  // One node's maxima under every mode.
  struct NodeMax {
    BlockMax mode[kNumAvailabilityModes];
  };

  void RefreshRow(size_t row);
  // Row `row`'s availability under every mode, as the scan computes it,
  // normalised with + 0.0 (a level-0 node).
  NodeMax ReadAvailability(size_t row) const;
  NodeMax StoredNode(int level, size_t node) const;
  void StoreNode(int level, size_t node, const NodeMax& value);
  // Node `node` of level `level` recomputed from its children.
  NodeMax ComputeNode(int level, size_t node) const;
  // True when the stored node is bitwise `fresh`.
  bool NodeCurrent(int level, size_t node, const NodeMax& fresh) const;
  // Recomputes the ancestors of a refreshed row, bottom-up, until one is
  // unchanged.
  void UpdateAncestors(size_t row);
  void RebuildTree();
  // Nodes at `level`; level 0 is the rows.
  size_t LevelSize(int level) const {
    return (count_ + (size_t{1} << level) - 1) >> level;
  }

  const std::vector<std::unique_ptr<Server>>* servers_ = nullptr;
  size_t count_ = 0;

  // Column-major: one contiguous array per (aggregate, resource kind).
  std::array<std::vector<double>, kNumResources> free_;
  std::array<std::vector<double>, kNumResources> deflatable_;
  std::array<std::vector<double>, kNumResources> preemptible_;
  std::array<std::vector<double>, kNumResources> nominal_;
  std::vector<uint8_t> eligible_;
  // Per availability mode, levels 1..top_level_ of the max-tree, each level
  // contiguous; level l starts at level_offset_[l] (level_offset_[0] is
  // unused: level 0 is the rows, read from the columns).
  int top_level_ = kBlockLevel;
  std::vector<size_t> level_offset_;
  std::array<std::vector<BlockMax>, kNumAvailabilityModes> tree_;

  // Dirty tracking: a bitmap for O(1) dedup plus an insertion-order list of
  // dirty rows. Refresh() sorts the list (or sweeps the bitmap when most
  // rows are dirty) so rows always refresh in ascending canonical order.
  std::vector<uint8_t> dirty_;
  std::vector<uint32_t> dirty_rows_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_FLEET_VIEW_H_
