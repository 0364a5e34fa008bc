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
// Block summaries (DESIGN.md §12): rows are grouped into fixed 64-row
// blocks by row id, and each block keeps, per availability mode and
// dimension, the maximum of the exact double the scan tests for that row
// (free, free + deflatable, or free + preemptible), with a count of the rows
// attaining it. Refresh() folds each refreshed row into its block's maxima,
// and recomputes the block once, after its dirty rows, when the last row
// holding a maximum fell. Rounding is monotone, so a demand that exceeds a
// block's maximum plus the scan's epsilon in any dimension fits no row of
// the block, and the scan skips it without changing any outcome. A block
// holding a NaN availability (which the per-row test treats as feasible)
// has NaN maxima and is never skipped.
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

// Per-dimension maxima of one block's availability under one mode.
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
  // Rows per block summary; block b covers rows [b * kBlockRows,
  // (b + 1) * kBlockRows), the last block possibly fewer.
  static constexpr size_t kBlockRows = 64;

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
  // brings the summaries of the blocks those rows fall in up to date, then
  // clears the dirty set. O(1) when nothing is dirty. Must run on the
  // coordinator thread before any scan consumes the columns.
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

  // Block summaries under `mode`, indexed by block (row / kBlockRows);
  // num_blocks() entries, coherent after Refresh().
  size_t num_blocks() const { return (count_ + kBlockRows - 1) / kBlockRows; }
  const BlockMax* block_max(AvailabilityMode mode) const {
    return block_max_[static_cast<size_t>(mode)].data();
  }

  // Row materialized back into vectors (no refresh; callers wanting
  // coherent values call Refresh() first).
  FleetEntry Entry(size_t row) const;

  // True when row's mirrored values are exactly (bitwise) equal to the
  // server's accessors right now. Property tests call this after Refresh().
  bool RowConsistent(size_t row) const;

  // True when block `block`'s summary equals a full recompute from the
  // columns (maxima bitwise, holder counts exactly). Refresh() checks every
  // block with it in DEFL_CHECK_ACCOUNTING builds.
  bool BlockConsistent(size_t block) const;

 private:
  void RefreshRow(size_t row);
  // How many of a block's rows attain each of its maxima under one mode, so
  // a refresh can tell when the last row holding a maximum fell below it.
  using BlockHolders = std::array<uint8_t, kNumResources>;
  struct BlockSummary {
    // The largest availability per mode and dimension, -0.0 normalized to
    // +0.0 so the bits do not depend on fold order; all NaN when any of the
    // block's availabilities is NaN (and then no holders).
    BlockMax max[kNumAvailabilityModes];
    BlockHolders holders[kNumAvailabilityModes];
  };

  // Full recompute of block `block`'s summary from the columns.
  BlockSummary ComputeBlockSummary(size_t block) const;
  void RefreshBlock(size_t block);
  // Row `row`'s availability under every mode, as the scan computes it.
  void ReadAvailability(size_t row, BlockMax (&out)[kNumAvailabilityModes]) const;
  // Folds row `row`'s refresh (from availabilities `before`) into its
  // block's summary in place. Returns false, leaving the block to be
  // recomputed, when that cannot be done exactly.
  bool FoldRowIntoBlock(size_t row, const BlockMax (&before)[kNumAvailabilityModes]);

  const std::vector<std::unique_ptr<Server>>* servers_ = nullptr;
  size_t count_ = 0;

  // Column-major: one contiguous array per (aggregate, resource kind).
  std::array<std::vector<double>, kNumResources> free_;
  std::array<std::vector<double>, kNumResources> deflatable_;
  std::array<std::vector<double>, kNumResources> preemptible_;
  std::array<std::vector<double>, kNumResources> nominal_;
  std::vector<uint8_t> eligible_;
  // One BlockMax and one BlockHolders per block, per availability mode.
  std::array<std::vector<BlockMax>, kNumAvailabilityModes> block_max_;
  std::array<std::vector<BlockHolders>, kNumAvailabilityModes> block_holders_;

  // Dirty tracking: a bitmap for O(1) dedup plus an insertion-order list of
  // dirty rows. Refresh() sorts the list (or sweeps the bitmap when most
  // rows are dirty) so rows always refresh in ascending canonical order.
  std::vector<uint8_t> dirty_;
  std::vector<uint32_t> dirty_rows_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_FLEET_VIEW_H_
