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
  // NaN until the first Refresh() summarises each block: never skippable.
  BlockMax unsummarised;
  unsummarised.fill(std::numeric_limits<double>::quiet_NaN());
  for (auto& blocks : block_max_) blocks.assign(num_blocks(), unsummarised);
  for (auto& blocks : block_holders_) blocks.assign(num_blocks(), BlockHolders{});
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

}  // namespace

FleetView::BlockSummary FleetView::ComputeBlockSummary(size_t block) const {
  const size_t begin = block * kBlockRows;
  const size_t end = std::min(begin + kBlockRows, count_);
  BlockSummary out{};
  for (BlockMax& max : out.max) {
    max.fill(-std::numeric_limits<double>::infinity());
  }
  bool has_nan = false;
  for (size_t row = begin; row < end; ++row) {
    BlockMax availability[kNumAvailabilityModes];
    ReadAvailability(row, availability);
    for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
      for (size_t k = 0; k < kNumResources; ++k) {
        const double value = availability[mode][k];
        has_nan |= value != value;
        out.max[mode][k] = value > out.max[mode][k] ? value : out.max[mode][k];
      }
    }
  }
  if (has_nan) {
    for (BlockMax& max : out.max) {
      max.fill(std::numeric_limits<double>::quiet_NaN());
    }
    return out;  // no holders: the next change to the block recomputes it
  }
  for (BlockMax& max : out.max) {
    for (double& value : max) {
      value += 0.0;  // -0.0 -> +0.0: the bits must not depend on row order
    }
  }
  for (size_t row = begin; row < end; ++row) {
    BlockMax availability[kNumAvailabilityModes];
    ReadAvailability(row, availability);
    for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
      for (size_t k = 0; k < kNumResources; ++k) {
        out.holders[mode][k] += availability[mode][k] == out.max[mode][k] ? 1 : 0;
      }
    }
  }
  return out;
}

void FleetView::RefreshBlock(size_t block) {
  const BlockSummary summary = ComputeBlockSummary(block);
  for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
    block_max_[mode][block] = summary.max[mode];
    block_holders_[mode][block] = summary.holders[mode];
  }
}

bool FleetView::BlockConsistent(size_t block) const {
  const BlockSummary expected = ComputeBlockSummary(block);
  for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
    if (std::memcmp(expected.max[mode].data(), block_max_[mode][block].data(),
                    sizeof(BlockMax)) != 0 ||
        expected.holders[mode] != block_holders_[mode][block]) {
      return false;
    }
  }
  return true;
}

void FleetView::ReadAvailability(size_t row,
                                 BlockMax (&out)[kNumAvailabilityModes]) const {
  for (size_t k = 0; k < kNumResources; ++k) {
    const double free = free_[k][row];
    out[kFree][k] = free;
    out[kDeflatable][k] = free + deflatable_[k][row];
    out[kPreemptible][k] = free + preemptible_[k][row];
  }
}

bool FleetView::FoldRowIntoBlock(size_t row,
                                 const BlockMax (&before)[kNumAvailabilityModes]) {
  BlockMax after[kNumAvailabilityModes];
  ReadAvailability(row, after);
  const size_t block = row / kBlockRows;
  for (size_t mode = 0; mode < kNumAvailabilityModes; ++mode) {
    BlockMax& max = block_max_[mode][block];
    BlockHolders& holders = block_holders_[mode][block];
    for (size_t k = 0; k < kNumResources; ++k) {
      const double was = before[mode][k];
      const double now = after[mode][k];
      if (now != now || max[k] != max[k]) {
        return false;  // NaN enters or may leave the block
      }
      if (now > max[k]) {
        max[k] = now + 0.0;  // a new maximum, normalized as in a recompute
        holders[k] = 1;
      } else if (now == max[k]) {
        holders[k] += was == max[k] ? 0 : 1;
      } else if (was == max[k] && --holders[k] == 0) {
        return false;  // the last row holding the maximum fell below it
      }
    }
  }
  return true;
}

void FleetView::Refresh() {
  if (dirty_rows_.empty()) {
    return;
  }
  // Rows refresh in ascending order, so each block's dirty rows are
  // contiguous in the walk. A row's change is folded into its block's
  // summary in place while that is exact; otherwise the block is
  // recomputed once, when the walk leaves it. Either way the summary
  // equals a recompute from the refreshed columns.
  size_t open_block = SIZE_MAX;
  bool open_stale = false;
  const auto refresh = [&](size_t row) {
    const size_t block = row / kBlockRows;
    if (block != open_block) {
      if (open_stale) {
        RefreshBlock(open_block);
      }
      open_block = block;
      open_stale = false;
    }
    BlockMax before[kNumAvailabilityModes];
    if (!open_stale) {
      ReadAvailability(row, before);
    }
    RefreshRow(row);
    dirty_[row] = 0;
    if (!open_stale) {
      open_stale = !FoldRowIntoBlock(row, before);
    }
  };
  // Canonical ascending order regardless of mutation arrival order. When
  // most rows are dirty (initial bind, post-restore) a bitmap sweep beats
  // sorting a near-full permutation.
  if (dirty_rows_.size() >= count_ / 4 + 1) {
    for (size_t row = 0; row < count_; ++row) {
      if (dirty_[row] != 0) {
        refresh(row);
      }
    }
  } else {
    std::sort(dirty_rows_.begin(), dirty_rows_.end());
    for (const uint32_t row : dirty_rows_) {
      refresh(row);
    }
  }
  if (open_stale) {
    RefreshBlock(open_block);
  }
  dirty_rows_.clear();
#ifdef DEFL_CHECK_ACCOUNTING
  // Every block, not only the ones just touched: a column written outside
  // Refresh() would leave some other block's summary stale.
  for (size_t block = 0; block < num_blocks(); ++block) {
    if (!BlockConsistent(block)) {
      DEFL_LOG(kError) << "fleet view block " << block
                       << ": summary drifted from recompute";
      std::abort();
    }
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
