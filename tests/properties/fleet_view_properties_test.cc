// Property test for the structure-of-arrays placement mirror (DESIGN.md
// §12): after ANY sequence of cluster operations -- launches (which deflate
// or preempt under pressure), completions, explicit deflations, reinflations,
// crashes, recoveries -- a Refresh()ed FleetView row must be EXACTLY equal
// (bitwise, not approximately) to the owning server's accessors, every
// max-tree node must equal a from-scratch recompute over the rows it covers
// (per-dimension maxima, NaN in a dimension where any row is NaN), and the
// SoA placement scan (PlaceVmFleet, which skips tree nodes by their maxima)
// must return the same decision as both the object-graph scan (PlaceVm) and
// a sequential, unsummarised reference scan kept here, for every policy and
// availability mode, including the 2-choices RNG draw sequence. Candidates
// are the eligible rows, so crashes make them a proper subset. Fleets of 5
// rows, 1 row and 130 rows (two full blocks plus a ragged one) run the whole
// sequence at thread counts {1, 2, 7}: the sharded SoA scans must be
// invisible in the outcome. Fleets of more than 4096 rows check that
// saturated scans climbing past whole level >= 7 nodes, across candidate
// gaps, still agree with the reference at 1 and 3 threads. Seeded from
// DEFL_FAULT_SEED so CI can run a seed matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/cluster/placement.h"

namespace defl {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

std::unique_ptr<Vm> RandomVm(VmId id, Rng& rng) {
  VmSpec spec;
  spec.name = "vm" + std::to_string(id);
  spec.size = ResourceVector(static_cast<double>(rng.UniformInt(1, 12)),
                             static_cast<double>(rng.UniformInt(1, 12)) * 4096.0);
  spec.priority = rng.Uniform(0.0, 1.0) < 0.6 ? VmPriority::kLow : VmPriority::kHigh;
  spec.min_size = spec.size * rng.Uniform(0.0, 0.6);
  return std::make_unique<Vm>(id, spec);
}

// Every mirrored row, after Refresh(), must be bitwise-equal to what the
// server's accessors report right now (RowConsistent re-reads the accessors
// and compares with operator==, i.e. exact doubles). A mutation path that
// forgot to notify the observer leaves a stale row and fails here.
void ExpectMirrorExact(ClusterManager& manager) {
  FleetView& fleet = manager.fleet();
  fleet.Refresh();
  ASSERT_FALSE(fleet.HasDirty());
  for (size_t row = 0; row < fleet.size(); ++row) {
    EXPECT_TRUE(fleet.RowConsistent(row)) << "row " << row;
  }
}

constexpr AvailabilityMode kModes[] = {AvailabilityMode::kFreeOnly,
                                       AvailabilityMode::kFreePlusDeflatable,
                                       AvailabilityMode::kFreePlusPreemptible};
constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit, PlacementPolicy::kTwoChoices};

std::vector<uint32_t> EligibleRows(const FleetView& fleet) {
  std::vector<uint32_t> rows;
  for (size_t row = 0; row < fleet.size(); ++row) {
    if (fleet.eligible(row)) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
  return rows;
}

// From-scratch max-tree node: per dimension, the largest availability over
// the rows [begin, end) under `mode`, a zero maximum as +0.0, and NaN when
// any of those rows' availabilities in that dimension is NaN.
BlockMax RecomputeNodeMax(const FleetView& fleet, size_t begin, size_t end,
                          AvailabilityMode mode) {
  BlockMax out;
  out.fill(-std::numeric_limits<double>::infinity());
  std::array<bool, kNumResources> has_nan{};
  for (size_t row = begin; row < end; ++row) {
    const ResourceVector availability = FleetAvailability(fleet, row, mode);
    for (const ResourceKind kind : kAllResources) {
      const auto k = static_cast<size_t>(kind);
      has_nan[k] = has_nan[k] || std::isnan(availability[kind]);
      out[k] = std::max(out[k], availability[kind]);
    }
  }
  for (size_t k = 0; k < kNumResources; ++k) {
    out[k] = has_nan[k] ? std::numeric_limits<double>::quiet_NaN() : out[k] + 0.0;
  }
  return out;
}

// Every node of every level, against a recompute from the rows it covers
// (NaN matched by class, every other value bitwise).
void ExpectTreeExact(const FleetView& fleet) {
  EXPECT_TRUE(fleet.TreeConsistent());
  ASSERT_GE(fleet.top_level(), FleetView::kBlockLevel);
  ASSERT_LE(fleet.size(), size_t{1} << fleet.top_level());
  ASSERT_EQ(fleet.num_blocks(),
            (fleet.size() + FleetView::kBlockRows - 1) / FleetView::kBlockRows);
  for (int level = 1; level <= fleet.top_level(); ++level) {
    const size_t width = size_t{1} << level;
    for (size_t node = 0; node * width < std::max<size_t>(fleet.size(), 1); ++node) {
      const size_t begin = node * width;
      const size_t end = std::min(begin + width, fleet.size());
      for (const AvailabilityMode mode : kModes) {
        const BlockMax expected = RecomputeNodeMax(fleet, begin, end, mode);
        const BlockMax& actual = fleet.level_max(mode, level)[node];
        for (size_t k = 0; k < kNumResources; ++k) {
          if (std::isnan(expected[k])) {
            EXPECT_TRUE(std::isnan(actual[k]));
            continue;
          }
          EXPECT_EQ(std::bit_cast<uint64_t>(expected[k]),
                    std::bit_cast<uint64_t>(actual[k]))
              << "level " << level << " node " << node << " mode "
              << static_cast<int>(mode) << " dim " << k << ": " << expected[k]
              << " vs " << actual[k];
        }
      }
    }
  }
}

// The unsummarised reference: every candidate in order, with the same
// per-row feasibility (AllLeq) and fitness as the SoA scan. Returns a
// position in `candidates` or SIZE_MAX.
size_t ReferenceScan(const ResourceVector& demand, const FleetView& fleet,
                     const std::vector<uint32_t>& candidates, AvailabilityMode mode,
                     bool best_fit) {
  size_t best = SIZE_MAX;
  double best_fitness = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const ResourceVector availability = FleetAvailability(fleet, candidates[i], mode);
    if (!demand.AllLeq(availability)) {
      continue;
    }
    if (!best_fit) {
      return i;
    }
    const double fitness = PlacementFitness(demand, availability);
    if (fitness > best_fitness) {
      best_fitness = fitness;
      best = i;
    }
  }
  return best;
}

// The reference for every policy; 2-choices draws from `rng` exactly as
// PlaceVmFleet does and falls back to the reference first-fit scan.
size_t ReferencePlace(const ResourceVector& demand, const FleetView& fleet,
                      const std::vector<uint32_t>& candidates, PlacementPolicy policy,
                      Rng& rng, AvailabilityMode mode) {
  if (policy != PlacementPolicy::kTwoChoices) {
    return ReferenceScan(demand, fleet, candidates, mode,
                         policy == PlacementPolicy::kBestFit);
  }
  const auto count = static_cast<int64_t>(candidates.size());
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto a = static_cast<size_t>(rng.UniformInt(0, count - 1));
    size_t b = a;
    if (count >= 2) {
      b = static_cast<size_t>(rng.UniformInt(0, count - 2));
      if (b >= a) {
        ++b;
      }
    }
    const ResourceVector avail_a = FleetAvailability(fleet, candidates[a], mode);
    const ResourceVector avail_b = FleetAvailability(fleet, candidates[b], mode);
    const bool fa = demand.AllLeq(avail_a);
    const bool fb = b != a && demand.AllLeq(avail_b);
    if (fa && fb) {
      return PlacementFitness(demand, avail_a) >= PlacementFitness(demand, avail_b)
                 ? a
                 : b;
    }
    if (fa) {
      return a;
    }
    if (fb) {
      return b;
    }
  }
  return ReferenceScan(demand, fleet, candidates, mode, /*best_fit=*/false);
}

// PlaceVmFleet must agree exactly with the object-graph scan and with the
// unsummarised reference -- same feasibility verdict, same position, same
// RNG consumption -- for every policy x availability mode, sharded or not.
void ExpectScanEquivalent(ClusterManager& manager, const ResourceVector& demand,
                          const std::vector<uint32_t>& rows, Rng& rng) {
  const std::vector<Server*> all = manager.servers();
  std::vector<Server*> servers;
  for (const uint32_t row : rows) {
    servers.push_back(all[row]);
  }
  for (const PlacementPolicy policy : kPolicies) {
    for (const AvailabilityMode mode : kModes) {
      const std::array<uint64_t, 4> saved = rng.SaveState();
      const Result<size_t> object_pick = PlaceVm(demand, servers, policy, rng, mode);
      rng.RestoreState(saved);
      const size_t reference_pick =
          ReferencePlace(demand, manager.fleet(), rows, policy, rng, mode);
      rng.RestoreState(saved);
      const Result<size_t> fleet_pick = PlaceVmFleet(
          demand, manager.fleet(), rows, policy, rng, mode, manager.thread_pool());
      ASSERT_EQ(object_pick.ok(), fleet_pick.ok())
          << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode);
      EXPECT_EQ(fleet_pick.ok() ? fleet_pick.value() : SIZE_MAX, reference_pick)
          << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode);
      if (object_pick.ok()) {
        EXPECT_EQ(object_pick.value(), fleet_pick.value())
            << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode);
      }
    }
  }
}

// A demand sitting on a block's maximum in one dimension -- the maximum
// itself, or the maximum plus up to the scan epsilon -- and zero elsewhere
// fits the row that holds that maximum, so the block must not be skipped:
// first-fit over all eligible rows hits at or before that block.
void ExpectBoundaryBlockNotSkipped(ClusterManager& manager,
                                   const std::vector<uint32_t>& rows, Rng& rng) {
  const FleetView& fleet = manager.fleet();
  const auto block = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(fleet.num_blocks()) - 1));
  const AvailabilityMode mode = kModes[rng.UniformInt(0, 2)];
  const auto k = static_cast<size_t>(rng.UniformInt(0, kNumResources - 1));
  constexpr double kOffsets[] = {0.0, 0.5e-9, 1e-9};
  const double offset = kOffsets[rng.UniformInt(0, 2)];
  const size_t begin = block * FleetView::kBlockRows;
  const size_t end = std::min(begin + FleetView::kBlockRows, fleet.size());
  if (std::none_of(rows.begin(), rows.end(),
                   [&](uint32_t row) { return row >= begin && row < end; })) {
    return;  // every row of the block crashed: its maximum is not a bound
  }
  ResourceVector demand;
  demand[kAllResources[k]] = fleet.block_max(mode)[block][k] + offset;
  // Eligible rows only: the maximum may sit on a crashed row.
  std::vector<uint32_t> block_rows;
  for (const uint32_t row : rows) {
    if (row >= begin && row < end) {
      block_rows.push_back(row);
    }
  }
  const size_t in_block = ReferenceScan(demand, fleet, block_rows, mode, false);
  const Result<size_t> pick = PlaceVmFleet(demand, manager.fleet(), rows,
                                           PlacementPolicy::kFirstFit, rng, mode,
                                           manager.thread_pool());
  if (in_block != SIZE_MAX) {
    ASSERT_TRUE(pick.ok()) << "block " << block << " skipped at its own maximum";
    EXPECT_LT(rows[pick.value()], end) << "block " << block << " skipped";
  }
  ExpectScanEquivalent(manager, demand, rows, rng);
}

// Drives `ops` random operations (after `prefill` plain launches) against a
// fleet of `num_servers` rows, checking the mirror, the max-tree and
// every scan after each one.
void RunRandomOps(int param, int num_servers, int prefill, int ops) {
  const uint64_t seed = TestSeed() + static_cast<uint64_t>(param) * 7919;
  Rng rng(seed);
  ClusterConfig config;
  config.strategy = param % 2 == 0 ? ReclamationStrategy::kDeflation
                                   : ReclamationStrategy::kPreemptionOnly;
  config.controller.mode = param % 3 == 0 ? DeflationMode::kVmLevel
                                          : DeflationMode::kCascade;
  config.placement = static_cast<PlacementPolicy>(param % 3);
  const int kThreadCounts[] = {1, 2, 7};
  config.threads = kThreadCounts[param % 3];
  ClusterManager manager(num_servers, ResourceVector(16.0, 65536.0), config);

  std::vector<VmId> live;
  VmId next_id = 1;
  for (int op = 0; op < prefill + ops; ++op) {
    const int64_t roll = op < prefill ? 0 : rng.UniformInt(0, 99);
    if (roll < 45) {  // launch (may cascade-deflate or preempt under load)
      const VmId id = next_id++;
      if (manager.LaunchVm(RandomVm(id, rng)).ok()) {
        live.push_back(id);
      }
    } else if (roll < 60 && !live.empty()) {  // complete
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      manager.CompleteVm(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 72 && !live.empty()) {  // explicit deflate
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Server* server = manager.ServerOf(live[pick]);
      if (server != nullptr) {
        Vm* vm = server->FindVm(live[pick]);
        manager.controller(server->id())
            ->DeflateVm(live[pick], vm->deflatable_amount() * rng.Uniform(0.0, 1.0));
      }
    } else if (roll < 80) {  // reinflate one server
      const ServerId target = rng.UniformInt(0, num_servers - 1);
      if (manager.health(target) != ServerHealth::kDown) {
        manager.controller(target)->ReinflateAll();
      }
    } else if (roll < 88) {  // crash (evacuates, re-places, revokes)
      manager.CrashServer(rng.UniformInt(0, num_servers - 1));
    } else if (roll < 96) {  // recover + promote
      const ServerId target = rng.UniformInt(0, num_servers - 1);
      manager.RecoverServer(target);
      manager.MarkHealthy(target);
    } else {  // degrade
      manager.DegradeServer(rng.UniformInt(0, num_servers - 1));
    }
    // Preemptions and crash revocations retire VMs behind our back.
    std::unordered_set<VmId> gone;
    for (const VmId id : manager.TakePreempted()) {
      gone.insert(id);
    }
    if (!gone.empty()) {
      std::erase_if(live, [&gone](VmId id) { return gone.count(id) > 0; });
    }
    std::erase_if(live, [&manager](VmId id) { return manager.FindVm(id) == nullptr; });

    ExpectMirrorExact(manager);
    ExpectTreeExact(manager.fleet());
    const std::vector<uint32_t> rows = EligibleRows(manager.fleet());
    if (!rows.empty()) {
      const ResourceVector demand(static_cast<double>(rng.UniformInt(1, 12)),
                                  static_cast<double>(rng.UniformInt(1, 12)) * 4096.0);
      ExpectScanEquivalent(manager, demand, rows, rng);
      ExpectBoundaryBlockNotSkipped(manager, rows, rng);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "fleet view drifted at op " << op << " (seed " << seed << ")";
    }
  }
}

class FleetViewPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetViewPropertyTest, RandomOpSequenceKeepsMirrorExact) {
  RunRandomOps(GetParam(), /*num_servers=*/5, /*prefill=*/0, /*ops=*/300);
}

TEST_P(FleetViewPropertyTest, OneRowFleetKeepsSummariesExact) {
  RunRandomOps(GetParam(), /*num_servers=*/1, /*prefill=*/0, /*ops=*/200);
}

// Two full blocks plus a two-row block; the prefill saturates the fleet so
// most blocks are skippable for most demands.
TEST_P(FleetViewPropertyTest, RaggedMultiBlockFleetKeepsSummariesExact) {
  RunRandomOps(GetParam(), /*num_servers=*/130, /*prefill=*/300, /*ops=*/300);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FleetViewPropertyTest, ::testing::Range(0, 12));

// A saturated fleet of more than 4096 rows, built from Servers directly (a
// ClusterManager's random walk would not keep it saturated). Every server has
// 16 cores: a high-priority VM leaves it `spare` free cores (0, 0.5 or 1) and
// a low-priority 2-core VM can give one core back, so a 4-core demand misses
// under every mode except on the `open` rows, whose high-priority VM is
// smaller. Row `nan_row` (if any) has a NaN core capacity, which the per-row
// test treats as feasible.
struct SaturatedFleet {
  std::vector<std::unique_ptr<Server>> servers;
  FleetView fleet;  // after servers: detaches itself before they go

  SaturatedFleet(int n, const std::vector<int>& open, int nan_row, Rng& rng) {
    for (int i = 0; i < n; ++i) {
      const double cores = i == nan_row ? std::nan("") : 16.0;
      servers.push_back(std::make_unique<Server>(i, ResourceVector(cores, 65536.0)));
      const bool is_open = std::find(open.begin(), open.end(), i) != open.end();
      const double spare = is_open ? 8.0 : 0.5 * static_cast<double>(rng.UniformInt(0, 2));
      AddVm(i, 0, 14.0 - spare, VmPriority::kHigh);
      AddVm(i, 1, 2.0, VmPriority::kLow);
    }
    fleet.Bind(servers);
    fleet.Refresh();
  }

  void AddVm(int row, int slot, double cores, VmPriority priority) {
    VmSpec spec;
    spec.name = "r" + std::to_string(row) + "s" + std::to_string(slot);
    spec.size = ResourceVector(cores, 16384.0);
    spec.priority = priority;
    spec.min_size = ResourceVector(cores / 2.0, 8192.0);
    servers[static_cast<size_t>(row)]->AddVm(
        std::make_unique<Vm>(static_cast<VmId>(row) * 4 + slot, spec));
  }
};

// Rows [0, n) minus the half-open ranges in `gaps`.
std::vector<uint32_t> RowsWithout(int n, const std::vector<std::pair<int, int>>& gaps) {
  std::vector<uint32_t> rows;
  for (int row = 0; row < n; ++row) {
    const bool excluded = std::any_of(gaps.begin(), gaps.end(), [row](const auto& gap) {
      return row >= gap.first && row < gap.second;
    });
    if (!excluded) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
  return rows;
}

// PlaceVmFleet against the unsummarised reference for every policy and mode,
// unsharded and on a 3-thread pool.
void ExpectAgreesWithReference(FleetView& fleet, const ResourceVector& demand,
                               const std::vector<uint32_t>& rows, ThreadPool& pool,
                               Rng& rng) {
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const PlacementPolicy policy : kPolicies) {
      for (const AvailabilityMode mode : kModes) {
        const std::array<uint64_t, 4> saved = rng.SaveState();
        const size_t reference = ReferencePlace(demand, fleet, rows, policy, rng, mode);
        rng.RestoreState(saved);
        const Result<size_t> pick = PlaceVmFleet(demand, fleet, rows, policy, rng, mode, p);
        EXPECT_EQ(pick.ok() ? pick.value() : SIZE_MAX, reference)
            << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode)
            << " threads " << (p == nullptr ? 1 : 3) << " demand " << demand.ToString();
      }
    }
  }
}

TEST(FleetViewTreeTest, SaturatedScanClimbsPastWholeNodesExactly) {
  constexpr int kRows = 6000;  // top level 13; level 12 splits at row 4096
  Rng rng(TestSeed());
  SaturatedFleet fx(kRows, /*open=*/{70, 4100, kRows - 1}, /*nan_row=*/-1, rng);
  ExpectTreeExact(fx.fleet);
  ASSERT_EQ(fx.fleet.top_level(), 13);
  const ResourceVector demand(4.0, 4096.0);
  // Rows 2048-4095 (level 11, node 1) hold no open row: the scan skips that
  // whole node, and for a demand no row fits, the whole tree.
  for (const AvailabilityMode mode : kModes) {
    EXPECT_LT(fx.fleet.level_max(mode, 11)[1][0], demand.cpu());
    EXPECT_LT(fx.fleet.level_max(mode, 13)[0][0], 20.0);
  }
  ThreadPool pool(3);
  const std::vector<std::vector<std::pair<int, int>>> gap_sets = {
      {},
      // Gaps across the block, level-11 and level-12 boundaries; the second
      // drops open row 70.
      {{60, 70}, {2040, 2060}, {4000, 4200}},
      {{64, 71}, {4095, 4097}, {5990, kRows}},
      {{0, 4100}},
  };
  for (const auto& gaps : gap_sets) {
    const std::vector<uint32_t> rows = RowsWithout(kRows, gaps);
    for (const ResourceVector& d :
         {demand, ResourceVector(20.0, 4096.0), ResourceVector(2.5, 4096.0),
          ResourceVector(1.0, 30000.0)}) {
      ExpectAgreesWithReference(fx.fleet, d, rows, pool, rng);
    }
  }
}

TEST(FleetViewTreeTest, IncrementalRefreshKeepsLargeTreeExact) {
  constexpr int kRows = 4200;
  Rng rng(TestSeed() + 1);
  SaturatedFleet fx(kRows, /*open=*/{4150}, /*nan_row=*/-1, rng);
  ThreadPool pool(3);
  for (int round = 0; round < 12; ++round) {
    // A few rows open up (the low-priority VM leaves) or fill again: each
    // incremental Refresh() walks only those rows' ancestors.
    for (int change = 0; change < 3; ++change) {
      const auto row = static_cast<int>(rng.UniformInt(0, kRows - 1));
      Server& server = *fx.servers[static_cast<size_t>(row)];
      if (server.FindVm(static_cast<VmId>(row) * 4 + 1) != nullptr) {
        server.RemoveVm(static_cast<VmId>(row) * 4 + 1);
        fx.AddVm(row, 2, rng.Uniform(0.0, 6.0), VmPriority::kLow);
      } else {
        server.RemoveVm(static_cast<VmId>(row) * 4 + 2);
        fx.AddVm(row, 1, 2.0, VmPriority::kLow);
      }
    }
    fx.fleet.Refresh();
    ExpectTreeExact(fx.fleet);
    // Random candidate gaps, each up to ~1.5 blocks of level 10.
    std::vector<std::pair<int, int>> gaps;
    for (int g = 0; g < 4; ++g) {
      const auto start = static_cast<int>(rng.UniformInt(0, kRows - 1));
      gaps.emplace_back(start, start + static_cast<int>(rng.UniformInt(1, 1500)));
    }
    const std::vector<uint32_t> rows = RowsWithout(kRows, gaps);
    const ResourceVector demand(rng.Uniform(1.0, 8.0), 4096.0);
    ExpectAgreesWithReference(fx.fleet, demand, rows, pool, rng);
    if (::testing::Test::HasFailure()) {
      FAIL() << "round " << round;
    }
  }
}

TEST(FleetViewTreeTest, NanRowDeepInLargeFleetIsFound) {
  // Row 4500's NaN core count keeps its cpu maxima NaN up to the root, so a
  // demand every other row misses still reaches it; the memory maxima stay
  // numbers and still skip.
  constexpr int kRows = 5000;
  Rng rng(TestSeed() + 2);
  SaturatedFleet fx(kRows, /*open=*/{}, /*nan_row=*/4500, rng);
  ExpectTreeExact(fx.fleet);
  EXPECT_TRUE(std::isnan(fx.fleet.level_max(AvailabilityMode::kFreeOnly, 13)[0][0]));
  EXPECT_FALSE(std::isnan(fx.fleet.level_max(AvailabilityMode::kFreeOnly, 13)[0][1]));
  ThreadPool pool(3);
  const std::vector<uint32_t> rows = RowsWithout(kRows, {{4400, 4499}});
  const ResourceVector demand(8.0, 4096.0);
  ExpectAgreesWithReference(fx.fleet, demand, rows, pool, rng);
  Rng draw(1);
  const Result<size_t> pick = PlaceVmFleet(demand, fx.fleet, rows,
                                           PlacementPolicy::kFirstFit, draw,
                                           AvailabilityMode::kFreeOnly, &pool);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(rows[pick.value()], 4500u);
  EXPECT_FALSE(PlaceVmFleet(ResourceVector(8.0, 60000.0), fx.fleet, rows,
                            PlacementPolicy::kFirstFit, draw,
                            AvailabilityMode::kFreeOnly, &pool)
                   .ok());
}

}  // namespace
}  // namespace defl
