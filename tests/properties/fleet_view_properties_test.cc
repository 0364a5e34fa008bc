// Property test for the structure-of-arrays placement mirror (DESIGN.md
// §12): after ANY sequence of cluster operations -- launches (which deflate
// or preempt under pressure), completions, explicit deflations, reinflations,
// crashes, recoveries -- a Refresh()ed FleetView row must be EXACTLY equal
// (bitwise, not approximately) to the owning server's accessors, every
// 64-row block summary must be bitwise equal to a from-scratch recompute,
// and the SoA placement scan (PlaceVmFleet, which skips blocks by their
// summaries) must return the same decision as both the object-graph scan
// (PlaceVm) and a sequential, unsummarised reference scan kept here, for
// every policy and availability mode, including the 2-choices RNG draw
// sequence. Candidates are the eligible rows, so crashes make them a proper
// subset. Fleets of 5 rows, 1 row and 130 rows (two full blocks plus a
// ragged one) run the whole sequence at thread counts {1, 2, 7}: the sharded
// SoA scans must be invisible in the outcome. Seeded from DEFL_FAULT_SEED so
// CI can run a seed matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <unordered_set>
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

// From-scratch block summary: per dimension, the largest availability over
// the block's rows with a zero maximum as +0.0; all NaN when any of the
// block's availabilities, under any mode, is NaN.
BlockMax RecomputeBlockMax(const FleetView& fleet, size_t block, AvailabilityMode mode) {
  BlockMax out;
  out.fill(-std::numeric_limits<double>::infinity());
  bool has_nan = false;
  const size_t begin = block * FleetView::kBlockRows;
  const size_t end = std::min(begin + FleetView::kBlockRows, fleet.size());
  for (size_t row = begin; row < end; ++row) {
    for (const AvailabilityMode any_mode : kModes) {
      const ResourceVector availability = FleetAvailability(fleet, row, any_mode);
      for (const ResourceKind kind : kAllResources) {
        has_nan |= std::isnan(availability[kind]);
        if (any_mode == mode) {
          double& max = out[static_cast<size_t>(kind)];
          max = std::max(max, availability[kind]);
        }
      }
    }
  }
  for (double& max : out) {
    max = has_nan ? std::numeric_limits<double>::quiet_NaN() : max + 0.0;
  }
  return out;
}

void ExpectBlocksExact(const FleetView& fleet) {
  ASSERT_EQ(fleet.num_blocks(),
            (fleet.size() + FleetView::kBlockRows - 1) / FleetView::kBlockRows);
  for (size_t block = 0; block < fleet.num_blocks(); ++block) {
    EXPECT_TRUE(fleet.BlockConsistent(block)) << "block " << block;
    for (const AvailabilityMode mode : kModes) {
      const BlockMax expected = RecomputeBlockMax(fleet, block, mode);
      const BlockMax& actual = fleet.block_max(mode)[block];
      for (size_t k = 0; k < kNumResources; ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(expected[k]),
                  std::bit_cast<uint64_t>(actual[k]))
            << "block " << block << " mode " << static_cast<int>(mode) << " dim " << k
            << ": " << expected[k] << " vs " << actual[k];
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

// A demand sitting on a block's summary in one dimension -- the maximum
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
    return;  // every row of the block crashed: its summary is not a bound
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
// fleet of `num_servers` rows, checking the mirror, the block summaries and
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
    ExpectBlocksExact(manager.fleet());
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

}  // namespace
}  // namespace defl
