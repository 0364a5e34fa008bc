#include "src/cluster/placement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace defl {
namespace {

std::unique_ptr<Vm> MakeVm(VmId id, double cpus, double mem_mb,
                           VmPriority priority = VmPriority::kLow) {
  VmSpec spec;
  spec.name = "vm" + std::to_string(id);
  spec.size = ResourceVector(cpus, mem_mb);
  spec.priority = priority;
  return std::make_unique<Vm>(id, spec);
}

class PlacementFixture : public ::testing::Test {
 protected:
  PlacementFixture() : rng_(7) {
    for (int i = 0; i < 4; ++i) {
      servers_.push_back(std::make_unique<Server>(i, ResourceVector(16.0, 65536.0)));
    }
  }

  std::vector<Server*> Servers() {
    std::vector<Server*> out;
    for (auto& s : servers_) {
      out.push_back(s.get());
    }
    return out;
  }

  std::vector<std::unique_ptr<Server>> servers_;
  Rng rng_;
};

TEST_F(PlacementFixture, FirstFitPicksLowestIndexFeasible) {
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));  // full, rigid
  const Result<size_t> placed = PlaceVm(ResourceVector(4.0, 16384.0), Servers(),
                                        PlacementPolicy::kFirstFit, rng_);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 1u);
}

TEST_F(PlacementFixture, BestFitPrefersMatchingShape) {
  // Server 0: lots of CPU, little memory. Server 1: balanced.
  servers_[0]->AddVm(MakeVm(1, 0.5, 49152.0, VmPriority::kHigh));
  // Demand is memory-heavy: best-fit should avoid server 0 whose
  // availability is CPU-skewed.
  const ResourceVector demand(2.0, 32768.0);
  const Result<size_t> placed =
      PlaceVm(demand, Servers(), PlacementPolicy::kBestFit, rng_);
  ASSERT_TRUE(placed.ok());
  const double fit0 = PlacementFitness(demand, servers_[0]->Availability());
  const double fit_chosen =
      PlacementFitness(demand, servers_[placed.value()]->Availability());
  EXPECT_GE(fit_chosen, fit0);
}

TEST_F(PlacementFixture, DeflatableResourcesCountTowardAvailability) {
  for (auto& s : servers_) {
    s->AddVm(MakeVm(100 + s->id(), 16.0, 65536.0, VmPriority::kLow));  // full
  }
  const Result<size_t> with = PlaceVm(ResourceVector(8.0, 32768.0), Servers(),
                                      PlacementPolicy::kFirstFit, rng_,
                                      AvailabilityMode::kFreePlusDeflatable);
  EXPECT_TRUE(with.ok());
  const Result<size_t> without = PlaceVm(ResourceVector(8.0, 32768.0), Servers(),
                                         PlacementPolicy::kFirstFit, rng_,
                                         AvailabilityMode::kFreeOnly);
  EXPECT_FALSE(without.ok());
}

TEST_F(PlacementFixture, NoFeasibleServerIsAnError) {
  for (auto& s : servers_) {
    s->AddVm(MakeVm(100 + s->id(), 16.0, 65536.0, VmPriority::kHigh));
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit,
        PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed =
        PlaceVm(ResourceVector(1.0, 1024.0), Servers(), policy, rng_);
    EXPECT_FALSE(placed.ok()) << PlacementPolicyName(policy);
  }
}

TEST_F(PlacementFixture, TwoChoicesReturnsFeasibleServer) {
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));
  servers_[2]->AddVm(MakeVm(2, 16.0, 65536.0, VmPriority::kHigh));
  for (int i = 0; i < 50; ++i) {
    const Result<size_t> placed = PlaceVm(ResourceVector(8.0, 32768.0), Servers(),
                                          PlacementPolicy::kTwoChoices, rng_);
    ASSERT_TRUE(placed.ok());
    EXPECT_TRUE(placed.value() == 1 || placed.value() == 3);
  }
}

TEST_F(PlacementFixture, TwoChoicesPrefersFitterOfTwo) {
  // With all servers feasible, repeated placement should never pick a
  // clearly worse server... statistically: run many trials and check that
  // the fitter servers win more often than uniform.
  servers_[0]->AddVm(MakeVm(1, 14.0, 8192.0, VmPriority::kHigh));  // poor fit
  const ResourceVector demand(2.0, 8192.0);
  int chose_zero = 0;
  for (int i = 0; i < 200; ++i) {
    const Result<size_t> placed =
        PlaceVm(demand, Servers(), PlacementPolicy::kTwoChoices, rng_);
    ASSERT_TRUE(placed.ok());
    if (placed.value() == 0) {
      ++chose_zero;
    }
  }
  // Uniform over 4 servers would give ~50/200; preferring fitness cuts the
  // poor server's share well below its "either slot" probability.
  EXPECT_LT(chose_zero, 30);
}

TEST(PlacementTwoChoicesTest, ProbesAreDistinct) {
  // With exactly two servers, distinct sampling means every attempt probes
  // both, so the fitter feasible server always wins. Sampling with
  // replacement (the old bug) would draw a == b about half the time and
  // return whichever server that was, fitter or not.
  std::vector<std::unique_ptr<Server>> owned;
  owned.push_back(std::make_unique<Server>(0, ResourceVector(16.0, 65536.0)));
  owned.push_back(std::make_unique<Server>(1, ResourceVector(16.0, 65536.0)));
  // Server 0's availability is badly CPU-skewed for a memory-heavy demand.
  VmSpec spec;
  spec.name = "skew";
  spec.size = ResourceVector(1.0, 57344.0);
  spec.priority = VmPriority::kHigh;
  owned[0]->AddVm(std::make_unique<Vm>(100, spec));
  const std::vector<Server*> servers = {owned[0].get(), owned[1].get()};
  const ResourceVector demand(2.0, 8192.0);
  const double fit0 = PlacementFitness(demand, servers[0]->Availability());
  const double fit1 = PlacementFitness(demand, servers[1]->Availability());
  ASSERT_NE(fit0, fit1);
  const size_t fitter = fit0 >= fit1 ? 0u : 1u;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const Result<size_t> placed =
        PlaceVm(demand, servers, PlacementPolicy::kTwoChoices, rng);
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(placed.value(), fitter) << "seed " << seed;
  }
}

TEST(PlacementTwoChoicesTest, SingleServerStillPlaces) {
  std::unique_ptr<Server> server =
      std::make_unique<Server>(0, ResourceVector(16.0, 65536.0));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Result<size_t> placed = PlaceVm(ResourceVector(2.0, 8192.0), {server.get()},
                                          PlacementPolicy::kTwoChoices, rng);
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(placed.value(), 0u);
  }
}

TEST(PlacementFitnessTest, AlignedVectorsScoreHighest) {
  const ResourceVector demand(4.0, 16384.0);
  EXPECT_GT(PlacementFitness(demand, ResourceVector(8.0, 32768.0)),
            PlacementFitness(demand, ResourceVector(32.0, 8192.0)));
  EXPECT_DOUBLE_EQ(PlacementFitness(demand, ResourceVector()), 0.0);
}

TEST(PlacementFitnessTest, DegenerateVectorsScoreZeroNotNan) {
  // Zero (or norm-product-underflowing) demand/availability must be defined
  // as fitness 0, never NaN: a NaN would poison the best-fit max and make
  // the scalar and SoA scans disagree on the winner.
  const ResourceVector tiny = ResourceVector::Uniform(1e-200);
  EXPECT_DOUBLE_EQ(PlacementFitness(ResourceVector(), ResourceVector()), 0.0);
  EXPECT_DOUBLE_EQ(PlacementFitness(tiny, tiny), 0.0);
  EXPECT_DOUBLE_EQ(PlacementFitness(tiny, ResourceVector(8.0, 32768.0)), 0.0);
  EXPECT_FALSE(std::isnan(PlacementFitness(ResourceVector(), tiny)));
}

TEST_F(PlacementFixture, FleetScanMatchesObjectScanOnDegenerateDemand) {
  // A zero demand is feasible everywhere with fitness 0 on every server;
  // both paths must fall back to the same lowest-index tie-break.
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));  // full, rigid
  FleetView fleet;
  fleet.Bind(servers_);
  const std::vector<uint32_t> rows = {0, 1, 2, 3};
  const ResourceVector demand;  // zero
  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit}) {
    Rng object_rng(3);
    Rng fleet_rng(3);
    const Result<size_t> object_pick = PlaceVm(demand, Servers(), policy, object_rng);
    const Result<size_t> fleet_pick =
        PlaceVmFleet(demand, fleet, rows, policy, fleet_rng);
    ASSERT_TRUE(object_pick.ok());
    ASSERT_TRUE(fleet_pick.ok());
    EXPECT_EQ(object_pick.value(), fleet_pick.value());
  }
}

// A fleet for the block-summary tests: `n` 16-core servers bound to a
// FleetView, with rows [0, full_rows) filled by a rigid VM.
struct BlockFleet {
  std::vector<std::unique_ptr<Server>> servers;
  FleetView fleet;  // after servers: detaches itself before they go

  BlockFleet(int n, int full_rows, int nan_row = -1) {
    for (int i = 0; i < n; ++i) {
      const double cpus = i == nan_row ? std::nan("") : 16.0;
      servers.push_back(std::make_unique<Server>(i, ResourceVector(cpus, 65536.0)));
      if (i < full_rows) {
        servers.back()->AddVm(MakeVm(i + 1, 16.0, 65536.0, VmPriority::kHigh));
      }
    }
    fleet.Bind(servers);
  }
};

TEST(PlacementBlockTest, SkipCoversOnlyTheInfeasibleBlock) {
  // Block 0 (rows 0-63) is full, block 1 is empty. Dropping rows 10 and 63
  // from the candidates shortens block 0's run, so the first feasible row
  // (64) sits inside the 64 positions that start at row 0.
  BlockFleet fx(130, /*full_rows=*/64);
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < 130; ++row) {
    if (row != 10 && row != 63) {
      rows.push_back(row);
    }
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const PlacementPolicy policy :
         {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit}) {
      Rng rng(1);
      const Result<size_t> pick =
          PlaceVmFleet(ResourceVector(4.0, 16384.0), fx.fleet, rows, policy, rng,
                       AvailabilityMode::kFreeOnly, p);
      ASSERT_TRUE(pick.ok()) << PlacementPolicyName(policy);
      EXPECT_EQ(rows[pick.value()], 64u) << PlacementPolicyName(policy);
    }
  }
  EXPECT_EQ(fx.fleet.block_max(AvailabilityMode::kFreeOnly)[0][0], 0.0);
}

TEST(PlacementBlockTest, NanRowKeepsItsBlockScanned) {
  // Row 66's free CPU is NaN, which the per-row test treats as feasible:
  // its block's maximum must be NaN so the 32-core demand, which every
  // other row fails, still reaches it.
  BlockFleet fx(70, /*full_rows=*/0, /*nan_row=*/66);
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < 70; ++row) {
    rows.push_back(row);
  }
  Rng rng(1);
  const Result<size_t> pick =
      PlaceVmFleet(ResourceVector(32.0, 1024.0), fx.fleet, rows,
                   PlacementPolicy::kFirstFit, rng, AvailabilityMode::kFreeOnly);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick.value(), 66u);
  EXPECT_EQ(fx.fleet.block_max(AvailabilityMode::kFreeOnly)[0][0], 16.0);
  EXPECT_TRUE(std::isnan(fx.fleet.block_max(AvailabilityMode::kFreeOnly)[1][0]));
}

TEST(PlacementPolicyTest, Names) {
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kBestFit), "best-fit");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kFirstFit), "first-fit");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kTwoChoices), "2-choices");
}

TEST(PlacementEdgeTest, EmptyServerListIsAnError) {
  Rng rng(1);
  EXPECT_FALSE(PlaceVm(ResourceVector(1.0, 1.0), {}, PlacementPolicy::kBestFit, rng).ok());
}

TEST(PlacementAvailabilityTest, PreemptibleModeCountsWholeLowPriorityVms) {
  Server server(1, ResourceVector(16.0, 65536.0));
  VmSpec spec;
  spec.name = "low";
  spec.size = ResourceVector(12.0, 49152.0);
  spec.priority = VmPriority::kLow;
  spec.min_size = spec.size * 0.75;  // barely deflatable
  server.AddVm(std::make_unique<Vm>(1, spec));
  const ResourceVector deflatable =
      ServerAvailability(server, AvailabilityMode::kFreePlusDeflatable);
  const ResourceVector preemptible =
      ServerAvailability(server, AvailabilityMode::kFreePlusPreemptible);
  EXPECT_DOUBLE_EQ(deflatable.cpu(), 4.0 + 3.0);
  EXPECT_DOUBLE_EQ(preemptible.cpu(), 4.0 + 12.0);
  EXPECT_DOUBLE_EQ(ServerAvailability(server, AvailabilityMode::kFreeOnly).cpu(), 4.0);
}

}  // namespace
}  // namespace defl
