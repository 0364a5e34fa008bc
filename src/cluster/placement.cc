#include "src/cluster/placement.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "src/common/logging.h"

namespace defl {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kBestFit:
      return "best-fit";
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kTwoChoices:
      return "2-choices";
  }
  return "?";
}

double PlacementFitness(const ResourceVector& demand,
                        const ResourceVector& availability) {
  return ResourceVector::CosineSimilarity(demand, availability);
}

ResourceVector ServerAvailability(const Server& server, AvailabilityMode mode) {
  switch (mode) {
    case AvailabilityMode::kFreeOnly:
      return server.Free();
    case AvailabilityMode::kFreePlusDeflatable:
      return server.Availability();
    case AvailabilityMode::kFreePlusPreemptible:
      return server.Free() + server.Preemptible();
  }
  return server.Free();
}

namespace {

// Per-chunk scan result. `first_feasible` serves first-fit (min over chunks);
// (fitness, best_feasible) serves best-fit. Both reductions are
// order-independent under their total-order tie-breaks, so the fold is
// invariant to chunk boundaries and thread count.
struct ChunkScan {
  size_t first_feasible = SIZE_MAX;
  size_t best_feasible = SIZE_MAX;
  double best_fitness = -1.0;
};

// Shard the candidate scan only when it is worth a fork-join dispatch.
constexpr size_t kMinParallelCandidates = 32;
constexpr size_t kScanChunk = 64;

bool UseParallelScan(size_t candidates, ThreadPool* pool) {
  return pool != nullptr && pool->parallelism() > 1 &&
         candidates >= kMinParallelCandidates;
}

// The object-graph scan: feasibility and fitness consume one availability
// vector per server.
ChunkScan ScanAll(const ResourceVector& demand, const std::vector<Server*>& servers,
                  AvailabilityMode mode, bool need_fitness) {
  ChunkScan out;
  for (size_t i = 0; i < servers.size(); ++i) {
    const ResourceVector availability = ServerAvailability(*servers[i], mode);
    if (!demand.AllLeq(availability)) {
      continue;
    }
    if (out.first_feasible == SIZE_MAX) {
      out.first_feasible = i;
      if (!need_fitness) {
        return out;  // first-fit needs nothing past the first hit
      }
    }
    const double fitness = PlacementFitness(demand, availability);
    if (fitness > out.best_fitness ||
        (fitness == out.best_fitness && i < out.best_feasible)) {
      out.best_fitness = fitness;
      out.best_feasible = i;
    }
  }
  return out;
}

// Folds per-chunk results into one. Ascending chunk order on the calling
// thread, but the tie-breaks make the outcome independent of that order.
ChunkScan MergeChunks(const std::vector<ChunkScan>& partial) {
  ChunkScan merged;
  for (const ChunkScan& chunk : partial) {
    merged.first_feasible = std::min(merged.first_feasible, chunk.first_feasible);
    if (chunk.best_fitness > merged.best_fitness ||
        (chunk.best_fitness == merged.best_fitness &&
         chunk.best_feasible < merged.best_feasible)) {
      merged.best_fitness = chunk.best_fitness;
      merged.best_feasible = chunk.best_feasible;
    }
  }
  return merged;
}

// Pooled per-probe chunk scratch (DESIGN.md §14 retire-reclaim): placement
// runs thousands of probes per simulated hour, and a fresh vector per probe
// dominated the scan's allocation profile. Only the coordinating thread (the
// ParallelFor caller) sizes and merges the buffer; workers write disjoint
// elements of an already-sized vector, so no reallocation can race the
// dispatch. assign() re-default-initializes every slot, which is the retire
// step -- capacity survives, values do not.
std::vector<ChunkScan>& ChunkScratch(size_t chunks) {
  static thread_local std::vector<ChunkScan> scratch;
  scratch.assign(chunks, ChunkScan{});
  return scratch;
}

// --- Structure-of-arrays scan (FleetView) ---

// The two column sets whose elementwise sum is a row's availability under
// one mode, plus that mode's max-tree. `extra` is null for kFreeOnly; the
// scan loop is specialized on that so the common path stays branch-free per
// candidate.
struct FleetCols {
  const double* base[kNumResources];
  const double* extra[kNumResources];
  const BlockMax* block_max;
  const FleetView* fleet;
  AvailabilityMode mode;
};

FleetCols ModeColumns(const FleetView& fleet, AvailabilityMode mode) {
  FleetCols cols;
  cols.block_max = fleet.block_max(mode);
  cols.fleet = &fleet;
  cols.mode = mode;
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    cols.base[k] = fleet.free_col(kind);
    switch (mode) {
      case AvailabilityMode::kFreeOnly:
        cols.extra[k] = nullptr;
        break;
      case AvailabilityMode::kFreePlusDeflatable:
        cols.extra[k] = fleet.deflatable_col(kind);
        break;
      case AvailabilityMode::kFreePlusPreemptible:
        cols.extra[k] = fleet.preemptible_col(kind);
        break;
    }
  }
  return cols;
}

// Flat-loop equivalent of ScanAll over candidate positions [begin, end).
// Every floating-point operation replicates the object-graph path in the
// same order: availability = base (+ extra) per dimension (the same adds as
// Server::Availability), feasibility = AllLeq's per-dimension compare with
// the same epsilon, fitness = CosineSimilarity's dot / (|d| * |a|) with
// dimension-order accumulation and the degenerate-denominator guard. The
// loop reads only contiguous arrays: no pointer-chasing, no virtual calls,
// and the compiler can vectorize the per-dimension math.
//
// Before the rows of a block, the demand is tested against the block's
// max-tree node with the same compare. A node the demand exceeds in any
// dimension holds no feasible row (fl(a + eps) <= fl(max + eps) for every
// a <= max, because rounding is monotone), so the scan climbs to the largest
// infeasible ancestor that starts at or before this block's run and skips the
// candidates under it. The rows that are visited see exactly the operations
// above.
constexpr double kEps = 1e-9;  // matches ResourceVector::AllLeq's default

bool NodeFeasible(const double (&d)[kNumResources], const BlockMax& max) {
  bool feasible = true;
  for (int k = 0; k < kNumResources; ++k) {
    feasible &= !(d[k] > max[k] + kEps);
  }
  return feasible;
}

template <bool kHasExtra>
ChunkScan ScanFleetRangeImpl(const FleetCols& cols, const double (&d)[kNumResources],
                             double demand_norm, const std::vector<uint32_t>& candidates,
                             bool need_fitness, size_t begin, size_t end) {
  ChunkScan out;
  constexpr auto kBlockRows = static_cast<uint32_t>(FleetView::kBlockRows);
  uint32_t checked_block = UINT32_MAX;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t row = candidates[i];
    const uint32_t block = row / kBlockRows;
    if (block != checked_block) {
      checked_block = block;
      if (!NodeFeasible(d, cols.block_max[block])) {
        // Climb while the node is a left child and its parent is infeasible
        // too: the parent's rows then run past this node's. A right child's
        // parent ends where it does, so the climb stops there.
        int level = FleetView::kBlockLevel;
        size_t node = block;
        while (node % 2 == 0 && level < cols.fleet->top_level() &&
               !NodeFeasible(d, cols.fleet->level_max(cols.mode, level + 1)[node / 2])) {
          ++level;
          node /= 2;
        }
        // Skip to the last candidate under the node. Candidates ascend
        // strictly, so the node's run ends within node_end - row positions
        // of i; when the last of those is still under the node, so is every
        // one before it (the usual case: no excluded row).
        const uint64_t node_end = (uint64_t{node} + 1) << level;
        const size_t span_end =
            static_cast<size_t>(std::min<uint64_t>(end, i + (node_end - row)));
        const auto first = candidates.begin() + static_cast<std::ptrdiff_t>(i);
        const auto last = candidates.begin() + static_cast<std::ptrdiff_t>(span_end);
        i = candidates[span_end - 1] < node_end
                ? span_end - 1
                : static_cast<size_t>(std::lower_bound(first, last, node_end) -
                                      candidates.begin()) - 1;
        continue;
      }
    }
    double a[kNumResources];
    bool feasible = true;
    for (int k = 0; k < kNumResources; ++k) {
      a[k] = kHasExtra ? cols.base[k][row] + cols.extra[k][row] : cols.base[k][row];
      feasible &= !(d[k] > a[k] + kEps);
    }
    if (!feasible) {
      continue;
    }
    if (out.first_feasible == SIZE_MAX) {
      out.first_feasible = i;
      if (!need_fitness) {
        return out;
      }
    }
    double dot = 0.0;
    double norm2 = 0.0;
    for (int k = 0; k < kNumResources; ++k) {
      dot += d[k] * a[k];
      norm2 += a[k] * a[k];
    }
    const double denom = demand_norm * std::sqrt(norm2);
    const double fitness = denom == 0.0 ? 0.0 : dot / denom;
    if (fitness > out.best_fitness ||
        (fitness == out.best_fitness && i < out.best_feasible)) {
      out.best_fitness = fitness;
      out.best_feasible = i;
    }
  }
  return out;
}

ChunkScan ScanFleetRange(const FleetCols& cols, const double (&d)[kNumResources],
                         double demand_norm, const std::vector<uint32_t>& candidates,
                         bool need_fitness, size_t begin, size_t end) {
  return cols.extra[0] != nullptr
             ? ScanFleetRangeImpl<true>(cols, d, demand_norm, candidates,
                                        need_fitness, begin, end)
             : ScanFleetRangeImpl<false>(cols, d, demand_norm, candidates,
                                         need_fitness, begin, end);
}

// SoA whole-candidate scan; shards CANDIDATE INDEX RANGES across the pool
// (workers touch only the flat columns). The merge's tie-breaks are those of
// the sequential scan, so the outcome is byte-identical at any thread count.
ChunkScan ScanAllFleet(const ResourceVector& demand, const FleetView& fleet,
                       const std::vector<uint32_t>& candidates, AvailabilityMode mode,
                       bool need_fitness, ThreadPool* pool) {
  const FleetCols cols = ModeColumns(fleet, mode);
  double d[kNumResources];
  for (const ResourceKind kind : kAllResources) {
    d[static_cast<size_t>(kind)] = demand[kind];
  }
  const double demand_norm = demand.Norm();
  const size_t count = candidates.size();
  if (!UseParallelScan(count, pool)) {
    return ScanFleetRange(cols, d, demand_norm, candidates, need_fitness, 0, count);
  }
  const size_t chunks = (count + kScanChunk - 1) / kScanChunk;
  std::vector<ChunkScan>& partial = ChunkScratch(chunks);
  pool->ParallelFor(static_cast<int64_t>(chunks), [&](int64_t c) {
    const size_t begin = static_cast<size_t>(c) * kScanChunk;
    const size_t end = std::min(begin + kScanChunk, count);
    partial[static_cast<size_t>(c)] =
        ScanFleetRange(cols, d, demand_norm, candidates, need_fitness, begin, end);
  });
  return MergeChunks(partial);
}

}  // namespace

Result<size_t> PlaceVm(const ResourceVector& demand,
                       const std::vector<Server*>& servers, PlacementPolicy policy,
                       Rng& rng, AvailabilityMode mode) {
  if (servers.empty()) {
    return Error{"no servers"};
  }
  // Each candidate's availability is computed exactly once per probe:
  // feasibility and fitness consume the same vector instead of re-deriving
  // it (the server-side aggregates are cached, but the vector assembly --
  // Free/clamp/adds -- is still worth sharing on the placement hot path).
  switch (policy) {
    case PlacementPolicy::kFirstFit: {
      const ChunkScan scan = ScanAll(demand, servers, mode, /*need_fitness=*/false);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (first-fit)"};
      }
      return scan.first_feasible;
    }

    case PlacementPolicy::kBestFit: {
      const ChunkScan scan = ScanAll(demand, servers, mode, /*need_fitness=*/true);
      if (scan.best_feasible == SIZE_MAX) {
        return Error{"no feasible server (best-fit)"};
      }
      return scan.best_feasible;
    }

    case PlacementPolicy::kTwoChoices: {
      // Sample two *distinct* random servers and keep the fitter feasible
      // one; retry a few times before falling back to a full first-fit
      // scan. (Sampling with replacement would silently degenerate to one
      // choice whenever both draws land on the same server.)
      constexpr int kAttempts = 8;
      const auto count = static_cast<int64_t>(servers.size());
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const auto a = static_cast<size_t>(rng.UniformInt(0, count - 1));
        size_t b = a;
        if (count >= 2) {
          // Draw from the count-1 servers that are not `a`.
          b = static_cast<size_t>(rng.UniformInt(0, count - 2));
          if (b >= a) {
            ++b;
          }
        }
        const ResourceVector avail_a = ServerAvailability(*servers[a], mode);
        const bool fa = demand.AllLeq(avail_a);
        if (b == a) {
          if (fa) {
            return a;
          }
          continue;
        }
        const ResourceVector avail_b = ServerAvailability(*servers[b], mode);
        const bool fb = demand.AllLeq(avail_b);
        if (fa && fb) {
          const double fit_a = PlacementFitness(demand, avail_a);
          const double fit_b = PlacementFitness(demand, avail_b);
          return fit_a >= fit_b ? a : b;
        }
        if (fa) {
          return a;
        }
        if (fb) {
          return b;
        }
      }
      const ChunkScan scan = ScanAll(demand, servers, mode, /*need_fitness=*/false);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (2-choices)"};
      }
      return scan.first_feasible;
    }
  }
  return Error{"unknown policy"};
}

ResourceVector FleetAvailability(const FleetView& fleet, size_t row,
                                 AvailabilityMode mode) {
  // Elementwise assembly in the same operation order as ServerAvailability:
  // kFreeOnly copies the mirrored Free() bits; the other modes add the
  // second aggregate per dimension exactly like ResourceVector::operator+.
  ResourceVector out;
  for (const ResourceKind kind : kAllResources) {
    switch (mode) {
      case AvailabilityMode::kFreeOnly:
        out[kind] = fleet.free_col(kind)[row];
        break;
      case AvailabilityMode::kFreePlusDeflatable:
        out[kind] = fleet.free_col(kind)[row] + fleet.deflatable_col(kind)[row];
        break;
      case AvailabilityMode::kFreePlusPreemptible:
        out[kind] = fleet.free_col(kind)[row] + fleet.preemptible_col(kind)[row];
        break;
    }
  }
  return out;
}

Result<size_t> PlaceVmFleet(const ResourceVector& demand, FleetView& fleet,
                            const std::vector<uint32_t>& candidates,
                            PlacementPolicy policy, Rng& rng, AvailabilityMode mode,
                            ThreadPool* pool) {
  if (candidates.empty()) {
    return Error{"no servers"};
  }
  // Bring every dirty row coherent before any column is read; O(1) when
  // nothing mutated since the last probe.
  fleet.Refresh();
#ifdef DEFL_CHECK_ACCOUNTING
  if (std::adjacent_find(candidates.begin(), candidates.end(),
                         std::greater_equal<>()) != candidates.end()) {
    DEFL_LOG(kError) << "PlaceVmFleet: candidates are not strictly ascending";
    std::abort();
  }
#endif
  switch (policy) {
    case PlacementPolicy::kFirstFit: {
      const ChunkScan scan =
          ScanAllFleet(demand, fleet, candidates, mode, /*need_fitness=*/false, pool);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (first-fit)"};
      }
      return scan.first_feasible;
    }

    case PlacementPolicy::kBestFit: {
      const ChunkScan scan =
          ScanAllFleet(demand, fleet, candidates, mode, /*need_fitness=*/true, pool);
      if (scan.best_feasible == SIZE_MAX) {
        return Error{"no feasible server (best-fit)"};
      }
      return scan.best_feasible;
    }

    case PlacementPolicy::kTwoChoices: {
      // Same draw sequence, comparisons, and fallback as the object-graph
      // 2-choices -- only the availability reads come from the columns.
      constexpr int kAttempts = 8;
      const auto count = static_cast<int64_t>(candidates.size());
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const auto a = static_cast<size_t>(rng.UniformInt(0, count - 1));
        size_t b = a;
        if (count >= 2) {
          b = static_cast<size_t>(rng.UniformInt(0, count - 2));
          if (b >= a) {
            ++b;
          }
        }
        const ResourceVector avail_a = FleetAvailability(fleet, candidates[a], mode);
        const bool fa = demand.AllLeq(avail_a);
        if (b == a) {
          if (fa) {
            return a;
          }
          continue;
        }
        const ResourceVector avail_b = FleetAvailability(fleet, candidates[b], mode);
        const bool fb = demand.AllLeq(avail_b);
        if (fa && fb) {
          const double fit_a = PlacementFitness(demand, avail_a);
          const double fit_b = PlacementFitness(demand, avail_b);
          return fit_a >= fit_b ? a : b;
        }
        if (fa) {
          return a;
        }
        if (fb) {
          return b;
        }
      }
      const ChunkScan scan =
          ScanAllFleet(demand, fleet, candidates, mode, /*need_fitness=*/false, pool);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (2-choices)"};
      }
      return scan.first_feasible;
    }
  }
  return Error{"unknown policy"};
}

}  // namespace defl
