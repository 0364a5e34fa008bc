// Deflation-aware VM placement (Section 5): multi-dimensional bin packing
// where a server's availability is free + deflatable resources, and fitness
// is the cosine similarity between the VM's demand vector and the server's
// availability vector. Three policies from the paper: best-fit, first-fit,
// and 2-choices (sample two random servers, keep the fitter one).
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/cluster/fleet_view.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/hypervisor/server.h"
#include "src/resources/resource_vector.h"

namespace defl {

enum class PlacementPolicy { kBestFit, kFirstFit, kTwoChoices };

const char* PlacementPolicyName(PlacementPolicy policy);

// fitness(D, A) = (A . D) / (|A| |D|); higher is better.
double PlacementFitness(const ResourceVector& demand, const ResourceVector& availability);

ResourceVector ServerAvailability(const Server& server, AvailabilityMode mode);

// Picks a server whose availability (per `mode`) covers `demand`. Returns an
// index into `servers` or an error when no server is feasible. The
// sequential object-graph scan: the reference PlaceVmFleet is tested against.
Result<size_t> PlaceVm(const ResourceVector& demand,
                       const std::vector<Server*>& servers, PlacementPolicy policy,
                       Rng& rng, AvailabilityMode mode = AvailabilityMode::kFreePlusDeflatable);

// Availability of one FleetView row under `mode`, assembled from the flat
// columns with the same elementwise adds as ServerAvailability -- the bits
// are identical to the object-graph path for a coherent view.
ResourceVector FleetAvailability(const FleetView& fleet, size_t row,
                                 AvailabilityMode mode);

// Structure-of-arrays variant of PlaceVm: scans the FleetView's flat
// columns instead of Server objects. `candidates` lists the eligible rows in
// strictly ascending order (the canonical placement order; the block skip
// below relies on it); the returned index is a POSITION in `candidates`,
// mirroring PlaceVm's index-into-`servers` contract. Refreshes the view
// first (O(1) when clean), so the decision -- feasibility, fitness, every
// tie-break, and the 2-choices RNG draw sequence -- is bit-identical to
// PlaceVm over the equivalent Server list. Full scans test each 64-row
// block's max-tree node before its rows and skip the largest enclosing node
// the demand exceeds; the skip is exact, so it changes no decision. The sharded scan chunks
// candidate index ranges; workers read only the contiguous columns, never
// the Server objects.
Result<size_t> PlaceVmFleet(const ResourceVector& demand, FleetView& fleet,
                            const std::vector<uint32_t>& candidates,
                            PlacementPolicy policy, Rng& rng,
                            AvailabilityMode mode = AvailabilityMode::kFreePlusDeflatable,
                            ThreadPool* pool = nullptr);

}  // namespace defl

#endif  // SRC_CLUSTER_PLACEMENT_H_
