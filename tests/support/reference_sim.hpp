// The centralized reference of DistributedSim's step, for equivalence
// checks in the tests and in bench_spmd.
//
// ReferenceSim computes the step DistributedSim::run_step computes, in one
// serial body over global state: kinematics for every node, the surface
// scan over every element, descriptor induction from the gathered contact
// points, the descriptor filter over every face, a local search per rank,
// and on migration steps the repartition and its migration volume. Traffic
// and payload bytes are booked from a byte model of the messages the rank
// protocol sends, not from a transport. It keeps its own ownership map,
// hit accumulators and step count, and reaches the library only through
// public API: the initial labels come from McmlDtPartitioner, and a
// migration step repartitions build_two_phase_graph's graph with
// Partitioner::repartition at seed repartition.seed + s, as the step does.
//
// Events, traffic matrices, payload bytes, descriptor tree sizes, moved
// node and element counts, ownership maps and hit accumulators must equal
// the SPMD step's exactly, at any thread count and under any fault
// schedule the step absorbs or degrades from.
#pragma once

#include <vector>

#include "core/distributed_sim.hpp"
#include "partition/partitioner.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

class ReferenceSim {
 public:
  /// Decomposes the snapshot-0 mesh with MCML+DT, like DistributedSim's
  /// constructor. `sim` must outlive the ReferenceSim.
  ReferenceSim(const ImpactSim& sim, const DistributedSimConfig& config);

  /// Computes snapshot step `s` and commits its end state. Steps count
  /// like DistributedSim's: the migration cadence counts steps run. The
  /// report's health, timings and migration_ranks_rebuilt stay zero.
  DistributedStepReport run_step(idx_t s);

  const std::vector<idx_t>& ownership_map() const { return owner_; }
  const std::vector<wgt_t>& gather_contact_hits() const { return hits_; }

 private:
  const ImpactSim* sim_;
  DistributedSimConfig config_;
  Partitioner partitioner_;
  std::vector<idx_t> owner_;
  std::vector<wgt_t> hits_;
  idx_t steps_run_ = 0;
};

}  // namespace cpart
