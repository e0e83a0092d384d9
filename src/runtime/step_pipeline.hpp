// Incremental per-timestep contact pipeline.
//
// The paper's evaluation loop regenerates everything per snapshot: deform
// the mesh, re-extract the boundary surface, re-induce the subdomain
// descriptor tree, re-run global search. Done naively (ImpactSim::snapshot
// + McmlDtPartitioner::build_descriptors + face_owners + global_search_tree)
// each step pays three full sorts over the contact points, a fresh mesh and
// surface allocation, and per-query scratch churn. StepPipeline owns the
// cross-snapshot state that makes the steady state cheap:
//   * snapshots are generated into a persistent Mesh/Surface workspace with
//     the displacement and erosion loops parallelized
//     (ImpactSim::snapshot_into);
//   * descriptor induction is warm-started from the previous snapshot's
//     per-axis sorted orders (TreeInduceWorkspace) — after coherent motion
//     the orders are nearly sorted and an adaptive merge repair replaces
//     the full sorts — and the retired tree's node storage is recycled;
//   * global search reuses persistent per-thread masks reset via
//     touched-lists, and the face-owner array is a reused buffer.
// Every product is bit-identical to the cold recomputation; see
// docs/pipeline.md for the dataflow and the warm-start invariants.
#pragma once

#include <optional>

#include "contact/global_search.hpp"
#include "core/mcml_dt.hpp"
#include "sim/impact_sim.hpp"
#include "tree/decision_tree.hpp"

namespace cpart {

class StepPipeline {
 public:
  explicit StepPipeline(const ImpactSim& sim);

  /// Generates snapshot `s` into the persistent workspace and makes it
  /// current. Identical to ImpactSim::snapshot(s).
  const ImpactSim::Snapshot& advance(idx_t s);

  /// The snapshot produced by the last advance().
  const ImpactSim::Snapshot& current() const { return snapshot_; }

  /// Rebuilds the subdomain descriptors of the current snapshot under
  /// `partitioner`'s node partition, warm-started from the previous step.
  /// Identical to partitioner.build_descriptors(mesh, surface).
  const SubdomainDescriptors& build_descriptors(
      const McmlDtPartitioner& partitioner);

  /// Descriptors of the last build_descriptors() call.
  const SubdomainDescriptors& descriptors() const { return *descriptors_; }

  /// Global tree search of the current snapshot's surface against the
  /// current descriptors, with face owners derived from `partitioner`'s
  /// node partition. Identical to face_owners + global_search_tree.
  GlobalSearchStats search(const McmlDtPartitioner& partitioner,
                           real_t margin);

  /// Face owners computed by the last search().
  std::span<const idx_t> owners() const { return owners_; }

 private:
  const ImpactSim& sim_;
  ImpactSim::SnapshotWorkspace snapshot_ws_;
  ImpactSim::Snapshot snapshot_;
  TreeInduceWorkspace tree_ws_;
  std::optional<SubdomainDescriptors> descriptors_;
  // Reused gather buffers for the descriptor build.
  std::vector<Vec3> points_;
  std::vector<idx_t> labels_;
  std::vector<idx_t> owners_;
};

}  // namespace cpart
