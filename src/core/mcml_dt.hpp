// MCML+DT — the paper's algorithm (Section 4).
//
// One decomposition serves both computation phases:
//  1. Build the nodal graph with two vertex weights (FE work; contact-search
//     work, nonzero only on contact nodes) and edge weights (contact-contact
//     edges weighted higher, default 5 vs 1 — Section 5's configuration).
//  2. Multi-constraint multilevel partitioning balances both phases.
//  3. Tree-friendly adjustment: a max_p/max_i-terminated region tree over
//     all nodes reassigns each rectangular region to its majority partition
//     (P'), then multi-constraint k-way refinement on the collapsed region
//     graph G' restores balance without breaking the axes-parallel
//     boundaries (P'').
//  4. Per snapshot, a descriptor tree over the current contact points gives
//     each subdomain a tight set of axes-parallel boxes; global search
//     streams surface-element bounding boxes down this tree.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "mesh/mesh.hpp"
#include "mesh/surface.hpp"
#include "partition/partitioner.hpp"
#include "tree/descriptor_tree.hpp"
#include "tree/region_tree.hpp"

namespace cpart {

/// How the initial multi-constraint partition P is computed.
enum class InitialPartitioner {
  /// Multilevel multi-constraint graph partitioning (the paper's choice).
  kMultilevelGraph,
  /// Geometry-aware multi-constraint RCB (the paper's Section-6 future-work
  /// direction): balanced in all constraints with axes-parallel boundaries
  /// by construction; the G' refinement then recovers cut quality.
  kGeometric,
};

struct McmlDtConfig {
  idx_t k = 25;
  double epsilon = 0.10;
  /// Weight of edges connecting two contact nodes (others get 1).
  wgt_t contact_edge_weight = 5;
  InitialPartitioner initial = InitialPartitioner::kMultilevelGraph;
  /// Enables the tree-friendly P -> P' -> P'' adjustment (Section 4.2).
  /// Disabling it is the "raw multi-constraint partition" ablation.
  bool tree_friendly = true;
  /// Region-tree thresholds; zeros mean "use the paper's recommended
  /// mid-range values derived from n and k".
  RegionTreeOptions region{};
  /// Multilevel partitioner knobs (seed, coarsening, refinement).
  PartitionOptions partitioner{};
  /// Two-level hierarchy (groups >= 2 partitions group-first; see
  /// partition/hierarchical.hpp). Ignored by the geometric initializer.
  HierarchyOptions hierarchy{};
  /// Descriptor induction (gap_alpha enables the Section-6 extension).
  DescriptorOptions descriptor{};
};

/// Builds the contact/impact nodal graph of Section 4.2: two vertex weight
/// components (all-ones; contact indicator) and contact-weighted edges.
/// Equals nodal_graph(mesh) re-weighted by reweight_two_phase_graph.
CsrGraph build_two_phase_graph(const Mesh& mesh,
                               std::span<const char> is_contact_node,
                               wgt_t contact_edge_weight);

/// Rewrites the weights of a two-phase graph in place for a new contact
/// mask, in O(n + nnz): the structure depends only on the mesh, so the
/// result equals build_two_phase_graph of the same mesh and mask.
void reweight_two_phase_graph(CsrGraph& g,
                              std::span<const char> is_contact_node,
                              wgt_t contact_edge_weight);

class McmlDtPartitioner {
 public:
  /// Partitions the snapshot-0 mesh. `surface` must come from `mesh`.
  McmlDtPartitioner(const Mesh& mesh, const Surface& surface,
                    const McmlDtConfig& config);

  const McmlDtConfig& config() const { return config_; }
  idx_t k() const { return config_.k; }

  /// Final node partition P'' (per mesh node).
  const std::vector<idx_t>& node_partition() const { return partition_; }

  /// Diagnostics of the adjustment pipeline.
  struct PipelineStats {
    wgt_t cut_initial = 0;       // after multi-constraint partitioning (P)
    wgt_t cut_majority = 0;      // after region-majority reassignment (P')
    wgt_t cut_final = 0;         // after G' refinement (P'')
    double imbalance_initial = 0;
    double imbalance_majority = 0;
    double imbalance_final = 0;
    idx_t num_regions = 0;       // leaves of the region tree
    idx_t region_tree_nodes = 0;
  };
  const PipelineStats& stats() const { return stats_; }

  /// Per-level diagnostics of the initial partition (meaningful when
  /// config().hierarchy.groups >= 2; flat runs fill the final level only).
  const HierarchyStats& hierarchy_stats() const { return hierarchy_stats_; }

  /// Induces this snapshot's subdomain descriptors from the current contact
  /// points (the paper's fixed-partition update strategy: the partition
  /// stays, only the descriptors are rebuilt).
  SubdomainDescriptors build_descriptors(const Mesh& mesh,
                                         const Surface& surface) const;

  /// Replaces the node partition (used by the repartitioning update
  /// policy); must be a valid k-way labeling of the same node set.
  void set_node_partition(std::vector<idx_t> partition);

 private:
  McmlDtConfig config_;
  std::vector<idx_t> partition_;
  PipelineStats stats_;
  HierarchyStats hierarchy_stats_;
};

}  // namespace cpart
