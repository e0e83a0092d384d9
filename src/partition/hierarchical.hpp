// Two-level hierarchical partitioning (Kong et al., arXiv:1809.02666;
// rank-hierarchy mapping as in Preclik & Rüde, arXiv:1501.05810).
//
// Level 1 coarsens the graph to a small proxy and splits it into G rank
// groups by recursive bisection with part-count-proportional fractions;
// the group labels project back through the coarsening chain. Level 2
// induces the subgraph of each group and partitions it independently into
// the group's contiguous share of the k parts — the per-group problems run
// concurrently on the ThreadPool (each one inline within its worker), and
// because every stage is pool-size invariant the final labels are
// bit-identical across thread counts at a fixed seed. Partitioning the
// top level on the proxy instead of the full graph is what makes the
// scheme scale: the expensive full-resolution work parallelizes over
// groups, and nothing global ever runs at full k.
#pragma once

#include <vector>

#include "partition/partition.hpp"

namespace cpart {

/// Imbalance tolerance of each top-level bisection. Tighter than the final
/// epsilon: group-level imbalance multiplies into every part of the group
/// and cannot be repaired by the group-local second level.
inline constexpr double kGroupEpsilon = 0.05;

/// Group-local repartitioning escalates to a full cross-group repartition
/// only when some group's weight exceeds this multiple of its
/// part-count-proportional target (see Partitioner::repartition).
inline constexpr double kCrossGroupThreshold = 1.25;

struct HierarchyOptions {
  /// Number of rank groups G; <= 1 disables the hierarchy.
  idx_t groups = 0;
  /// Stop coarsening the top-level proxy once it has at most about this
  /// many vertices (never below 32 * G).
  idx_t proxy_target = 8192;
};

/// Per-level diagnostics of one hierarchical partition.
struct HierarchyStats {
  idx_t groups = 1;
  idx_t proxy_vertices = 0;  // top-level proxy size after coarsening
  double group_ms = 0;       // coarsen + split + project
  double local_ms = 0;       // parallel per-group partitions
  wgt_t group_cut = 0;       // cut of the G-way group labeling on g
  double group_balance = 0;  // worst constraint vs part-count targets
  wgt_t final_cut = 0;
  double final_balance = 0;
};

struct HierarchicalResult {
  std::vector<idx_t> part;  // final labels in [0, k)
  HierarchyStats stats;
};

/// First part id of group `grp` when k parts spread contiguously over G
/// groups: parts [parts_begin(g), parts_begin(g+1)) belong to group g.
inline idx_t parts_begin(idx_t grp, idx_t k, idx_t groups) {
  return to_idx(static_cast<std::int64_t>(grp) * k / groups);
}

/// Group of each part id under the contiguous assignment above (size k).
std::vector<idx_t> part_groups(idx_t k, idx_t groups);

/// Worst-constraint imbalance of a G-way group labeling against
/// part-count-proportional targets: max over (group, c) of
/// w_c(group) / (w_c(V) * parts_share(group)).
double hierarchy_group_imbalance(const CsrGraph& g,
                                 std::span<const idx_t> group_of, idx_t k,
                                 idx_t groups);

/// Two-level partition of g into base.k parts over `hierarchy.groups`
/// groups. Falls back to partition_graph when the hierarchy is disabled
/// (groups <= 1) or trivial (k == 1).
HierarchicalResult hierarchical_partition(const CsrGraph& g,
                                          const PartitionOptions& base,
                                          const HierarchyOptions& hierarchy);

}  // namespace cpart
