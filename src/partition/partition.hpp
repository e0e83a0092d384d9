// Public entry points of the multilevel graph partitioner.
//
// This module plays the role METIS/ParMETIS plays in the paper: multilevel
// k-way partitioning via recursive bisection (heavy-edge matching
// coarsening, greedy-graph-growing initial bisections, FM boundary
// refinement), with *multi-constraint* balance — every component of the
// vertex-weight vectors is balanced to within (1 + epsilon) — plus a
// standalone multi-constraint k-way refinement and a repartitioner
// (Section 2 / Section 4.2 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace cpart {

struct PartitionOptions {
  idx_t k = 2;
  /// Per-constraint load-imbalance tolerance: LoadImbalance(P, c) <= 1+epsilon.
  double epsilon = 0.10;
  std::uint64_t seed = 1;
  /// Stop coarsening a bisection problem once the graph has at most this
  /// many vertices.
  idx_t coarsen_target = 120;
  /// Independent greedy-graph-growing attempts per initial bisection.
  int initial_tries = 8;
  /// FM passes per uncoarsening level.
  int refine_passes = 8;
  /// Final k-way polish passes on the full graph (0 disables).
  int kway_passes = 10;
  /// Graphs with at least this many vertices coarsen through the parallel
  /// matching/contraction path (see CoarsenOptions::parallel_threshold).
  /// The switch depends only on graph size, never on the pool, so partitions
  /// are bit-identical across thread counts. Set huge to force the serial
  /// path (used by quality-regression tests and benches).
  idx_t coarsen_parallel_threshold = 4096;
};

/// Computes a k-way partitioning of g balancing all g.ncon() vertex-weight
/// components within (1 + epsilon) while minimizing edge-cut. Returns one
/// partition id per vertex.
std::vector<idx_t> partition_graph(const CsrGraph& g,
                                   const PartitionOptions& options);

/// Recursive bisection of g into the leaves 0 .. leaf_begin.size() - 2,
/// where leaf i weighs leaf_begin[i + 1] - leaf_begin[i] parts (ascending,
/// every weight positive). A problem over leaves [a, b) bisects its vertices
/// multilevel-wise, giving the left side leaves [a, ceil((a + b) / 2)) and
/// their share of the parts as its fraction of every weight component,
/// within `epsilon`. Returns the leaf of every vertex.
///
/// The problems of one recursion level run concurrently on the ThreadPool.
/// Each draws from its own Rng seeded by (options.seed, first leaf, leaf
/// count), so the labels depend on (g, leaf_begin, epsilon, options) alone,
/// never on the pool width or the schedule.
std::vector<idx_t> recursive_bisection(const CsrGraph& g,
                                       std::span<const idx_t> leaf_begin,
                                       double epsilon,
                                       const PartitionOptions& options);

/// Subgraph induced by the vertices with labels[v] == value. Cut edges are
/// dropped; `parent` maps sub ids (ascending) back to ids in g. Shared by
/// recursive bisection, the two-level split, the group-local repartitioner,
/// and tests.
struct InducedSubgraph {
  CsrGraph graph;
  std::vector<idx_t> parent;
};
InducedSubgraph induce_subgraph(const CsrGraph& g,
                                std::span<const idx_t> labels, idx_t value);

struct KwayRefineOptions {
  idx_t k = 2;
  double epsilon = 0.10;
  int passes = 10;
  /// When non-empty (size n), vertices prefer their anchor partition:
  /// the move gain toward/away from anchor[v] is adjusted by anchor_gain.
  /// Used by the repartitioner to limit data migration.
  std::span<const idx_t> anchor;
  wgt_t anchor_gain = 0;
};

/// Greedy multi-constraint k-way refinement: alternates balance passes
/// (drain overweight partitions along least-damaging boundary moves) and
/// refinement passes (positive-gain boundary moves that keep balance).
/// Modifies `part` in place; returns the number of vertices moved.
idx_t kway_refine(const CsrGraph& g, std::span<idx_t> part,
                  const KwayRefineOptions& options, Rng& rng);

struct RepartitionOptions {
  idx_t k = 2;
  double epsilon = 0.10;
  int passes = 10;
  /// Edge-cut units a vertex move must win to justify migrating the vertex
  /// away from its previous partition (the repartitioning trade-off).
  wgt_t migration_cost = 2;
  std::uint64_t seed = 1;
};

/// Multi-constraint repartitioning: adapts `old_part` to the (possibly
/// changed) graph g, restoring balance and improving cut while keeping the
/// number of vertices that change partition small (paper Sections 2, 4.3).
std::vector<idx_t> repartition_graph(const CsrGraph& g,
                                     std::span<const idx_t> old_part,
                                     const RepartitionOptions& options);

}  // namespace cpart
