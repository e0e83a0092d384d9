// Two-level hierarchical partitioning: structural invariants of the
// part->group mapping and induced subgraphs, determinism of the labels at
// 1 vs 8 threads and across repeated runs at a fixed seed, quality bounds
// against the flat partitioner at small k, the Partitioner facade, and the
// group-local repartition policy with its cross-group escalation.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway_multilevel.hpp"
#include "partition/partitioner.hpp"

namespace cpart {
namespace {

void expect_complete_partition(std::span<const idx_t> part, idx_t k) {
  std::vector<idx_t> count(static_cast<std::size_t>(k), 0);
  for (idx_t p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    ++count[static_cast<std::size_t>(p)];
  }
  for (idx_t p = 0; p < k; ++p) {
    EXPECT_GT(count[static_cast<std::size_t>(p)], 0) << "empty part " << p;
  }
}

TEST(PartGroups, ContiguousAndExhaustive) {
  for (idx_t k : {idx_t{2}, idx_t{5}, idx_t{16}, idx_t{17}}) {
    for (idx_t groups = 1; groups <= k; ++groups) {
      const std::vector<idx_t> map = part_groups(k, groups);
      ASSERT_EQ(to_idx(map.size()), k);
      // Non-decreasing, covers [0, groups), matches parts_begin ranges.
      EXPECT_EQ(map.front(), 0);
      EXPECT_EQ(map.back(), groups - 1);
      for (std::size_t p = 1; p < map.size(); ++p) {
        EXPECT_LE(map[p - 1], map[p]);
        EXPECT_LE(map[p] - map[p - 1], 1);
      }
      for (idx_t grp = 0; grp < groups; ++grp) {
        for (idx_t p = parts_begin(grp, k, groups);
             p < parts_begin(grp + 1, k, groups); ++p) {
          EXPECT_EQ(map[static_cast<std::size_t>(p)], grp);
        }
      }
    }
  }
}

TEST(InduceSubgraph, PreservesWeightsAndDropsCutEdges) {
  const CsrGraph g = make_grid_graph(8, 6);
  std::vector<idx_t> labels(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    labels[static_cast<std::size_t>(v)] = v % 3;
  }
  idx_t total = 0;
  for (idx_t value = 0; value < 3; ++value) {
    const InducedSubgraph sub = induce_subgraph(g, labels, value);
    total += sub.graph.num_vertices();
    ASSERT_EQ(sub.parent.size(),
              static_cast<std::size_t>(sub.graph.num_vertices()));
    for (std::size_t sv = 1; sv < sub.parent.size(); ++sv) {
      EXPECT_LT(sub.parent[sv - 1], sub.parent[sv]);  // ascending parents
    }
    for (idx_t sv = 0; sv < sub.graph.num_vertices(); ++sv) {
      const idx_t v = sub.parent[static_cast<std::size_t>(sv)];
      EXPECT_EQ(labels[static_cast<std::size_t>(v)], value);
      for (idx_t c = 0; c < g.ncon(); ++c) {
        EXPECT_EQ(sub.graph.vertex_weight(sv, c), g.vertex_weight(v, c));
      }
      // Sub degree counts exactly the same-label neighbors of v.
      idx_t expect_deg = 0;
      for (idx_t u : g.neighbors(v)) {
        if (labels[static_cast<std::size_t>(u)] == value) ++expect_deg;
      }
      EXPECT_EQ(to_idx(sub.graph.neighbors(sv).size()), expect_deg);
    }
  }
  EXPECT_EQ(total, g.num_vertices());
}

TEST(HierarchicalPartition, DeterministicAcrossThreadCounts) {
  const CsrGraph g = make_grid_graph_3d(14, 14, 14);
  PartitionOptions base;
  base.k = 16;
  base.seed = 7;
  HierarchyOptions hierarchy;
  hierarchy.groups = 4;
  hierarchy.proxy_target = 512;

  ThreadPool::set_global_threads(1);
  const HierarchicalResult r1 = hierarchical_partition(g, base, hierarchy);
  const HierarchicalResult r1b = hierarchical_partition(g, base, hierarchy);
  ThreadPool::set_global_threads(8);
  const HierarchicalResult r8 = hierarchical_partition(g, base, hierarchy);
  const HierarchicalResult r8b = hierarchical_partition(g, base, hierarchy);
  ThreadPool::set_global_threads(0);

  EXPECT_EQ(r1.part, r1b.part);  // repeated runs, same pool
  EXPECT_EQ(r8.part, r8b.part);
  EXPECT_EQ(r1.part, r8.part);  // 1 vs 8 threads, bit-identical
  EXPECT_EQ(r1.stats.final_cut, r8.stats.final_cut);
  EXPECT_EQ(r1.stats.group_cut, r8.stats.group_cut);
  expect_complete_partition(r1.part, base.k);
}

TEST(HierarchicalPartition, SeedChangesLabels) {
  const CsrGraph g = make_grid_graph_3d(10, 10, 10);
  PartitionOptions base;
  base.k = 8;
  HierarchyOptions hierarchy;
  hierarchy.groups = 4;
  hierarchy.proxy_target = 256;
  base.seed = 1;
  const HierarchicalResult a = hierarchical_partition(g, base, hierarchy);
  base.seed = 2;
  const HierarchicalResult b = hierarchical_partition(g, base, hierarchy);
  EXPECT_NE(a.part, b.part);
}

TEST(HierarchicalPartition, QualityNearFlatAtSmallK) {
  const CsrGraph g = make_grid_graph_3d(12, 12, 12);
  PartitionOptions base;
  base.k = 8;
  base.epsilon = 0.10;
  base.seed = 3;
  const std::vector<idx_t> flat = partition_graph(g, base);
  const wgt_t flat_cut = edge_cut(g, flat);

  HierarchyOptions hierarchy;
  hierarchy.groups = 2;
  hierarchy.proxy_target = 512;
  const HierarchicalResult h = hierarchical_partition(g, base, hierarchy);
  expect_complete_partition(h.part, base.k);
  // Level-2 partitions never cross group boundaries, so some cut quality is
  // ceded to the coarse proxy split; 2x flat is a loose regression bound
  // (observed ~1.1-1.4x on grids).
  EXPECT_LE(h.stats.final_cut, 2 * flat_cut);
  // Balance: group split tolerance compounds with the per-group epsilon.
  EXPECT_LE(h.stats.final_balance,
            (1.0 + base.epsilon) * (1.0 + kGroupEpsilon) + 0.05);
  // Stats coherence.
  EXPECT_EQ(h.stats.groups, 2);
  EXPECT_GT(h.stats.proxy_vertices, 0);
  EXPECT_LE(h.stats.group_cut, h.stats.final_cut);
  EXPECT_EQ(h.stats.final_cut, edge_cut(g, h.part));
}

TEST(HierarchicalPartition, RespectsGroupBoundaries) {
  // Every vertex's part must live inside its group's contiguous part range;
  // verified via the group labeling reconstructed from the parts.
  const CsrGraph g = make_grid_graph_3d(9, 9, 9);
  PartitionOptions base;
  base.k = 12;
  base.seed = 11;
  HierarchyOptions hierarchy;
  hierarchy.groups = 3;
  hierarchy.proxy_target = 128;
  const HierarchicalResult h = hierarchical_partition(g, base, hierarchy);
  const std::vector<idx_t> group_of_part = part_groups(base.k, 3);
  std::vector<wgt_t> group_weight(3, 0);
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const idx_t p = h.part[static_cast<std::size_t>(v)];
    ++group_weight[static_cast<std::size_t>(
        group_of_part[static_cast<std::size_t>(p)])];
  }
  for (wgt_t w : group_weight) EXPECT_GT(w, 0);
}

TEST(HierarchicalPartition, FlatFallbacks) {
  const CsrGraph g = make_grid_graph(6, 6);
  PartitionOptions base;
  base.k = 4;
  base.seed = 5;
  HierarchyOptions off;
  off.groups = 0;
  const HierarchicalResult h = hierarchical_partition(g, base, off);
  EXPECT_EQ(h.part, partition_graph(g, base));
  EXPECT_EQ(h.stats.groups, 1);

  base.k = 1;
  HierarchyOptions on;
  on.groups = 4;
  const HierarchicalResult h1 = hierarchical_partition(g, base, on);
  for (idx_t p : h1.part) EXPECT_EQ(p, 0);
}

TEST(Partitioner, FacadeMatchesDirectCalls) {
  const CsrGraph g = make_grid_graph_3d(8, 8, 8);
  PartitionerConfig pc;
  pc.options.k = 6;
  pc.options.seed = 9;
  const Partitioner flat(pc);
  EXPECT_FALSE(flat.hierarchical());
  EXPECT_EQ(flat.groups(), 1);
  HierarchyStats stats;
  EXPECT_EQ(flat.partition(g, &stats), partition_graph(g, pc.options));
  EXPECT_EQ(stats.groups, 1);
  EXPECT_GT(stats.final_cut, 0);

  pc.scheme = PartitionScheme::kDirectKway;
  EXPECT_EQ(Partitioner(pc).partition(g), partition_graph_kway(g, pc.options));

  pc.scheme = PartitionScheme::kRecursiveBisection;
  pc.hierarchy.groups = 3;
  const Partitioner hier(pc);
  EXPECT_TRUE(hier.hierarchical());
  EXPECT_EQ(hier.groups(), 3);
  EXPECT_EQ(hier.group_of_parts(), part_groups(6, 3));
  EXPECT_EQ(hier.partition(g),
            hierarchical_partition(g, pc.options, pc.hierarchy).part);
}

TEST(Partitioner, GroupsClampToK) {
  PartitionerConfig pc;
  pc.options.k = 3;
  pc.hierarchy.groups = 16;
  EXPECT_EQ(Partitioner(pc).groups(), 3);
}

TEST(Partitioner, GroupLocalRepartitionStaysInGroups) {
  const CsrGraph g = make_grid_graph_3d(10, 10, 10);
  PartitionerConfig pc;
  pc.options.k = 8;
  pc.options.seed = 13;
  pc.hierarchy.groups = 2;
  const Partitioner partitioner(pc);
  const std::vector<idx_t> old_part = partitioner.partition(g);
  const std::vector<idx_t> group_of_part = part_groups(8, 2);

  RepartitionOptions ro;
  ro.seed = 21;
  bool crossed = true;
  const std::vector<idx_t> new_part =
      partitioner.repartition(g, old_part, ro, &crossed);
  EXPECT_FALSE(crossed);  // balanced start: no escalation
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    EXPECT_EQ(group_of_part[static_cast<std::size_t>(old_part[sv])],
              group_of_part[static_cast<std::size_t>(new_part[sv])])
        << "vertex " << v << " migrated across groups without escalation";
  }
}

TEST(Partitioner, RepartitionEscalatesOnGroupImbalance) {
  const CsrGraph g = make_grid_graph_3d(10, 10, 10);
  PartitionerConfig pc;
  pc.options.k = 8;
  pc.hierarchy.groups = 2;
  const Partitioner partitioner(pc);
  // Degenerate old labels: everything in part 0 -> group 0 holds all the
  // weight, far past kCrossGroupThreshold, forcing the global path.
  std::vector<idx_t> old_part(static_cast<std::size_t>(g.num_vertices()), 0);
  RepartitionOptions ro;
  bool crossed = false;
  const std::vector<idx_t> new_part =
      partitioner.repartition(g, old_part, ro, &crossed);
  EXPECT_TRUE(crossed);
  expect_complete_partition(new_part, 8);
}

TEST(Partitioner, RepartitionDeterministicAcrossThreadCounts) {
  const CsrGraph g = make_grid_graph_3d(9, 9, 9);
  PartitionerConfig pc;
  pc.options.k = 6;
  pc.options.seed = 17;
  pc.hierarchy.groups = 3;
  const Partitioner partitioner(pc);
  const std::vector<idx_t> old_part = partitioner.partition(g);
  RepartitionOptions ro;
  ro.seed = 4;
  ThreadPool::set_global_threads(1);
  const std::vector<idx_t> a = partitioner.repartition(g, old_part, ro);
  ThreadPool::set_global_threads(8);
  const std::vector<idx_t> b = partitioner.repartition(g, old_part, ro);
  ThreadPool::set_global_threads(0);
  EXPECT_EQ(a, b);
}

TEST(HierarchyGroupImbalance, BalancedAndDegenerate) {
  const CsrGraph g = make_grid_graph(8, 8);  // 64 unit-weight vertices
  std::vector<idx_t> half(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    half[static_cast<std::size_t>(v)] = v < 32 ? 0 : 1;
  }
  EXPECT_NEAR(hierarchy_group_imbalance(g, half, 4, 2), 1.0, 1e-12);
  std::vector<idx_t> all0(static_cast<std::size_t>(g.num_vertices()), 0);
  EXPECT_NEAR(hierarchy_group_imbalance(g, all0, 4, 2), 2.0, 1e-12);
}

}  // namespace
}  // namespace cpart
