// Tests for partition/: coarsening invariants, FM bisection, multilevel
// k-way partitioning (single- and multi-constraint), k-way refinement,
// connectivity cleanup, and repartitioning.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/mcml_dt.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "partition/initial_partition.hpp"
#include "partition/kway_multilevel.hpp"
#include "partition/partition.hpp"
#include "partition/refine_bisection.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

// ---------------------------------------------------------------------------
// Coarsening
// ---------------------------------------------------------------------------

TEST(Coarsen, PreservesTotalVertexWeight) {
  const CsrGraph g = make_grid_graph(20, 20);
  Rng rng(1);
  const Coarsening c = coarsen_once(g, rng);
  EXPECT_LT(c.coarse.num_vertices(), g.num_vertices());
  EXPECT_GE(c.coarse.num_vertices(), g.num_vertices() / 2);
  EXPECT_EQ(c.coarse.total_vertex_weight(), g.total_vertex_weight());
}

TEST(Coarsen, PreservesMultiWeightTotals) {
  CsrGraph g = make_grid_graph(10, 10);
  std::vector<wgt_t> vwgt(200);
  for (idx_t v = 0; v < 100; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = v % 3 == 0 ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  Rng rng(2);
  const Coarsening c = coarsen_once(g, rng);
  EXPECT_EQ(c.coarse.ncon(), 2);
  EXPECT_EQ(c.coarse.total_vertex_weight(0), g.total_vertex_weight(0));
  EXPECT_EQ(c.coarse.total_vertex_weight(1), g.total_vertex_weight(1));
}

TEST(Coarsen, CoarseGraphSymmetricAndMapped) {
  const CsrGraph g = make_grid_graph_3d(6, 6, 6);
  Rng rng(3);
  const Coarsening c = coarsen_once(g, rng);
  EXPECT_TRUE(c.coarse.is_symmetric());
  // Every fine vertex maps to a valid coarse vertex; pairs are adjacent or
  // identical.
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const idx_t cv = c.coarse_of_fine[static_cast<std::size_t>(v)];
    ASSERT_GE(cv, 0);
    ASSERT_LT(cv, c.coarse.num_vertices());
  }
}

TEST(Coarsen, CutOfProjectedPartitionPreserved) {
  // Edge weights aggregate so that any partition of the coarse graph has
  // the same cut as its projection to the fine graph.
  const CsrGraph g = make_grid_graph(12, 12);
  Rng rng(4);
  const Coarsening c = coarsen_once(g, rng);
  Rng rng2(5);
  std::vector<idx_t> coarse_part(
      static_cast<std::size_t>(c.coarse.num_vertices()));
  for (auto& p : coarse_part) p = rng2.uniform_int(2);
  std::vector<idx_t> fine_part(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    fine_part[static_cast<std::size_t>(v)] = coarse_part[static_cast<std::size_t>(
        c.coarse_of_fine[static_cast<std::size_t>(v)])];
  }
  EXPECT_EQ(edge_cut(c.coarse, coarse_part), edge_cut(g, fine_part));
}

// ---------------------------------------------------------------------------
// FM bisection
// ---------------------------------------------------------------------------

TEST(Fm, ImprovesBadBisection) {
  const CsrGraph g = make_grid_graph(16, 16);
  // Balanced random start: high cut, FM must cut it down sharply.
  std::vector<idx_t> part(256);
  Rng scatter(1234);
  for (idx_t v = 0; v < 256; ++v) {
    part[static_cast<std::size_t>(v)] = scatter.uniform_int(2);
  }
  const wgt_t bad_cut = edge_cut(g, part);
  Rng rng(6);
  fm_refine_bisection(g, part, 0.5, 0.05, 10, rng);
  const wgt_t good_cut = edge_cut(g, part);
  EXPECT_LT(good_cut, bad_cut / 4);
  EXPECT_LE(bisection_violation(g, part, 0.5, 0.05), 1e-12);
}

TEST(Fm, RepairsImbalance) {
  const CsrGraph g = make_grid_graph(16, 16);
  std::vector<idx_t> part(256, 1);  // everything on one side
  for (idx_t v = 0; v < 10; ++v) part[static_cast<std::size_t>(v)] = 0;
  Rng rng(7);
  fm_refine_bisection(g, part, 0.5, 0.05, 20, rng);
  EXPECT_LE(bisection_violation(g, part, 0.5, 0.05), 1e-12);

  // Above 2048 vertices the heaps hold only boundary vertices. With the first
  // row on side 0, the repair fills row after row: a run of ~1900 moves, most
  // of gain 0, each lowering the violation. A single pass must finish it, so
  // the stall window (40 moves here) must never cut a repair short.
  const CsrGraph big = make_grid_graph(64, 64);
  std::vector<idx_t> big_part(4096, 1);
  for (idx_t v = 0; v < 64; ++v) big_part[static_cast<std::size_t>(v)] = 0;
  Rng big_rng(7);
  const idx_t moved =
      fm_refine_bisection(big, big_part, 0.5, 0.05, 1, big_rng);
  // Side 1 must shrink to at most 1.05 * 2048 = 2150 vertices.
  EXPECT_GE(moved, 4096 - 64 - 2150);
  EXPECT_LE(bisection_violation(big, big_part, 0.5, 0.05), 1e-12);
}

TEST(Fm, StopsAtLocalOptimum) {
  // A straight cut through a 128x128 grid is a minimum bisection: every move
  // raises the cut, so FM rolls each pass back and changes nothing.
  const CsrGraph g = make_grid_graph(128, 128);
  std::vector<idx_t> part(16384);
  for (idx_t v = 0; v < 16384; ++v) {
    part[static_cast<std::size_t>(v)] = v >= 8192;
  }
  const std::vector<idx_t> before = part;
  Rng rng(10);
  EXPECT_EQ(fm_refine_bisection(g, part, 0.5, 0.05, 10, rng), 0);
  EXPECT_EQ(part, before);
}

TEST(Fm, NeverWorsens) {
  const CsrGraph g = make_grid_graph(10, 10);
  std::vector<idx_t> part(100);
  for (idx_t v = 0; v < 100; ++v) part[static_cast<std::size_t>(v)] = v < 50;
  const wgt_t before = edge_cut(g, part);
  const double viol_before = bisection_violation(g, part, 0.5, 0.05);
  Rng rng(8);
  fm_refine_bisection(g, part, 0.5, 0.05, 5, rng);
  EXPECT_LE(edge_cut(g, part), before);
  EXPECT_LE(bisection_violation(g, part, 0.5, 0.05), viol_before + 1e-12);

  // Seeded sweep from random, possibly imbalanced starts, on both sides of
  // the 2048-vertex boundary-seeding threshold and with one or two
  // constraints: (violation, cut) never gets worse in lexicographic order.
  const CsrGraph graphs[] = {make_grid_graph(10, 10), make_grid_graph(40, 40),
                             make_grid_graph(48, 48),
                             make_grid_graph_3d(14, 14, 14)};
  for (const CsrGraph& base : graphs) {
    const idx_t n = base.num_vertices();
    for (idx_t ncon = 1; ncon <= 2; ++ncon) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " ncon=" << ncon
                                          << " seed=" << seed);
        Rng gen(seed * 1000 + static_cast<std::uint64_t>(n));
        CsrGraph sweep_g = base;
        if (ncon == 2) {
          std::vector<wgt_t> vwgt(static_cast<std::size_t>(n) * 2);
          for (idx_t v = 0; v < n; ++v) {
            vwgt[static_cast<std::size_t>(v) * 2] = 1;
            vwgt[static_cast<std::size_t>(v) * 2 + 1] = gen.uniform_int(3);
          }
          sweep_g.set_vertex_weights(vwgt, 2);
        }
        const double p_left = seed % 2 == 0 ? 0.5 : 0.35;
        std::vector<idx_t> sweep_part(static_cast<std::size_t>(n));
        for (auto& p : sweep_part) p = gen.uniform() < p_left ? 0 : 1;
        const wgt_t cut0 = edge_cut(sweep_g, sweep_part);
        const double viol0 =
            bisection_violation(sweep_g, sweep_part, 0.5, 0.05);
        Rng sweep_rng(seed);
        fm_refine_bisection(sweep_g, sweep_part, 0.5, 0.05, 5, sweep_rng);
        const wgt_t cut1 = edge_cut(sweep_g, sweep_part);
        const double viol1 =
            bisection_violation(sweep_g, sweep_part, 0.5, 0.05);
        EXPECT_TRUE(viol1 < viol0 - 1e-12 ||
                    (viol1 <= viol0 + 1e-12 && cut1 <= cut0))
            << "violation " << viol0 << " -> " << viol1 << ", cut " << cut0
            << " -> " << cut1;
      }
    }
  }
}

TEST(Fm, AsymmetricTargetFraction) {
  const CsrGraph g = make_grid_graph(12, 12);
  Rng rng(9);
  const auto part = initial_bisection(g, 0.75, 0.05, 4, 8, rng);
  const auto weights = partition_weights(g, part, 2);
  EXPECT_NEAR(static_cast<double>(weights[0]) / 144.0, 0.75, 0.06);
}

// ---------------------------------------------------------------------------
// Multilevel k-way partitioning (parameterized property sweep)
// ---------------------------------------------------------------------------

// gtest names each case by a byte dump of its KwayCase, so every byte of
// the struct must be set: `name_tag` fills what would otherwise be padding
// between `k` and `seed`, whose stack garbage used to leak into the names
// and change them from build to build. Its values keep the names the cases
// were first registered under; the test body ignores it.
struct KwayCase {
  idx_t k;
  std::uint32_t name_tag;
  std::uint64_t seed;
};
static_assert(sizeof(KwayCase) == 16, "KwayCase must have no padding");

class KwayPartitionTest : public ::testing::TestWithParam<KwayCase> {};

TEST_P(KwayPartitionTest, BalancedValidAndReasonableCut) {
  const idx_t k = GetParam().k;
  const std::uint64_t seed = GetParam().seed;
  const CsrGraph g = make_grid_graph(32, 32);
  PartitionOptions opts;
  opts.k = k;
  opts.epsilon = 0.10;
  opts.seed = seed;
  const auto part = partition_graph(g, opts);
  ASSERT_TRUE(is_valid_partition(part, k));
  EXPECT_LE(load_imbalance(g, part, k), 1.10 + 1e-9);
  // A k-way partition of a 32x32 grid should cut no more than a few
  // times the perfect tiling's boundary (~ 32 * (sqrt(k)-1) * 2).
  const double perfect =
      64.0 * (std::sqrt(static_cast<double>(k)) - 1.0) + 1;
  EXPECT_LT(static_cast<double>(edge_cut(g, part)), 3.0 * perfect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwayPartitionTest,
    ::testing::Values(KwayCase{2, 0, 1}, KwayCase{3, 0, 1},
                      KwayCase{4, 0x002C3B03u, 2}, KwayCase{5, 0xEFD00000u, 3},
                      KwayCase{8, 0, 4}, KwayCase{16, 0, 5},
                      KwayCase{25, 0x00091E03u, 6},
                      KwayCase{2, 0xCAD00000u, 42}, KwayCase{8, 0, 42}));

TEST(Partition, KEqualsOneTrivial) {
  const CsrGraph g = make_grid_graph(4, 4);
  PartitionOptions opts;
  opts.k = 1;
  const auto part = partition_graph(g, opts);
  for (idx_t p : part) EXPECT_EQ(p, 0);
}

TEST(Partition, DeterministicForFixedSeed) {
  const CsrGraph g = make_grid_graph(20, 20);
  PartitionOptions opts;
  opts.k = 6;
  opts.seed = 99;
  const auto a = partition_graph(g, opts);
  const auto b = partition_graph(g, opts);
  EXPECT_EQ(a, b);
}

TEST(Partition, MultiConstraintBalancesBothWeights) {
  // Grid where the left half carries all of constraint 1: a partitioner
  // balancing both constraints must split the left half among all parts.
  CsrGraph g = make_grid_graph(24, 24);
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(24 * 24) * 2);
  for (idx_t v = 0; v < 24 * 24; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = (v / 24 < 12) ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  PartitionOptions opts;
  opts.k = 4;
  opts.epsilon = 0.10;
  const auto part = partition_graph(g, opts);
  EXPECT_LE(load_imbalance(g, part, 4, 0), 1.11);
  EXPECT_LE(load_imbalance(g, part, 4, 1), 1.11);
}

TEST(Partition, ImpactTwoPhaseGraphMeetsEpsilonOnBothConstraints) {
  // The paper's MCML graph (all-ones and contact-indicator weights,
  // contact-weighted edges) at k = 25: recursive bisection plus the k-way
  // polish must hold every constraint to 1 + epsilon, at every seed.
  ImpactSimConfig sc;
  sc.plate_cells_xy = 24;
  sc.plate_cells_z = 2;
  sc.proj_cells_diameter = 6;
  sc.proj_cells_z = 8;
  sc.num_snapshots = 2;
  const ImpactSim sim(sc);
  const ImpactSim::Snapshot snap = sim.snapshot(0);
  const CsrGraph g =
      build_two_phase_graph(snap.mesh, snap.surface.is_contact_node,
                            McmlDtConfig{}.contact_edge_weight);
  PartitionOptions opts;
  opts.k = 25;
  opts.epsilon = 0.10;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    opts.seed = seed;
    const std::vector<idx_t> part = partition_graph(g, opts);
    ASSERT_TRUE(is_valid_partition(part, opts.k)) << "seed " << seed;
    EXPECT_LE(load_imbalance(g, part, opts.k, 0), 1.0 + opts.epsilon)
        << "seed " << seed;
    EXPECT_LE(load_imbalance(g, part, opts.k, 1), 1.0 + opts.epsilon)
        << "seed " << seed;
  }
}

TEST(Partition, WeightedEdgesSteerTheCut) {
  // Path of 3 heavy-coupled pairs: cutting inside a pair costs 100, between
  // pairs costs 1. The bisector must cut a light edge.
  GraphBuilder b(6);
  b.add_edge(0, 1, 100);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 100);
  b.add_edge(3, 4, 1);
  b.add_edge(4, 5, 100);
  const CsrGraph g = b.build();
  PartitionOptions opts;
  opts.k = 2;
  opts.epsilon = 0.40;  // allow 2/4 splits
  const auto part = partition_graph(g, opts);
  EXPECT_LE(edge_cut(g, part), 2);
}

// ---------------------------------------------------------------------------
// k-way refinement
// ---------------------------------------------------------------------------

TEST(KwayRefine, RestoresBalanceFromSkewedStart) {
  const CsrGraph g = make_grid_graph(20, 20);
  std::vector<idx_t> part(400, 0);
  for (idx_t v = 300; v < 400; ++v) part[static_cast<std::size_t>(v)] = 1;
  // parts 2,3 empty, part 0 massively overweight.
  KwayRefineOptions opts;
  opts.k = 4;
  opts.epsilon = 0.10;
  opts.passes = 30;
  Rng rng(11);
  kway_refine(g, part, opts, rng);
  EXPECT_LE(load_imbalance(g, part, 4), 1.12);
}

TEST(KwayRefine, ReducesCutWithoutBreakingBalance) {
  const CsrGraph g = make_grid_graph(20, 20);
  Rng scatter(12);
  std::vector<idx_t> part(400);
  for (auto& p : part) p = scatter.uniform_int(4);
  const wgt_t before = edge_cut(g, part);
  KwayRefineOptions opts;
  opts.k = 4;
  opts.epsilon = 0.10;
  opts.passes = 20;
  Rng rng(13);
  kway_refine(g, part, opts, rng);
  EXPECT_LT(edge_cut(g, part), before / 2);
  EXPECT_LE(load_imbalance(g, part, 4), 1.12);
}

TEST(KwayRefine, AnchorLimitsMigration) {
  const CsrGraph g = make_grid_graph(16, 16);
  PartitionOptions popts;
  popts.k = 4;
  const auto original = partition_graph(g, popts);
  // Heavy anchor: refinement must barely move anything.
  std::vector<idx_t> part = original;
  KwayRefineOptions opts;
  opts.k = 4;
  opts.epsilon = 0.10;
  opts.passes = 10;
  opts.anchor = original;
  opts.anchor_gain = 1000;
  Rng rng(14);
  kway_refine(g, part, opts, rng);
  idx_t moved = 0;
  for (std::size_t i = 0; i < part.size(); ++i) moved += part[i] != original[i];
  EXPECT_EQ(moved, 0);
}

TEST(KwayRefine, RejectsBadInput) {
  const CsrGraph g = make_path_graph(4);
  std::vector<idx_t> part{0, 1, 2, 5};  // 5 out of range for k=3
  KwayRefineOptions opts;
  opts.k = 3;
  Rng rng(15);
  EXPECT_THROW(kway_refine(g, part, opts, rng), InputError);
}

// ---------------------------------------------------------------------------
// Connectivity cleanup
// ---------------------------------------------------------------------------

TEST(Connectivity, CountsComponents) {
  const CsrGraph g = make_path_graph(6);
  // Partition 0 = {0, 1, 4}: two components; partition 1 = {2, 3, 5}: two.
  const std::vector<idx_t> part{0, 0, 1, 1, 0, 1};
  const auto comps = partition_components(g, part, 2);
  EXPECT_EQ(comps[0], 2);
  EXPECT_EQ(comps[1], 2);
}

TEST(Connectivity, MergesFragments) {
  const CsrGraph g = make_path_graph(8);
  // Partition 0 owns a stray island {6, 7} beyond partition 1 territory.
  std::vector<idx_t> part{0, 0, 0, 0, 1, 1, 0, 0};
  const idx_t moved = merge_partition_fragments(g, part, 2);
  EXPECT_EQ(moved, 2);
  EXPECT_EQ(part[6], 1);
  EXPECT_EQ(part[7], 1);
  const auto comps = partition_components(g, part, 2);
  EXPECT_EQ(comps[0], 1);
  EXPECT_EQ(comps[1], 1);
}

TEST(Connectivity, FragmentJoinsStrongestNeighbor) {
  // Weighted star: island vertex 0 has a weight-10 edge to partition 2 and
  // weight-1 to partition 1; it must join partition 2.
  GraphBuilder b(5);
  b.add_edge(0, 1, 1);   // partition 1
  b.add_edge(0, 2, 10);  // partition 2
  b.add_edge(3, 1, 1);
  b.add_edge(4, 2, 1);
  const CsrGraph g = b.build();
  // Partition 0 = {0} only; its "largest component" is itself, so nothing
  // moves. Add another, larger component for partition 0 to make {0} a
  // fragment.
  std::vector<idx_t> part{0, 1, 2, 0, 2};
  // components of partition 0: {0} and {3}; equal size 1 -> the first found
  // becomes main. Vertex 3's component is the fragment or vertex 0's is.
  merge_partition_fragments(g, part, 3);
  const auto comps = partition_components(g, part, 3);
  EXPECT_LE(comps[0], 1);
}

TEST(Connectivity, NoOpOnConnectedPartitions) {
  const CsrGraph g = make_grid_graph(8, 8);
  std::vector<idx_t> part(64);
  for (idx_t v = 0; v < 64; ++v) part[static_cast<std::size_t>(v)] = v / 32;
  EXPECT_EQ(merge_partition_fragments(g, part, 2), 0);
}

// ---------------------------------------------------------------------------
// Direct multilevel k-way
// ---------------------------------------------------------------------------

class DirectKwayTest : public ::testing::TestWithParam<idx_t> {};

TEST_P(DirectKwayTest, BalancedAndValid) {
  const idx_t k = GetParam();
  const CsrGraph g = make_grid_graph(32, 32);
  PartitionOptions opts;
  opts.k = k;
  opts.epsilon = 0.10;
  opts.seed = 7;
  const auto part = partition_graph_kway(g, opts);
  ASSERT_TRUE(is_valid_partition(part, k));
  EXPECT_LE(load_imbalance(g, part, k), 1.11);
}

INSTANTIATE_TEST_SUITE_P(Ks, DirectKwayTest,
                         ::testing::Values(1, 2, 4, 8, 16, 25));

TEST(DirectKway, QualityComparableToRecursiveBisection) {
  const CsrGraph g = make_grid_graph_3d(16, 16, 16);
  PartitionOptions opts;
  opts.k = 16;
  opts.seed = 3;
  const auto rb = partition_graph(g, opts);
  const auto kw = partition_graph_kway(g, opts);
  // Direct k-way must be in the same quality league (within 2x of RB).
  EXPECT_LT(edge_cut(g, kw), 2 * edge_cut(g, rb));
  EXPECT_LE(load_imbalance(g, kw, 16), 1.11);
}

TEST(DirectKway, MultiConstraintBalance) {
  CsrGraph g = make_grid_graph(24, 24);
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(24 * 24) * 2);
  for (idx_t v = 0; v < 24 * 24; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = (v % 24 < 8) ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  PartitionOptions opts;
  opts.k = 6;
  const auto part = partition_graph_kway(g, opts);
  EXPECT_LE(load_imbalance(g, part, 6, 0), 1.11);
  EXPECT_LE(load_imbalance(g, part, 6, 1), 1.11);
}

// ---------------------------------------------------------------------------
// Repartitioning
// ---------------------------------------------------------------------------

TEST(Repartition, KeepsBalancedPartitionMostlyInPlace) {
  const CsrGraph g = make_grid_graph(20, 20);
  PartitionOptions popts;
  popts.k = 5;
  const auto old_part = partition_graph(g, popts);
  RepartitionOptions ropts;
  ropts.k = 5;
  ropts.migration_cost = 3;
  const auto new_part = repartition_graph(g, old_part, ropts);
  idx_t moved = 0;
  for (std::size_t i = 0; i < old_part.size(); ++i) {
    moved += new_part[i] != old_part[i];
  }
  EXPECT_LT(moved, 40);  // < 10% churn on an already good partition
  EXPECT_LE(load_imbalance(g, new_part, 5), 1.12);
}

TEST(Repartition, RestoresBalanceWithBoundedMigration) {
  const CsrGraph g = make_grid_graph(20, 20);
  // Unbalanced start: stripes of unequal width.
  std::vector<idx_t> part(400);
  for (idx_t v = 0; v < 400; ++v) {
    const idx_t col = v % 20;
    part[static_cast<std::size_t>(v)] = col < 14 ? 0 : (col < 17 ? 1 : 2);
  }
  RepartitionOptions opts;
  opts.k = 3;
  opts.epsilon = 0.10;
  const auto new_part = repartition_graph(g, part, opts);
  EXPECT_LE(load_imbalance(g, new_part, 3), 1.12);
  // Migration should be in the order of the imbalance, not the whole mesh.
  idx_t moved = 0;
  for (std::size_t i = 0; i < part.size(); ++i) moved += new_part[i] != part[i];
  EXPECT_LT(moved, 250);
}

TEST(Repartition, RejectsBadOldPartition) {
  const CsrGraph g = make_path_graph(4);
  const std::vector<idx_t> wrong_size{0, 1};
  RepartitionOptions opts;
  opts.k = 2;
  EXPECT_THROW(repartition_graph(g, wrong_size, opts), InputError);
  const std::vector<idx_t> out_of_range{0, 1, 2, 0};
  EXPECT_THROW(repartition_graph(g, out_of_range, opts), InputError);
}

TEST(Repartition, SingleProcessorIsIdentity) {
  // k=1: the only valid label is 0 everywhere, and no move can exist.
  const CsrGraph g = make_grid_graph(20, 20);
  const std::vector<idx_t> old_part(400, 0);
  RepartitionOptions opts;
  opts.k = 1;
  const auto new_part = repartition_graph(g, old_part, opts);
  EXPECT_EQ(new_part, old_part);
}

TEST(Repartition, BalancedAnchorMovesNothing) {
  // A perfectly balanced, locally optimal anchor (equal column stripes of a
  // grid): neither the balance phase nor any positive-gain move can fire,
  // so the repartition is the identity at any migration cost.
  const CsrGraph g = make_grid_graph(20, 20);
  std::vector<idx_t> stripes(400);
  for (idx_t v = 0; v < 400; ++v) {
    stripes[static_cast<std::size_t>(v)] = (v % 20) / 5;
  }
  for (wgt_t cost : {wgt_t{0}, wgt_t{2}, wgt_t{8}}) {
    RepartitionOptions opts;
    opts.k = 4;
    opts.migration_cost = cost;
    EXPECT_EQ(repartition_graph(g, stripes, opts), stripes)
        << "migration_cost=" << cost;
  }
}

TEST(Repartition, MigrationCostIsMonotone) {
  // Balanced two-way stripes with a jagged boundary (boundary pairs swapped
  // across the cut): balance is intact, so only the anchored refinement
  // phase acts. Raising migration_cost raises the gain bar per move, so
  // the migration volume is non-increasing in the cost — from "fix the
  // whole boundary" at cost 0 down to "anchored in place" once the cost
  // exceeds the best per-vertex gain a grid can offer.
  const CsrGraph g = make_grid_graph(20, 20);
  std::vector<idx_t> part(400);
  for (idx_t v = 0; v < 400; ++v) {
    part[static_cast<std::size_t>(v)] = (v % 20) < 10 ? 0 : 1;
  }
  for (idx_t row = 0; row < 20; row += 2) {
    part[static_cast<std::size_t>(row * 20 + 9)] = 1;
    part[static_cast<std::size_t>(row * 20 + 10)] = 0;
  }
  const wgt_t start_cut = edge_cut(g, part);
  idx_t prev_moved = -1;
  for (wgt_t cost : {wgt_t{0}, wgt_t{1}, wgt_t{2}, wgt_t{3}, wgt_t{4},
                     wgt_t{8}, wgt_t{16}}) {
    RepartitionOptions opts;
    opts.k = 2;
    opts.migration_cost = cost;
    const auto new_part = repartition_graph(g, part, opts);
    idx_t moved = 0;
    for (std::size_t i = 0; i < part.size(); ++i) {
      moved += new_part[i] != part[i];
    }
    if (cost == 0) {
      // Free migration untangles the boundary and improves the cut.
      EXPECT_GT(moved, 0);
      EXPECT_LT(edge_cut(g, new_part), start_cut);
    } else {
      EXPECT_LE(moved, prev_moved) << "migration_cost=" << cost;
    }
    if (cost >= 16) {
      // Far beyond any per-vertex gain on a grid: fully anchored.
      EXPECT_EQ(moved, 0);
      EXPECT_EQ(edge_cut(g, new_part), start_cut);
    }
    prev_moved = moved;
  }
}

}  // namespace
}  // namespace cpart
