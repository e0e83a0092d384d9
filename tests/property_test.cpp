// Randomized property tests: module invariants checked over random inputs
// (seed-parameterized, deterministic). These complement the example-based
// unit tests with coverage of the input space.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "contact/search_metrics.hpp"
#include "geom/rcb.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "match/hungarian.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/surface.hpp"
#include "partition/geometric.hpp"
#include "partition/kway_multilevel.hpp"
#include "partition/partition.hpp"
#include "tree/decision_tree.hpp"
#include "tree/tree_io.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

/// Random connected graph: a random spanning tree plus extra random edges,
/// with random positive edge weights.
CsrGraph random_connected_graph(idx_t n, idx_t extra_edges, Rng& rng) {
  GraphBuilder b(n);
  const auto perm = random_permutation(n, rng);
  for (idx_t i = 1; i < n; ++i) {
    const idx_t parent =
        perm[static_cast<std::size_t>(rng.uniform_int(i))];
    b.add_edge(perm[static_cast<std::size_t>(i)], parent,
               1 + rng.uniform_int(9));
  }
  for (idx_t e = 0; e < extra_edges; ++e) {
    const idx_t u = rng.uniform_int(n);
    const idx_t v = rng.uniform_int(n);
    if (u != v) b.add_edge(u, v, 1 + rng.uniform_int(9));
  }
  return b.build();
}

class GraphFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphFuzzTest, PartitionInvariantsOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const idx_t n = 200 + rng.uniform_int(800);
  const CsrGraph g = random_connected_graph(n, n, rng);
  ASSERT_TRUE(g.is_symmetric());
  const idx_t k = 2 + rng.uniform_int(7);
  PartitionOptions opts;
  opts.k = k;
  opts.seed = rng.next();
  const auto part = partition_graph(g, opts);
  ASSERT_TRUE(is_valid_partition(part, k));
  EXPECT_LE(load_imbalance(g, part, k), 1.12);
  // Identities: cut bounded by the total edge weight; communication volume
  // bounded by 2x the number of cut edge endpoints; boundary count <= n.
  wgt_t total_edge_weight = 0;
  for (wgt_t w : g.adjwgt()) total_edge_weight += w;
  total_edge_weight /= 2;
  EXPECT_LE(edge_cut(g, part), total_edge_weight);
  EXPECT_LE(total_comm_volume(g, part),
            2 * static_cast<wgt_t>(boundary_vertex_count(g, part)) * k);
  EXPECT_LE(boundary_vertex_count(g, part), n);
}

TEST_P(GraphFuzzTest, DirectKwayInvariantsOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const idx_t n = 300 + rng.uniform_int(700);
  const CsrGraph g = random_connected_graph(n, n / 2, rng);
  const idx_t k = 2 + rng.uniform_int(6);
  PartitionOptions opts;
  opts.k = k;
  opts.seed = rng.next();
  const auto part = partition_graph_kway(g, opts);
  ASSERT_TRUE(is_valid_partition(part, k));
  EXPECT_LE(load_imbalance(g, part, k), 1.12);
}

TEST_P(GraphFuzzTest, CoarseningPreservesStructureOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  const idx_t n = 100 + rng.uniform_int(400);
  const CsrGraph g = random_connected_graph(n, n, rng);
  // Repartitioning from a random valid start restores balance.
  std::vector<idx_t> start(static_cast<std::size_t>(n));
  const idx_t k = 3;
  for (auto& p : start) p = rng.uniform_int(k);
  RepartitionOptions ropts;
  ropts.k = k;
  ropts.seed = rng.next();
  const auto part = repartition_graph(g, start, ropts);
  ASSERT_TRUE(is_valid_partition(part, k));
  EXPECT_LE(load_imbalance(g, part, k), 1.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Tree induction invariants
// ---------------------------------------------------------------------------

class TreeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeFuzzTest, StructuralInvariantsOnRandomLabeledPoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  const idx_t n = 50 + rng.uniform_int(950);
  const idx_t num_labels = 1 + rng.uniform_int(6);
  const int dim = rng.uniform() < 0.5 ? 2 : 3;
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (idx_t i = 0; i < n; ++i) {
    // Quantized coordinates: plenty of exact duplicates.
    pts.push_back(Vec3{std::floor(rng.uniform(0, 12)),
                       std::floor(rng.uniform(0, 12)),
                       dim == 3 ? std::floor(rng.uniform(0, 12)) : 0});
    labels.push_back(rng.uniform_int(num_labels));
  }
  TreeInduceOptions opts;
  opts.dim = dim;
  const InducedTree t = induce_tree(pts, labels, num_labels, opts);

  // Leaf counts sum to n; every point maps to a leaf whose range covers it.
  wgt_t leaf_total = 0;
  idx_t leaves = 0;
  for (idx_t id = 0; id < t.tree.num_nodes(); ++id) {
    const TreeNode& nd = t.tree.node(id);
    if (nd.axis < 0) {
      leaf_total += nd.count;
      ++leaves;
      EXPECT_GT(nd.count, 0);
    } else {
      EXPECT_GE(nd.left, 0);
      EXPECT_LT(nd.left, t.tree.num_nodes());
      EXPECT_GE(nd.right, 0);
      EXPECT_LT(nd.right, t.tree.num_nodes());
    }
  }
  EXPECT_EQ(leaf_total, n);
  EXPECT_EQ(leaves, t.tree.num_leaves());
  EXPECT_EQ(t.tree.num_nodes(), 2 * t.tree.num_leaves() - 1);  // binary tree

  // Per-point: leaf bounds contain the point; pure leaves match the label;
  // impure leaves record the label among majority+minorities.
  for (idx_t i = 0; i < n; ++i) {
    const idx_t leaf = t.point_leaf[static_cast<std::size_t>(i)];
    ASSERT_GE(leaf, 0);
    const TreeNode& nd = t.tree.node(leaf);
    ASSERT_LT(nd.axis, 0);
    EXPECT_TRUE(nd.bounds.contains(pts[static_cast<std::size_t>(i)]));
    const idx_t l = labels[static_cast<std::size_t>(i)];
    if (nd.pure) {
      EXPECT_EQ(nd.label, l);
    } else {
      const auto minorities = t.tree.minority_labels(leaf);
      const bool present =
          nd.label == l ||
          std::find(minorities.begin(), minorities.end(), l) != minorities.end();
      EXPECT_TRUE(present);
    }
  }

  // Serialization round-trip preserves the tree exactly.
  EXPECT_TRUE(trees_equal(t.tree, tree_from_binary(tree_to_binary(t.tree))));
}

TEST_P(TreeFuzzTest, BoxQueriesNeverMissOnRandomTrees) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 29);
  const idx_t n = 100 + rng.uniform_int(400);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (idx_t i = 0; i < n; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
    labels.push_back(rng.uniform_int(4));
  }
  const InducedTree t = induce_tree(pts, labels, 4);
  std::vector<char> mask(4, 0);
  for (int trial = 0; trial < 15; ++trial) {
    BBox q;
    q.expand(Vec3{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
    q.inflate(rng.uniform(0.1, 1.5));
    std::fill(mask.begin(), mask.end(), 0);
    t.tree.collect_box_labels(q, mask);
    for (idx_t i = 0; i < n; ++i) {
      if (q.contains(pts[static_cast<std::size_t>(i)])) {
        EXPECT_TRUE(mask[static_cast<std::size_t>(
            labels[static_cast<std::size_t>(i)])]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Geometry invariants
// ---------------------------------------------------------------------------

class GeomFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GeomFuzzTest, RcbAndGeometricAgreeOnBalance) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  const idx_t n = 500 + rng.uniform_int(1500);
  const idx_t k = 2 + rng.uniform_int(10);
  std::vector<Vec3> pts;
  for (idx_t i = 0; i < n; ++i) {
    // Clustered points: mixtures stress the median selection.
    const real_t cx = rng.uniform() < 0.5 ? 2.0 : 8.0;
    pts.push_back(Vec3{cx + rng.uniform(-1, 1), rng.uniform(0, 10),
                       rng.uniform(0, 3)});
  }
  const RcbTree rcb = RcbTree::build(pts, {}, k, 3);
  GeometricPartitionOptions gopts;
  gopts.k = k;
  const auto geo = geometric_multiconstraint_partition(pts, {}, gopts);
  auto imbalance = [&](std::span<const idx_t> labels) {
    std::vector<idx_t> counts(static_cast<std::size_t>(k), 0);
    for (idx_t l : labels) ++counts[static_cast<std::size_t>(l)];
    idx_t mx = 0;
    for (idx_t c : counts) mx = std::max(mx, c);
    return static_cast<double>(mx) * k / static_cast<double>(n);
  };
  EXPECT_LE(imbalance(rcb.labels()), 1.06);
  EXPECT_LE(imbalance(geo), 1.06);
}

TEST_P(GeomFuzzTest, RcbUpdateKeepsBalanceUnderRandomDrift) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 23 + 5);
  const idx_t n = 800;
  std::vector<Vec3> pts;
  for (idx_t i = 0; i < n; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  RcbTree tree = RcbTree::build(pts, {}, 9, 3);
  for (int step = 0; step < 5; ++step) {
    for (auto& p : pts) {
      p.x += rng.uniform(-0.3, 0.3);
      p.y += rng.uniform(-0.3, 0.3);
      p.z += rng.uniform(-0.3, 0.1);  // slight downward drift
    }
    tree.update(pts, {});
    std::vector<idx_t> counts(9, 0);
    for (idx_t l : tree.labels()) ++counts[static_cast<std::size_t>(l)];
    idx_t mx = 0;
    for (idx_t c : counts) mx = std::max(mx, c);
    EXPECT_LE(static_cast<double>(mx) * 9 / n, 1.06) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeomFuzzTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Metric identities
// ---------------------------------------------------------------------------

class MetricFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricFuzzTest, M2MBoundsAndPermutationInvariance) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 7);
  const idx_t n = 200 + rng.uniform_int(300);
  const idx_t k = 2 + rng.uniform_int(8);
  std::vector<idx_t> fe(static_cast<std::size_t>(n)), contact(fe.size());
  for (std::size_t i = 0; i < fe.size(); ++i) {
    fe[i] = rng.uniform_int(k);
    contact[i] = rng.uniform_int(k);
  }
  const M2MResult base = m2m_comm(fe, contact, k);
  EXPECT_GE(base.mismatched, 0);
  EXPECT_LE(base.mismatched, n);
  // Relabelling the contact partition by any permutation must not change
  // the (optimal) mismatch count.
  Rng prng(rng.next());
  const auto perm = random_permutation(k, prng);
  std::vector<idx_t> permuted(contact.size());
  for (std::size_t i = 0; i < contact.size(); ++i) {
    permuted[i] = perm[static_cast<std::size_t>(contact[i])];
  }
  EXPECT_EQ(m2m_comm(fe, permuted, k).mismatched, base.mismatched);
}

TEST_P(MetricFuzzTest, HungarianBeatsRandomPermutations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 3);
  const idx_t n = 4 + rng.uniform_int(8);
  std::vector<wgt_t> w(static_cast<std::size_t>(n) * n);
  for (auto& x : w) x = rng.uniform_int(500);
  const auto best = max_weight_assignment(w, n);
  const wgt_t best_weight = assignment_weight(w, n, best);
  for (int trial = 0; trial < 30; ++trial) {
    Rng prng(rng.next());
    const auto perm = random_permutation(n, prng);
    EXPECT_GE(best_weight, assignment_weight(w, n, perm));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Mesh invariants
// ---------------------------------------------------------------------------

class MeshFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MeshFuzzTest, RandomErosionKeepsSurfaceConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 9);
  Mesh m = make_hex_box(6, 6, 6, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  // Erode a random subset of elements.
  std::vector<char> keep(static_cast<std::size_t>(m.num_elements()), 1);
  for (auto& kf : keep) kf = rng.uniform() < 0.8;
  m.remove_elements(keep);
  const Surface s = extract_surface(m);
  // Every surface face's nodes are flagged; every flagged node appears in
  // the sorted unique list.
  for (const SurfaceFace& f : s.faces) {
    for (idx_t id : f.nodes) {
      EXPECT_TRUE(s.is_contact_node[static_cast<std::size_t>(id)]);
    }
  }
  EXPECT_TRUE(std::is_sorted(s.contact_nodes.begin(), s.contact_nodes.end()));
  idx_t flagged = 0;
  for (char c : s.is_contact_node) flagged += c != 0;
  EXPECT_EQ(flagged, s.num_contact_nodes());
  // The nodal graph of the eroded mesh stays symmetric.
  EXPECT_TRUE(nodal_graph(m).is_symmetric());
  // Face parity: every face key appears at most twice across elements, so
  // the boundary count is consistent with Euler-style counting:
  // 6*elements = 2*interior + boundary.
  const idx_t total_faces = 6 * m.num_elements();
  const idx_t boundary = s.num_faces();
  EXPECT_EQ((total_faces - boundary) % 2, 0);
}

TEST_P(MeshFuzzTest, DualGraphDegreeBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 89 + 2);
  const idx_t nx = 2 + rng.uniform_int(5);
  const idx_t ny = 2 + rng.uniform_int(5);
  const idx_t nz = 2 + rng.uniform_int(5);
  const Mesh m = make_hex_box(nx, ny, nz, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const CsrGraph d = dual_graph(m);
  for (idx_t e = 0; e < d.num_vertices(); ++e) {
    EXPECT_LE(d.degree(e), 6);  // hexes share at most 6 faces
    EXPECT_GE(d.degree(e), 3);  // corner cells still touch 3 neighbours
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshFuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace cpart
