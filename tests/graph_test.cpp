// Tests for graph/: CSR validation, builder deduplication, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mcml_dt.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "sim/impact_sim.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

CsrGraph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return b.build();
}

TEST(CsrGraph, BasicShape) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(CsrGraph, RejectsBadXadj) {
  EXPECT_THROW(CsrGraph({0, 2, 1}, {0, 1}), InputError);
  EXPECT_THROW(CsrGraph({1, 2}, {0}), InputError);
}

TEST(CsrGraph, RejectsOutOfRangeNeighbor) {
  EXPECT_THROW(CsrGraph({0, 1, 2}, {5, 0}), InputError);
}

TEST(CsrGraph, RejectsBadWeightSizes) {
  EXPECT_THROW(CsrGraph({0, 1, 2}, {1, 0}, {1, 2, 3}, {}, 1), InputError);
  EXPECT_THROW(CsrGraph({0, 1, 2}, {1, 0}, {}, {1, 2, 3}, 1), InputError);
}

TEST(CsrGraph, UnitWeightsByDefault) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.vertex_weight(0), 1);
  EXPECT_EQ(g.edge_weight(0, 0), 1);
  EXPECT_EQ(g.total_vertex_weight(), 3);
}

TEST(CsrGraph, MultiConstraintWeights) {
  CsrGraph g({0, 1, 2}, {1, 0}, {1, 0, 1, 1}, {}, 2);
  EXPECT_EQ(g.ncon(), 2);
  EXPECT_EQ(g.vertex_weight(0, 0), 1);
  EXPECT_EQ(g.vertex_weight(0, 1), 0);
  EXPECT_EQ(g.total_vertex_weight(1), 1);
}

TEST(GraphBuilder, DeduplicatesKeepingMax) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 0, 7);
  const CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge_weight(0, 0), 7);
}

TEST(GraphBuilder, DeduplicatesSumming) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 0, 7);
  const CsrGraph g = b.build(DupPolicy::kSum);
  EXPECT_EQ(g.edge_weight(0, 0), 10);
}

TEST(GraphBuilder, RejectsSelfLoopAndRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 0), InputError);
  EXPECT_THROW(b.add_edge(0, 5), InputError);
  EXPECT_THROW(b.add_edge(0, 1, 0), InputError);
}

// The builder's contract written the obvious way: merge duplicates in an
// ordered map keyed on (min, max), then emit every row in ascending
// neighbour order.
struct Insert {
  idx_t u, v;
  wgt_t w;
};

CsrGraph reference_build(idx_t n, const std::vector<Insert>& inserts,
                         DupPolicy policy, std::vector<wgt_t> vwgt = {},
                         idx_t ncon = 1) {
  std::map<std::pair<idx_t, idx_t>, wgt_t> merged;
  for (const Insert& e : inserts) {
    const auto key = std::minmax(e.u, e.v);
    const auto [it, fresh] = merged.try_emplace(key, e.w);
    if (fresh) continue;
    it->second = policy == DupPolicy::kSum ? it->second + e.w
                                           : std::max(it->second, e.w);
  }
  std::vector<std::map<idx_t, wgt_t>> rows(static_cast<std::size_t>(n));
  for (const auto& [key, w] : merged) {
    rows[static_cast<std::size_t>(key.first)][key.second] = w;
    rows[static_cast<std::size_t>(key.second)][key.first] = w;
  }
  std::vector<idx_t> xadj{0}, adjncy;
  std::vector<wgt_t> adjwgt;
  for (const auto& row : rows) {
    for (const auto& [v, w] : row) {
      adjncy.push_back(v);
      adjwgt.push_back(w);
    }
    xadj.push_back(to_idx(adjncy.size()));
  }
  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(vwgt),
                  std::move(adjwgt), ncon);
}

CsrGraph builder_build(idx_t n, const std::vector<Insert>& inserts,
                       DupPolicy policy, std::vector<wgt_t> vwgt = {},
                       idx_t ncon = 1) {
  GraphBuilder b(n);
  for (const Insert& e : inserts) b.add_edge(e.u, e.v, e.w);
  if (!vwgt.empty()) b.set_vertex_weights(std::move(vwgt), ncon);
  return b.build(policy);
}

// Byte equality of every CSR array, not just graph isomorphism.
void expect_same_csr(const CsrGraph& got, const CsrGraph& want,
                     const std::string& what) {
  EXPECT_EQ(got.xadj(), want.xadj()) << what;
  EXPECT_EQ(got.adjncy(), want.adjncy()) << what;
  EXPECT_EQ(got.adjwgt(), want.adjwgt()) << what;
  EXPECT_EQ(got.vwgt(), want.vwgt()) << what;
  EXPECT_EQ(got.ncon(), want.ncon()) << what;
}

TEST(GraphBuilder, MatchesMapReferenceOnRandomMultigraphs) {
  Rng rng(2024);
  int cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const idx_t n = 2 + rng.uniform_int(60);
    // Odd trials are dense multigraphs (16-40 insertions per vertex): a
    // vertex buckets every edge to a larger id, so the low ids' buckets pass
    // 32 entries and take the std::sort branch. Even trials stay sparse.
    const idx_t m = trial % 2 == 0 ? rng.uniform_int(4 * n + 1)
                                   : 16 * n + rng.uniform_int(24 * n + 1);
    const wgt_t max_w = 1 + rng.uniform_int(6);
    std::vector<Insert> inserts;
    for (idx_t i = 0; i < m; ++i) {
      const idx_t u = rng.uniform_int(n);
      idx_t v = rng.uniform_int(n - 1);
      if (v >= u) ++v;
      inserts.push_back({u, v, 1 + rng.uniform_int(static_cast<idx_t>(max_w))});
    }
    std::vector<wgt_t> vwgt;
    idx_t ncon = 1;
    if (trial % 3 == 0) {
      ncon = 2;
      for (idx_t i = 0; i < 2 * n; ++i) vwgt.push_back(rng.uniform_int(4));
    }
    for (const DupPolicy policy : {DupPolicy::kMax, DupPolicy::kSum}) {
      const std::string what = "trial " + std::to_string(trial) +
                               (policy == DupPolicy::kSum ? " sum" : " max");
      expect_same_csr(builder_build(n, inserts, policy, vwgt, ncon),
                      reference_build(n, inserts, policy, vwgt, ncon), what);
      ++cases;
    }
  }
  EXPECT_GE(cases, 200);
}

TEST(GraphBuilder, HubRowTakesTheLongBucketPath) {
  // Vertex 0 is the lower endpoint of every edge to it: its bucket holds
  // 3 * 99 insertions in descending, shuffled-duplicate order.
  const idx_t n = 100;
  std::vector<Insert> inserts;
  for (int round = 0; round < 3; ++round) {
    for (idx_t v = n - 1; v >= 1; --v) {
      inserts.push_back({round % 2 == 0 ? v : 0, round % 2 == 0 ? 0 : v,
                         1 + (v * 7 + round * 3) % 5});
    }
  }
  // A few ordinary edges beside the hub.
  inserts.push_back({5, 9, 2});
  inserts.push_back({9, 5, 4});
  inserts.push_back({40, 41, 1});
  for (const DupPolicy policy : {DupPolicy::kMax, DupPolicy::kSum}) {
    const CsrGraph g = builder_build(n, inserts, policy);
    expect_same_csr(g, reference_build(n, inserts, policy), "hub");
    EXPECT_EQ(g.degree(0), n - 1);
  }
}

TEST(GraphBuilder, EmptyIsolatedAndRepeatedInserts) {
  const CsrGraph empty = GraphBuilder(0).build();
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty.num_edges(), 0);
  expect_same_csr(empty, reference_build(0, {}, DupPolicy::kMax), "empty");

  // Ten vertices, one edge: eight isolated vertices keep empty rows.
  const std::vector<Insert> one{{7, 3, 2}};
  const CsrGraph sparse = builder_build(10, one, DupPolicy::kMax);
  EXPECT_EQ(sparse.xadj(),
            (std::vector<idx_t>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2}));
  expect_same_csr(sparse, reference_build(10, one, DupPolicy::kMax),
                  "isolated");

  const std::vector<Insert> repeated{{2, 5, 3}, {5, 2, 9}, {2, 5, 1},
                                     {1, 2, 4}, {5, 2, 2}};
  const CsrGraph kept = builder_build(6, repeated, DupPolicy::kMax);
  const CsrGraph summed = builder_build(6, repeated, DupPolicy::kSum);
  EXPECT_EQ(kept.num_edges(), 2);
  EXPECT_EQ(kept.edge_weight(5, 0), 9);
  EXPECT_EQ(summed.edge_weight(5, 0), 15);
  expect_same_csr(kept, reference_build(6, repeated, DupPolicy::kMax),
                  "repeated max");
  expect_same_csr(summed, reference_build(6, repeated, DupPolicy::kSum),
                  "repeated sum");
}

TEST(GraphBuilder, TwoPhaseGraphMatchesReferenceAndReweights) {
  ImpactSimConfig sc;
  sc.plate_cells_xy = 8;
  sc.plate_cells_z = 2;
  sc.proj_cells_diameter = 4;
  sc.proj_cells_z = 4;
  sc.num_snapshots = 40;
  const ImpactSim sim(sc);
  const Mesh& mesh = sim.initial_mesh();
  const wgt_t contact_weight = 5;
  const auto reference = [&](std::span<const char> is_contact) {
    std::vector<Insert> inserts;
    for (idx_t e = 0; e < mesh.num_elements(); ++e) {
      const auto elem = mesh.element(e);
      for (const auto& [a, b] : element_edges(mesh.element_type())) {
        const idx_t u = elem[static_cast<std::size_t>(a)];
        const idx_t v = elem[static_cast<std::size_t>(b)];
        const bool both = is_contact[static_cast<std::size_t>(u)] &&
                          is_contact[static_cast<std::size_t>(v)];
        inserts.push_back({u, v, both ? contact_weight : 1});
      }
    }
    std::vector<wgt_t> vwgt;
    for (idx_t v = 0; v < mesh.num_nodes(); ++v) {
      vwgt.push_back(1);
      vwgt.push_back(is_contact[static_cast<std::size_t>(v)] ? 1 : 0);
    }
    return reference_build(mesh.num_nodes(), inserts, DupPolicy::kMax,
                           std::move(vwgt), 2);
  };
  const std::vector<char> early = sim.snapshot(0).surface.is_contact_node;
  const std::vector<char> late = sim.snapshot(30).surface.is_contact_node;
  ASSERT_NE(early, late) << "the contact mask must evolve";
  CsrGraph g = build_two_phase_graph(mesh, early, contact_weight);
  expect_same_csr(g, reference(early), "snapshot 0");
  // Re-weighting in place for a new mask equals a fresh build.
  reweight_two_phase_graph(g, late, contact_weight);
  expect_same_csr(g, reference(late), "re-weighted to snapshot 30");
  expect_same_csr(g, build_two_phase_graph(mesh, late, contact_weight),
                  "re-weighted vs fresh");
}

TEST(GraphBuilder, GridGraphShape) {
  const CsrGraph g = make_grid_graph(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  // Edges: 2*4 horizontal + 3*3 vertical = 17.
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(GraphBuilder, Grid3dShape) {
  const CsrGraph g = make_grid_graph_3d(2, 3, 4);
  EXPECT_EQ(g.num_vertices(), 24);
  // Edges: 1*3*4 + 2*2*4 + 2*3*3 = 12 + 16 + 18 = 46.
  EXPECT_EQ(g.num_edges(), 46);
}

TEST(GraphBuilder, PathGraph) {
  const CsrGraph g = make_path_graph(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(Metrics, EdgeCutOnPath) {
  const CsrGraph g = make_path_graph(4);
  const std::vector<idx_t> part{0, 0, 1, 1};
  EXPECT_EQ(edge_cut(g, part), 1);
}

TEST(Metrics, EdgeCutWeighted) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 2);
  const CsrGraph g = b.build();
  const std::vector<idx_t> part{0, 1, 1};
  EXPECT_EQ(edge_cut(g, part), 5);
}

TEST(Metrics, CommVolumeCountsDistinctParts) {
  // Star: center 0 adjacent to three leaves in three different partitions.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const CsrGraph g = b.build();
  const std::vector<idx_t> part{0, 1, 2, 2};
  // Center talks to partitions {1, 2} -> 2; each leaf talks to {0} -> 1.
  EXPECT_EQ(total_comm_volume(g, part), 2 + 3);
}

TEST(Metrics, CommVolumeZeroWhenSinglePartition) {
  const CsrGraph g = make_grid_graph(4, 4);
  const std::vector<idx_t> part(16, 0);
  EXPECT_EQ(total_comm_volume(g, part), 0);
  EXPECT_EQ(edge_cut(g, part), 0);
  EXPECT_EQ(boundary_vertex_count(g, part), 0);
}

TEST(Metrics, LoadImbalanceUniform) {
  const CsrGraph g = make_path_graph(4);
  const std::vector<idx_t> part{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(load_imbalance(g, part, 2), 1.0);
}

TEST(Metrics, LoadImbalanceSkewed) {
  const CsrGraph g = make_path_graph(4);
  const std::vector<idx_t> part{0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(load_imbalance(g, part, 2), 1.5);
}

TEST(Metrics, LoadImbalanceZeroTotalIsBalanced) {
  // Constraint 1 weights all zero -> vacuously balanced.
  CsrGraph g({0, 1, 2}, {1, 0}, {1, 0, 1, 0}, {}, 2);
  const std::vector<idx_t> part{0, 1};
  EXPECT_DOUBLE_EQ(load_imbalance(g, part, 2, 1), 1.0);
}

TEST(Metrics, MaxLoadImbalanceTakesWorstConstraint) {
  // Constraint 0 balanced, constraint 1 fully skewed.
  CsrGraph g({0, 1, 2}, {1, 0}, {1, 1, 1, 0}, {}, 2);
  const std::vector<idx_t> part{0, 1};
  EXPECT_DOUBLE_EQ(load_imbalance(g, part, 2, 0), 1.0);
  EXPECT_DOUBLE_EQ(max_load_imbalance(g, part, 2), 2.0);
}

TEST(Metrics, BoundaryVertexCount) {
  const CsrGraph g = make_path_graph(5);
  const std::vector<idx_t> part{0, 0, 1, 1, 1};
  EXPECT_EQ(boundary_vertex_count(g, part), 2);
}

TEST(Metrics, PartitionWeightsPerConstraint) {
  CsrGraph g({0, 1, 3, 4}, {1, 0, 2, 1}, {1, 5, 1, 0, 2, 3}, {}, 2);
  const std::vector<idx_t> part{0, 0, 1};
  const auto w0 = partition_weights(g, part, 2, 0);
  const auto w1 = partition_weights(g, part, 2, 1);
  EXPECT_EQ(w0[0], 2);
  EXPECT_EQ(w0[1], 2);
  EXPECT_EQ(w1[0], 5);
  EXPECT_EQ(w1[1], 3);
}

TEST(Metrics, InvalidPartitionDetected) {
  const std::vector<idx_t> good{0, 1, 2};
  const std::vector<idx_t> bad{0, 3, 1};
  EXPECT_TRUE(is_valid_partition(good, 3));
  EXPECT_FALSE(is_valid_partition(bad, 3));
}

TEST(Metrics, SizeMismatchThrows) {
  const CsrGraph g = make_path_graph(4);
  const std::vector<idx_t> part{0, 1};
  EXPECT_THROW(edge_cut(g, part), InputError);
  EXPECT_THROW(total_comm_volume(g, part), InputError);
}

}  // namespace
}  // namespace cpart
