// Warm-vs-cold equivalence of the per-step incremental state.
//
// Warm-started descriptor induction (saved per-axis sorted orders, recycled
// node storage) and workspace-reusing snapshot generation are pure
// optimizations: every product must be bit-identical to cold recomputation
// at every step and at every thread count, in isolation and through
// DistributedSim's step. The experiment's MCML+DT columns, which come from
// that step, must equal a cold central recomputation of the same metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "contact/global_search.hpp"
#include "core/distributed_sim.hpp"
#include "core/experiment.hpp"
#include "core/mcml_dt.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/subdomain_state.hpp"
#include "sim/impact_sim.hpp"
#include "tree/decision_tree.hpp"

namespace cpart {
namespace {

void expect_trees_identical(const DecisionTree& a, const DecisionTree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.root(), b.root());
  ASSERT_EQ(a.num_leaves(), b.num_leaves());
  for (idx_t i = 0; i < a.num_nodes(); ++i) {
    const TreeNode& x = a.node(i);
    const TreeNode& y = b.node(i);
    ASSERT_EQ(x.axis, y.axis) << "node " << i;
    ASSERT_EQ(x.cut, y.cut) << "node " << i;
    ASSERT_EQ(x.left, y.left) << "node " << i;
    ASSERT_EQ(x.right, y.right) << "node " << i;
    ASSERT_EQ(x.label, y.label) << "node " << i;
    ASSERT_EQ(x.pure, y.pure) << "node " << i;
    ASSERT_EQ(x.count, y.count) << "node " << i;
  }
}

ImpactSimConfig small_sim_config() {
  ImpactSimConfig config;
  config.scale_resolution(0.3);
  config.num_snapshots = 8;
  return config;
}

/// Warm re-induction over a drifting point cloud must reproduce the cold
/// trees and point→leaf maps exactly, whether the drift is coherent (the
/// repair merge path), chaotic (the std::sort fallback), or resizing (the
/// cold restart path).
void check_warm_induction(unsigned threads) {
  ThreadPool::set_global_threads(threads);
  const idx_t n = 4000;
  const idx_t k = 7;
  std::vector<Vec3> points(static_cast<std::size_t>(n));
  std::vector<idx_t> labels(static_cast<std::size_t>(n));
  auto fill = [&](real_t phase, double scale) {
    for (idx_t i = 0; i < n; ++i) {
      const real_t x = static_cast<real_t>((i * 37) % 101);
      const real_t y = static_cast<real_t>((i * 61) % 89);
      const real_t z = static_cast<real_t>((i * 17) % 97);
      points[static_cast<std::size_t>(i)] =
          Vec3{x + scale * std::sin(phase + 0.01 * z),
               y + scale * std::cos(phase + 0.02 * x), z + scale * phase};
      labels[static_cast<std::size_t>(i)] = (i * 13 + i / 64) % k;
    }
  };

  TreeInduceOptions options;
  TreeInduceWorkspace ws;
  for (int step = 0; step < 6; ++step) {
    // Steps 0-3 drift coherently; step 4 scrambles (fallback); step 5
    // shrinks the set (cold restart in the workspace).
    const bool scramble = step == 4;
    fill(0.3 * static_cast<real_t>(step), scramble ? 500.0 : 0.8);
    std::span<const Vec3> pts(points);
    std::span<const idx_t> lbs(labels);
    if (step == 5) {
      pts = pts.subspan(0, 2500);
      lbs = lbs.subspan(0, 2500);
    }
    const InducedTree warm = induce_tree(pts, lbs, k, options, &ws);
    const InducedTree cold = induce_tree(pts, lbs, k, options);
    expect_trees_identical(warm.tree, cold.tree);
    ASSERT_EQ(warm.point_leaf, cold.point_leaf) << "step " << step;
  }
  ThreadPool::set_global_threads(0);
}

TEST(WarmInduction, BitIdenticalSerial) { check_warm_induction(1); }
TEST(WarmInduction, BitIdenticalEightThreads) { check_warm_induction(8); }

/// The per-step pipeline over a snapshot sequence: snapshot_into over one
/// reused workspace, then DistributedSim's step with its warm-started
/// descriptor induction and search scratch, must match the from-scratch
/// path product-for-product — the fresh snapshot(), a cold descriptor build
/// and a cold tree search under the same fixed partition.
void check_pipeline_matches_cold(unsigned threads) {
  ThreadPool::set_global_threads(threads);
  const ImpactSim sim(small_sim_config());
  const real_t margin = 0.05;

  DistributedSimConfig dist_config;
  dist_config.decomposition.k = 12;
  dist_config.search.search_margin = margin;
  dist_config.search.contact_tolerance = margin;
  DistributedSim dist(sim, dist_config);

  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  const McmlDtPartitioner mcml(snap0.mesh, snap0.surface,
                               dist_config.decomposition);
  const std::vector<idx_t>& part = mcml.node_partition();
  ASSERT_EQ(dist.ownership_map(), part);

  ImpactSim::SnapshotWorkspace ws;
  ImpactSim::Snapshot warm;
  for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
    SCOPED_TRACE(testing::Message() << "snapshot " << s);
    const ImpactSim::Snapshot cold = sim.snapshot(s);
    sim.snapshot_into(s, ws, warm);

    // Snapshot: deformed nodes, elements, surface and contact sets.
    ASSERT_EQ(warm.step, cold.step);
    ASSERT_EQ(warm.nose_z, cold.nose_z);
    ASSERT_EQ(warm.eroded_elements, cold.eroded_elements);
    ASSERT_EQ(warm.mesh.num_nodes(), cold.mesh.num_nodes());
    ASSERT_EQ(warm.mesh.num_elements(), cold.mesh.num_elements());
    for (idx_t v = 0; v < cold.mesh.num_nodes(); ++v) {
      ASSERT_EQ(warm.mesh.node(v), cold.mesh.node(v)) << "node " << v;
    }
    ASSERT_TRUE(std::ranges::equal(warm.mesh.element_nodes(),
                                   cold.mesh.element_nodes()));
    ASSERT_EQ(warm.surface.num_faces(), cold.surface.num_faces());
    ASSERT_EQ(warm.surface.contact_nodes, cold.surface.contact_nodes);
    ASSERT_EQ(warm.surface.is_contact_node, cold.surface.is_contact_node);
    for (std::size_t f = 0; f < cold.surface.faces.size(); ++f) {
      ASSERT_EQ(warm.surface.faces[f].element, cold.surface.faces[f].element);
      ASSERT_EQ(warm.surface.faces[f].nodes, cold.surface.faces[f].nodes);
    }

    // Descriptors: every rank's warm-induced copy vs the cold build.
    const DistributedStepReport report = dist.run_step(s);
    const SubdomainDescriptors cold_desc =
        mcml.build_descriptors(cold.mesh, cold.surface);
    ASSERT_EQ(report.descriptor_tree_nodes, cold_desc.num_tree_nodes());
    for (const SubdomainState& state : dist.states()) {
      ASSERT_NE(state.descriptors, nullptr) << "rank " << state.rank;
      expect_trees_identical(state.descriptors->tree(), cold_desc.tree());
    }

    // Global search: remote sends under the fixed partition.
    const std::vector<idx_t> cold_owners =
        face_owners(cold.surface, part, dist_config.decomposition.k);
    const GlobalSearchStats cold_stats = global_search_tree(
        cold.mesh, cold.surface, cold_owners, cold_desc, margin);
    ASSERT_EQ(report.search_exchange.total_units(), cold_stats.remote_sends);
  }
  ThreadPool::set_global_threads(0);
}

TEST(StepPipeline, MatchesColdRecomputationSerial) {
  check_pipeline_matches_cold(1);
}
TEST(StepPipeline, MatchesColdRecomputationEightThreads) {
  check_pipeline_matches_cold(8);
}

/// max count * k / total over the labels of the contact nodes.
double contact_imbalance(const Surface& surface,
                         std::span<const idx_t> node_labels, idx_t k) {
  std::vector<idx_t> counts(static_cast<std::size_t>(k), 0);
  for (idx_t id : surface.contact_nodes) {
    ++counts[static_cast<std::size_t>(node_labels[static_cast<std::size_t>(id)])];
  }
  const idx_t maxc = *std::max_element(counts.begin(), counts.end());
  return static_cast<double>(maxc) * static_cast<double>(k) /
         static_cast<double>(surface.contact_nodes.size());
}

/// run_contact_experiment takes its MCML+DT columns from DistributedSim's
/// step; with the partition fixed they must equal a cold central
/// recomputation: the snapshot-0 MCML+DT partition, a fresh snapshot, a
/// cold descriptor build, face owners plus tree search, and the snapshot's
/// nodal graph.
TEST(Experiment, MetricsMatchColdReference) {
  for (idx_t k : {idx_t{4}, idx_t{10}}) {
    ExperimentConfig config;
    config.sim = small_sim_config();
    config.k = k;
    const ExperimentResult result = run_contact_experiment(config);
    ASSERT_EQ(result.series.size(),
              static_cast<std::size_t>(config.sim.num_snapshots));

    const ImpactSim sim(config.sim);
    const real_t cell = config.sim.plate_width /
                        static_cast<real_t>(config.sim.plate_cells_xy);
    const real_t margin = static_cast<real_t>(kMarginCellFraction) * cell;

    McmlDtConfig dt_config;
    dt_config.k = config.k;
    dt_config.epsilon = config.epsilon;
    dt_config.contact_edge_weight = config.contact_edge_weight;
    dt_config.tree_friendly = config.tree_friendly;
    dt_config.partitioner.seed = config.seed;
    const ImpactSim::Snapshot snap0 = sim.snapshot(0);
    const McmlDtPartitioner mcml(snap0.mesh, snap0.surface, dt_config);
    const std::vector<idx_t>& part = mcml.node_partition();

    for (const SnapshotMetrics& m : result.series) {
      SCOPED_TRACE(testing::Message() << "k " << k << " snapshot " << m.step);
      const ImpactSim::Snapshot snap = sim.snapshot(m.step);
      EXPECT_EQ(m.contact_nodes, snap.surface.num_contact_nodes());
      EXPECT_EQ(m.surface_faces, snap.surface.num_faces());
      const SubdomainDescriptors desc =
          mcml.build_descriptors(snap.mesh, snap.surface);
      EXPECT_EQ(m.dt_tree_nodes, desc.num_tree_nodes());
      const std::vector<idx_t> owners =
          face_owners(snap.surface, part, config.k);
      EXPECT_EQ(m.dt_remote, global_search_tree(snap.mesh, snap.surface,
                                                owners, desc, margin)
                                 .remote_sends);
      const CsrGraph graph = nodal_graph(snap.mesh);
      EXPECT_EQ(m.dt_fe_comm, total_comm_volume(graph, part));
      EXPECT_EQ(m.dt_imbalance_fe, load_imbalance(graph, part, config.k));
      EXPECT_EQ(m.dt_imbalance_contact,
                contact_imbalance(snap.surface, part, config.k));
      EXPECT_EQ(m.dt_repart_moved, 0);
    }
  }
}

}  // namespace
}  // namespace cpart
