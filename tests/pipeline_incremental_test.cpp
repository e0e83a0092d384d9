// Warm-vs-cold equivalence of the incremental per-timestep pipeline.
//
// The StepPipeline's warm starts (saved per-axis sorted orders, recycled
// buffers, workspace-reusing snapshot generation, touched-list search
// scratch) are pure optimizations: every product must be bit-identical to
// cold recomputation at every step and at every thread count. These tests
// pin that contract over full snapshot sequences at 1 and 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "contact/global_search.hpp"
#include "core/experiment.hpp"
#include "core/mcml_dt.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/step_pipeline.hpp"
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

/// The full pipeline over a snapshot sequence: snapshot generation,
/// descriptor induction and global search must match the from-scratch path
/// product-for-product.
void check_pipeline_matches_cold(unsigned threads) {
  ThreadPool::set_global_threads(threads);
  const ImpactSimConfig sim_config = small_sim_config();
  const ImpactSim sim(sim_config);
  const real_t margin = 0.05;

  McmlDtConfig dt_config;
  dt_config.k = 12;
  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  const McmlDtPartitioner mcml(snap0.mesh, snap0.surface, dt_config);

  StepPipeline pipeline(sim);
  for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
    const ImpactSim::Snapshot cold_snap = sim.snapshot(s);
    const ImpactSim::Snapshot& warm_snap = pipeline.advance(s);

    // Snapshot: deformed nodes, elements, surface and contact sets.
    ASSERT_EQ(warm_snap.eroded_elements, cold_snap.eroded_elements);
    ASSERT_EQ(warm_snap.mesh.num_elements(), cold_snap.mesh.num_elements());
    ASSERT_EQ(warm_snap.mesh.num_nodes(), cold_snap.mesh.num_nodes());
    for (idx_t v = 0; v < cold_snap.mesh.num_nodes(); ++v) {
      ASSERT_EQ(warm_snap.mesh.node(v), cold_snap.mesh.node(v)) << "node " << v;
    }
    ASSERT_EQ(warm_snap.surface.num_faces(), cold_snap.surface.num_faces());
    ASSERT_EQ(warm_snap.surface.contact_nodes, cold_snap.surface.contact_nodes);
    for (std::size_t f = 0; f < cold_snap.surface.faces.size(); ++f) {
      ASSERT_EQ(warm_snap.surface.faces[f].element,
                cold_snap.surface.faces[f].element);
      ASSERT_EQ(warm_snap.surface.faces[f].nodes,
                cold_snap.surface.faces[f].nodes);
    }

    // Descriptors: warm-started induction vs the cold build.
    const SubdomainDescriptors cold_desc =
        mcml.build_descriptors(cold_snap.mesh, cold_snap.surface);
    const SubdomainDescriptors& warm_desc = pipeline.build_descriptors(mcml);
    expect_trees_identical(warm_desc.tree(), cold_desc.tree());

    // Global search: owners and remote-send stats.
    const std::vector<idx_t> cold_owners =
        face_owners(cold_snap.surface, mcml.node_partition(), dt_config.k);
    const GlobalSearchStats cold_stats = global_search_tree(
        cold_snap.mesh, cold_snap.surface, cold_owners, cold_desc, margin);
    const GlobalSearchStats warm_stats = pipeline.search(mcml, margin);
    ASSERT_EQ(std::vector<idx_t>(pipeline.owners().begin(),
                                 pipeline.owners().end()),
              cold_owners);
    ASSERT_EQ(warm_stats.remote_sends, cold_stats.remote_sends);
    ASSERT_EQ(warm_stats.elements_sent, cold_stats.elements_sent);
    ASSERT_EQ(warm_stats.candidates, cold_stats.candidates);
  }
  ThreadPool::set_global_threads(0);
}

TEST(StepPipeline, MatchesColdRecomputationSerial) {
  check_pipeline_matches_cold(1);
}
TEST(StepPipeline, MatchesColdRecomputationEightThreads) {
  check_pipeline_matches_cold(8);
}

/// run_contact_experiment (which routes the MCML+DT per-snapshot phases
/// through StepPipeline) must report the same SnapshotMetrics a cold
/// recomputation of those phases produces.
TEST(StepPipeline, ExperimentMetricsMatchColdReference) {
  ExperimentConfig config;
  config.sim = small_sim_config();
  config.k = 10;
  const ExperimentResult result = run_contact_experiment(config);
  ASSERT_EQ(result.series.size(),
            static_cast<std::size_t>(config.sim.num_snapshots));

  const ImpactSim sim(config.sim);
  const real_t cell =
      config.sim.plate_width / static_cast<real_t>(config.sim.plate_cells_xy);
  const real_t margin = static_cast<real_t>(kMarginCellFraction) * cell;

  McmlDtConfig dt_config;
  dt_config.k = config.k;
  dt_config.epsilon = config.epsilon;
  dt_config.contact_edge_weight = config.contact_edge_weight;
  dt_config.tree_friendly = config.tree_friendly;
  dt_config.partitioner.seed = config.seed;
  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  const McmlDtPartitioner mcml(snap0.mesh, snap0.surface, dt_config);

  for (const SnapshotMetrics& m : result.series) {
    const ImpactSim::Snapshot snap = sim.snapshot(m.step);
    EXPECT_EQ(m.contact_nodes, snap.surface.num_contact_nodes());
    EXPECT_EQ(m.surface_faces, snap.surface.num_faces());
    const SubdomainDescriptors desc =
        mcml.build_descriptors(snap.mesh, snap.surface);
    EXPECT_EQ(m.dt_tree_nodes, desc.num_tree_nodes());
    const std::vector<idx_t> owners =
        face_owners(snap.surface, mcml.node_partition(), config.k);
    EXPECT_EQ(m.dt_remote,
              global_search_tree(snap.mesh, snap.surface, owners, desc, margin)
                  .remote_sends);
  }
}

}  // namespace
}  // namespace cpart
