// End-to-end integration tests: the paper's headline comparisons must hold
// structurally on a reduced version of the evaluation workload, and the
// whole pipeline must stay consistent across snapshots.
#include <gtest/gtest.h>

#include "contact/global_search.hpp"
#include "core/experiment.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

ImpactSimConfig small_sim() {
  ImpactSimConfig c;
  c.plate_cells_xy = 20;
  c.plate_cells_z = 3;
  c.proj_cells_diameter = 8;
  c.proj_cells_z = 8;
  c.num_snapshots = 12;
  return c;
}

TEST(Integration, HeadlineClaimMcmlDtNeedsLessTotalCommunication) {
  // The paper's central claim (Section 5.2): counting the coupling cost
  // ML+RCB pays between its two decompositions (2x M2MComm + UpdComm),
  // MCML+DT's single decomposition communicates less per step.
  ExperimentConfig config;
  config.sim = small_sim();
  config.k = 8;
  config.snapshot_stride = 3;
  const ExperimentResult r = run_contact_experiment(config);
  EXPECT_GT(r.ml_rcb.total_step_comm, r.mcml_dt.total_step_comm);
  // ...and the structural reason: MCML+DT pays no mesh-to-mesh transfer.
  EXPECT_GT(r.ml_rcb.m2m, 0.0);
  EXPECT_DOUBLE_EQ(r.mcml_dt.total_step_comm, r.mcml_dt.fe_comm);
}

TEST(Integration, MlRcbWinsFeCommAlone) {
  // Second structural claim: the single-constraint FE partition of ML+RCB
  // has a lower communication volume than the two-constraint partition
  // (Table 1: 23961 < 28101 at 25-way).
  ExperimentConfig config;
  config.sim = small_sim();
  config.k = 8;
  config.snapshot_stride = 4;
  const ExperimentResult r = run_contact_experiment(config);
  EXPECT_LT(r.ml_rcb.fe_comm, r.mcml_dt.fe_comm);
}

TEST(Integration, BothPhasesBalancedByMcmlDt) {
  ExperimentConfig config;
  config.sim = small_sim();
  config.k = 6;
  config.snapshot_stride = 6;
  const ExperimentResult r = run_contact_experiment(config);
  // FE phase balanced by construction; contact phase balanced within the
  // multi-constraint tolerance (plus slack for surface evolution while the
  // partition stays fixed).
  EXPECT_LE(r.mcml_dt.imbalance_fe, 1.15);
  EXPECT_LE(r.mcml_dt.imbalance_contact, 1.45);
}

TEST(Integration, DescriptorSearchConservative) {
  // The descriptor-tree filter must never miss a partition that actually
  // has a contact point within the query box: verify against a brute-force
  // check on one snapshot.
  const ImpactSim sim(small_sim());
  const auto snap = sim.snapshot(6);
  McmlDtConfig config;
  config.k = 6;
  const McmlDtPartitioner p(snap.mesh, snap.surface, config);
  const auto desc = p.build_descriptors(snap.mesh, snap.surface);

  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (idx_t id : snap.surface.contact_nodes) {
    pts.push_back(snap.mesh.node(id));
    labels.push_back(p.node_partition()[static_cast<std::size_t>(id)]);
  }
  std::vector<idx_t> candidates;
  std::vector<char> mask;
  std::vector<idx_t> touched;
  for (std::size_t f = 0; f < snap.surface.faces.size(); f += 7) {
    const BBox box = face_bbox(snap.mesh, snap.surface.faces[f], 0.05);
    candidates.clear();
    desc.query_box(box, candidates, mask, touched);
    const std::set<idx_t> found(candidates.begin(), candidates.end());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (box.contains(pts[i])) {
        ASSERT_TRUE(found.count(labels[i]))
            << "face " << f << " misses partition " << labels[i];
      }
    }
  }
}

TEST(Integration, FixedPartitionStaysValidThroughErosion) {
  const ImpactSim sim(small_sim());
  const auto snap0 = sim.snapshot(0);
  McmlDtConfig config;
  config.k = 5;
  const McmlDtPartitioner p(snap0.mesh, snap0.surface, config);
  // The partition is defined on stable node ids; every later snapshot's
  // contact nodes must still have valid labels and non-empty descriptors.
  for (idx_t s = 0; s < sim.num_snapshots(); s += 4) {
    const auto snap = sim.snapshot(s);
    const auto desc = p.build_descriptors(snap.mesh, snap.surface);
    EXPECT_GT(desc.num_tree_nodes(), 0);
    const CsrGraph g = nodal_graph(snap.mesh);
    EXPECT_GT(total_comm_volume(g, p.node_partition()), 0);
  }
}

}  // namespace
}  // namespace cpart
