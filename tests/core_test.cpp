// Tests for core/: the two-phase graph model, the MCML+DT pipeline
// (P -> P' -> P''), descriptor rebuilds, the ML+RCB baseline, the a-priori
// extension, and the experiment driver.
#include <gtest/gtest.h>

#include <algorithm>

#include "contact/global_search.hpp"
#include "contact/local_search.hpp"
#include "core/apriori.hpp"
#include "core/experiment.hpp"
#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

ImpactSimConfig tiny_sim() {
  ImpactSimConfig c;
  c.plate_cells_xy = 12;
  c.plate_cells_z = 2;
  c.proj_cells_diameter = 6;
  c.proj_cells_z = 6;
  c.num_snapshots = 6;
  return c;
}

TEST(TwoPhaseGraph, WeightsFollowContactStructure) {
  const Mesh m = make_hex_box(3, 3, 3, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Surface s = extract_surface(m);
  const CsrGraph g = build_two_phase_graph(m, s.is_contact_node, 5);
  EXPECT_EQ(g.ncon(), 2);
  EXPECT_EQ(g.num_vertices(), m.num_nodes());
  // Constraint 0 counts all nodes; constraint 1 counts contact nodes.
  EXPECT_EQ(g.total_vertex_weight(0), m.num_nodes());
  EXPECT_EQ(g.total_vertex_weight(1), s.num_contact_nodes());
  // Edges between two boundary (contact) nodes weigh 5; check a corner
  // node: all its neighbours are boundary nodes.
  idx_t corner = kInvalidIndex;
  for (idx_t v = 0; v < m.num_nodes(); ++v) {
    const Vec3 p = m.node(v);
    if (p.x == 0 && p.y == 0 && p.z == 0) corner = v;
  }
  ASSERT_NE(corner, kInvalidIndex);
  const auto wgts = g.edge_weights(corner);
  for (wgt_t w : wgts) EXPECT_EQ(w, 5);
  // An interior-interior edge weighs 1: the centre node of the 4x4x4 grid
  // has at least one interior neighbour.
  idx_t interior = kInvalidIndex;
  for (idx_t v = 0; v < m.num_nodes(); ++v) {
    if (!s.is_contact_node[static_cast<std::size_t>(v)]) interior = v;
  }
  ASSERT_NE(interior, kInvalidIndex);
  bool found_unit = false;
  auto nbrs = g.neighbors(interior);
  for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
    if (!s.is_contact_node[static_cast<std::size_t>(
            nbrs[static_cast<std::size_t>(j)])]) {
      EXPECT_EQ(g.edge_weight(interior, j), 1);
      found_unit = true;
    }
  }
  EXPECT_TRUE(found_unit);
}

TEST(McmlDt, PartitionBalancedOnBothPhases) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(0);
  McmlDtConfig config;
  config.k = 6;
  config.epsilon = 0.10;
  const McmlDtPartitioner p(snap.mesh, snap.surface, config);
  ASSERT_TRUE(is_valid_partition(p.node_partition(), 6));
  const CsrGraph g = build_two_phase_graph(
      snap.mesh, snap.surface.is_contact_node, config.contact_edge_weight);
  // Both constraints within tolerance (small slack for the region step).
  EXPECT_LE(load_imbalance(g, p.node_partition(), 6, 0), 1.13);
  EXPECT_LE(load_imbalance(g, p.node_partition(), 6, 1), 1.13);
}

TEST(McmlDt, TreeFriendlyReducesDescriptorSize) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(0);
  McmlDtConfig plain;
  plain.k = 6;
  plain.tree_friendly = false;
  McmlDtConfig friendly;
  friendly.k = 6;
  friendly.tree_friendly = true;
  const McmlDtPartitioner p_plain(snap.mesh, snap.surface, plain);
  const McmlDtPartitioner p_friendly(snap.mesh, snap.surface, friendly);
  const auto d_plain = p_plain.build_descriptors(snap.mesh, snap.surface);
  const auto d_friendly = p_friendly.build_descriptors(snap.mesh, snap.surface);
  // The adjusted partition has axes-parallel boundaries: its descriptor
  // tree must not be larger (usually much smaller).
  EXPECT_LE(d_friendly.num_tree_nodes(), d_plain.num_tree_nodes());
  EXPECT_GT(p_friendly.stats().num_regions, 0);
}

TEST(McmlDt, DescriptorsCoverEveryPartitionWithContactPoints) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(0);
  McmlDtConfig config;
  config.k = 4;
  const McmlDtPartitioner p(snap.mesh, snap.surface, config);
  const auto desc = p.build_descriptors(snap.mesh, snap.surface);
  // Each partition owning contact points has at least one region.
  std::vector<bool> has_points(4, false);
  for (idx_t id : snap.surface.contact_nodes) {
    has_points[static_cast<std::size_t>(
        p.node_partition()[static_cast<std::size_t>(id)])] = true;
  }
  for (idx_t q = 0; q < 4; ++q) {
    if (has_points[static_cast<std::size_t>(q)]) {
      EXPECT_GT(desc.num_regions(q), 0) << "partition " << q;
    }
  }
}

TEST(McmlDt, DescriptorsTrackMovedContactPoints) {
  const ImpactSim sim(tiny_sim());
  const auto snap0 = sim.snapshot(0);
  McmlDtConfig config;
  config.k = 4;
  const McmlDtPartitioner p(snap0.mesh, snap0.surface, config);
  const auto d0 = p.build_descriptors(snap0.mesh, snap0.surface);
  const auto snap_late = sim.snapshot(5);
  const auto d1 = p.build_descriptors(snap_late.mesh, snap_late.surface);
  // Same partition, different geometry: the descriptors must differ.
  EXPECT_NE(d0.num_tree_nodes() * 1000 + d0.num_leaves(),
            d1.num_tree_nodes() * 1000 + d1.num_leaves());
}

TEST(McmlDt, SetNodePartitionValidates) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(0);
  McmlDtConfig config;
  config.k = 3;
  McmlDtPartitioner p(snap.mesh, snap.surface, config);
  std::vector<idx_t> bad(p.node_partition().size(), 7);
  EXPECT_THROW(p.set_node_partition(bad), InputError);
  std::vector<idx_t> wrong_size{0, 1};
  EXPECT_THROW(p.set_node_partition(wrong_size), InputError);
  std::vector<idx_t> ok(p.node_partition().size(), 2);
  p.set_node_partition(ok);
  EXPECT_EQ(p.node_partition()[0], 2);
}

TEST(MlRcb, ContactLabelsAlignWithSurface) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(0);
  MlRcbConfig config;
  config.k = 5;
  const MlRcbPartitioner p(snap.mesh, snap.surface, config);
  EXPECT_EQ(p.contact_ids().size(), snap.surface.contact_nodes.size());
  EXPECT_EQ(p.contact_labels().size(), p.contact_ids().size());
  for (idx_t l : p.contact_labels()) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 5);
  }
  ASSERT_TRUE(is_valid_partition(p.node_partition(), 5));
}

TEST(MlRcb, UpdateReportsBoundedMovement) {
  const ImpactSim sim(tiny_sim());
  const auto snap0 = sim.snapshot(0);
  MlRcbConfig config;
  config.k = 4;
  MlRcbPartitioner p(snap0.mesh, snap0.surface, config);
  const auto snap1 = sim.snapshot(1);
  const wgt_t moved = p.update_contact_partition(snap1.mesh, snap1.surface);
  // One small time step: few points change RCB subdomain.
  EXPECT_LT(moved, to_idx(p.contact_ids().size()) / 2);
  EXPECT_EQ(p.contact_ids().size(), snap1.surface.contact_nodes.size());
}

TEST(MlRcb, BoxFilterSearchMatchesSerial) {
  // ML+RCB's global search ships each face to every RCB subdomain whose
  // bounding box meets the face's margin-inflated box; each processor then
  // searches its own contact nodes against the faces it holds. The boxes
  // are conservative, so the union of the per-processor searches must be
  // exactly the serial search once the margin covers the tolerance.
  ImpactSimConfig sc = tiny_sim();
  sc.plate_cells_xy = 16;
  sc.num_snapshots = 60;
  const ImpactSim sim(sc);
  const auto snap0 = sim.snapshot(0);
  const std::span<const int> body = sim.node_body();
  constexpr real_t kMargin = 0.12;
  LocalSearchOptions local;
  local.tolerance = 0.08;
  local.body_of_node = body;

  for (idx_t k : {idx_t{4}, idx_t{5}, idx_t{7}}) {
    MlRcbConfig config;
    config.k = k;
    MlRcbPartitioner p(snap0.mesh, snap0.surface, config);
    // The RCB update is stateful: advance through the snapshots in order.
    for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
      const auto snap = sim.snapshot(s);
      const Mesh& mesh = snap.mesh;
      const Surface& surface = snap.surface;
      p.update_contact_partition(mesh, surface);
      const std::vector<idx_t>& ids = p.contact_ids();
      const std::vector<idx_t>& labels = p.contact_labels();
      std::vector<idx_t> node_labels(
          static_cast<std::size_t>(mesh.num_nodes()), 0);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        node_labels[static_cast<std::size_t>(ids[i])] = labels[i];
      }
      const std::vector<idx_t> owner = face_owners(surface, node_labels, k);
      const BBoxFilter filter = p.make_bbox_filter(mesh);

      // faces_on[q]: processor q's own faces plus every face shipped to it.
      std::vector<std::vector<idx_t>> faces_on(static_cast<std::size_t>(k));
      wgt_t shipped = 0;
      std::vector<idx_t> parts;
      for (idx_t f = 0; f < surface.num_faces(); ++f) {
        const idx_t home = owner[static_cast<std::size_t>(f)];
        faces_on[static_cast<std::size_t>(home)].push_back(f);
        parts.clear();
        filter.query_box(
            face_bbox(mesh, surface.faces[static_cast<std::size_t>(f)],
                      kMargin),
            parts);
        for (idx_t q : parts) {
          if (q == home) continue;
          faces_on[static_cast<std::size_t>(q)].push_back(f);
          ++shipped;
        }
      }
      std::vector<std::vector<idx_t>> nodes_on(static_cast<std::size_t>(k));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        nodes_on[static_cast<std::size_t>(labels[i])].push_back(ids[i]);
      }
      std::vector<ContactEvent> merged;
      std::vector<ContactEvent> events;
      std::vector<FaceRecord> records;
      SubsetSearchScratch scratch;
      for (std::size_t q = 0; q < nodes_on.size(); ++q) {
        if (nodes_on[q].empty() || faces_on[q].empty()) continue;
        // Each held face as a record keyed by its face index.
        records.clear();
        for (idx_t f : faces_on[q]) {
          const SurfaceFace& face = surface.faces[static_cast<std::size_t>(f)];
          FaceRecord& rec = records.emplace_back();
          rec.key = f;
          rec.num_nodes = static_cast<std::int32_t>(face.nodes.size());
          for (std::size_t j = 0; j < face.nodes.size(); ++j) {
            rec.nodes[j] = face.nodes[j];
            rec.coords[j] = mesh.node(face.nodes[j]);
          }
        }
        std::vector<Vec3> node_positions;
        for (idx_t v : nodes_on[q]) node_positions.push_back(mesh.node(v));
        local_contact_search_records_into(nodes_on[q], node_positions,
                                          records, local, scratch, events);
        merged.insert(merged.end(), events.begin(), events.end());
      }
      std::sort(merged.begin(), merged.end(),
                [](const ContactEvent& a, const ContactEvent& b) {
                  if (a.node != b.node) return a.node < b.node;
                  return a.distance < b.distance;
                });

      const std::vector<ContactEvent> serial =
          local_contact_search(mesh, surface, local);
      if (s == 29) {
        EXPECT_GT(serial.size(), 0u) << "k=" << k;
      }
      ASSERT_EQ(merged.size(), serial.size()) << "k=" << k << " s=" << s;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(merged[i].node, serial[i].node) << "k=" << k << " s=" << s;
        EXPECT_EQ(merged[i].face, serial[i].face) << "k=" << k << " s=" << s;
        EXPECT_EQ(merged[i].distance, serial[i].distance)
            << "k=" << k << " s=" << s;
      }
      EXPECT_EQ(shipped,
                global_search_bbox(mesh, surface, owner, filter, kMargin)
                    .remote_sends)
          << "k=" << k << " s=" << s;
    }
  }
}

TEST(Apriori, PredictionFindsCrossBodyPairsOnly) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(2);  // projectile near the upper plate
  const std::span<const int> body = sim.node_body();
  const ContactPairs pairs =
      predict_contact_pairs(snap.mesh, snap.surface, body, 0.5);
  EXPECT_GT(pairs.size(), 0u);
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(body[static_cast<std::size_t>(a)],
              body[static_cast<std::size_t>(b)]);
    EXPECT_LE(norm(snap.mesh.node(a) - snap.mesh.node(b)), 0.5 + 1e-9);
  }
}

TEST(Apriori, PartitionColocatesPredictedPairs) {
  const ImpactSim sim(tiny_sim());
  const auto snap = sim.snapshot(2);
  const std::span<const int> body = sim.node_body();
  const ContactPairs pairs =
      predict_contact_pairs(snap.mesh, snap.surface, body, 0.6);
  ASSERT_GT(pairs.size(), 10u);
  AprioriConfig config;
  config.k = 4;
  config.contact_pair_weight = 20;
  const auto part =
      apriori_contact_partition(snap.mesh, snap.surface, pairs, config);
  const double with_pairs = colocated_pair_fraction(pairs, part);
  // Baseline: same partitioner without the artificial pair edges.
  const auto base =
      apriori_contact_partition(snap.mesh, snap.surface, {}, config);
  const double without = colocated_pair_fraction(pairs, base);
  EXPECT_GE(with_pairs + 0.05, without);  // never meaningfully worse
  EXPECT_GT(with_pairs, 0.5);             // most pairs co-located
}

TEST(Experiment, TinyRunProducesConsistentMetrics) {
  ExperimentConfig config;
  config.sim = tiny_sim();
  config.k = 4;
  config.snapshot_stride = 2;
  const ExperimentResult r = run_contact_experiment(config);
  EXPECT_EQ(r.k, 4);
  EXPECT_EQ(r.snapshots, 3);  // steps 0, 2, 4
  ASSERT_EQ(r.series.size(), 3u);
  // Structural invariants.
  for (const SnapshotMetrics& m : r.series) {
    EXPECT_GT(m.contact_nodes, 0);
    EXPECT_GT(m.dt_tree_nodes, 0);
    EXPECT_GE(m.dt_fe_comm, 0);
    EXPECT_GE(m.rcb_m2m, 0);
    EXPECT_LE(m.rcb_m2m, m.contact_nodes);
    EXPECT_GE(m.dt_imbalance_fe, 1.0);
    EXPECT_GE(m.rcb_imbalance_contact, 1.0);
  }
  EXPECT_EQ(r.series[0].rcb_upd, 0);  // no update on the first snapshot
  // MCML+DT has no decomposition-coupling cost.
  EXPECT_DOUBLE_EQ(r.mcml_dt.total_step_comm, r.mcml_dt.fe_comm);
  EXPECT_GT(r.ml_rcb.total_step_comm, r.ml_rcb.fe_comm);
}

TEST(Experiment, RepartitionPolicyMovesNodes) {
  ExperimentConfig config;
  config.sim = tiny_sim();
  config.k = 4;
  config.repartition_period = 2;
  const ExperimentResult r = run_contact_experiment(config);
  ASSERT_EQ(r.snapshots, 6);
  // DistributedSim repartitions on every second step it runs (steps 2 and
  // 4) and reports what the repartition moved; every other step keeps the
  // partition.
  for (const SnapshotMetrics& m : r.series) {
    if (m.step == 2 || m.step == 4) {
      EXPECT_GT(m.dt_repart_moved, 0) << "snapshot " << m.step;
    } else {
      EXPECT_EQ(m.dt_repart_moved, 0) << "snapshot " << m.step;
    }
  }
}

TEST(Experiment, RejectsBadConfig) {
  ExperimentConfig config;
  config.sim = tiny_sim();
  config.k = 0;
  EXPECT_THROW(run_contact_experiment(config), InputError);
  config.k = 2;
  config.snapshot_stride = 0;
  EXPECT_THROW(run_contact_experiment(config), InputError);
}

}  // namespace
}  // namespace cpart
