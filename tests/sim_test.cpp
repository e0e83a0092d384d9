// Tests for sim/: the synthetic impact sequence — determinism, stable node
// ids, monotone erosion, moving contact surface, configuration scaling.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "mesh/surface.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

ImpactSimConfig tiny_config() {
  ImpactSimConfig c;
  c.plate_cells_xy = 12;
  c.plate_cells_z = 2;
  c.proj_cells_diameter = 6;
  c.proj_cells_z = 6;
  c.num_snapshots = 10;
  return c;
}

TEST(ImpactSim, InitialMeshHasThreeBodies) {
  const ImpactSim sim(tiny_config());
  const Mesh& m = sim.initial_mesh();
  EXPECT_GT(m.num_nodes(), 0);
  std::set<int> bodies(sim.node_body().begin(), sim.node_body().end());
  EXPECT_EQ(bodies.size(), 3u);
  EXPECT_EQ(sim.element_body().size(),
            static_cast<std::size_t>(m.num_elements()));
  EXPECT_EQ(sim.node_body().size(), static_cast<std::size_t>(m.num_nodes()));
}

TEST(ImpactSim, NoseDescendsMonotonically) {
  const ImpactSim sim(tiny_config());
  for (idx_t s = 1; s < sim.num_snapshots(); ++s) {
    EXPECT_LT(sim.nose_z(s), sim.nose_z(s - 1));
  }
  // Starts above the upper plate, ends below the lower plate.
  EXPECT_GT(sim.nose_z(0), 0);
  EXPECT_LT(sim.nose_z(sim.num_snapshots() - 1), -2.0);
}

TEST(ImpactSim, SnapshotsAreDeterministic) {
  const ImpactSim sim(tiny_config());
  const auto a = sim.snapshot(5);
  const auto b = sim.snapshot(5);
  EXPECT_EQ(a.mesh.num_elements(), b.mesh.num_elements());
  for (idx_t i = 0; i < a.mesh.num_nodes(); ++i) {
    EXPECT_EQ(a.mesh.node(i), b.mesh.node(i));
  }
}

TEST(ImpactSim, NodeIdsStableAcrossSnapshots) {
  const ImpactSim sim(tiny_config());
  const auto first = sim.snapshot(0);
  const auto last = sim.snapshot(sim.num_snapshots() - 1);
  // Node count never changes; only elements disappear.
  EXPECT_EQ(first.mesh.num_nodes(), last.mesh.num_nodes());
  EXPECT_EQ(first.mesh.num_nodes(), sim.initial_mesh().num_nodes());
}

TEST(ImpactSim, ErosionMonotonicallyIncreases) {
  const ImpactSim sim(tiny_config());
  idx_t prev = 0;
  for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
    const idx_t eroded = sim.snapshot(s).eroded_elements;
    EXPECT_GE(eroded, prev);
    prev = eroded;
  }
  EXPECT_GT(prev, 0);  // the projectile does punch through
}

TEST(ImpactSim, ProjectileElementsNeverErode) {
  ImpactSimConfig c = tiny_config();
  const ImpactSim sim(c);
  idx_t proj_elems = 0;
  for (Body b : sim.element_body()) proj_elems += b == Body::kProjectile;
  const auto final = sim.snapshot(sim.num_snapshots() - 1);
  // All remaining elements = initial - eroded; projectile never shrinks.
  EXPECT_EQ(final.mesh.num_elements(),
            sim.initial_mesh().num_elements() - final.eroded_elements);
  EXPECT_GE(final.mesh.num_elements(), proj_elems);
}

/// The erosion rule in closed form, on the undeformed element centroid: a
/// plate element erodes once the nose is at or below its centre while the
/// centre lies within 1.05 proj_radius of the (possibly tilted) axis; the
/// projectile never erodes.
bool eroded_closed_form(const ImpactSim& sim, idx_t e, real_t nose) {
  if (sim.element_body()[static_cast<std::size_t>(e)] == Body::kProjectile) {
    return false;
  }
  const Vec3 c = sim.initial_mesh().element_center(e);
  const real_t axis_x = sim.config().obliquity * (sim.nose_z(0) - c.z);
  const real_t rho = std::hypot(c.x - axis_x, c.y);
  return rho <= 1.05 * sim.config().proj_radius && nose <= c.z;
}

TEST(ImpactSim, ElementErodedMatchesClosedFormRule) {
  for (const real_t obliquity : {0.0, 0.35}) {
    ImpactSimConfig c;
    c.scale_resolution(0.5);
    c.obliquity = obliquity;
    const ImpactSim sim(c);
    ASSERT_EQ(sim.num_snapshots(), 100);
    const idx_t ne = sim.initial_mesh().num_elements();
    idx_t eroded_at_end = 0;
    for (idx_t e = 0; e < ne; ++e) {
      for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
        const real_t nose = sim.nose_z(s);
        ASSERT_EQ(sim.element_eroded(e, nose), eroded_closed_form(sim, e, nose))
            << "obliquity " << obliquity << " element " << e << " step " << s;
      }
      // The boundary of the rule: a nose exactly at the centroid height.
      const real_t at = sim.initial_mesh().element_center(e).z;
      ASSERT_EQ(sim.element_eroded(e, at), eroded_closed_form(sim, e, at))
          << "obliquity " << obliquity << " element " << e << " nose == c.z";
      eroded_at_end += sim.element_eroded(
          e, sim.nose_z(sim.num_snapshots() - 1));
    }
    EXPECT_GT(eroded_at_end, 0) << "obliquity " << obliquity;
  }
}

/// The contact-zone rule in closed form, on a boundary face of a snapshot
/// mesh: a non-positive zone factor keeps every face; otherwise projectile
/// faces are kept, and a plate face is kept when its deformed centroid (sum
/// in face-node order, then times 1/n) lies within contact_zone_factor *
/// proj_radius of the (possibly tilted) axis at the centroid's height.
bool in_zone_closed_form(const ImpactSim& sim, const Mesh& mesh,
                         const SurfaceFace& face) {
  const ImpactSimConfig& c = sim.config();
  if (c.contact_zone_factor <= 0) return true;
  if (sim.node_body()[static_cast<std::size_t>(face.nodes.front())] ==
      static_cast<int>(Body::kProjectile)) {
    return true;
  }
  Vec3 centroid{};
  for (idx_t id : face.nodes) centroid = centroid + mesh.node(id);
  centroid = (1.0 / static_cast<real_t>(face.nodes.size())) * centroid;
  const real_t axis_x = c.obliquity * (sim.nose_z(0) - centroid.z);
  return std::hypot(centroid.x - axis_x, centroid.y) <=
         c.contact_zone_factor * c.proj_radius;
}

TEST(ImpactSim, SnapshotSurfaceMatchesClosedFormZoneRule) {
  ImpactSimConfig plain = tiny_config();
  plain.plate_cells_xy = 24;
  plain.num_snapshots = 40;
  ImpactSimConfig oblique = plain;
  oblique.obliquity = 0.3;
  ImpactSimConfig everything = plain;
  everything.contact_zone_factor = 0;
  for (const ImpactSimConfig& c : {plain, oblique, everything}) {
    const ImpactSim sim(c);
    idx_t dropped = 0;
    for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
      SCOPED_TRACE(testing::Message() << "obliquity " << c.obliquity
                                      << " zone " << c.contact_zone_factor
                                      << " step " << s);
      const ImpactSim::Snapshot snap = sim.snapshot(s);
      const Surface boundary = extract_surface(snap.mesh);
      std::vector<SurfaceFace> want;
      std::vector<char> is_contact(
          static_cast<std::size_t>(snap.mesh.num_nodes()), 0);
      for (const SurfaceFace& f : boundary.faces) {
        if (!in_zone_closed_form(sim, snap.mesh, f)) {
          ++dropped;
          continue;
        }
        want.push_back(f);
        for (idx_t id : f.nodes) is_contact[static_cast<std::size_t>(id)] = 1;
      }
      std::vector<idx_t> contact_nodes;
      for (idx_t v = 0; v < snap.mesh.num_nodes(); ++v) {
        if (is_contact[static_cast<std::size_t>(v)]) contact_nodes.push_back(v);
      }
      ASSERT_EQ(snap.surface.faces.size(), want.size());
      for (std::size_t f = 0; f < want.size(); ++f) {
        ASSERT_EQ(snap.surface.faces[f].element, want[f].element) << f;
        ASSERT_EQ(snap.surface.faces[f].local_face, want[f].local_face) << f;
        ASSERT_EQ(snap.surface.faces[f].nodes, want[f].nodes) << f;
      }
      EXPECT_EQ(snap.surface.contact_nodes, contact_nodes);
      EXPECT_EQ(snap.surface.is_contact_node, is_contact);
    }
    // The zone drops plate corners unless it is switched off.
    if (c.contact_zone_factor > 0) {
      EXPECT_GT(dropped, 0);
    } else {
      EXPECT_EQ(dropped, 0);
    }
  }
}

TEST(ImpactSim, OpenFaceMaskKeepsEveryFace) {
  // for_each_contact_face tests only the faces in each element's open-face
  // mask. A scan over every face of every element, with the rule in closed
  // form, must keep exactly the same faces in the same order.
  ImpactSimConfig plain = tiny_config();
  plain.plate_cells_xy = 24;
  plain.num_snapshots = 40;
  ImpactSimConfig oblique = plain;
  oblique.obliquity = 0.3;
  ImpactSimConfig everything = plain;
  everything.contact_zone_factor = 0;
  for (const ImpactSimConfig& c : {plain, oblique, everything}) {
    const ImpactSim sim(c);
    const Mesh& initial = sim.initial_mesh();
    const MeshTopology& topo = sim.topology();
    const auto faces = element_faces(initial.element_type());
    std::size_t kept = 0;
    for (idx_t s = 0; s < sim.num_snapshots(); ++s) {
      SCOPED_TRACE(testing::Message() << "obliquity " << c.obliquity
                                      << " zone " << c.contact_zone_factor
                                      << " step " << s);
      const real_t nose = sim.nose_z(s);
      const ImpactSim::Snapshot snap = sim.snapshot(s);
      std::vector<SurfaceFace> got;
      std::vector<SurfaceFace> want;
      for (idx_t e = 0; e < initial.num_elements(); ++e) {
        const auto elem = initial.element(e);
        sim.for_each_contact_face(
            e, nose, elem, snap.mesh.nodes(),
            [&](int lf, const std::array<idx_t, 4>& ids,
                const std::array<idx_t, 4>&, int nf) {
              got.push_back({e, lf, {ids.begin(), ids.begin() + nf}});
            });
        if (sim.element_eroded(e, nose)) continue;
        for (int lf = 0; lf < topo.faces_per_element(); ++lf) {
          const idx_t nb = topo.face_neighbor(e, lf);
          if (nb != kInvalidIndex && !sim.element_eroded(nb, nose)) continue;
          SurfaceFace face{e, lf, {}};
          for (int corner : faces[static_cast<std::size_t>(lf)]) {
            face.nodes.push_back(elem[static_cast<std::size_t>(corner)]);
          }
          if (in_zone_closed_form(sim, snap.mesh, face)) want.push_back(face);
        }
      }
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t f = 0; f < want.size(); ++f) {
        ASSERT_EQ(got[f].element, want[f].element) << f;
        ASSERT_EQ(got[f].local_face, want[f].local_face) << f;
        ASSERT_EQ(got[f].nodes, want[f].nodes) << f;
      }
      kept += got.size();
    }
    EXPECT_GT(kept, 0u);
  }
}

TEST(ImpactSim, ContactSurfaceEvolvesAndStaysInZone) {
  ImpactSimConfig c = tiny_config();
  c.contact_zone_factor = 2.0;
  const ImpactSim sim(c);
  const auto early = sim.snapshot(0);
  const auto late = sim.snapshot(sim.num_snapshots() - 1);
  EXPECT_GT(early.surface.num_contact_nodes(), 0);
  EXPECT_GT(late.surface.num_contact_nodes(), 0);
  // The node sets differ (erosion exposes new surface).
  EXPECT_NE(early.surface.contact_nodes, late.surface.contact_nodes);
}

TEST(ImpactSim, ZoneFactorControlsContactCount) {
  ImpactSimConfig narrow = tiny_config();
  narrow.contact_zone_factor = 1.5;
  ImpactSimConfig wide = tiny_config();
  wide.contact_zone_factor = -1;  // everything
  const auto n = ImpactSim(narrow).snapshot(0);
  const auto w = ImpactSim(wide).snapshot(0);
  EXPECT_LT(n.surface.num_contact_nodes(), w.surface.num_contact_nodes());
}

TEST(ImpactSim, PlateNodesDeformNearImpactOnly) {
  const ImpactSim sim(tiny_config());
  const Mesh mid = sim.snapshot(sim.num_snapshots() / 2).mesh;
  const Mesh& init = sim.initial_mesh();
  real_t max_near = 0, max_far = 0;
  for (idx_t v = 0; v < init.num_nodes(); ++v) {
    if (sim.node_body()[static_cast<std::size_t>(v)] ==
        static_cast<int>(Body::kProjectile)) {
      continue;
    }
    const Vec3 p0 = init.node(v);
    const real_t moved = norm(mid.node(v) - p0);
    const real_t rho = std::hypot(p0.x, p0.y);
    if (rho < 2.0) {
      max_near = std::max(max_near, moved);
    } else if (rho > 4.0) {
      max_far = std::max(max_far, moved);
    }
  }
  EXPECT_GT(max_near, 0.05);  // crater forms
  EXPECT_LT(max_far, 0.05);   // far field essentially rigid
}

TEST(ImpactSim, ScaleResolutionGrowsMesh) {
  ImpactSimConfig small = tiny_config();
  ImpactSimConfig big = tiny_config();
  big.scale_resolution(8.0);  // 2x linear
  EXPECT_EQ(big.plate_cells_xy, 2 * small.plate_cells_xy);
  const idx_t n_small = ImpactSim(small).initial_mesh().num_nodes();
  const idx_t n_big = ImpactSim(big).initial_mesh().num_nodes();
  EXPECT_GT(n_big, 4 * n_small);
}

TEST(ImpactSim, ObliqueImpactDriftsCrater) {
  ImpactSimConfig straight = tiny_config();
  ImpactSimConfig oblique = tiny_config();
  oblique.obliquity = 0.4;
  const ImpactSim sim_s(straight);
  const ImpactSim sim_o(oblique);
  // Both fully perforate; the oblique channel erodes at least as many
  // elements (it sweeps a longer path through each plate).
  const auto snap_s = sim_s.snapshot(sim_s.num_snapshots() - 1);
  const auto snap_o = sim_o.snapshot(sim_o.num_snapshots() - 1);
  EXPECT_GT(snap_s.eroded_elements, 0);
  EXPECT_GE(snap_o.eroded_elements, snap_s.eroded_elements);
  // The projectile ends displaced in +x for the oblique run.
  const Mesh& end_s = snap_s.mesh;
  const Mesh& end_o = snap_o.mesh;
  real_t mean_sx = 0, mean_ox = 0;
  idx_t count = 0;
  for (idx_t v = 0; v < end_s.num_nodes(); ++v) {
    if (sim_s.node_body()[static_cast<std::size_t>(v)] ==
        static_cast<int>(Body::kProjectile)) {
      mean_sx += end_s.node(v).x;
      mean_ox += end_o.node(v).x;
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(mean_ox / count, mean_sx / count + 0.5);
}

TEST(ImpactSim, ObliqueContactZoneFollowsAxis) {
  ImpactSimConfig c = tiny_config();
  c.obliquity = 0.5;
  c.contact_zone_factor = 2.0;
  const ImpactSim sim(c);
  const auto snap = sim.snapshot(sim.num_snapshots() - 1);
  EXPECT_GT(snap.surface.num_contact_nodes(), 0);
}

TEST(ImpactSim, StepOutOfRangeThrows) {
  const ImpactSim sim(tiny_config());
  EXPECT_THROW(sim.nose_z(-1), InputError);
  EXPECT_THROW(sim.nose_z(sim.num_snapshots()), InputError);
}

}  // namespace
}  // namespace cpart
