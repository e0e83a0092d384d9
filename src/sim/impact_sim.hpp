// Synthetic contact/impact simulation substrate.
//
// The paper's evaluation uses 100 snapshots of an EPIC run of a projectile
// penetrating two plates (proprietary dataset). This module reproduces the
// *geometry class* of that sequence with a closed-form kinematic model: a
// cylindrical hex-mesh projectile travels down through two square plates;
// plate elements in the projectile's path erode (are removed, exposing new
// contact surface), plate nodes bulge and are pushed radially as the nose
// passes, and the projectile nose mushrooms. Every snapshot is a pure
// function of the step index, so snapshots can be generated independently
// and in parallel; node ids are stable across the whole sequence (only
// elements disappear), which is what lets a fixed nodal partition be reused
// across snapshots exactly as the paper's update strategy does.
//
// ImpactSim owns the one contact-surface rule: a face of a live element is
// kept when its MeshTopology neighbour is missing or eroded and the face
// lies in the contact zone. A static open-face mask, built once, names the
// faces whose neighbour is missing or can ever erode — the only ones the
// rule can keep. for_each_contact_face applies the rule per element over
// the mask;
// snapshot_into and the rank programs of DistributedSim both call it, so
// the central snapshot and the distributed step keep the same faces.
//
// An ImpactSim is immutable once built and has no mutable members, so any
// number of threads and DistributedSims may read one scene at once; the
// service builds one per distinct ImpactSimConfig and shares it.
#pragma once

#include <array>
#include <bit>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/mesh_topology.hpp"
#include "mesh/surface.hpp"

namespace cpart {

struct ImpactSimConfig {
  // Geometry (arbitrary consistent units).
  real_t plate_width = 10.0;      // x/y extent of both square plates
  real_t plate_thickness = 0.8;
  real_t plate_gap = 1.6;         // vertical clearance between the plates
  real_t proj_radius = 1.1;
  real_t proj_length = 3.2;
  // Resolution. Defaults give ~27k nodes — large enough that 100-way
  // decompositions are meaningful, small enough for CI-time benches;
  // scale_resolution(6) approaches the published EPIC mesh magnitude.
  idx_t plate_cells_xy = 48;      // cells along x and y of each plate
  idx_t plate_cells_z = 4;        // cells through each plate's thickness
  idx_t proj_cells_diameter = 12; // cells across the projectile diameter
  idx_t proj_cells_z = 14;        // cells along the projectile length
  // Time stepping.
  idx_t num_snapshots = 100;
  /// Contact-surface designation radius, in units of proj_radius: boundary
  /// faces of the plates are flagged as contact surfaces only within this
  /// distance of the impact axis (the projectile's surface always is).
  /// Non-positive flags every boundary face. This models the application
  /// supplying the contact-surface set, and keeps the contact-node fraction
  /// in the published mesh's regime (~13%) instead of the whole boundary.
  real_t contact_zone_factor = 4.3;

  /// Oblique impact: the projectile axis drifts sideways by this many
  /// x-units per unit of descent (0 = normal incidence). Oblique runs move
  /// the crater across the plates, stressing the incremental-RCB update
  /// (UpdComm) and the per-snapshot descriptor rebuilds.
  real_t obliquity = 0.0;

  /// Scales the resolution so total node counts approach the published
  /// EPIC mesh magnitude (~156k nodes). Factor 1 keeps the defaults.
  void scale_resolution(double factor);

  /// Every field is part of a scene's identity: equal configs build
  /// identical scenes (SessionManager shares one per config).
  bool operator==(const ImpactSimConfig&) const = default;
};

/// Body id of an element or node: projectile, upper plate, lower plate.
enum class Body : int { kProjectile = 0, kUpperPlate = 1, kLowerPlate = 2 };

class ImpactSim {
 public:
  explicit ImpactSim(const ImpactSimConfig& config = {});
  // The topology points into initial_, so the sim stays where it was built.
  ImpactSim(const ImpactSim&) = delete;
  ImpactSim& operator=(const ImpactSim&) = delete;

  idx_t num_snapshots() const { return config_.num_snapshots; }
  const ImpactSimConfig& config() const { return config_; }

  /// The undeformed, un-eroded mesh at step 0 (node ids of every snapshot
  /// refer to this node array).
  const Mesh& initial_mesh() const { return initial_; }

  /// Face neighbours and node incidence of the initial mesh.
  const MeshTopology& topology() const { return topo_; }

  /// Body of each initial-mesh element.
  const std::vector<Body>& element_body() const { return element_body_; }
  /// Body of each initial-mesh node, as the int value of its Body: the
  /// array local search's same-body exclusion reads
  /// (LocalSearchOptions::body_of_node), held once per scene.
  std::span<const int> node_body() const { return node_body_; }

  /// Heap bytes the scene holds, by capacity: the initial mesh, its
  /// topology, the body arrays, erosion heights and open-face mask.
  std::size_t heap_bytes() const;

  /// Projectile nose z-coordinate at step s.
  real_t nose_z(idx_t s) const;

  struct Snapshot {
    idx_t step = 0;
    Mesh mesh;        // deformed nodes, eroded elements removed
    Surface surface;  // current boundary faces and contact nodes
    real_t nose_z = 0;
    idx_t eroded_elements = 0;
  };

  /// Generates snapshot s in [0, num_snapshots): snapshot_into() on a
  /// fresh workspace.
  Snapshot snapshot(idx_t s) const;

  /// Reusable cross-snapshot scratch for snapshot_into. Buffers grow to
  /// the mesh size on first use and are reused afterwards.
  struct SnapshotWorkspace {
    std::vector<char> keep_elements;
  };

  /// snapshot() writing into `out` (mesh/surface storage reused) with all
  /// scratch drawn from `ws`. The displacement and erosion loops run in
  /// parallel over ThreadPool chunks and each is a pure function of its
  /// entity, so the result is the same at any thread count. The surface is
  /// every for_each_contact_face() face in ascending initial-element
  /// order, its element renumbered by the count of live elements before it
  /// — the numbering Mesh::remove_elements gives the snapshot mesh.
  void snapshot_into(idx_t s, SnapshotWorkspace& ws, Snapshot& out) const;

  /// The kept-face rule. Calls fn(lf, ids, at, nf) for every face lf of
  /// initial-mesh element `e` that is kept at nose height `nose`: `e` is
  /// not eroded, the face's neighbour is missing or eroded, and the face
  /// is in the contact zone. ids[0..nf) are the face's global node ids in
  /// element_faces() order and at[0..nf) their indices into `positions`:
  /// `slots[i]` is the index of element e's i-th node (Mesh::element
  /// order) — the element's own node ids when `positions` is indexed by
  /// global id, a rank's local ids when it holds a rank's local set.
  /// `positions` holds the deformed position of at least those nodes (the
  /// zone test uses the face centroid: the sum in face-node order, then
  /// times 1/nf). Only the faces in e's open-face mask are tested, in
  /// ascending lf; the others have a neighbour that never erodes, so the
  /// rule can never keep them.
  template <typename Fn>
  void for_each_contact_face(idx_t e, real_t nose,
                             std::span<const idx_t> slots,
                             std::span<const Vec3> positions, Fn&& fn) const {
    const unsigned open = open_faces_[static_cast<std::size_t>(e)];
    if (open == 0 || element_eroded(e, nose)) return;
    const auto faces = element_faces(initial_.element_type());
    const auto elem = initial_.element(e);
    std::array<idx_t, 4> ids;
    std::array<idx_t, 4> at;
    for (unsigned bits = open; bits != 0; bits &= bits - 1) {
      const int lf = std::countr_zero(bits);
      const idx_t nb = topo_.face_neighbor(e, lf);
      if (nb != kInvalidIndex && !element_eroded(nb, nose)) continue;
      const auto& corners = faces[static_cast<std::size_t>(lf)];
      const int nf = static_cast<int>(corners.size());
      Vec3 c{};
      for (int i = 0; i < nf; ++i) {
        const auto corner = static_cast<std::size_t>(corners[i]);
        ids[i] = elem[corner];
        at[i] = slots[corner];
        c = c + positions[static_cast<std::size_t>(at[i])];
      }
      c = (1.0 / static_cast<real_t>(nf)) * c;
      if (!face_in_contact_zone(ids[0], c)) continue;
      fn(lf, ids, at, nf);
    }
  }

  // Closed-form per-entity kinematics, public so a rank-owned distributed
  // state can advance exactly the nodes/elements it owns (each is a pure
  // function of (entity, nose) — the per-rank update is embarrassingly
  // parallel and bit-identical to the central snapshot).

  /// Deformed position of `node` (initial-mesh id) at nose height `nose`.
  Vec3 displaced(idx_t node, real_t nose) const;
  /// Whether initial-mesh element `element` has eroded at `nose`.
  bool element_eroded(idx_t element, real_t nose) const;

 private:
  /// Builds the two plates and the projectile, filling the body arrays and
  /// the plate and nose heights; returns the initial mesh.
  Mesh build_scene();
  /// The contact-zone designation on one boundary face, given its first
  /// node (body lookup) and its *deformed* centroid: the projectile's
  /// surface plus plate faces near the (possibly oblique) impact axis.
  bool face_in_contact_zone(idx_t first_node, const Vec3& centroid) const;

  // build_scene() fills the members up to initial_, which the initializer
  // list constructs before topo_; keep this declaration order.
  ImpactSimConfig config_;
  std::vector<Body> element_body_;
  std::vector<int> node_body_;
  real_t nose_start_ = 0;
  real_t nose_end_ = 0;
  real_t plate1_top_ = 0, plate1_bottom_ = 0;
  real_t plate2_top_ = 0, plate2_bottom_ = 0;
  Mesh initial_;
  MeshTopology topo_;
  // Nose height at or below which each element is eroded: its undeformed
  // centroid z inside the erosion channel, -inf (never, for any finite
  // nose) outside it and for projectile elements.
  std::vector<real_t> erosion_height_;
  // Open-face mask of each element: bit lf is set when face lf's neighbour
  // is missing or can erode (finite erosion height). Built once from the
  // topology and the erosion heights; for_each_contact_face tests only
  // these faces.
  std::vector<unsigned char> open_faces_;
};

}  // namespace cpart
