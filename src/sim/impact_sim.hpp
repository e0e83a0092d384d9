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
#pragma once

#include <vector>

#include "mesh/mesh.hpp"
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
};

/// Body id of an element or node: projectile, upper plate, lower plate.
enum class Body : int { kProjectile = 0, kUpperPlate = 1, kLowerPlate = 2 };

class ImpactSim {
 public:
  explicit ImpactSim(const ImpactSimConfig& config = {});

  idx_t num_snapshots() const { return config_.num_snapshots; }
  const ImpactSimConfig& config() const { return config_; }

  /// The undeformed, un-eroded mesh at step 0 (node ids of every snapshot
  /// refer to this node array).
  const Mesh& initial_mesh() const { return initial_; }

  /// Body of each initial-mesh element / node.
  const std::vector<Body>& element_body() const { return element_body_; }
  const std::vector<Body>& node_body() const { return node_body_; }

  /// Projectile nose z-coordinate at step s.
  real_t nose_z(idx_t s) const;

  struct Snapshot {
    idx_t step = 0;
    Mesh mesh;        // deformed nodes, eroded elements removed
    Surface surface;  // current boundary faces and contact nodes
    real_t nose_z = 0;
    idx_t eroded_elements = 0;
  };

  /// Generates snapshot s in [0, num_snapshots).
  Snapshot snapshot(idx_t s) const;

  /// Generates only the deformed/eroded mesh of snapshot s (cheaper when
  /// the surface is not needed).
  Mesh snapshot_mesh(idx_t s, idx_t* eroded = nullptr) const;

  /// Reusable cross-snapshot scratch for snapshot_into. Buffers grow to
  /// the mesh size on first use and are reused afterwards.
  struct SnapshotWorkspace {
    SurfaceWorkspace surface_ws;
    Surface raw_surface;  // pre-contact-zone boundary surface
    std::vector<char> keep_elements;
    std::vector<char> keep_faces;
  };

  /// snapshot() writing into `out` (mesh/surface storage reused) with all
  /// scratch drawn from `ws`. The displacement, erosion, and contact-zone
  /// loops run in parallel over ThreadPool chunks; each is a pure function
  /// of its element, so the result is identical to snapshot(s) at any
  /// thread count.
  void snapshot_into(idx_t s, SnapshotWorkspace& ws, Snapshot& out) const;

  // Closed-form per-entity kinematics, public so a rank-owned distributed
  // state can advance exactly the nodes/elements it owns (each is a pure
  // function of (entity, nose) — the per-rank update is embarrassingly
  // parallel and bit-identical to the central snapshot).

  /// Deformed position of `node` (initial-mesh id) at nose height `nose`.
  Vec3 displaced(idx_t node, real_t nose) const;
  /// Whether initial-mesh element `element` has eroded at `nose`.
  bool element_eroded(idx_t element, real_t nose) const;
  /// The contact-zone designation predicate on one boundary face, given its
  /// first node (body lookup) and its *deformed* centroid — exactly the
  /// keep-test snapshot()/snapshot_into() apply per face.
  bool face_in_contact_zone(idx_t first_node, const Vec3& centroid) const;

 private:
  ImpactSimConfig config_;
  Mesh initial_;
  std::vector<Body> element_body_;
  std::vector<Body> node_body_;
  // Nose height at or below which each element is eroded: its undeformed
  // centroid z inside the erosion channel, -inf (never, for any finite
  // nose) outside it and for projectile elements.
  std::vector<real_t> erosion_height_;
  real_t nose_start_ = 0;
  real_t nose_end_ = 0;
  real_t plate1_top_ = 0, plate1_bottom_ = 0;
  real_t plate2_top_ = 0, plate2_bottom_ = 0;
};

}  // namespace cpart
