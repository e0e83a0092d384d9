#include "sim/impact_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mesh/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace cpart {

namespace {

real_t clamp01(real_t x) { return std::clamp<real_t>(x, 0, 1); }

/// Smoothstep ramp: 0 below a, 1 above b.
real_t ramp(real_t x, real_t a, real_t b) {
  const real_t t = clamp01((x - a) / (b - a));
  return t * t * (3 - 2 * t);
}

}  // namespace

void ImpactSimConfig::scale_resolution(double factor) {
  require(factor > 0, "scale_resolution: factor must be positive");
  const double lin = std::cbrt(factor);
  auto scale = [lin](idx_t v) {
    return std::max<idx_t>(2, static_cast<idx_t>(std::lround(v * lin)));
  };
  plate_cells_xy = scale(plate_cells_xy);
  plate_cells_z = scale(plate_cells_z);
  proj_cells_diameter = scale(proj_cells_diameter);
  proj_cells_z = scale(proj_cells_z);
}

ImpactSim::ImpactSim(const ImpactSimConfig& config)
    : config_(config), initial_(build_scene()), topo_(initial_) {
  erosion_height_.resize(static_cast<std::size_t>(initial_.num_elements()));
  for (idx_t e = 0; e < initial_.num_elements(); ++e) {
    const auto se = static_cast<std::size_t>(e);
    const Vec3 c = initial_.element_center(e);  // undeformed centroid
    // A plate element erodes once the nose has passed its centre while the
    // centre lies inside the (slightly inflated) projectile cross-section.
    // Under oblique incidence the axis sits at x = obliquity * descent when
    // the nose crosses the element's height — the eroded channel is a
    // tilted cylinder swept by the nose. The projectile deforms but never
    // erodes.
    const real_t axis_x = config_.obliquity * (nose_start_ - c.z);
    const bool in_channel =
        element_body_[se] != Body::kProjectile &&
        std::hypot(c.x - axis_x, c.y) <= 1.05 * config_.proj_radius;
    erosion_height_[se] =
        in_channel ? c.z : -std::numeric_limits<real_t>::infinity();
  }

  // Open faces: a face whose neighbour never erodes (erosion height -inf)
  // stays interior for every finite nose.
  const int fpe = topo_.faces_per_element();
  require(fpe <= 8, "ImpactSim: open-face mask holds at most 8 faces");
  open_faces_.assign(static_cast<std::size_t>(initial_.num_elements()), 0);
  for (idx_t e = 0; e < initial_.num_elements(); ++e) {
    unsigned open = 0;
    for (int lf = 0; lf < fpe; ++lf) {
      const idx_t nb = topo_.face_neighbor(e, lf);
      if (nb == kInvalidIndex ||
          std::isfinite(erosion_height_[static_cast<std::size_t>(nb)])) {
        open |= 1u << lf;
      }
    }
    open_faces_[static_cast<std::size_t>(e)] = static_cast<unsigned char>(open);
  }

  // Travel: the nose ends below the lower plate by 60% of its own length,
  // i.e. the projectile fully perforates both plates over the run.
  nose_end_ = plate2_bottom_ - 0.6 * config_.proj_length;
}

Mesh ImpactSim::build_scene() {
  const real_t w = config_.plate_width;
  const real_t t = config_.plate_thickness;
  const real_t gap = config_.plate_gap;

  plate1_top_ = 0;
  plate1_bottom_ = -t;
  plate2_top_ = -t - gap;
  plate2_bottom_ = -2 * t - gap;

  // Upper plate (body 1).
  Mesh mesh = make_hex_box(config_.plate_cells_xy, config_.plate_cells_xy,
                           config_.plate_cells_z, Vec3{-w / 2, -w / 2, plate1_bottom_},
                           Vec3{w, w, t});
  element_body_.assign(static_cast<std::size_t>(mesh.num_elements()),
                       Body::kUpperPlate);
  node_body_.assign(static_cast<std::size_t>(mesh.num_nodes()),
                    static_cast<int>(Body::kUpperPlate));

  // Lower plate (body 2).
  Mesh plate2 = make_hex_box(config_.plate_cells_xy, config_.plate_cells_xy,
                             config_.plate_cells_z,
                             Vec3{-w / 2, -w / 2, plate2_bottom_}, Vec3{w, w, t});
  mesh.append(plate2);
  element_body_.insert(element_body_.end(),
                       static_cast<std::size_t>(plate2.num_elements()),
                       Body::kLowerPlate);
  node_body_.insert(node_body_.end(),
                    static_cast<std::size_t>(plate2.num_nodes()),
                    static_cast<int>(Body::kLowerPlate));

  // Projectile (body 0), nose hovering just above the upper plate.
  nose_start_ = 0.15 * t;
  Mesh proj = make_hex_cylinder(config_.proj_radius, config_.proj_length,
                                Vec3{0, 0, nose_start_},
                                config_.proj_cells_diameter,
                                config_.proj_cells_z);
  mesh.append(proj);
  element_body_.insert(element_body_.end(),
                       static_cast<std::size_t>(proj.num_elements()),
                       Body::kProjectile);
  node_body_.insert(node_body_.end(),
                    static_cast<std::size_t>(proj.num_nodes()),
                    static_cast<int>(Body::kProjectile));

  return mesh;
}

std::size_t ImpactSim::heap_bytes() const {
  return initial_.heap_bytes() + topo_.heap_bytes() +
         element_body_.capacity() * sizeof(Body) +
         node_body_.capacity() * sizeof(int) +
         erosion_height_.capacity() * sizeof(real_t) + open_faces_.capacity();
}

real_t ImpactSim::nose_z(idx_t s) const {
  require(s >= 0 && s < config_.num_snapshots, "nose_z: step out of range");
  if (config_.num_snapshots == 1) return nose_start_;
  const real_t f = static_cast<real_t>(s) /
                   static_cast<real_t>(config_.num_snapshots - 1);
  return nose_start_ + f * (nose_end_ - nose_start_);
}

bool ImpactSim::element_eroded(idx_t element, real_t nose) const {
  return nose <= erosion_height_[static_cast<std::size_t>(element)];
}

Vec3 ImpactSim::displaced(idx_t node, real_t nose) const {
  const Vec3 p0 = initial_.node(node);
  const auto body =
      static_cast<Body>(node_body_[static_cast<std::size_t>(node)]);
  const real_t r = config_.proj_radius;

  const real_t drift = config_.obliquity * (nose_start_ - nose);
  if (body == Body::kProjectile) {
    // Rigid translation (down plus oblique drift) and nose mushrooming:
    // the leading quarter of the projectile bulges radially as penetration
    // progresses.
    Vec3 p = p0;
    p.z += nose - nose_start_;
    const real_t depth_frac =
        clamp01((nose_start_ - nose) / (nose_start_ - nose_end_));
    const real_t mushroom_zone = 0.25 * config_.proj_length;
    const real_t z_local = p0.z - nose_start_;  // 0 at the nose initially
    if (z_local < mushroom_zone) {
      const real_t s = 1.0 + 0.18 * depth_frac * (1.0 - z_local / mushroom_zone);
      p.x = p0.x * s;
      p.y = p0.y * s;
    }
    p.x += drift;
    return p;
  }

  // Plate node: bulge downward around the impact axis as the nose
  // approaches/passes the plate, and get pushed radially outward near the
  // hole. Both effects freeze once the nose has fully passed the plate
  // (plastic deformation).
  const real_t top = (body == Body::kUpperPlate) ? plate1_top_ : plate2_top_;
  const real_t bottom =
      (body == Body::kUpperPlate) ? plate1_bottom_ : plate2_bottom_;
  // Penetration progress through this plate: 0 before the nose reaches the
  // top, 1 once it has passed below the bottom by one plate thickness.
  const real_t progress =
      ramp(top - nose, 0, (top - bottom) + config_.plate_thickness);
  if (progress <= 0) return p0;

  // Crater centred where the (possibly oblique) axis crosses this plate.
  const real_t crater_x = config_.obliquity * (nose_start_ - top);
  const real_t rho = std::hypot(p0.x - crater_x, p0.y);
  Vec3 p = p0;
  // Downward bulge, Gaussian in radius, capped at 60% plate thickness.
  const real_t bulge = 0.6 * config_.plate_thickness * progress *
                       std::exp(-(rho * rho) / (2.5 * r * r));
  p.z -= bulge;
  // Radial push (crater lip) peaking near the hole radius, centred on the
  // crater.
  if (rho > 1e-9) {
    const real_t push =
        0.35 * r * progress * std::exp(-((rho - r) * (rho - r)) / (2.0 * r * r));
    const real_t scale = (rho + push) / rho;
    p.x = crater_x + (p0.x - crater_x) * scale;
    p.y = p0.y * scale;
  }
  return p;
}

bool ImpactSim::face_in_contact_zone(idx_t first_node,
                                     const Vec3& centroid) const {
  if (config_.contact_zone_factor <= 0) return true;
  if (node_body_[static_cast<std::size_t>(first_node)] ==
      static_cast<int>(Body::kProjectile)) {
    return true;
  }
  const real_t zone = config_.contact_zone_factor * config_.proj_radius;
  const real_t axis_x = config_.obliquity * (nose_start_ - centroid.z);
  return std::hypot(centroid.x - axis_x, centroid.y) <= zone;
}

void ImpactSim::snapshot_into(idx_t s, SnapshotWorkspace& ws,
                              Snapshot& out) const {
  const real_t nose = nose_z(s);
  out.step = s;
  out.nose_z = nose;

  // Deformed mesh: copy-assign reuses out.mesh's storage, then displace
  // every node in parallel (displaced() is a pure function of the node).
  out.mesh = initial_;
  const auto nodes = out.mesh.mutable_nodes();
  ThreadPool::global().parallel_for_chunks(
      out.mesh.num_nodes(), [&](unsigned, idx_t begin, idx_t end) {
        for (idx_t v = begin; v < end; ++v) {
          nodes[static_cast<std::size_t>(v)] = displaced(v, nose);
        }
      });

  // Erosion mask in parallel; the compaction itself stays serial.
  const idx_t ne = initial_.num_elements();
  ws.keep_elements.resize(static_cast<std::size_t>(ne));
  ThreadPool::global().parallel_for_chunks(
      ne, [&](unsigned, idx_t begin, idx_t end) {
        for (idx_t e = begin; e < end; ++e) {
          ws.keep_elements[static_cast<std::size_t>(e)] =
              element_eroded(e, nose) ? 0 : 1;
        }
      });
  out.eroded_elements = out.mesh.remove_elements(ws.keep_elements);

  // Contact surface. Face objects (and their node-vector capacity) are
  // reused up to the previous face count.
  Surface& surface = out.surface;
  surface.is_contact_node.assign(
      static_cast<std::size_t>(out.mesh.num_nodes()), 0);
  std::size_t nf = 0;
  idx_t live = 0;  // snapshot-mesh id of element e
  for (idx_t e = 0; e < ne; ++e) {
    for_each_contact_face(
        e, nose, initial_.element(e), out.mesh.nodes(),
        [&](int lf, const std::array<idx_t, 4>& ids,
            const std::array<idx_t, 4>&, int n) {
          if (nf == surface.faces.size()) surface.faces.emplace_back();
          SurfaceFace& sf = surface.faces[nf++];
          sf.element = live;
          sf.local_face = lf;
          sf.nodes.assign(ids.begin(), ids.begin() + n);
          for (int i = 0; i < n; ++i) {
            surface.is_contact_node[static_cast<std::size_t>(ids[i])] = 1;
          }
        });
    live += ws.keep_elements[static_cast<std::size_t>(e)];
  }
  surface.faces.resize(nf);
  surface.contact_nodes.clear();
  for (idx_t v = 0; v < out.mesh.num_nodes(); ++v) {
    if (surface.is_contact_node[static_cast<std::size_t>(v)]) {
      surface.contact_nodes.push_back(v);
    }
  }
}

ImpactSim::Snapshot ImpactSim::snapshot(idx_t s) const {
  SnapshotWorkspace ws;
  Snapshot snap;
  snapshot_into(s, ws, snap);
  return snap;
}

}  // namespace cpart
