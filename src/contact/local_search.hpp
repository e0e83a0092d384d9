// Local contact search (paper Section 2, second step of contact detection).
//
// The global search narrows the candidates; local search finds the actual
// node-to-surface proximities/penetrations. The paper leaves the local
// algorithm to the production code ("the exact details of the local search
// phase do not affect the approach used to perform the global search") —
// this module provides a standard node-to-face scheme so the library's
// contact pipeline runs end-to-end:
//   * every contact node is tested against nearby surface faces of *other*
//     bodies (or other elements, when body info is absent);
//   * faces are triangulated, the closest point on each triangle gives the
//     gap; a node within `tolerance` of a face is a contact event, and a
//     negative signed distance (behind the face's outward normal) marks
//     penetration.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/cell_grid.hpp"
#include "mesh/surface.hpp"

namespace cpart {

struct ContactEvent {
  idx_t node = kInvalidIndex;   // the impacting contact node
  idx_t face = kInvalidIndex;   // index into Surface::faces
  real_t distance = 0;          // unsigned gap (0 when on the face)
  real_t signed_distance = 0;   // negative: behind the face normal
  Vec3 closest_point{};         // closest point on the face
};

struct LocalSearchOptions {
  /// Proximity threshold: nodes within this distance of a face produce an
  /// event.
  real_t tolerance = 0.1;
  /// When non-empty (size num_nodes), contacts between a node and a face
  /// of the same body are ignored (standard self-contact exclusion).
  std::span<const int> body_of_node{};
  /// Keep only the closest face per node (default) or all faces in range.
  bool closest_only = true;
};

/// Closest point on triangle (a, b, c) to p (Ericson's algorithm).
Vec3 closest_point_on_triangle(Vec3 p, Vec3 a, Vec3 b, Vec3 c);

/// Outward-ish normal of a (possibly non-planar quad) face, averaged over
/// its triangulation. Not normalized when the face is degenerate.
Vec3 face_normal(const Mesh& mesh, const SurfaceFace& face);

/// Runs local search over all contact nodes vs all surface faces, using a
/// kd-tree over face centroids to localize: the serial oracle the rank
/// kernel is checked against. Events come in event_order; with
/// closest_only a tie in distance goes to the lower face index.
std::vector<ContactEvent> local_contact_search(
    const Mesh& mesh, const Surface& surface, const LocalSearchOptions& opts);

/// A self-contained surface-face record — what the rank-owned pipeline
/// ships and searches instead of indices into a central Surface. `key` is a
/// stable face id (element * faces_per_element + local_face, identical on
/// every rank that derives the face), and the node coordinates travel with
/// the record so the receiver needs no central mesh.
struct FaceRecord {
  idx_t key = kInvalidIndex;
  std::int32_t num_nodes = 0;
  std::array<idx_t, 4> nodes{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex};
  std::array<Vec3, 4> coords{};
};

/// Reusable buffers for local_contact_search_records_into. Each SPMD rank
/// owns one instance: the buffers grow to the rank's largest step, and a
/// steady-state search allocates nothing. Never share one scratch between
/// concurrently searching ranks.
struct SubsetSearchScratch {
  /// One body's faces (all faces without body info): positions [begin,
  /// end) of `order`, searched with reach tolerance + the group's largest
  /// face radius in grids[g] for group g.
  struct Group {
    int body = 0;
    real_t reach = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<idx_t> order;      // face indices, grouped by body
  std::vector<idx_t> order_tmp;  // grouping scratch (256+ bodies only)
  std::vector<Vec3> centroids;   // centroids[i]: of face order[i]
  std::vector<Group> groups;
  std::vector<CellGrid> grids;   // grids[g] indexes groups[g]; never shrinks
  std::vector<idx_t> candidates;
  std::vector<std::array<Vec3, 3>> triangles;

  std::size_t heap_bytes() const;
};

/// The deterministic event order every search reports: by node, then
/// distance, then face. It is total for one search (a node meets each face
/// once), so the order of the candidates never shows.
bool event_order(const ContactEvent& a, const ContactEvent& b);

/// Local search of `node_ids` against face records — what one rank
/// executes after global search delivered its faces — with
/// node_positions[i] the position of node_ids[i]. The record
/// triangulation and normal mirror face_triangles/face_normal, so the
/// arithmetic and exclusions are those of local_contact_search on the same
/// faces; events carry record.key in ContactEvent::face, come in
/// event_order, and with closest_only a tie in distance goes to the lower
/// key. The result does not depend on the order of `faces`.
/// `opts.body_of_node` is indexed by global node id; with it, the faces are
/// grouped by the body of their first node and each node queries the
/// CellGrid of every *other* body only, so same-body faces are never
/// generated as candidates. The groups and grids are rebuilt every call in
/// O(faces), in `scratch`.
void local_contact_search_records_into(std::span<const idx_t> node_ids,
                                       std::span<const Vec3> node_positions,
                                       std::span<const FaceRecord> faces,
                                       const LocalSearchOptions& opts,
                                       SubsetSearchScratch& scratch,
                                       std::vector<ContactEvent>& out);

}  // namespace cpart
