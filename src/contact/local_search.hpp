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

#include "geom/kdtree.hpp"
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
/// kd-tree over face centroids to localize. Events are sorted by (node,
/// distance); with closest_only a tie in distance goes to the lower face
/// index.
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
/// owns one instance: the buffers grow to the rank's largest step and make
/// the steady-state per-step search allocation-light. Never share one
/// scratch between concurrently searching ranks.
struct SubsetSearchScratch {
  std::vector<Vec3> centroids;
  std::vector<idx_t> candidates;
  std::vector<std::array<Vec3, 3>> triangles;
};

/// Local search of `node_ids` against face records — what one rank
/// executes after global search delivered its faces — with
/// node_positions[i] the position of node_ids[i]. The record
/// triangulation and normal mirror face_triangles/face_normal, so the
/// arithmetic, exclusions, and (node, distance) ordering are those of
/// local_contact_search on the same faces; events carry record.key in
/// ContactEvent::face, and with closest_only a tie in distance goes to the
/// lower key. `opts.body_of_node` is indexed by global node id; with
/// it, each node queries per-body kd-trees of the *other* bodies' faces
/// only, so same-body faces are never generated as candidates.
void local_contact_search_records_into(std::span<const idx_t> node_ids,
                                       std::span<const Vec3> node_positions,
                                       int dim,
                                       std::span<const FaceRecord> faces,
                                       const LocalSearchOptions& opts,
                                       SubsetSearchScratch& scratch,
                                       std::vector<ContactEvent>& out);

}  // namespace cpart
