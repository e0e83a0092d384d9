// Boundary-surface extraction and contact-node identification.
//
// A face that belongs to exactly one element is a boundary face; in
// contact/impact simulations the boundary faces are the *surface elements*
// searched for contact, and the nodes they touch are the *contact nodes*
// (paper Section 2 terminology). Erosion exposes interior faces, so the
// surface must be re-extracted per snapshot.
//
// extract_surface works on any mesh by counting face occurrences. The
// impact scenes do not call it per snapshot: ImpactSim scans the face
// neighbours of its MeshTopology instead (see sim/impact_sim.hpp), and
// extract_surface is the independent reference the tests compare that scan
// against.
#pragma once

#include <vector>

#include "mesh/mesh.hpp"

namespace cpart {

struct SurfaceFace {
  idx_t element = kInvalidIndex;  // owning element
  int local_face = -1;            // face index within the element
  std::vector<idx_t> nodes;       // global node ids of the face
};

struct Surface {
  std::vector<SurfaceFace> faces;
  /// Sorted unique node ids appearing on any boundary face.
  std::vector<idx_t> contact_nodes;
  /// Size num_nodes; 1 when the node is a contact node.
  std::vector<char> is_contact_node;

  idx_t num_faces() const { return to_idx(faces.size()); }
  idx_t num_contact_nodes() const { return to_idx(contact_nodes.size()); }
};

/// Extracts all boundary faces of the mesh (faces referenced by exactly one
/// element).
Surface extract_surface(const Mesh& mesh);

/// Bounding box of one surface face, inflated by `margin` (contact
/// tolerance).
BBox face_bbox(const Mesh& mesh, const SurfaceFace& face, real_t margin = 0);

}  // namespace cpart
