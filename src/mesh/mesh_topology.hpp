// Immutable topology index of a mesh — the fixed substrate of every
// contact-surface derivation and of the rank-owned distributed state.
//
// Surface extraction needs adjacency that is stable across erosion and
// ownership migration. MeshTopology indexes the *initial* mesh once —
// face-to-face neighbors (an interior face knows the element on its other
// side) and node-to-element incidence — and never changes afterwards;
// erosion is a per-step predicate over elements, ownership a label array
// over nodes. A face of a live element is on the boundary when its neighbor
// is missing or eroded, so ImpactSim (which owns the topology of its
// initial mesh) derives each snapshot's surface, and each rank its local
// share, by scanning face_neighbor instead of hashing faces again. Face
// identity is the stable key element * faces_per_element + local_face,
// identical on every rank that derives the face, which is what lets shipped
// face records match up without a central face numbering.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"

namespace cpart {

class MeshTopology {
 public:
  /// Indexes `mesh` (non-owning: the mesh must outlive the topology and
  /// must not change elements afterwards — use the initial, un-eroded mesh).
  explicit MeshTopology(const Mesh& mesh);

  const Mesh& mesh() const { return *mesh_; }
  idx_t num_nodes() const { return mesh_->num_nodes(); }
  idx_t num_elements() const { return mesh_->num_elements(); }
  int faces_per_element() const { return fpe_; }
  int nodes_per_face() const { return npf_; }

  /// The element sharing face (e, lf), or kInvalidIndex on the boundary.
  idx_t face_neighbor(idx_t e, int lf) const {
    return face_neighbor_[static_cast<std::size_t>(e) *
                              static_cast<std::size_t>(fpe_) +
                          static_cast<std::size_t>(lf)];
  }

  /// Stable global id of face (e, lf).
  idx_t face_key(idx_t e, int lf) const {
    return e * static_cast<idx_t>(fpe_) + static_cast<idx_t>(lf);
  }

  /// Elements incident to node v, ascending element id.
  std::span<const idx_t> elements_of(idx_t v) const {
    const auto b = static_cast<std::size_t>(
        elem_offsets_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(
        elem_offsets_[static_cast<std::size_t>(v) + 1]);
    return {elem_incidence_.data() + b, e - b};
  }

  /// Heap bytes of the neighbour and incidence arrays, by capacity.
  std::size_t heap_bytes() const {
    return (face_neighbor_.capacity() + elem_offsets_.capacity() +
            elem_incidence_.capacity()) *
           sizeof(idx_t);
  }

 private:
  const Mesh* mesh_;
  int fpe_ = 0;
  int npf_ = 0;
  std::vector<idx_t> face_neighbor_;   // num_elements * fpe
  std::vector<idx_t> elem_offsets_;    // num_nodes + 1 (CSR)
  std::vector<idx_t> elem_incidence_;
};

}  // namespace cpart
