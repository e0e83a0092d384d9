#include "mesh/mesh_topology.hpp"

#include <algorithm>

namespace cpart {

namespace {

/// One face occurrence for neighbor pairing: the sorted node tuple is the
/// conforming-mesh face identity (two elements share a face exactly when
/// they emit the same node set).
struct FaceEntry {
  std::array<idx_t, 4> sorted{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                              kInvalidIndex};
  idx_t element = kInvalidIndex;
  std::int32_t local_face = 0;
};

}  // namespace

MeshTopology::MeshTopology(const Mesh& mesh) : mesh_(&mesh) {
  const auto faces = element_faces(mesh.element_type());
  fpe_ = static_cast<int>(faces.size());
  npf_ = static_cast<int>(faces.front().size());
  const idx_t ne = mesh.num_elements();
  const idx_t nn = mesh.num_nodes();

  // Face neighbors: sort all (element, local_face) occurrences by their
  // sorted node tuple; adjacent equal tuples are the two sides of one
  // interior face.
  std::vector<FaceEntry> entries(static_cast<std::size_t>(ne) *
                                 static_cast<std::size_t>(fpe_));
  for (idx_t e = 0; e < ne; ++e) {
    const auto elem = mesh.element(e);
    for (int lf = 0; lf < fpe_; ++lf) {
      FaceEntry& fe = entries[static_cast<std::size_t>(e) *
                                  static_cast<std::size_t>(fpe_) +
                              static_cast<std::size_t>(lf)];
      fe.element = e;
      fe.local_face = lf;
      const auto& local = faces[static_cast<std::size_t>(lf)];
      for (std::size_t i = 0; i < local.size(); ++i) {
        fe.sorted[i] = elem[static_cast<std::size_t>(local[i])];
      }
      std::sort(fe.sorted.begin(),
                fe.sorted.begin() + static_cast<std::ptrdiff_t>(local.size()));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const FaceEntry& a, const FaceEntry& b) {
              if (a.sorted != b.sorted) return a.sorted < b.sorted;
              if (a.element != b.element) return a.element < b.element;
              return a.local_face < b.local_face;
            });
  face_neighbor_.assign(entries.size(), kInvalidIndex);
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    const FaceEntry& a = entries[i];
    const FaceEntry& b = entries[i + 1];
    if (a.sorted != b.sorted) continue;
    face_neighbor_[static_cast<std::size_t>(a.element) *
                       static_cast<std::size_t>(fpe_) +
                   static_cast<std::size_t>(a.local_face)] = b.element;
    face_neighbor_[static_cast<std::size_t>(b.element) *
                       static_cast<std::size_t>(fpe_) +
                   static_cast<std::size_t>(b.local_face)] = a.element;
  }

  // Node -> element incidence (CSR, elements ascending per node because the
  // fill loop runs in element order).
  elem_offsets_.assign(static_cast<std::size_t>(nn) + 1, 0);
  for (idx_t e = 0; e < ne; ++e) {
    for (idx_t v : mesh.element(e)) {
      ++elem_offsets_[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(nn); ++v) {
    elem_offsets_[v + 1] += elem_offsets_[v];
  }
  elem_incidence_.resize(static_cast<std::size_t>(elem_offsets_.back()));
  std::vector<idx_t> cursor(elem_offsets_.begin(), elem_offsets_.end() - 1);
  for (idx_t e = 0; e < ne; ++e) {
    for (idx_t v : mesh.element(e)) {
      elem_incidence_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(v)]++)] = e;
    }
  }
}

}  // namespace cpart
