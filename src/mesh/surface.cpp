#include "mesh/surface.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>

namespace cpart {

namespace {

/// Order-independent face key: sorted node ids packed into a 64-bit-ish
/// string key. Faces have at most 4 nodes.
struct FaceKey {
  std::array<idx_t, 4> ids{-1, -1, -1, -1};
  bool operator==(const FaceKey&) const = default;
};

struct FaceKeyHash {
  std::size_t operator()(const FaceKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (idx_t id : k.ids) {
      h ^= static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Key of the face whose nodes are elem[local[0]], elem[local[1]], ...
FaceKey make_key(std::span<const idx_t> elem, const std::vector<int>& local) {
  FaceKey k;
  require(local.size() <= k.ids.size(),
          "extract_surface: face has more than 4 nodes");
  for (std::size_t i = 0; i < local.size(); ++i) {
    k.ids[i] = elem[static_cast<std::size_t>(local[i])];
  }
  std::sort(k.ids.begin(),
            k.ids.begin() + static_cast<std::ptrdiff_t>(local.size()));
  return k;
}

}  // namespace

Surface extract_surface(const Mesh& mesh) {
  const auto faces = element_faces(mesh.element_type());
  // First pass: count occurrences of each face key.
  std::unordered_map<FaceKey, int, FaceKeyHash> count;
  count.reserve(static_cast<std::size_t>(mesh.num_elements()) * faces.size());
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const auto elem = mesh.element(e);
    for (const auto& face : faces) ++count[make_key(elem, face)];
  }
  // Second pass: collect faces seen exactly once.
  Surface surface;
  surface.is_contact_node.assign(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const auto elem = mesh.element(e);
    for (std::size_t f = 0; f < faces.size(); ++f) {
      if (count.at(make_key(elem, faces[f])) != 1) continue;
      SurfaceFace sf;
      sf.element = e;
      sf.local_face = static_cast<int>(f);
      for (int local : faces[f]) {
        const idx_t id = elem[static_cast<std::size_t>(local)];
        sf.nodes.push_back(id);
        surface.is_contact_node[static_cast<std::size_t>(id)] = 1;
      }
      surface.faces.push_back(std::move(sf));
    }
  }
  for (idx_t i = 0; i < mesh.num_nodes(); ++i) {
    if (surface.is_contact_node[static_cast<std::size_t>(i)]) {
      surface.contact_nodes.push_back(i);
    }
  }
  return surface;
}

BBox face_bbox(const Mesh& mesh, const SurfaceFace& face, real_t margin) {
  BBox box;
  for (idx_t id : face.nodes) box.expand(mesh.node(id));
  if (margin > 0) box.inflate(margin);
  return box;
}

}  // namespace cpart
