#include "mesh/surface.hpp"

#include <algorithm>
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

namespace {

/// Next face slot of `out`, reusing existing SurfaceFace objects (and their
/// node-vector capacity) up to the previous face count.
SurfaceFace& next_face(Surface& out, std::size_t& nf) {
  if (nf == out.faces.size()) out.faces.emplace_back();
  return out.faces[nf++];
}

void finish_contact_nodes(Surface& out, idx_t num_nodes) {
  out.contact_nodes.clear();
  for (idx_t i = 0; i < num_nodes; ++i) {
    if (out.is_contact_node[static_cast<std::size_t>(i)]) {
      out.contact_nodes.push_back(i);
    }
  }
}

}  // namespace

void extract_surface_into(const Mesh& mesh, SurfaceWorkspace& ws,
                          Surface& out) {
  const auto faces = element_faces(mesh.element_type());
  const std::size_t instances =
      static_cast<std::size_t>(mesh.num_elements()) * faces.size();
  // Table capacity: power of two, load factor <= 0.5. Never shrinks, so the
  // probe mask must come from the actual table size, not this call's need.
  std::size_t cap = 64;
  while (cap < 2 * instances) cap <<= 1;
  if (ws.keys_.size() < cap) {
    ws.keys_.resize(cap);
    ws.counts_.resize(cap);
  }
  const std::size_t mask = ws.keys_.size() - 1;
  std::fill(ws.counts_.begin(), ws.counts_.end(), 0);
  ws.slots_.resize(instances);

  // First pass: count occurrences of each face key, memoizing each
  // instance's table slot.
  std::size_t inst = 0;
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const auto elem = mesh.element(e);
    for (const auto& face : faces) {
      const FaceKey key = make_key(elem, face);
      std::size_t slot = FaceKeyHash{}(key)&mask;
      while (ws.counts_[slot] != 0 && ws.keys_[slot] != key.ids) {
        slot = (slot + 1) & mask;
      }
      if (ws.counts_[slot] == 0) ws.keys_[slot] = key.ids;
      ++ws.counts_[slot];
      ws.slots_[inst++] = static_cast<std::uint32_t>(slot);
    }
  }

  // Second pass: collect faces seen exactly once, in (element, face) order —
  // the same order extract_surface produces.
  out.is_contact_node.assign(static_cast<std::size_t>(mesh.num_nodes()), 0);
  std::size_t nf = 0;
  inst = 0;
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const auto elem = mesh.element(e);
    for (std::size_t f = 0; f < faces.size(); ++f) {
      const std::size_t slot = ws.slots_[inst++];
      if (ws.counts_[slot] != 1) continue;
      SurfaceFace& sf = next_face(out, nf);
      sf.element = e;
      sf.local_face = static_cast<int>(f);
      sf.nodes.clear();
      for (int local : faces[f]) {
        const idx_t id = elem[static_cast<std::size_t>(local)];
        sf.nodes.push_back(id);
        out.is_contact_node[static_cast<std::size_t>(id)] = 1;
      }
    }
  }
  out.faces.resize(nf);
  finish_contact_nodes(out, mesh.num_nodes());
}

Surface filter_surface(const Surface& surface, std::span<const char> keep,
                       idx_t num_nodes) {
  require(keep.size() == surface.faces.size(),
          "filter_surface: mask size mismatch");
  Surface out;
  out.is_contact_node.assign(static_cast<std::size_t>(num_nodes), 0);
  for (std::size_t f = 0; f < surface.faces.size(); ++f) {
    if (!keep[f]) continue;
    out.faces.push_back(surface.faces[f]);
    for (idx_t id : surface.faces[f].nodes) {
      out.is_contact_node[static_cast<std::size_t>(id)] = 1;
    }
  }
  for (idx_t i = 0; i < num_nodes; ++i) {
    if (out.is_contact_node[static_cast<std::size_t>(i)]) {
      out.contact_nodes.push_back(i);
    }
  }
  return out;
}

void filter_surface_into(const Surface& surface, std::span<const char> keep,
                         idx_t num_nodes, Surface& out) {
  require(keep.size() == surface.faces.size(),
          "filter_surface_into: mask size mismatch");
  require(&out != &surface, "filter_surface_into: out aliases input");
  out.is_contact_node.assign(static_cast<std::size_t>(num_nodes), 0);
  std::size_t nf = 0;
  for (std::size_t f = 0; f < surface.faces.size(); ++f) {
    if (!keep[f]) continue;
    const SurfaceFace& in = surface.faces[f];
    SurfaceFace& sf = next_face(out, nf);
    sf.element = in.element;
    sf.local_face = in.local_face;
    sf.nodes.assign(in.nodes.begin(), in.nodes.end());
    for (idx_t id : in.nodes) {
      out.is_contact_node[static_cast<std::size_t>(id)] = 1;
    }
  }
  out.faces.resize(nf);
  finish_contact_nodes(out, num_nodes);
}

BBox face_bbox(const Mesh& mesh, const SurfaceFace& face, real_t margin) {
  BBox box;
  for (idx_t id : face.nodes) box.expand(mesh.node(id));
  if (margin > 0) box.inflate(margin);
  return box;
}

}  // namespace cpart
