// Finite-element mesh structures.
//
// A Mesh holds a fixed node array (ids stay stable for the lifetime of a
// simulation — partitions are defined on node ids and must survive element
// erosion) and a homogeneous list of elements (tri3/quad4 in 2D, tet4/hex8
// in 3D). Elements may be removed (erosion during penetration); nodes never
// are, so a node can become isolated.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geom/bbox.hpp"
#include "util/common.hpp"

namespace cpart {

enum class ElementType { kTri3, kQuad4, kTet4, kHex8 };

/// Nodes per element of the given type.
int nodes_per_element(ElementType type);
/// Spatial dimension (2 or 3) the element type lives in.
int element_dim(ElementType type);
/// Canonical lowercase name ("tri3", ...).
std::string element_type_name(ElementType type);
/// Inverse of element_type_name; throws InputError on unknown names.
ElementType element_type_from_name(const std::string& name);

/// Node index tuples of each (oriented) face of the reference element:
/// edges for 2D elements, triangle/quad faces for 3D ones.
std::span<const std::vector<int>> element_faces(ElementType type);

class Mesh {
 public:
  Mesh() = default;
  /// `elem_nodes` is num_elements * nodes_per_element(type) node ids.
  Mesh(ElementType type, std::vector<Vec3> nodes,
       std::vector<idx_t> elem_nodes);

  ElementType element_type() const { return type_; }
  int dim() const { return element_dim(type_); }
  idx_t num_nodes() const { return to_idx(nodes_.size()); }
  idx_t num_elements() const {
    return to_idx(elem_nodes_.size() /
                  static_cast<std::size_t>(nodes_per_element(type_)));
  }

  Vec3 node(idx_t i) const { return nodes_[static_cast<std::size_t>(i)]; }
  void set_node(idx_t i, Vec3 p) { nodes_[static_cast<std::size_t>(i)] = p; }
  std::span<const Vec3> nodes() const { return nodes_; }
  std::span<Vec3> mutable_nodes() { return nodes_; }

  std::span<const idx_t> element(idx_t e) const {
    const auto npe = static_cast<std::size_t>(nodes_per_element(type_));
    return {elem_nodes_.data() + static_cast<std::size_t>(e) * npe, npe};
  }

  /// The whole connectivity array: num_elements * npe node ids.
  std::span<const idx_t> element_nodes() const { return elem_nodes_; }

  /// Centroid of element e.
  Vec3 element_center(idx_t e) const;
  /// Bounding box of element e's nodes.
  BBox element_bbox(idx_t e) const;
  /// Bounding box of all nodes.
  BBox bounds() const;

  /// Removes the elements with keep[e] == 0; node array is untouched.
  /// Returns the number of removed elements.
  idx_t remove_elements(std::span<const char> keep);

  /// Appends another mesh of the same element type (distinct node set; the
  /// bodies are not stitched). Returns the node-id offset applied to `other`.
  idx_t append(const Mesh& other);

  /// Heap bytes of the node and connectivity arrays, by capacity.
  std::size_t heap_bytes() const {
    return nodes_.capacity() * sizeof(Vec3) +
           elem_nodes_.capacity() * sizeof(idx_t);
  }

 private:
  ElementType type_ = ElementType::kHex8;
  std::vector<Vec3> nodes_;
  std::vector<idx_t> elem_nodes_;
};

}  // namespace cpart
