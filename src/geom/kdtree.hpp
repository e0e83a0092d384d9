// Static kd-tree over points: box (range) queries and nearest-neighbour
// lookup. Used by the local contact search to find the surface nodes near a
// surface element, and by the a-priori pair prediction.
#pragma once

#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "util/common.hpp"

namespace cpart {

class KdTree {
 public:
  KdTree() = default;

  /// Builds over a snapshot of `points` (copied indices, referenced
  /// coordinates must outlive the tree or be re-supplied to queries — the
  /// tree stores its own copy of the coordinates for safety).
  explicit KdTree(std::span<const Vec3> points, int dim = 3);

  idx_t size() const { return to_idx(points_.size()); }
  bool empty() const { return points_.empty(); }

  /// Appends the indices of every point inside `box` (closed intervals).
  void query_box(const BBox& box, std::vector<idx_t>& out) const;

  /// Index of the point nearest to `q` (ties broken by lower index);
  /// kInvalidIndex when empty.
  idx_t nearest(Vec3 q) const;

  /// Squared distance helper for callers that also want the metric.
  static real_t distance2(Vec3 a, Vec3 b) {
    const Vec3 d = a - b;
    return dot(d, d);
  }

 private:
  struct Node {
    int axis = -1;  // -1 for leaves
    real_t cut = 0;
    idx_t left = kInvalidIndex;
    idx_t right = kInvalidIndex;
    idx_t begin = 0, end = 0;  // leaf: range in ids_
    BBox bounds;
  };

  idx_t build(idx_t begin, idx_t end);
  void nearest_impl(idx_t node, Vec3 q, idx_t* best, real_t* best_d2) const;

  std::vector<Vec3> points_;
  std::vector<idx_t> ids_;  // permuted point indices
  std::vector<Node> nodes_;
  idx_t root_ = kInvalidIndex;
  int dim_ = 3;
  static constexpr idx_t kLeafSize = 12;
  // Capacity of query_box's fixed traversal stack (see query_box).
  static constexpr std::size_t kMaxStack = 64;
};

}  // namespace cpart
