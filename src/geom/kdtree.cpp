#include "geom/kdtree.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <numeric>

namespace cpart {

KdTree::KdTree(std::span<const Vec3> points, int dim)
    : points_(points.begin(), points.end()), dim_(dim) {
  require(dim == 2 || dim == 3, "KdTree: dim must be 2 or 3");
  ids_.resize(points_.size());
  std::iota(ids_.begin(), ids_.end(), idx_t{0});
  if (!ids_.empty()) {
    nodes_.reserve(2 * points_.size() / kLeafSize + 4);
    root_ = build(0, to_idx(ids_.size()));
  }
}

idx_t KdTree::build(idx_t begin, idx_t end) {
  const idx_t id = to_idx(nodes_.size());
  nodes_.emplace_back();
  BBox bounds;
  for (idx_t i = begin; i < end; ++i) {
    bounds.expand(points_[static_cast<std::size_t>(
        ids_[static_cast<std::size_t>(i)])]);
  }
  nodes_[static_cast<std::size_t>(id)].bounds = bounds;
  nodes_[static_cast<std::size_t>(id)].begin = begin;
  nodes_[static_cast<std::size_t>(id)].end = end;
  const int axis = bounds.longest_axis(dim_);
  if (end - begin <= kLeafSize || bounds.extent(axis) <= 0) {
    return id;  // leaf
  }
  const idx_t mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid, ids_.begin() + end,
                   [&](idx_t a, idx_t b) {
                     return points_[static_cast<std::size_t>(a)][axis] <
                            points_[static_cast<std::size_t>(b)][axis];
                   });
  const real_t cut =
      points_[static_cast<std::size_t>(ids_[static_cast<std::size_t>(mid)])]
             [axis];
  const idx_t left = build(begin, mid);
  const idx_t right = build(mid, end);
  Node& node = nodes_[static_cast<std::size_t>(id)];
  node.axis = axis;
  node.cut = cut;
  node.left = left;
  node.right = right;
  return id;
}

void KdTree::query_box(const BBox& box, std::vector<idx_t>& out) const {
  if (empty() || box.empty()) return;
  // Median splits halve the range, so a root-to-leaf path has at most
  // ceil(log2(size)) <= 31 interior nodes, and the DFS stack never holds
  // more than one pending sibling per level plus two children: a fixed
  // array suffices and a query never allocates.
  std::array<idx_t, kMaxStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--top])];
    if (!box.intersects(node.bounds)) continue;
    if (node.axis < 0) {
      for (idx_t i = node.begin; i < node.end; ++i) {
        const idx_t p = ids_[static_cast<std::size_t>(i)];
        if (box.contains(points_[static_cast<std::size_t>(p)])) {
          out.push_back(p);
        }
      }
      continue;
    }
    assert(top + 2 <= stack.size());
    stack[top++] = node.left;
    stack[top++] = node.right;
  }
}

void KdTree::nearest_impl(idx_t node_id, Vec3 q, idx_t* best,
                          real_t* best_d2) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  // Prune by box distance.
  real_t box_d2 = 0;
  for (int a = 0; a < dim_; ++a) {
    const real_t lo = node.bounds.lo[a], hi = node.bounds.hi[a];
    const real_t d = q[a] < lo ? lo - q[a] : (q[a] > hi ? q[a] - hi : 0);
    box_d2 += d * d;
  }
  if (box_d2 > *best_d2) return;
  if (node.axis < 0) {
    for (idx_t i = node.begin; i < node.end; ++i) {
      const idx_t p = ids_[static_cast<std::size_t>(i)];
      const real_t d2 = distance2(q, points_[static_cast<std::size_t>(p)]);
      if (d2 < *best_d2 || (d2 == *best_d2 && p < *best)) {
        *best_d2 = d2;
        *best = p;
      }
    }
    return;
  }
  // Descend the nearer side first for tighter pruning.
  const bool left_first = q[node.axis] < node.cut;
  nearest_impl(left_first ? node.left : node.right, q, best, best_d2);
  nearest_impl(left_first ? node.right : node.left, q, best, best_d2);
}

idx_t KdTree::nearest(Vec3 q) const {
  if (empty()) return kInvalidIndex;
  idx_t best = kInvalidIndex;
  real_t best_d2 = std::numeric_limits<real_t>::max();
  nearest_impl(root_, q, &best, &best_d2);
  return best;
}

}  // namespace cpart
