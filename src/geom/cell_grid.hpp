// Uniform cell grid over points: closed-box queries at a cost linear in
// the build. Used by the rank local search, which indexes each body's face
// centroids anew every step: a counting sort by cell costs O(points +
// cells), where a kd-tree costs O(points log points) per build.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "util/common.hpp"

namespace cpart {

class CellGrid {
 public:
  /// The grid has at most this many cells per point (and at least one
  /// cell): the edge grows past the requested one until it fits.
  static constexpr double kMaxCellsPerPoint = 1;

  /// Rebuilds the grid over `points` with cubic cells of edge >= `edge` >
  /// 0. The grid keeps a view of `points`: they must stay unchanged while
  /// it is queried. Reuses this grid's buffers, so a rebuild of a similar
  /// size allocates nothing.
  void build(std::span<const Vec3> points, real_t edge);

  /// Appends the index of every point inside `box` (closed intervals on
  /// all three axes, like KdTree::query_box), in cell order. Visits only
  /// the cells the box overlaps.
  void query_box(const BBox& box, std::vector<idx_t>& out) const;

  /// Number of cells (1 for an empty or single-point grid).
  std::size_t num_cells() const { return dims_[0] * dims_[1] * dims_[2]; }
  std::size_t heap_bytes() const;

 private:
  /// Cell coordinate of `x` on `axis`, clamped into the grid. Monotone in
  /// `x`, so a point inside a box lies in a cell between the box corners'.
  std::size_t cell_coord(int axis, real_t x) const;
  std::size_t cell_of(Vec3 p) const;

  BBox bounds_;
  real_t inv_edge_ = 0;
  std::array<std::size_t, 3> dims_{1, 1, 1};
  std::span<const Vec3> points_;
  std::vector<idx_t> cell_start_;  // num_cells() + 1 offsets into ids_
  std::vector<idx_t> ids_;         // point indices, grouped by cell
};

}  // namespace cpart
