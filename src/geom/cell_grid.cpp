#include "geom/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace cpart {

void CellGrid::build(std::span<const Vec3> points, real_t edge) {
  require(edge > 0, "CellGrid: edge must be > 0");
  bounds_ = BBox{};
  for (const Vec3& p : points) bounds_.expand(p);
  const std::size_t n = points.size();

  // The finest grid with edge >= `edge` over the bounds and at most
  // kMaxCellsPerPoint cells per point. An axis without finite points has
  // extent 0; an infinite extent ends in one cell (the count turns NaN).
  const auto extent = [&](int a) {
    return std::max<real_t>(0, bounds_.extent(a));
  };
  const double max_cells =
      std::max(1.0, kMaxCellsPerPoint * static_cast<double>(n));
  const auto count_cells = [&](real_t e) {
    double cells = 1;
    for (int a = 0; a < 3; ++a) cells *= std::floor(extent(a) / e) + 1;
    return cells;
  };
  double cells = count_cells(edge);
  while (cells > max_cells && std::isfinite(edge)) {
    edge *= std::max(2.0, std::cbrt(cells / max_cells));
    cells = count_cells(edge);
  }
  dims_ = {1, 1, 1};
  inv_edge_ = 0;
  if (cells <= max_cells) {
    inv_edge_ = 1 / edge;
    for (int a = 0; a < 3; ++a) {
      dims_[static_cast<std::size_t>(a)] =
          static_cast<std::size_t>(extent(a) / edge) + 1;
    }
  }

  // Counting sort by cell. cell_start_[c] first counts cell c, then holds
  // its end, and the backward placement leaves it at its start, with the
  // points of a cell in ascending index.
  points_ = points;
  cell_start_.assign(num_cells() + 1, 0);
  for (const Vec3& p : points) ++cell_start_[cell_of(p)];
  std::partial_sum(cell_start_.begin(), cell_start_.end() - 1,
                   cell_start_.begin());
  cell_start_.back() = to_idx(n);
  ids_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    ids_[static_cast<std::size_t>(--cell_start_[cell_of(points[i])])] =
        static_cast<idx_t>(i);
  }
}

std::size_t CellGrid::cell_of(Vec3 p) const {
  return (cell_coord(2, p.z) * dims_[1] + cell_coord(1, p.y)) * dims_[0] +
         cell_coord(0, p.x);
}

std::size_t CellGrid::cell_coord(int axis, real_t x) const {
  const real_t t = (x - bounds_.lo[axis]) * inv_edge_;
  if (!(t > 0)) return 0;  // also NaN: such a point is inside no box
  const std::size_t last = dims_[static_cast<std::size_t>(axis)] - 1;
  return t < static_cast<real_t>(last) ? static_cast<std::size_t>(t) : last;
}

void CellGrid::query_box(const BBox& box, std::vector<idx_t>& out) const {
  if (ids_.empty() || !box.intersects(bounds_)) return;
  std::array<std::size_t, 3> lo{};
  std::array<std::size_t, 3> hi{};
  for (int a = 0; a < 3; ++a) {
    lo[static_cast<std::size_t>(a)] = cell_coord(a, box.lo[a]);
    hi[static_cast<std::size_t>(a)] = cell_coord(a, box.hi[a]);
  }
  // A run of x-cells is one contiguous range of ids_.
  for (std::size_t z = lo[2]; z <= hi[2]; ++z) {
    for (std::size_t y = lo[1]; y <= hi[1]; ++y) {
      const std::size_t row = (z * dims_[1] + y) * dims_[0];
      const auto end = static_cast<std::size_t>(cell_start_[row + hi[0] + 1]);
      for (auto k = static_cast<std::size_t>(cell_start_[row + lo[0]]);
           k < end; ++k) {
        const idx_t i = ids_[k];
        if (box.contains(points_[static_cast<std::size_t>(i)])) {
          out.push_back(i);
        }
      }
    }
  }
}

std::size_t CellGrid::heap_bytes() const {
  return (cell_start_.capacity() + ids_.capacity()) * sizeof(idx_t);
}

}  // namespace cpart
