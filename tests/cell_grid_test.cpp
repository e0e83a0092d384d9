// Tests for geom/cell_grid: closed-box queries against brute-force
// containment (exact set equality) on random, clustered, coincident,
// flat, single, empty, negative-coordinate and cell-capped point sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "geom/cell_grid.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

BBox box_around(Vec3 c, real_t r) {
  BBox box;
  box.expand(c);
  box.inflate(r);
  return box;
}

/// Asserts query_box(box) returns exactly the points inside the closed
/// `box`, each once.
void expect_box_matches_brute_force(const CellGrid& grid,
                                    const std::vector<Vec3>& pts,
                                    const BBox& box, const std::string& what) {
  std::vector<idx_t> got;
  grid.query_box(box, got);
  std::vector<idx_t> want;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (box.contains(pts[i])) want.push_back(to_idx(i));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << what;
}

/// Builds a grid over `pts` with cell edge `edge`, checks the cell cap, and
/// runs `trials` seeded boxes: around random points of the bounding box
/// (grown by 2 * edge on every side) with a random radius up to 2 * edge,
/// and around each sampled point with radius exactly `edge` (the local
/// search's own query), whose faces can land on cell boundaries.
void expect_grid_matches_brute_force(const std::vector<Vec3>& pts,
                                     real_t edge, std::uint64_t seed,
                                     const std::string& what,
                                     int trials = 60) {
  CellGrid grid;
  grid.build(pts, edge);
  EXPECT_LE(static_cast<double>(grid.num_cells()),
            std::max(1.0, CellGrid::kMaxCellsPerPoint *
                              static_cast<double>(pts.size())))
      << what;
  BBox bounds;
  for (const Vec3& p : pts) bounds.expand(p);
  if (pts.empty()) bounds.expand(Vec3{0, 0, 0});
  bounds.inflate(2 * edge);
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    const Vec3 c{rng.uniform(bounds.lo.x, bounds.hi.x),
                 rng.uniform(bounds.lo.y, bounds.hi.y),
                 rng.uniform(bounds.lo.z, bounds.hi.z)};
    expect_box_matches_brute_force(
        grid, pts, box_around(c, rng.uniform(0, 2 * edge)), what);
    if (!pts.empty()) {
      const Vec3 p = pts[static_cast<std::size_t>(rng.uniform_int(
          to_idx(pts.size())))];
      expect_box_matches_brute_force(grid, pts, box_around(p, edge), what);
    }
  }
}

class CellGridPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CellGridPropertyTest, RandomPointsWithNegativeCoordinates) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 131 + 7;
  Rng rng(seed);
  std::vector<Vec3> pts(600);
  for (Vec3& p : pts) {
    p = Vec3{rng.uniform(-10, 10), rng.uniform(-30, -20), rng.uniform(-1, 5)};
  }
  for (real_t edge : {0.05, 0.7, 3.0, 50.0}) {
    expect_grid_matches_brute_force(pts, edge, seed + 1,
                                    "random, edge " + std::to_string(edge));
  }
}

TEST_P(CellGridPropertyTest, ClusteredPoints) {
  // Five tight clusters far apart: most cells are empty, a few are full.
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 17 + 3;
  Rng rng(seed);
  std::vector<Vec3> pts;
  for (int c = 0; c < 5; ++c) {
    const Vec3 center{rng.uniform(0, 100), rng.uniform(0, 100),
                      rng.uniform(0, 100)};
    for (int i = 0; i < 80; ++i) {
      pts.push_back(center + Vec3{rng.uniform(-0.02, 0.02),
                                  rng.uniform(-0.02, 0.02),
                                  rng.uniform(-0.02, 0.02)});
    }
  }
  expect_grid_matches_brute_force(pts, 0.01, seed, "clustered");
  expect_grid_matches_brute_force(pts, 5.0, seed, "clustered, coarse");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellGridPropertyTest, ::testing::Range(0, 4));

TEST(CellGrid, CoincidentPoints) {
  std::vector<Vec3> pts(500, Vec3{2, -1, 3});
  pts.push_back(Vec3{2, -1, 3.5});
  pts.push_back(Vec3{-4, 0, 3});
  expect_grid_matches_brute_force(pts, 0.1, 1, "coincident");
  CellGrid grid;
  grid.build(pts, 0.1);
  expect_box_matches_brute_force(grid, pts, box_around(Vec3{2, -1, 3}, 0),
                                 "zero-size box on the coincident point");
}

TEST(CellGrid, ZeroExtentOnOneOrTwoAxes) {
  Rng rng(9);
  std::vector<Vec3> plane;  // z == 3 for every point
  std::vector<Vec3> line;   // y == -2 and z == 3
  for (int i = 0; i < 400; ++i) {
    plane.push_back(Vec3{rng.uniform(-5, 5), rng.uniform(0, 2), 3});
    line.push_back(Vec3{rng.uniform(-5, 5), -2, 3});
  }
  expect_grid_matches_brute_force(plane, 0.3, 2, "plane");
  expect_grid_matches_brute_force(line, 0.3, 3, "line");
  // Boxes whose face touches the plane exactly, or stops one ulp short.
  CellGrid grid;
  grid.build(plane, 0.3);
  BBox touching = box_around(Vec3{0, 1, 2}, 1);
  ASSERT_EQ(touching.hi.z, 3.0);
  expect_box_matches_brute_force(grid, plane, touching, "touching plane");
  touching.hi.z = std::nextafter(3.0, 0.0);
  expect_box_matches_brute_force(grid, plane, touching, "one ulp short");
}

TEST(CellGrid, SinglePointAndEmpty) {
  const std::vector<Vec3> one = {Vec3{-1, 2, -3}};
  expect_grid_matches_brute_force(one, 0.5, 4, "single point");
  CellGrid grid;
  grid.build(one, 0.5);
  EXPECT_EQ(grid.num_cells(), 1u);

  const std::vector<Vec3> none;
  expect_grid_matches_brute_force(none, 0.5, 5, "empty");
  // A grid rebuilt empty after holding points forgets them.
  grid.build(none, 0.5);
  std::vector<idx_t> got;
  grid.query_box(box_around(Vec3{-1, 2, -3}, 10), got);
  EXPECT_TRUE(got.empty());
}

TEST(CellGrid, WideExtentWithSmallEdgeHitsTheCellCap) {
  // Spread over 2e6 on x and 2e3 on y with an edge of 1e-3: the requested
  // grid would have ~4e15 cells, so the edge grows until the grid fits.
  Rng rng(6);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(Vec3{rng.uniform(-1e6, 1e6), rng.uniform(-1e3, 1e3),
                       rng.uniform(0, 1)});
  }
  for (int i = 0; i < 50; ++i) {  // a dense pocket at the origin
    pts.push_back(Vec3{rng.uniform(0, 1e-2), rng.uniform(0, 1e-2), 0.5});
  }
  expect_grid_matches_brute_force(pts, 1e-3, 7, "wide extent");
  CellGrid grid;
  grid.build(pts, 1e-3);
  // The cap coarsens the grid; it does not collapse it into one cell.
  EXPECT_GT(grid.num_cells(), pts.size() / 4);
  expect_box_matches_brute_force(grid, pts, box_around(Vec3{0, 0, 0.5}, 1e-2),
                                 "dense pocket");
}

TEST(CellGrid, NonFiniteCoordinatesEndInOneCell) {
  // An infinite extent cannot be cut into finite cells; the grid degrades
  // to one cell and stays exact.
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const std::vector<Vec3> pts = {Vec3{0, 0, 0}, Vec3{1, 1, 1},
                                 Vec3{inf, 0, 0}, Vec3{0.5, -inf, 0}};
  CellGrid grid;
  grid.build(pts, 0.1);
  EXPECT_EQ(grid.num_cells(), 1u);
  expect_box_matches_brute_force(grid, pts, box_around(Vec3{0, 0, 0}, 0.5),
                                 "finite box");
  expect_box_matches_brute_force(grid, pts, box_around(Vec3{1, 1, 1}, 2),
                                 "larger box");
}

TEST(CellGrid, RejectsNonPositiveEdge) {
  const std::vector<Vec3> pts = {Vec3{0, 0, 0}};
  CellGrid grid;
  EXPECT_THROW(grid.build(pts, 0), InputError);
  EXPECT_THROW(grid.build(pts, std::numeric_limits<real_t>::quiet_NaN()),
               InputError);
}

}  // namespace
}  // namespace cpart
