// Tests for geom/kdtree: range queries and nearest neighbour against brute
// force, degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/kdtree.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

std::vector<Vec3> random_points(idx_t n, Rng& rng, int dim = 3) {
  std::vector<Vec3> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p = Vec3{rng.uniform(0, 10), rng.uniform(0, 10),
             dim == 3 ? rng.uniform(0, 10) : 0};
  }
  return pts;
}

TEST(KdTree, EmptyTree) {
  const KdTree tree{};
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.nearest(Vec3{0, 0, 0}), kInvalidIndex);
  std::vector<idx_t> out;
  BBox box;
  box.expand(Vec3{0, 0, 0});
  tree.query_box(box, out);
  EXPECT_TRUE(out.empty());
}

TEST(KdTree, SinglePoint) {
  const std::vector<Vec3> pts{{1, 2, 3}};
  const KdTree tree(pts);
  EXPECT_EQ(tree.nearest(Vec3{5, 5, 5}), 0);
  std::vector<idx_t> out;
  BBox box;
  box.expand(Vec3{1, 2, 3});
  tree.query_box(box, out);
  ASSERT_EQ(out.size(), 1u);
}

class KdTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreePropertyTest, RangeQueryMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 1);
  const auto pts = random_points(500, rng);
  const KdTree tree(pts);
  for (int trial = 0; trial < 20; ++trial) {
    BBox box;
    box.expand(Vec3{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
    box.inflate(rng.uniform(0.2, 3.0));
    std::vector<idx_t> got;
    tree.query_box(box, got);
    std::set<idx_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size()) << "duplicates returned";
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(box.contains(pts[i]), got_set.count(to_idx(i)) > 0)
          << "point " << i;
    }
  }
}

TEST_P(KdTreePropertyTest, NearestMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto pts = random_points(300, rng);
  const KdTree tree(pts);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec3 q{rng.uniform(-2, 12), rng.uniform(-2, 12), rng.uniform(-2, 12)};
    const idx_t got = tree.nearest(q);
    real_t best = 1e300;
    for (const Vec3& p : pts) best = std::min(best, KdTree::distance2(q, p));
    EXPECT_DOUBLE_EQ(KdTree::distance2(q, pts[static_cast<std::size_t>(got)]),
                     best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreePropertyTest, ::testing::Range(0, 5));

TEST(KdTree, DuplicatePointsAllReturned) {
  const std::vector<Vec3> pts(40, Vec3{1, 1, 1});
  const KdTree tree(pts);
  std::vector<idx_t> out;
  BBox box;
  box.expand(Vec3{1, 1, 1});
  box.inflate(0.1);
  tree.query_box(box, out);
  EXPECT_EQ(out.size(), 40u);
}

/// Asserts query_box(box) returns exactly the points inside `box`, each
/// once.
void expect_box_matches_brute_force(const KdTree& tree,
                                    const std::vector<Vec3>& pts,
                                    const BBox& box) {
  std::vector<idx_t> got;
  tree.query_box(box, got);
  std::vector<idx_t> want;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (box.contains(pts[i])) want.push_back(to_idx(i));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

BBox box_around(Vec3 c, real_t r) {
  BBox box;
  box.expand(c);
  box.inflate(r);
  return box;
}

TEST(KdTree, BoxQueryAllIdenticalPoints) {
  const std::vector<Vec3> pts(5000, Vec3{2, -1, 3});
  const KdTree tree(pts);
  expect_box_matches_brute_force(tree, pts, box_around(Vec3{2, -1, 3}, 0));
  expect_box_matches_brute_force(tree, pts, box_around(Vec3{2, -1, 3.5}, 0.6));
  expect_box_matches_brute_force(tree, pts, box_around(Vec3{2, -1, 3.5}, 0.4));
}

TEST(KdTree, BoxQueryCollinearPoints) {
  // Points on a tilted line, every fourth one duplicated: splits always
  // fall along one axis and some cuts land on repeated coordinates.
  std::vector<Vec3> pts;
  for (int i = 0; i < 4000; ++i) {
    const real_t t = static_cast<real_t>(i / 4 * 4 + (i % 4 == 3 ? 0 : i % 4));
    pts.push_back(Vec3{0.5 * t, 1 - 0.25 * t, 7});
  }
  const KdTree tree(pts);
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const real_t t = rng.uniform(-10, 4010);
    expect_box_matches_brute_force(
        tree, pts,
        box_around(Vec3{0.5 * t, 1 - 0.25 * t, 7}, rng.uniform(0, 40)));
  }
  expect_box_matches_brute_force(tree, pts, box_around(Vec3{0, 1, 7}, 1e4));
}

TEST(KdTree, BoxQueryLargePointSet) {
  Rng rng(5);
  const auto pts = random_points(60000, rng);
  const KdTree tree(pts);
  for (int trial = 0; trial < 40; ++trial) {
    const Vec3 c{rng.uniform(-1, 11), rng.uniform(-1, 11), rng.uniform(-1, 11)};
    expect_box_matches_brute_force(tree, pts,
                                   box_around(c, rng.uniform(0.05, 2.5)));
  }
  expect_box_matches_brute_force(tree, pts, box_around(Vec3{5, 5, 5}, 10));
}

TEST(KdTree, TwoDimensionalIgnoresZ) {
  Rng rng(3);
  auto pts = random_points(200, rng, 2);
  const KdTree tree(pts, 2);
  const idx_t got = tree.nearest(Vec3{5, 5, 100});  // z must not matter... but
  // distance2 includes z; nearest is still well-defined: all points share
  // z=0 so the ordering is unaffected.
  real_t best = 1e300;
  idx_t expect = kInvalidIndex;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const real_t d = KdTree::distance2(Vec3{5, 5, 100}, pts[i]);
    if (d < best) {
      best = d;
      expect = to_idx(i);
    }
  }
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace cpart
