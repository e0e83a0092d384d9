// Tests for tree/: decision-tree induction (Eq. 1 splitting), descriptor
// trees (purity, box queries, NTNodes), region trees (max_p/max_i
// semantics), and the Figure 1 / Figure 2 scenarios from the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "tree/decision_tree.hpp"
#include "tree/descriptor_tree.hpp"
#include "tree/region_tree.hpp"
#include "tree/tree_io.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

/// Two horizontally separated clusters: the canonical 1-split case.
struct TwoClusters {
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  TwoClusters() {
    for (int i = 0; i < 10; ++i) {
      points.push_back(Vec3{static_cast<real_t>(i) * 0.1, 0.5, 0});
      labels.push_back(0);
      points.push_back(Vec3{5.0 + static_cast<real_t>(i) * 0.1, 0.5, 0});
      labels.push_back(1);
    }
  }
};

TEST(Induce, TwoClustersSingleSplit) {
  TwoClusters tc;
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(tc.points, tc.labels, 2, opts);
  // Perfectly separable: 3 nodes (root + 2 pure leaves).
  EXPECT_EQ(t.tree.num_nodes(), 3);
  EXPECT_EQ(t.tree.num_leaves(), 2);
  EXPECT_EQ(t.tree.max_depth(), 1);
  const TreeNode& root = t.tree.node(t.tree.root());
  EXPECT_EQ(root.axis, 0);  // x-split
  EXPECT_GT(root.cut, 0.9);
  EXPECT_LT(root.cut, 5.1);
}

TEST(Induce, LeavesPureAndClassifyConsistent) {
  TwoClusters tc;
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(tc.points, tc.labels, 2, opts);
  for (std::size_t i = 0; i < tc.points.size(); ++i) {
    const idx_t leaf = t.point_leaf[i];
    EXPECT_TRUE(t.tree.node(leaf).pure);
    EXPECT_EQ(t.tree.node(leaf).label, tc.labels[i]);
    EXPECT_EQ(t.tree.locate(tc.points[i]), leaf);
    EXPECT_EQ(t.tree.classify(tc.points[i]), tc.labels[i]);
  }
}

TEST(Induce, SingleLabelIsOneLeaf) {
  Rng rng(3);
  std::vector<Vec3> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back(Vec3{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const std::vector<idx_t> labels(50, 0);
  const InducedTree t = induce_tree(pts, labels, 1);
  EXPECT_EQ(t.tree.num_nodes(), 1);
  EXPECT_TRUE(t.tree.node(t.tree.root()).pure);
}

TEST(Induce, EmptyInput) {
  const InducedTree t = induce_tree({}, {}, 1);
  EXPECT_TRUE(t.tree.empty());
  EXPECT_EQ(t.tree.num_nodes(), 0);
}

TEST(Induce, CoincidentMixedPointsBecomeImpureLeaf) {
  // Two points of different partitions at the same location cannot be
  // separated by an axis-parallel plane.
  const std::vector<Vec3> pts{{1, 1, 0}, {1, 1, 0}, {3, 1, 0}};
  const std::vector<idx_t> labels{0, 1, 1};
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(pts, labels, 2, opts);
  // The coincident pair ends in one impure leaf recording both labels.
  const idx_t leaf = t.point_leaf[0];
  EXPECT_EQ(leaf, t.point_leaf[1]);
  EXPECT_FALSE(t.tree.node(leaf).pure);
  const auto minorities = t.tree.minority_labels(leaf);
  EXPECT_EQ(minorities.size(), 1u);
}

TEST(Induce, RejectsBadInput) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  const std::vector<idx_t> labels{0};
  const std::vector<idx_t> bad_labels{7};
  EXPECT_THROW(induce_tree(pts, {}, 1), InputError);
  EXPECT_THROW(induce_tree(pts, bad_labels, 1), InputError);
  TreeInduceOptions opts;
  opts.dim = 1;
  EXPECT_THROW(induce_tree(pts, labels, 1, opts), InputError);
}

TEST(Induce, DeterministicForSameInput) {
  Rng rng(17);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 4), rng.uniform(0, 4), 0});
    labels.push_back(pts.back().x < 2 ? 0 : (pts.back().y < 2 ? 1 : 2));
  }
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree a = induce_tree(pts, labels, 3, opts);
  const InducedTree b = induce_tree(pts, labels, 3, opts);
  EXPECT_EQ(a.tree.num_nodes(), b.tree.num_nodes());
  EXPECT_EQ(a.point_leaf, b.point_leaf);
}

// Figure 1 of the paper: a 3-way partitioning of 2D contact points whose
// boundaries are axes-parallel; the induced tree must recover compact
// rectangles with pure leaves.
TEST(Induce, Figure1StyleThreeWayPartition) {
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  Rng rng(21);
  auto add_cluster = [&](real_t x0, real_t x1, real_t y0, real_t y1, idx_t l,
                         int count) {
    for (int i = 0; i < count; ++i) {
      pts.push_back(Vec3{rng.uniform(x0, x1), rng.uniform(y0, y1), 0});
      labels.push_back(l);
    }
  };
  // Triangle region: top band; circle: bottom-left; square: bottom-right.
  add_cluster(0, 10, 5, 8, 0, 15);
  add_cluster(0, 5, 0, 4.5, 1, 15);
  add_cluster(5.5, 10, 0, 4.5, 2, 15);
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(pts, labels, 3, opts);
  // Axes-parallel separable into 3 rectangles: expect a small tree
  // (ideally 5 nodes: 2 interior + 3 leaves).
  EXPECT_LE(t.tree.num_nodes(), 7);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(t.tree.classify(pts[i]), labels[i]);
  }
}

// Figure 2 of the paper: a diagonal boundary forces a fine-grained space
// partition — tree size grows roughly linearly in the number of boundary
// points instead of logarithmically.
TEST(Induce, Figure2DiagonalBoundaryBlowsUpTree) {
  std::vector<Vec3> diag_pts, axis_pts;
  std::vector<idx_t> diag_labels, axis_labels;
  const int n = 14;  // 28 points as in the figure
  for (int i = 0; i < n; ++i) {
    const real_t x = static_cast<real_t>(i);
    // Diagonal: partition 0 just below the line y = x, partition 1 above.
    diag_pts.push_back(Vec3{x, x - 0.4, 0});
    diag_labels.push_back(0);
    diag_pts.push_back(Vec3{x, x + 0.4, 0});
    diag_labels.push_back(1);
    // Axes-parallel: same points but separated by the line y = n/2.
    axis_pts.push_back(Vec3{x, 3.0, 0});
    axis_labels.push_back(0);
    axis_pts.push_back(Vec3{x, 10.0, 0});
    axis_labels.push_back(1);
  }
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree diag = induce_tree(diag_pts, diag_labels, 2, opts);
  const InducedTree axis = induce_tree(axis_pts, axis_labels, 2, opts);
  EXPECT_EQ(axis.tree.num_nodes(), 3);  // one split suffices
  EXPECT_GE(diag.tree.num_nodes(), 2 * n - 3);  // near-linear blow-up
}

TEST(Induce, GapAlphaPrefersWideCorridors) {
  // Labels separable at two x-positions: a narrow gap near x=1 (between
  // mislabeled-ish dense points) and a wide empty corridor near x=6.
  // With purity equal, gap preference must choose the wide corridor.
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 8; ++i) {
    pts.push_back(Vec3{static_cast<real_t>(i) * 0.25, 0, 0});
    labels.push_back(0);
  }
  for (int i = 0; i < 8; ++i) {
    pts.push_back(Vec3{8.0 + static_cast<real_t>(i) * 0.25, 0, 0});
    labels.push_back(1);
  }
  TreeInduceOptions plain;
  plain.dim = 2;
  TreeInduceOptions gappy = plain;
  gappy.gap_alpha = 0.5;
  const InducedTree t = induce_tree(pts, labels, 2, gappy);
  const TreeNode& root = t.tree.node(t.tree.root());
  // The only pure split is the corridor between 1.75 and 8.0; both settings
  // find it, but with gap_alpha the cut must be the corridor midpoint.
  EXPECT_NEAR(root.cut, (1.75 + 8.0) / 2, 1e-9);
}

/// FNV-1a over a byte string: a compact fingerprint for a pinned output.
std::uint64_t fingerprint(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Walks `tree` with a stack that pops the right child first and checks
/// that each popped interior node's left and right children hold the next
/// two ids, from root 0 to num_nodes() - 1: the canonical numbering.
void expect_canonical_numbering(const DecisionTree& tree) {
  ASSERT_EQ(tree.root(), 0);
  idx_t next = 1;
  std::vector<idx_t> stack{tree.root()};
  while (!stack.empty()) {
    const TreeNode& nd = tree.node(stack.back());
    stack.pop_back();
    if (nd.axis < 0) continue;
    ASSERT_EQ(nd.left, next);
    ASSERT_EQ(nd.right, next + 1);
    next += 2;
    stack.push_back(nd.left);
    stack.push_back(nd.right);
  }
  EXPECT_EQ(next, tree.num_nodes());
}

/// `n` uniform points in a 12 x 12 x 4 box; labels are the octant
/// (`octants`) or uniformly random in [0, 9).
struct LabeledCloud {
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  LabeledCloud(int n, std::uint64_t seed, bool octants) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const Vec3 p{rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 4)};
      points.push_back(p);
      labels.push_back(octants ? (p.x < 6 ? 0 : 1) + 2 * (p.y < 6 ? 0 : 1) +
                                     4 * (p.z < 2 ? 0 : 1)
                               : rng.uniform_int(9));
    }
  }
};

TEST(Induce, ParallelMatchesSerialGeometry) {
  // 20k points take the concurrent build. Its bytes must be the same at
  // every pool width and equal to the plain depth-first build's bytes for
  // this input, pinned here by fingerprint.
  constexpr std::uint64_t kPlainBuildBytes = 0x604a822a5d983b1eull;
  const LabeledCloud cloud(20000, 71, /*octants=*/true);
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    ThreadPool::set_global_threads(i == 0 ? 1 : 8);
    const InducedTree t = induce_tree(cloud.points, cloud.labels, 8);
    bytes[i] = tree_to_binary(t.tree);
    for (std::size_t p = 0; p < cloud.points.size(); p += 37) {
      EXPECT_EQ(t.tree.node(t.point_leaf[p]).label, cloud.labels[p]);
    }
  }
  ThreadPool::set_global_threads(0);
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(fingerprint(bytes[0]), kPlainBuildBytes);
}

/// Runs `fn` on this thread while pool workers are held busy inside a gang
/// of their own (`busy` of them at most), so a gang that `fn` dispatches is
/// granted fewer participants than it asks for.
template <typename Fn>
void with_busy_workers(unsigned busy, Fn&& fn) {
  std::atomic<unsigned> granted{0};
  std::atomic<unsigned> started{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ThreadPool::global().run_gang(busy + 1, [&](idx_t p, unsigned width) {
      if (p == 0) granted.store(width);
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (granted.load() == 0 || started.load() < granted.load()) {
    std::this_thread::yield();
  }
  fn();
  release.store(true);
  holder.join();
}

TEST(Induce, CanonicalBytesAtEveryPoolWidth) {
  // Descriptor-style (pure leaves, no point map), region-style (max_p /
  // max_i) and gap-preferring options; 3k points take the plain build and
  // 20k the gang build. Cold and warm-started inductions at every pool
  // width — and, for the gang build, from inside a parallel_tasks body
  // (the gang runs inline at width 1) and while other workers are busy
  // (the gang is granted fewer participants than it asks for) — must all
  // serialize to the same bytes — pinned by fingerprint — and map points
  // to the same leaves.
  struct Case {
    int n;
    std::string_view style;
    std::uint64_t bytes;
  };
  for (const Case& c : {Case{3000, "descriptor", 0xcc421a9f63713f40ull},
                        Case{3000, "region", 0xae254373fed7ab66ull},
                        Case{3000, "gap", 0x0623f5a1a3014ba3ull},
                        Case{20000, "descriptor", 0x22be311e687b73aaull},
                        Case{20000, "region", 0x4656ae905ed9a36full},
                        Case{20000, "gap", 0x056a930ac9574b0aull}}) {
    const int n = c.n;
    SCOPED_TRACE(::testing::Message() << "n=" << n << " " << c.style);
    const LabeledCloud cloud(n, 900 + static_cast<std::uint64_t>(n),
                             /*octants=*/false);
    // The same points slightly moved: induced first, it leaves the
    // workspace warm and its saved orders out of date.
    LabeledCloud moved = cloud;
    for (Vec3& p : moved.points) p.x += 0.01 * std::sin(7 * p.y);
    TreeInduceOptions opts;
    if (c.style == "region") {
      const RegionTreeOptions r = recommended_region_options(n, 9, 3);
      opts.max_pure = r.max_pure;
      opts.max_impure = r.max_impure;
    } else {
      opts.want_point_leaf = false;
      if (c.style == "gap") opts.gap_alpha = 0.5;
    }
    std::string reference;
    std::vector<idx_t> reference_leaf;
    const auto expect_reference = [&](const InducedTree& t,
                                      const std::string& what) {
      expect_canonical_numbering(t.tree);
      const std::string bytes = tree_to_binary(t.tree);
      if (reference.empty()) {
        reference = bytes;
        reference_leaf = t.point_leaf;
        EXPECT_EQ(fingerprint(reference), c.bytes);
        return;
      }
      EXPECT_EQ(bytes, reference) << what;
      EXPECT_EQ(t.point_leaf, reference_leaf) << what;
    };
    for (const unsigned width : {1u, 2u, 3u, 4u, 8u}) {
      ThreadPool::set_global_threads(width);
      for (const bool warm : {false, true}) {
        TreeInduceWorkspace ws;
        if (warm) {
          induce_tree(moved.points, moved.labels, 9, opts, &ws);
          ASSERT_TRUE(ws.warm(cloud.points.size()));
        }
        expect_reference(
            induce_tree(cloud.points, cloud.labels, 9, opts, &ws),
            "width " + std::to_string(width) + " warm " +
                std::to_string(warm));
      }
    }
    ThreadPool::set_global_threads(4);
    std::vector<InducedTree> nested(2);
    ThreadPool::global().parallel_tasks(2, [&](idx_t t) {
      EXPECT_TRUE(ThreadPool::in_worker());
      nested[static_cast<std::size_t>(t)] =
          induce_tree(cloud.points, cloud.labels, 9, opts);
    });
    for (const InducedTree& t : nested) expect_reference(t, "nested");
    with_busy_workers(3, [&] {
      expect_reference(induce_tree(cloud.points, cloud.labels, 9, opts),
                       "busy workers");
    });
    ThreadPool::set_global_threads(0);
  }
}

TEST(Induce, RightFirstWalkNumbersNodesInOrder) {
  // Every build numbers its nodes canonically: small inputs (plain build)
  // and large ones (concurrent build), descriptor and region options.
  for (const int n : {500, 5000, 30000}) {
    const LabeledCloud cloud(n, 40 + static_cast<std::uint64_t>(n),
                             /*octants=*/false);
    const SubdomainDescriptors desc(cloud.points, cloud.labels, 9);
    ASSERT_GT(desc.num_tree_nodes(), 1);
    expect_canonical_numbering(desc.tree());
    const RegionTree regions(cloud.points, cloud.labels, 9,
                             recommended_region_options(n, 9, 3));
    ASSERT_GT(regions.num_tree_nodes(), 1);
    expect_canonical_numbering(regions.tree());
  }
}

TEST(Induce, ParallelRegionTreeConsistent) {
  // Parallel induction with max_p / max_i termination must keep the
  // point->leaf mapping consistent with the stored leaves.
  Rng rng(72);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 10000; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 12), rng.uniform(0, 12), 0});
    labels.push_back(rng.uniform_int(4));
  }
  TreeInduceOptions opts;
  opts.dim = 2;
  opts.max_pure = 300;
  opts.max_impure = 40;
  const InducedTree t = induce_tree(pts, labels, 4, opts);
  std::vector<idx_t> counted(static_cast<std::size_t>(t.tree.num_nodes()), 0);
  for (idx_t leaf : t.point_leaf) {
    ASSERT_GE(leaf, 0);
    ASSERT_LT(leaf, t.tree.num_nodes());
    ASSERT_LT(t.tree.node(leaf).axis, 0) << "point mapped to interior node";
    ++counted[static_cast<std::size_t>(leaf)];
  }
  for (idx_t id = 0; id < t.tree.num_nodes(); ++id) {
    if (t.tree.node(id).axis < 0) {
      EXPECT_EQ(counted[static_cast<std::size_t>(id)], t.tree.node(id).count);
    }
  }
}

TEST(Induce, BoundsAreTight) {
  TwoClusters tc;
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(tc.points, tc.labels, 2, opts);
  const TreeNode& root = t.tree.node(t.tree.root());
  EXPECT_DOUBLE_EQ(root.bounds.lo.x, 0.0);
  EXPECT_DOUBLE_EQ(root.bounds.hi.x, 5.9);
  const TreeNode& left = t.tree.node(root.left);
  EXPECT_LE(left.bounds.hi.x, root.cut);
}

// ---------------------------------------------------------------------------
// Descriptor trees
// ---------------------------------------------------------------------------

TEST(DecisionTree, DeepTreeBoxQueriesMatchPlainDfs) {
  // A caterpillar tree 300 levels deep: interior node i cuts x at i, its
  // left child is a leaf and its right child the next interior node. The
  // DFS leaves one left sibling pending per level, so the traversal outgrows
  // any fixed stack and must still visit leaves in push-left-push-right
  // order.
  constexpr idx_t kLevels = 300;
  std::vector<TreeNode> nodes;
  for (idx_t i = 0; i < kLevels; ++i) {
    TreeNode inner;
    inner.axis = 0;
    inner.cut = static_cast<real_t>(i);
    inner.left = to_idx(nodes.size()) + 1;
    inner.right = to_idx(nodes.size()) + 2;
    inner.bounds.expand(Vec3{static_cast<real_t>(i) - 1, 0, 0});
    inner.bounds.expand(Vec3{static_cast<real_t>(kLevels), 1, 1});
    nodes.push_back(inner);
    TreeNode leaf;
    leaf.label = i % 7;
    leaf.pure = true;
    leaf.bounds.expand(Vec3{static_cast<real_t>(i) - 1, 0, 0});
    leaf.bounds.expand(Vec3{static_cast<real_t>(i) - 0.5, 1, 1});
    nodes.push_back(leaf);
  }
  TreeNode last;
  last.label = 3;
  last.pure = true;
  last.bounds.expand(Vec3{static_cast<real_t>(kLevels) - 1, 0, 0});
  last.bounds.expand(Vec3{static_cast<real_t>(kLevels), 1, 1});
  nodes.push_back(last);
  const DecisionTree tree = assemble_tree(
      nodes, 0, std::vector<idx_t>(nodes.size() + 1, 0), {});
  ASSERT_EQ(tree.max_depth(), kLevels);

  for (const real_t lo : {-5.0, 40.0, 250.0}) {
    BBox box;
    box.expand(Vec3{lo, 0.5, 0.5});
    box.expand(Vec3{lo + 120, 0.5, 0.5});
    std::vector<idx_t> want;
    std::vector<idx_t> stack{tree.root()};
    while (!stack.empty()) {
      const idx_t id = stack.back();
      stack.pop_back();
      const TreeNode& nd = tree.node(id);
      if (!box.intersects(nd.bounds)) continue;
      if (nd.axis < 0) {
        want.push_back(id);
        continue;
      }
      stack.push_back(nd.left);
      stack.push_back(nd.right);
    }
    ASSERT_GT(want.size(), 40u);
    std::vector<idx_t> got;
    tree.collect_box_leaves(box, got);
    EXPECT_EQ(got, want) << "box from x = " << lo;

    std::vector<char> want_mask(7, 0);
    std::vector<idx_t> want_touched;
    for (idx_t id : want) {
      char& bit = want_mask[static_cast<std::size_t>(tree.node(id).label)];
      if (!bit) want_touched.push_back(tree.node(id).label);
      bit = 1;
    }
    std::vector<char> mask(7, 0);
    std::vector<idx_t> touched;
    tree.collect_box_labels(box, mask, touched);
    EXPECT_EQ(mask, want_mask);
    EXPECT_EQ(touched, want_touched);
    std::vector<char> mask_only(7, 0);
    tree.collect_box_labels(box, mask_only);
    EXPECT_EQ(mask_only, want_mask);
  }
}

TEST(Descriptors, QueryBoxFindsOnlyNearbyPartitions) {
  TwoClusters tc;
  DescriptorOptions opts;
  opts.dim = 2;
  const SubdomainDescriptors desc(tc.points, tc.labels, 2, opts);
  EXPECT_EQ(desc.num_tree_nodes(), 3);
  std::vector<idx_t> parts;
  std::vector<char> mask;
  std::vector<idx_t> touched;
  BBox near_left;
  near_left.expand(Vec3{0.3, 0.5, 0});
  near_left.inflate(0.2);
  desc.query_box(near_left, parts, mask, touched);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], 0);

  parts.clear();
  BBox spanning;
  spanning.expand(Vec3{0, 0.5, 0});
  spanning.expand(Vec3{6, 0.5, 0});
  desc.query_box(spanning, parts, mask, touched);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(Descriptors, EmptySpaceBetweenClustersYieldsNoCandidates) {
  TwoClusters tc;  // clusters at x in [0, 0.9] and [5, 5.9]
  DescriptorOptions opts;
  opts.dim = 2;
  const SubdomainDescriptors desc(tc.points, tc.labels, 2, opts);
  std::vector<idx_t> parts;
  std::vector<char> mask;
  std::vector<idx_t> touched;
  BBox middle;
  middle.expand(Vec3{2.5, 0.5, 0});
  middle.inflate(0.5);  // far from both clusters
  desc.query_box(middle, parts, mask, touched);
  EXPECT_TRUE(parts.empty());
}

TEST(Descriptors, RegionCountsSumToLeaves) {
  Rng rng(77);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 8), rng.uniform(0, 8), 0});
    labels.push_back((pts.back().x < 4 ? 0 : 1) + (pts.back().y < 4 ? 0 : 2));
  }
  DescriptorOptions opts;
  opts.dim = 2;
  const SubdomainDescriptors desc(pts, labels, 4, opts);
  idx_t total_regions = 0;
  for (idx_t p = 0; p < 4; ++p) total_regions += desc.num_regions(p);
  EXPECT_EQ(total_regions, desc.num_leaves());
  for (idx_t p = 0; p < 4; ++p) {
    EXPECT_EQ(to_idx(desc.region_boxes(p).size()), desc.num_regions(p));
  }
}

TEST(Descriptors, NeverMissesActualNeighbors) {
  // Property: for any query box, the candidate set must contain every
  // partition that has a point inside the box (no false negatives).
  Rng rng(13);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 500; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 10), rng.uniform(0, 10),
                       rng.uniform(0, 10)});
    labels.push_back(rng.uniform_int(5));
  }
  const SubdomainDescriptors desc(pts, labels, 5);
  std::vector<idx_t> parts;
  std::vector<char> mask;
  std::vector<idx_t> touched;
  for (int trial = 0; trial < 50; ++trial) {
    BBox q;
    q.expand(Vec3{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
    q.inflate(rng.uniform(0.1, 2.0));
    parts.clear();
    desc.query_box(q, parts, mask, touched);
    const std::set<idx_t> found(parts.begin(), parts.end());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (q.contains(pts[i])) {
        EXPECT_TRUE(found.count(labels[i]))
            << "partition " << labels[i] << " has a point in the box but was "
            << "not reported";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Region trees
// ---------------------------------------------------------------------------

TEST(RegionTree, MaxPureForcesSplitsOfLargePureNodes) {
  // 64 points in one partition: with max_pure = 16 every leaf must cover
  // fewer than 16 points.
  std::vector<Vec3> pts;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      pts.push_back(Vec3{static_cast<real_t>(i), static_cast<real_t>(j), 0});
    }
  }
  const std::vector<idx_t> labels(64, 0);
  RegionTreeOptions opts;
  opts.dim = 2;
  opts.max_pure = 16;
  opts.max_impure = 4;
  const RegionTree rt(pts, labels, 1, opts);
  EXPECT_GT(rt.num_regions(), 4);
  for (idx_t r = 0; r < rt.num_regions(); ++r) {
    idx_t count = 0;
    for (idx_t rp : rt.region_of_point()) count += (rp == r);
    EXPECT_LT(count, 16);
  }
}

TEST(RegionTree, MaxImpureStopsEarly) {
  // Fine-grained label noise: with a large max_impure the tree must stay
  // tiny (impure leaves allowed), with max_impure=1 it must split to purity.
  Rng rng(55);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 256; ++i) {
    pts.push_back(Vec3{rng.uniform(), rng.uniform(), 0});
    labels.push_back(rng.uniform_int(2));
  }
  RegionTreeOptions coarse;
  coarse.dim = 2;
  coarse.max_pure = 1000;
  coarse.max_impure = 300;
  const RegionTree rt_coarse(pts, labels, 2, coarse);
  EXPECT_EQ(rt_coarse.num_regions(), 1);

  RegionTreeOptions fine = coarse;
  fine.max_impure = 1;
  const RegionTree rt_fine(pts, labels, 2, fine);
  EXPECT_GT(rt_fine.num_regions(), 50);
}

TEST(RegionTree, MajorityPartitionReassignsMinorities) {
  // A lone mislabeled point inside a big uniform block gets absorbed when
  // max_impure is large enough to keep the block one leaf.
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 25; ++i) {
    pts.push_back(Vec3{static_cast<real_t>(i % 5), static_cast<real_t>(i / 5), 0});
    labels.push_back(i == 12 ? 1 : 0);
  }
  RegionTreeOptions opts;
  opts.dim = 2;
  opts.max_pure = 100;
  opts.max_impure = 50;
  const RegionTree rt(pts, labels, 2, opts);
  const auto majority = rt.majority_partition();
  EXPECT_EQ(majority[12], 0);  // absorbed into the majority
}

TEST(RegionTree, RecommendedOptionsWithinPaperRanges) {
  const idx_t n = 100000, k = 25;
  const RegionTreeOptions o = recommended_region_options(n, k);
  const double dk = static_cast<double>(k);
  EXPECT_GE(o.max_pure, static_cast<idx_t>(n / std::pow(dk, 1.5)));
  EXPECT_LE(o.max_pure, static_cast<idx_t>(n / dk));
  EXPECT_GE(o.max_impure, static_cast<idx_t>(n / std::pow(dk, 2.5)));
  EXPECT_LE(o.max_impure, static_cast<idx_t>(n / std::pow(dk, 2.0)));
}

TEST(RegionTree, RejectsZeroThresholds) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  const std::vector<idx_t> labels{0};
  RegionTreeOptions opts;  // max_pure = max_impure = 0
  EXPECT_THROW(RegionTree(pts, labels, 1, opts), InputError);
}

}  // namespace
}  // namespace cpart
