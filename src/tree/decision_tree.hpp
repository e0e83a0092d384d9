// Axis-parallel decision trees over labeled point sets (paper Section 4.1).
//
// A tree recursively bisects space with axis-parallel hyperplanes. Interior
// nodes hold "coord < cut?" tests (yes → left, matching the paper's Figure 1
// convention); leaves hold the label (partition id) of the points they
// cover, a purity flag, and the point count. Two inductions are built on the
// shared inducer:
//   * descriptor trees (tree/descriptor_tree.hpp): split until every leaf is
//     pure — the subdomain geometric descriptors used for global search;
//   * region trees (tree/region_tree.hpp): the max_p / max_i terminated
//     variant over *all* mesh nodes used to make partitions tree-friendly
//     (paper Section 4.2).
//
// Split selection maximizes the paper's Eq. 1 splitting index
//     sqrt(sum_i |A1_i|^2) + sqrt(sum_i |A2_i|^2)
// over every hyperplane between successive distinct coordinates along each
// of the first `dim` axes, computed incrementally in O(1) per candidate over
// pre-sorted coordinate orders (O(|A| * dim) per node).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "util/common.hpp"

namespace cpart {

class TreeInduceWorkspace;
struct InducedTree;
struct TreeInduceOptions;

struct TreeNode {
  int axis = -1;                 // -1 for leaves
  real_t cut = 0;                // interior: points with coord < cut go left
  idx_t left = kInvalidIndex;
  idx_t right = kInvalidIndex;
  idx_t label = kInvalidIndex;   // majority label of covered points
  bool pure = false;             // all covered points share `label`
  idx_t count = 0;               // number of covered points
  /// Tight bounding box of the points covered by this node. Box queries
  /// test against it rather than the (unbounded) space cell: a subdomain
  /// only "occupies" space near its actual contact points, which removes
  /// the empty-space false positives the paper's Section 6 discusses.
  BBox bounds;
};

class DecisionTree {
 public:
  DecisionTree() = default;

  idx_t num_nodes() const { return to_idx(nodes_.size()); }
  idx_t num_leaves() const { return num_leaves_; }
  idx_t root() const { return root_; }
  bool empty() const { return root_ == kInvalidIndex; }

  const TreeNode& node(idx_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Longest root-to-leaf path (a single leaf tree has depth 0).
  idx_t max_depth() const;

  /// Descends to the leaf containing p; returns its node id.
  idx_t locate(Vec3 p) const;

  /// Label of the leaf containing p.
  idx_t classify(Vec3 p) const { return node(locate(p)).label; }

  /// Appends the ids of every leaf whose region intersects `box`.
  void collect_box_leaves(const BBox& box, std::vector<idx_t>& out) const;

  /// Sets mask[l] for every label l of a leaf intersecting `box`, and
  /// appends l to `touched` the first time its bit is set, so the caller
  /// can reset only those entries (O(|touched|)) instead of clearing the
  /// whole mask (O(num_labels)). `mask` must be pre-sized to the number of
  /// labels and pre-cleared (the call only sets bits). Impure leaves
  /// conservatively set the majority label and all minority labels
  /// recorded at build time. The traversal itself does not allocate.
  void collect_box_labels(const BBox& box, std::vector<char>& mask,
                          std::vector<idx_t>& touched) const;

  /// Mask-only convenience wrapper over the touched-list query.
  void collect_box_labels(const BBox& box, std::vector<char>& mask) const;

  /// Labels present in the (impure) leaf `id` beyond the majority label.
  std::span<const idx_t> minority_labels(idx_t id) const;

  /// Heap bytes held by the tree, by capacity.
  std::size_t heap_bytes() const {
    return nodes_.capacity() * sizeof(TreeNode) +
           (minority_offsets_.capacity() + minority_labels_.capacity()) *
               sizeof(idx_t);
  }

 private:
  friend class TreeInducer;
  friend class TreeInduceWorkspace;
  friend DecisionTree assemble_tree(std::vector<TreeNode> nodes, idx_t root,
                                    std::vector<idx_t> minority_offsets,
                                    std::vector<idx_t> minority_labels);

  /// Calls fn(id, node) for every leaf whose bounds intersect `box`, in
  /// the subtree under `start`, depth-first (right child first).
  template <typename Fn>
  void visit_box_leaves(const BBox& box, idx_t start, Fn& fn) const;
  static constexpr std::size_t kBoxStack = 64;

  std::vector<TreeNode> nodes_;
  idx_t root_ = kInvalidIndex;
  idx_t num_leaves_ = 0;
  // Impure-leaf minority labels, CSR-style keyed by node id.
  std::vector<idx_t> minority_offsets_;  // size num_nodes()+1 when present
  std::vector<idx_t> minority_labels_;
};

/// Options for tree induction; the defaults build a descriptor tree.
struct TreeInduceOptions {
  int dim = 3;
  /// 0: pure nodes always become leaves. Otherwise pure nodes with
  /// count >= max_pure are split at the median of their longest axis
  /// (paper Section 4.2, the max_p parameter).
  idx_t max_pure = 0;
  /// 0: impure nodes are split until no separating hyperplane exists.
  /// Otherwise impure nodes with count < max_impure become (impure) leaves
  /// (paper Section 4.2, the max_i parameter).
  idx_t max_impure = 0;
  /// Gap-preferring split selection (paper Section 6 future work): blends
  /// the purity score with the normalized width of the coordinate gap the
  /// hyperplane passes through. 0 disables.
  double gap_alpha = 0.0;
  /// When false, InducedTree::point_leaf is left empty (and the per-point
  /// leaf writes are skipped). Descriptor builds never read it.
  bool want_point_leaf = true;
};

/// Reusable cross-call state for induce_tree(). Holds the previous call's
/// globally-sorted per-axis orders — when the same point set is re-induced
/// after coherent motion the orders are nearly sorted, and an adaptive
/// natural-merge repair pass replaces the three full sorts — plus pooled
/// build buffers (per-subtree contexts, per-participant scratch, retired
/// node storage). The warm start is an optimization only: induce_tree()
/// with a workspace returns a result bit-identical to the cold call for the
/// same inputs and options, whatever state the workspace is in. One workspace serves one logical
/// sequence of inductions and must not be shared across threads.
class TreeInduceWorkspace {
 public:
  TreeInduceWorkspace();
  ~TreeInduceWorkspace();
  TreeInduceWorkspace(TreeInduceWorkspace&&) noexcept;
  TreeInduceWorkspace& operator=(TreeInduceWorkspace&&) noexcept;

  /// True when the saved orders will seed the next induction over
  /// `num_points` points.
  bool warm(std::size_t num_points) const;

  /// Returns a retired tree's node storage to the pool so the next
  /// induction reuses its capacity. Leaves `tree` empty.
  void recycle(DecisionTree&& tree);

  struct Impl;

 private:
  friend class TreeInducer;
  friend InducedTree induce_tree(std::span<const Vec3>, std::span<const idx_t>,
                                 idx_t, const TreeInduceOptions&,
                                 TreeInduceWorkspace*);
  std::unique_ptr<Impl> impl_;
};

/// Induction result: the tree plus the leaf id assigned to every input point.
struct InducedTree {
  DecisionTree tree;
  std::vector<idx_t> point_leaf;
  idx_t num_labels = 0;
};

/// Builds a decision tree over `points` with partition labels `labels`
/// (each in [0, num_labels)). See TreeInduceOptions for termination control.
///
/// Inputs of at least 4096 points are induced by one gang dispatch on the
/// global ThreadPool (ThreadPool::run_gang): the per-axis sorts, a
/// level-synchronous expansion of the top levels with the split scans and
/// partitions as claimable units, then the pending subtrees (efficient
/// parallel tree-induction formulations exist — paper Section 4.1.1 /
/// ScalParC). Every tree has one canonical node numbering whichever build
/// ran: the root is 0 and, walking the tree with a stack that pops the
/// right child first, each popped interior node's left and right children
/// take the next two ids. The tree and its serialized bytes are therefore a
/// function of the inputs alone, identical at every pool width and every
/// granted gang width (a call from inside pool work runs the gang inline).
InducedTree induce_tree(std::span<const Vec3> points,
                        std::span<const idx_t> labels, idx_t num_labels,
                        const TreeInduceOptions& options = {});

/// Warm-started variant: `workspace` carries the per-axis sorted orders and
/// recycled buffers across calls (nullptr behaves like the cold overload).
/// The result is bit-identical to the cold call for the same inputs.
InducedTree induce_tree(std::span<const Vec3> points,
                        std::span<const idx_t> labels, idx_t num_labels,
                        const TreeInduceOptions& options,
                        TreeInduceWorkspace* workspace);

}  // namespace cpart
