#include "tree/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>

#include "parallel/thread_pool.hpp"

namespace cpart {

idx_t DecisionTree::max_depth() const {
  if (empty()) return 0;
  idx_t best = 0;
  // Iterative DFS with explicit depth to avoid recursion limits on the
  // pathological deep trees of Figure 2.
  std::vector<std::pair<idx_t, idx_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const TreeNode& nd = node(id);
    if (nd.axis < 0) {
      best = std::max(best, depth);
    } else {
      stack.emplace_back(nd.left, depth + 1);
      stack.emplace_back(nd.right, depth + 1);
    }
  }
  return best;
}

idx_t DecisionTree::locate(Vec3 p) const {
  require(!empty(), "DecisionTree::locate: empty tree");
  idx_t cur = root_;
  while (node(cur).axis >= 0) {
    const TreeNode& nd = node(cur);
    cur = (p[nd.axis] < nd.cut) ? nd.left : nd.right;
  }
  return cur;
}

template <typename Fn>
void DecisionTree::visit_box_leaves(const BBox& box, idx_t start,
                                    Fn& fn) const {
  // Inline DFS stack: a query never allocates. Descriptor trees are rarely
  // deeper than the stack, and a deeper (pathological) subtree is finished
  // on a fresh stack one call down, so depth is unbounded either way.
  std::array<idx_t, kBoxStack> stack;
  std::size_t top = 0;
  stack[top++] = start;
  while (top > 0) {
    const idx_t id = stack[--top];
    const TreeNode& nd = node(id);
    if (!box.intersects(nd.bounds)) continue;
    if (nd.axis < 0) {
      fn(id, nd);
      continue;
    }
    if (top + 2 > stack.size()) {
      // The right child would be popped next anyway: visiting its subtree
      // now keeps the leaf order of the plain push-left-push-right DFS.
      visit_box_leaves(box, nd.right, fn);
      stack[top++] = nd.left;
      continue;
    }
    stack[top++] = nd.left;
    stack[top++] = nd.right;
  }
}

void DecisionTree::collect_box_leaves(const BBox& box,
                                      std::vector<idx_t>& out) const {
  if (empty() || box.empty()) return;
  auto leaf = [&](idx_t id, const TreeNode&) { out.push_back(id); };
  visit_box_leaves(box, root_, leaf);
}

void DecisionTree::collect_box_labels(const BBox& box,
                                      std::vector<char>& mask) const {
  std::vector<idx_t> touched;
  collect_box_labels(box, mask, touched);
}

void DecisionTree::collect_box_labels(const BBox& box, std::vector<char>& mask,
                                      std::vector<idx_t>& touched) const {
  if (empty() || box.empty()) return;
  auto set_label = [&](idx_t l) {
    char& bit = mask[static_cast<std::size_t>(l)];
    if (!bit) {
      bit = 1;
      touched.push_back(l);
    }
  };
  auto leaf = [&](idx_t id, const TreeNode& nd) {
    if (nd.label != kInvalidIndex) set_label(nd.label);
    if (!nd.pure) {
      for (idx_t l : minority_labels(id)) set_label(l);
    }
  };
  visit_box_leaves(box, root_, leaf);
}

std::span<const idx_t> DecisionTree::minority_labels(idx_t id) const {
  if (minority_offsets_.empty()) return {};
  const auto b = static_cast<std::size_t>(
      minority_offsets_[static_cast<std::size_t>(id)]);
  const auto e = static_cast<std::size_t>(
      minority_offsets_[static_cast<std::size_t>(id) + 1]);
  return {minority_labels_.data() + b, e - b};
}

// ---------------------------------------------------------------------------
// Induction
// ---------------------------------------------------------------------------

namespace {

/// Trailing padding of label-count buffers that concurrent participants
/// write: it keeps two buffers off a shared cache line.
constexpr std::size_t kCountPad = 64 / sizeof(wgt_t);

/// Pending subtree: node id within its context plus the point range.
struct InduceItem {
  idx_t node;
  idx_t lo, hi;
};

/// A candidate split of a point range.
struct InduceSplit {
  bool found = false;
  int axis = -1;
  idx_t position = 0;  // points sorted[axis][lo .. lo+position) go left
  real_t cut = 0;
  double score = -1;
};

/// Per-subtree build state, pooled in the workspace. Node ids are local to
/// the context.
struct InduceContext {
  std::vector<TreeNode> nodes;
  std::vector<InduceItem> stack;
  std::vector<std::pair<idx_t, std::vector<idx_t>>> minorities;  // local ids
  std::vector<wgt_t> counts;
  std::vector<wgt_t> left_counts;
  std::vector<idx_t> scratch;
  idx_t leaves = 0;

  idx_t new_node() {
    nodes.emplace_back();
    return to_idx(nodes.size()) - 1;
  }

  void reset(idx_t num_labels) {
    nodes.clear();
    stack.clear();
    minorities.clear();
    counts.assign(static_cast<std::size_t>(num_labels) + kCountPad, 0);
    left_counts.assign(static_cast<std::size_t>(num_labels) + kCountPad, 0);
    leaves = 0;
  }
};

/// Per-participant scratch of the gang build (lane 0 also serves the
/// plain build's sorts).
struct GangLane {
  std::vector<wgt_t> left_counts;      // Eq.-1 scan: labels left of the cut
  std::vector<idx_t> scratch;          // stable partition: right-side points
  std::vector<idx_t> runs, runs_next;  // repair sort: run boundaries
};

/// A node of the gang build's level-synchronous top.
struct LevelNode {
  LevelNode(idx_t node, idx_t begin, idx_t end)
      : id(node), lo(begin), hi(end) {}

  idx_t id;  // node id in the top context (context 0)
  idx_t lo, hi;
  idx_t chunks = 1;      // Eq.-1 scan chunks per axis
  std::size_t hist = 0;  // offset of its dim x chunks label histograms
  std::size_t cand = 0;  // offset of its split candidates ...
  std::size_t num_cands = 0;  // ... and their count (0: no split tried)
  idx_t majority = 0;
  bool pure = false;
  InduceSplit split;      // the chosen split; !found: the node is a leaf
  std::size_t child = 0;  // a split node's left child in the next level
                          // (the right child follows it)
};

/// A claimable unit of one gang stage. `index` is a block, merge pair,
/// level node or frontier subtree, depending on the stage.
struct GangUnit {
  idx_t index;
  int axis;
  idx_t chunk;
};

/// Barrier between the stages of one gang dispatch. The last participant
/// to arrive runs `serial` alone before anyone is released, so it can plan
/// the next stage from the complete results of this one. A waiter spins
/// briefly, then yields the core (to a participant still working, when
/// the host is oversubscribed) until kSpinTime has passed — a stage's
/// imbalance is usually shorter than one futex sleep/wake round trip on a
/// virtualized host — and then sleeps on the generation word: the host is
/// shared, and a pure spin would hold cores other processes could use.
class GangBarrier {
 public:
  template <typename Fn>
  void arrive_and_wait(unsigned width, Fn&& serial) {
    // The generation cannot move before this participant arrives.
    const unsigned gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == width) {
      serial();
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    for (unsigned spin = 1;
         generation_.load(std::memory_order_acquire) == gen; ++spin) {
      if (spin <= kPauseSpins) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
        continue;
      }
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() - start > kSpinTime) {
        generation_.wait(gen, std::memory_order_acquire);
      }
    }
  }

 private:
  static constexpr unsigned kPauseSpins = 64;
  static constexpr std::chrono::microseconds kSpinTime{100};
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> generation_{0};
};

}  // namespace

struct TreeInduceWorkspace::Impl {
  /// Globally-sorted per-axis orders saved by the previous induction.
  std::array<std::vector<idx_t>, 3> orders;
  std::size_t num_points = 0;
  int dim = 0;
  bool valid = false;
  /// Working copies consumed (leaf-partitioned) by the build.
  std::array<std::vector<idx_t>, 3> work;
  /// Per-axis merge buffers of the sorts.
  std::array<std::vector<idx_t>, 3> sort_scratch;
  /// Context pool: a deque so growing it for subtree contexts never
  /// invalidates the reference to the top context (slot 0).
  std::deque<InduceContext> contexts;
  std::vector<TreeNode> node_pool;  // retired tree storage (recycle())
  /// Gang build state: participant scratch, the current stage's units, the
  /// level being expanded (its label histograms, per-node label totals and
  /// split candidates), the next level, and the frontier subtrees.
  std::vector<GangLane> lanes;
  std::vector<GangUnit> units;
  std::vector<LevelNode> level;
  std::vector<LevelNode> next_level;
  std::vector<wgt_t> hist;
  std::vector<wgt_t> totals;
  std::vector<InduceSplit> cands;
  std::vector<InduceItem> frontier;
};

TreeInduceWorkspace::TreeInduceWorkspace() : impl_(std::make_unique<Impl>()) {}
TreeInduceWorkspace::~TreeInduceWorkspace() = default;
TreeInduceWorkspace::TreeInduceWorkspace(TreeInduceWorkspace&&) noexcept =
    default;
TreeInduceWorkspace& TreeInduceWorkspace::operator=(
    TreeInduceWorkspace&&) noexcept = default;

bool TreeInduceWorkspace::warm(std::size_t num_points) const {
  return impl_->valid && impl_->num_points == num_points;
}

void TreeInduceWorkspace::recycle(DecisionTree&& tree) {
  if (tree.nodes_.capacity() > impl_->node_pool.capacity()) {
    impl_->node_pool = std::move(tree.nodes_);
    impl_->node_pool.clear();
  }
  tree = DecisionTree();
}

/// Implements induce_tree(). Keeps one index array per axis, each sorted by
/// that axis's coordinate; every tree node owns the same contiguous
/// subrange [lo, hi) of all arrays, and splits stable-partition each array
/// so sortedness is preserved without re-sorting (the paper's "the required
/// sorting can be done once for the entire set").
///
/// Inputs of kConcurrentMinPoints or more take the gang build: one
/// ThreadPool::run_gang dispatch whose participants claim units from a
/// shared cursor, stage by stage, with a GangBarrier between stages (split
/// evaluation on the pool, after ScalParC — Joshi, Karypis & Kumar,
/// IPPS'98):
///   1. sort: each axis is sorted in kChunkPoints blocks, then the blocks
///      are merged pairwise, one round per stage; the last round saves the
///      orders and counts the root's labels;
///   2. top levels, level-synchronously, two stages per level: the Eq.-1
///      scan per (node, axis, chunk) — nodes of 2 * kChunkPoints points or
///      more are chunked, each chunk starting from the exact integer label
///      counts of the chunks before it — then a stable partition per
///      (split node, axis), which also counts the children's labels per
///      chunk. The serial step between them reduces a node's candidates in
///      (axis, position) order with strict `>` — the plain scan's choice —
///      and creates the children, until a level holds kFrontierTarget
///      nodes;
///   3. frontier: each pending subtree is built depth-first in its own
///      context (histograms and scratch per context; the sorted arrays are
///      shared, subranges being disjoint), largest first; run_gang's join
///      ends the stage.
/// splice() then assembles the top and the subtrees under the plain
/// build's numbering. The units of every stage are a function of the
/// inputs alone, so the tree is the same whatever width the gang is
/// granted, 1 included (a call from inside pool work runs the gang inline).
///
/// All build state lives in a TreeInduceWorkspace::Impl (a local one when
/// the caller passed no workspace): sorted orders saved there seed the next
/// call's orders via the adaptive repair pass instead of three full sorts,
/// and contexts/buffers keep their capacity across calls.
class TreeInducer {
 public:
  TreeInducer(std::span<const Vec3> points, std::span<const idx_t> labels,
              idx_t num_labels, const TreeInduceOptions& options,
              TreeInduceWorkspace::Impl& ws)
      : points_(points),
        labels_(labels),
        num_labels_(num_labels),
        options_(options),
        ws_(ws),
        sorted_(ws.work) {}

  using Item = InduceItem;
  using Split = InduceSplit;
  using Context = InduceContext;
  using Minorities = std::vector<std::pair<idx_t, std::vector<idx_t>>>;

  /// Inputs at least this large take the gang build.
  static constexpr idx_t kConcurrentMinPoints = 4096;
  /// Level size at which the gang build hands the pending nodes to
  /// per-subtree units. A pinned constant, NOT derived from the pool size,
  /// so the work split is the same at every width. Each level above it
  /// costs two barriers; 16 beat 32 and 64 on a 4-vCPU host.
  static constexpr idx_t kFrontierTarget = 16;
  /// Points per sort block and per Eq.-1 scan chunk of the gang build;
  /// pinned for the same reason.
  static constexpr idx_t kChunkPoints = 2048;
  // At least two sort blocks, so at least one merge round: the last round
  // saves the orders and counts the root's labels.
  static_assert(kConcurrentMinPoints > kChunkPoints);

  InducedTree run() {
    const idx_t n = to_idx(points_.size());
    InducedTree result;
    result.num_labels = num_labels_;
    if (n == 0) return result;

    if (ws_.lanes.empty()) ws_.lanes.emplace_back();

    const bool concurrent = n >= kConcurrentMinPoints;
    DecisionTree& tree = result.tree;
    Context& top = context(0);
    // Pooled node storage goes to whichever vector becomes the tree's.
    std::vector<TreeNode>& storage = concurrent ? tree.nodes_ : top.nodes;
    if (storage.capacity() < ws_.node_pool.capacity()) {
      storage = std::move(ws_.node_pool);
      storage.clear();
    }
    ws_.node_pool.clear();
    tree.root_ = top.new_node();

    Minorities minorities;
    if (concurrent) {
      build_concurrent(tree, minorities);
    } else {
      const bool warm = begin_orders();
      for (int a = 0; a < options_.dim; ++a) {
        sort_block(a, 0, n, warm, ws_.lanes[0]);
        save_order(a);
      }
      ws_.valid = true;
      top.stack.push_back({tree.root_, 0, n});
      drain(top);
      tree.nodes_ = std::move(top.nodes);
      tree.num_leaves_ = top.leaves;
      minorities = std::move(top.minorities);
    }

    // Compact the per-leaf minority labels into CSR form.
    tree.minority_offsets_.assign(
        static_cast<std::size_t>(tree.num_nodes()) + 1, 0);
    for (const auto& [id, labels] : minorities) {
      tree.minority_offsets_[static_cast<std::size_t>(id) + 1] =
          to_idx(labels.size());
    }
    for (std::size_t i = 1; i < tree.minority_offsets_.size(); ++i) {
      tree.minority_offsets_[i] += tree.minority_offsets_[i - 1];
    }
    tree.minority_labels_.resize(
        static_cast<std::size_t>(tree.minority_offsets_.back()));
    for (const auto& [id, labels] : minorities) {
      std::copy(labels.begin(), labels.end(),
                tree.minority_labels_.begin() +
                    tree.minority_offsets_[static_cast<std::size_t>(id)]);
    }

    if (options_.want_point_leaf) fill_point_leaf(tree, result.point_leaf);
    return result;
  }

 private:
  enum class Stage { kSort, kMerge, kScan, kPartition, kFrontier, kDone };

  real_t coord(idx_t point, int axis) const {
    return points_[static_cast<std::size_t>(point)][axis];
  }
  idx_t label(idx_t point) const {
    return labels_[static_cast<std::size_t>(point)];
  }
  std::size_t num_labels() const {
    return static_cast<std::size_t>(num_labels_);
  }

  /// Majority label of the histogram `counts` and whether it has at most
  /// one label present.
  std::pair<idx_t, bool> majority_of(const wgt_t* counts) const {
    idx_t majority = 0;
    idx_t distinct = 0;
    for (idx_t l = 0; l < num_labels_; ++l) {
      if (counts[l] > 0) {
        ++distinct;
        if (counts[l] > counts[majority]) majority = l;
      }
    }
    return {majority, distinct <= 1};
  }

  /// Histogram of labels over positions [b, e) of `ord` into `counts`
  /// (overwritten).
  void count_labels(const std::vector<idx_t>& ord, idx_t b, idx_t e,
                    wgt_t* counts) const {
    std::fill(counts, counts + num_labels(), wgt_t{0});
    for (idx_t i = b; i < e; ++i) {
      ++counts[label(ord[static_cast<std::size_t>(i)])];
    }
  }

  /// The Eq.-1 scan of the cuts after positions [b, min(e, hi - 1)) of
  /// axis `axis`'s order, within the node range [lo, hi). `counts` holds
  /// the node's label totals and `left` the counts of [lo, b) (updated as
  /// the scan moves). Both sums of squares are kept as exact integers, so
  /// a scan starting mid-range from its prefix counts scores every cut
  /// exactly as the scan from lo does (and as double sums would, the
  /// values staying below 2^53 for any node under ~67M points). Keeps the
  /// first best cut (strict `>`) in `best`.
  void scan_cuts(int axis, idx_t lo, idx_t hi, idx_t b, idx_t e,
                 const wgt_t* counts, wgt_t* left, Split& best) const {
    const auto& ord = sorted_[axis];
    const idx_t end = std::min(e, hi - 1);
    if (b >= end) return;
    const auto m = static_cast<double>(hi - lo);
    const real_t width = coord(ord[static_cast<std::size_t>(hi - 1)], axis) -
                         coord(ord[static_cast<std::size_t>(lo)], axis);
    wgt_t sumsq_left = 0;
    wgt_t sumsq_right = 0;
    for (std::size_t l = 0; l < num_labels(); ++l) {
      const wgt_t cr = counts[l] - left[l];
      sumsq_left += left[l] * left[l];
      sumsq_right += cr * cr;
    }
    real_t c1 = coord(ord[static_cast<std::size_t>(b)], axis);
    for (idx_t i = b; i < end; ++i) {
      const idx_t lp = label(ord[static_cast<std::size_t>(i)]);
      // Move the point from the right side to the left side; both sums
      // update in O(1): (c+1)^2 - c^2 = 2c+1 and c^2 - (c-1)^2 = 2c-1.
      const wgt_t cl = left[lp];
      sumsq_left += 2 * cl + 1;
      sumsq_right -= 2 * (counts[lp] - cl) - 1;
      left[lp] = cl + 1;
      const real_t c0 = c1;
      c1 = coord(ord[static_cast<std::size_t>(i + 1)], axis);
      if (c0 == c1) continue;  // hyperplane must separate distinct coords
      double score = std::sqrt(static_cast<double>(sumsq_left)) +
                     std::sqrt(static_cast<double>(sumsq_right));
      if (options_.gap_alpha > 0) {
        // Gap preference: wider empty corridors score higher. Scaled by m
        // so it is commensurate with the count-scaled purity term.
        score += options_.gap_alpha * m * static_cast<double>((c1 - c0) / width);
      }
      if (score > best.score) {
        best.found = true;
        best.axis = axis;
        best.position = i + 1 - lo;
        best.cut = 0.5 * (c0 + c1);
        best.score = score;
      }
    }
  }

  /// True when axis `axis` has no two distinct coordinates in [lo, hi).
  bool degenerate(int axis, idx_t lo, idx_t hi) const {
    const auto& ord = sorted_[axis];
    return coord(ord[static_cast<std::size_t>(lo)], axis) ==
           coord(ord[static_cast<std::size_t>(hi - 1)], axis);
  }

  /// Best Eq.-1 split over all axes for the (impure) range [lo, hi), whose
  /// label totals are in ctx.counts.
  Split best_gini_split(Context& ctx, idx_t lo, idx_t hi) const {
    Split best;
    for (int axis = 0; axis < options_.dim; ++axis) {
      if (degenerate(axis, lo, hi)) continue;
      std::fill(ctx.left_counts.begin(), ctx.left_counts.end(), wgt_t{0});
      scan_cuts(axis, lo, hi, lo, hi, ctx.counts.data(),
                ctx.left_counts.data(), best);
    }
    return best;
  }

  /// Median split along the longest non-degenerate axis; used for oversized
  /// pure nodes (paper's max_p rule; the split index is useless there).
  Split median_split(idx_t lo, idx_t hi) const {
    Split best;
    const idx_t m = hi - lo;
    // Order axes by extent, try the longest first (manual ordering of at
    // most three entries; std::sort on the partial array trips GCC's
    // -Warray-bounds).
    std::array<int, 3> axes{0, 1, 2};
    std::array<real_t, 3> ext{};
    for (int a = 0; a < options_.dim; ++a) {
      ext[static_cast<std::size_t>(a)] =
          coord(sorted_[a][static_cast<std::size_t>(hi - 1)], a) -
          coord(sorted_[a][static_cast<std::size_t>(lo)], a);
    }
    for (int i = 1; i < options_.dim; ++i) {
      for (int j = i; j > 0 &&
                      ext[static_cast<std::size_t>(axes[static_cast<std::size_t>(j)])] >
                          ext[static_cast<std::size_t>(
                              axes[static_cast<std::size_t>(j - 1)])];
           --j) {
        std::swap(axes[static_cast<std::size_t>(j)],
                  axes[static_cast<std::size_t>(j - 1)]);
      }
    }
    for (int ai = 0; ai < options_.dim; ++ai) {
      const int axis = axes[static_cast<std::size_t>(ai)];
      if (ext[static_cast<std::size_t>(axis)] <= 0) continue;
      const auto& ord = sorted_[axis];
      // Find the split nearest m/2 where coordinates actually differ.
      const idx_t mid = m / 2;
      for (idx_t delta = 0; delta < m; ++delta) {
        for (int sign = -1; sign <= 1; sign += 2) {
          const idx_t pos = mid + sign * delta;
          if (pos < 1 || pos >= m) continue;
          const real_t c0 = coord(ord[static_cast<std::size_t>(lo + pos - 1)], axis);
          const real_t c1 = coord(ord[static_cast<std::size_t>(lo + pos)], axis);
          if (c0 == c1) continue;
          best.found = true;
          best.axis = axis;
          best.position = pos;
          best.cut = 0.5 * (c0 + c1);
          return best;
        }
      }
    }
    return best;
  }

  /// Stable-partitions [lo, hi) of axis `axis`'s order for a split along
  /// `split_axis` whose first right-side point is `first_right`, left
  /// points first, so each side stays sorted. The split axis's order is a
  /// strict total order, so a point is left exactly when it precedes
  /// `first_right` in it. Touches only the [lo, hi) slice of one axis, so
  /// disjoint ranges and distinct axes can partition concurrently.
  void partition_axis(int axis, idx_t lo, idx_t hi, int split_axis,
                      idx_t first_right, std::vector<idx_t>& scratch) {
    auto& arr = sorted_[axis];
    scratch.resize(std::max(scratch.size(), static_cast<std::size_t>(hi - lo)));
    idx_t out_left = lo;
    idx_t out_right = 0;
    for (idx_t i = lo; i < hi; ++i) {
      const idx_t p = arr[static_cast<std::size_t>(i)];
      if (order_less(p, first_right, split_axis)) {
        arr[static_cast<std::size_t>(out_left++)] = p;
      } else {
        scratch[static_cast<std::size_t>(out_right++)] = p;
      }
    }
    std::copy(scratch.begin(), scratch.begin() + out_right,
              arr.begin() + out_left);
  }

  /// Splits [lo, hi) at `split`. The split axis's order needs no partition:
  /// its first `position` entries are exactly the left side.
  idx_t apply_split(Context& ctx, const Split& split, idx_t lo, idx_t hi) {
    const idx_t boundary = lo + split.position;
    const idx_t first_right = first_right_of(split, lo);
    for (int a = 0; a < options_.dim; ++a) {
      if (a != split.axis) {
        partition_axis(a, lo, hi, split.axis, first_right, ctx.scratch);
      }
    }
    return boundary;
  }

  idx_t first_right_of(const Split& split, idx_t lo) const {
    return sorted_[split.axis][static_cast<std::size_t>(lo + split.position)];
  }

  void make_leaf(Context& ctx, idx_t id, idx_t lo, idx_t hi, idx_t majority,
                 bool pure, const wgt_t* counts) {
    TreeNode& nd = ctx.nodes[static_cast<std::size_t>(id)];
    nd.axis = -1;
    nd.label = majority;
    nd.pure = pure;
    nd.count = hi - lo;
    ++ctx.leaves;
    if (!pure) {
      std::vector<idx_t> minorities;
      for (idx_t l = 0; l < num_labels_; ++l) {
        if (l != majority && counts[l] > 0) minorities.push_back(l);
      }
      ctx.minorities.emplace_back(id, std::move(minorities));
    }
  }

  /// Turns `id` into an interior node split at `split` and returns its
  /// (left, right) children, created in `ctx`.
  std::pair<idx_t, idx_t> make_interior(Context& ctx, idx_t id,
                                        const Split& split, idx_t m,
                                        idx_t majority, bool pure) {
    const idx_t left = ctx.new_node();
    const idx_t right = ctx.new_node();
    TreeNode& nd = ctx.nodes[static_cast<std::size_t>(id)];
    nd.axis = split.axis;
    nd.cut = split.cut;
    nd.left = left;
    nd.right = right;
    nd.label = majority;
    nd.pure = pure;
    nd.count = m;
    return {left, right};
  }

  /// Exact point bounding box of [lo, hi): the sorted order per axis makes
  /// each extent the first/last coordinate in O(1).
  BBox range_bounds(idx_t lo, idx_t hi) const {
    BBox box;
    box.lo = Vec3{0, 0, 0};
    box.hi = Vec3{0, 0, 0};
    for (int a = 0; a < options_.dim; ++a) {
      box.lo[a] = coord(sorted_[a][static_cast<std::size_t>(lo)], a);
      box.hi[a] = coord(sorted_[a][static_cast<std::size_t>(hi - 1)], a);
    }
    return box;
  }

  /// Pooled context `i`, reset for this induction. The pool is a deque, so
  /// growing it never invalidates references to earlier contexts.
  Context& context(std::size_t i) {
    while (ws_.contexts.size() <= i) ws_.contexts.emplace_back();
    Context& ctx = ws_.contexts[i];
    ctx.reset(num_labels_);
    return ctx;
  }

  bool order_less(idx_t x, idx_t y, int axis) const {
    const real_t cx = coord(x, axis);
    const real_t cy = coord(y, axis);
    if (cx != cy) return cx < cy;
    return x < y;  // tie-break: makes the order a strict total order
  }

  /// Readies sorted_[a] (a < dim) to be sorted and returns whether the
  /// saved orders seed the sort: only when they are permutations of this
  /// point count's indices, for at least as many axes (a seed from other
  /// points of the same count still sorts correctly, the repair being a
  /// real sort, just slower). Sorting by (coordinate, index) — a strict
  /// total order — makes each sorted array *unique*: a full std::sort, the
  /// warm repair and any blocking of either give bit-identical orders, so
  /// the warm start can never change the tree. The saved orders count as
  /// valid again only once every axis has been sorted and saved.
  bool begin_orders() {
    const bool warm = ws_.valid && ws_.num_points == points_.size() &&
                      ws_.dim >= options_.dim;
    for (int a = 0; a < options_.dim; ++a) {
      auto& arr = sorted_[static_cast<std::size_t>(a)];
      auto& saved = ws_.orders[static_cast<std::size_t>(a)];
      // After coherent motion the previous order is nearly sorted: repair
      // it instead of sorting from scratch.
      if (warm) std::swap(arr, saved);
      arr.resize(points_.size());
      saved.resize(points_.size());
      ws_.sort_scratch[static_cast<std::size_t>(a)].resize(points_.size());
    }
    ws_.valid = false;
    ws_.num_points = points_.size();
    ws_.dim = options_.dim;
    return warm;
  }

  /// Saves the globally-sorted order of axis `a` for the next call, before
  /// the build leaf-partitions the work copy in place.
  void save_order(int a) {
    const auto& arr = sorted_[static_cast<std::size_t>(a)];
    std::copy(arr.begin(), arr.end(),
              ws_.orders[static_cast<std::size_t>(a)].begin());
  }

  /// Sorts positions [b, e) of sorted_[axis] by (coordinate, index). Cold,
  /// the block is first filled with its own positions. Warm, it holds a
  /// slice of the previous order and an adaptive natural merge sort
  /// repairs it: it finds the maximal ascending runs and merges them
  /// pairwise, O(len) when already sorted, O(len log r) for r runs, and
  /// falls back to std::sort when the block is too disordered for merging
  /// to pay off.
  void sort_block(int axis, idx_t b, idx_t e, bool warm, GangLane& lane) {
    auto& arr = sorted_[static_cast<std::size_t>(axis)];
    const auto first = arr.begin() + b;
    const auto last = arr.begin() + e;
    auto less = [&](idx_t x, idx_t y) { return order_less(x, y, axis); };
    if (!warm) {
      std::iota(first, last, b);
      std::sort(first, last, less);
      return;
    }
    auto& runs = lane.runs;
    runs.clear();
    runs.push_back(b);
    for (idx_t i = b + 1; i < e; ++i) {
      if (less(arr[static_cast<std::size_t>(i)],
               arr[static_cast<std::size_t>(i - 1)])) {
        runs.push_back(i);
      }
    }
    runs.push_back(e);
    std::size_t num_runs = runs.size() - 1;
    if (num_runs <= 1) return;  // already sorted
    if (num_runs > static_cast<std::size_t>((e - b) / 8) + 1) {
      std::sort(first, last, less);
      return;
    }
    auto& scratch = ws_.sort_scratch[static_cast<std::size_t>(axis)];
    std::vector<idx_t>* src = &arr;
    std::vector<idx_t>* dst = &scratch;
    while (num_runs > 1) {
      lane.runs_next.clear();
      lane.runs_next.push_back(runs.front());
      std::size_t r = 0;
      while (r + 1 < num_runs) {
        const auto x = static_cast<std::ptrdiff_t>(runs[r]);
        const auto y = static_cast<std::ptrdiff_t>(runs[r + 1]);
        const auto z = static_cast<std::ptrdiff_t>(runs[r + 2]);
        std::merge(src->begin() + x, src->begin() + y, src->begin() + y,
                   src->begin() + z, dst->begin() + x, less);
        lane.runs_next.push_back(runs[r + 2]);
        r += 2;
      }
      if (r < num_runs) {  // odd run count: carry the last run over
        const auto x = static_cast<std::ptrdiff_t>(runs[r]);
        const auto y = static_cast<std::ptrdiff_t>(runs[r + 1]);
        std::copy(src->begin() + x, src->begin() + y, dst->begin() + x);
        lane.runs_next.push_back(runs[r + 1]);
      }
      std::swap(runs, lane.runs_next);
      std::swap(src, dst);
      num_runs = runs.size() - 1;
    }
    if (src != &arr) std::copy(src->begin() + b, src->begin() + e, first);
  }

  /// Merge round `round` (from 1) of the gang sort: merges pair `pair` of
  /// sorted runs of 2^(round-1) blocks, from sorted_[axis] into the axis
  /// scratch on odd rounds and back on even ones. The unit that merges the
  /// whole axis (the last round's) also saves the order and counts the
  /// root's labels along it.
  void merge_pair(int axis, int round, idx_t pair) {
    const auto n = points_.size();
    const auto run = static_cast<std::size_t>(kChunkPoints) << (round - 1);
    const std::size_t x = static_cast<std::size_t>(pair) * 2 * run;
    const std::size_t y = std::min(n, x + run);
    const std::size_t z = std::min(n, x + 2 * run);
    auto& arr = sorted_[static_cast<std::size_t>(axis)];
    auto& scratch = ws_.sort_scratch[static_cast<std::size_t>(axis)];
    const auto& src = round % 2 == 1 ? arr : scratch;
    auto& dst = round % 2 == 1 ? scratch : arr;
    const auto less = [&](idx_t p, idx_t q) { return order_less(p, q, axis); };
    const auto first = src.begin() + static_cast<std::ptrdiff_t>(x);
    const auto mid = src.begin() + static_cast<std::ptrdiff_t>(y);
    const auto last = src.begin() + static_cast<std::ptrdiff_t>(z);
    auto out = dst.begin() + static_cast<std::ptrdiff_t>(x);
    if (mid == last) {
      std::copy(first, mid, out);
    } else {
      // After coherent motion the runs barely overlap: copy the left run's
      // head that precedes the right run and the right run's tail that
      // follows the left run, and merge only what lies between.
      const auto head = std::upper_bound(first, mid, *mid, less);
      const auto tail = std::lower_bound(mid, last, *(mid - 1), less);
      out = std::copy(first, head, out);
      out = std::merge(head, mid, mid, tail, out, less);
      std::copy(tail, last, out);
    }
    if (x == 0 && z == n) {
      std::copy(dst.begin(), dst.end(),
                ws_.orders[static_cast<std::size_t>(axis)].begin());
      count_chunks(ws_.level.front(), axis, dst);
    }
  }

  void process(Context& ctx, const Item& item) {
    const auto [id, lo, hi] = item;
    count_labels(sorted_[0], lo, hi, ctx.counts.data());
    const auto [majority, pure] = majority_of(ctx.counts.data());
    const idx_t m = hi - lo;
    ctx.nodes[static_cast<std::size_t>(id)].bounds = range_bounds(lo, hi);

    Split split;
    if (pure) {
      const bool oversized = options_.max_pure > 0 && m >= options_.max_pure;
      if (oversized) split = median_split(lo, hi);
      // Pure and small (or unsplittable): leaf.
    } else {
      const bool undersized = options_.max_impure > 0 && m < options_.max_impure;
      if (!undersized) {
        split = best_gini_split(ctx, lo, hi);
        // Mixed labels on coincident coordinates cannot be separated by an
        // axis-parallel plane: fall through to an impure leaf; box queries
        // union all labels present (conservative, never misses).
      }
    }

    if (!split.found) {
      make_leaf(ctx, id, lo, hi, majority, pure, ctx.counts.data());
      return;
    }

    const idx_t boundary = apply_split(ctx, split, lo, hi);
    const auto [left, right] = make_interior(ctx, id, split, m, majority, pure);
    ctx.stack.push_back({left, lo, boundary});
    ctx.stack.push_back({right, boundary, hi});
  }

  /// Processes `ctx`'s work stack to exhaustion, last in first out: each
  /// split pushes its left then right child, so the right child is popped
  /// first. Node ids follow creation order — the canonical numbering.
  void drain(Context& ctx) {
    while (!ctx.stack.empty()) {
      const Item item = ctx.stack.back();
      ctx.stack.pop_back();
      process(ctx, item);
    }
  }

  // --- The gang build ------------------------------------------------------

  /// Runs the three stages of the class comment in one gang dispatch, then
  /// splices the top and the frontier subtrees into `tree`.
  void build_concurrent(DecisionTree& tree, Minorities& minorities) {
    ThreadPool& pool = ThreadPool::global();
    const unsigned want = pool.width();
    if (ws_.lanes.size() < want) ws_.lanes.resize(want);
    for (unsigned p = 0; p < want; ++p) {
      ws_.lanes[p].left_counts.resize(num_labels() + kCountPad);
    }
    warm_ = begin_orders();
    ws_.level.assign(1, LevelNode(tree.root_, 0, to_idx(points_.size())));
    layout_level(ws_.level);
    ws_.next_level.clear();
    ws_.frontier.clear();
    stage_ = Stage::kSort;
    ws_.units.clear();
    for (int a = 0; a < options_.dim; ++a) {
      for (idx_t blk = 0; blk < num_blocks(); ++blk) {
        ws_.units.push_back({blk, a, 0});
      }
    }

    GangBarrier barrier;
    pool.run_gang(want, [&](idx_t participant, unsigned width) {
      GangLane& lane = ws_.lanes[static_cast<std::size_t>(participant)];
      for (;;) {
        for (;;) {
          const std::size_t u = cursor_.fetch_add(1, std::memory_order_relaxed);
          if (u >= ws_.units.size()) break;
          try {
            run_unit(ws_.units[u], lane);
          } catch (...) {
            record_failure(std::current_exception());
          }
        }
        // The frontier is the last stage: run_gang's join ends it.
        if (stage_ == Stage::kFrontier) return;
        barrier.arrive_and_wait(width, [&] {
          try {
            if (!error_) advance();
          } catch (...) {
            record_failure(std::current_exception());
          }
          if (error_) stage_ = Stage::kDone;
          cursor_.store(0, std::memory_order_relaxed);
        });
        if (stage_ == Stage::kDone) return;
      }
    });
    if (error_) std::rethrow_exception(error_);
    splice(ws_.frontier, tree, minorities);
  }

  void record_failure(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::move(e);
  }

  idx_t num_blocks() const {
    return (to_idx(points_.size()) + kChunkPoints - 1) / kChunkPoints;
  }

  /// Position range [b, e) of chunk `c` of level node `nd`.
  static std::pair<idx_t, idx_t> chunk_range(const LevelNode& nd, idx_t c) {
    const auto m = static_cast<std::int64_t>(nd.hi - nd.lo);
    return {nd.lo + static_cast<idx_t>(m * c / nd.chunks),
            nd.lo + static_cast<idx_t>(m * (c + 1) / nd.chunks)};
  }

  wgt_t* node_hist(const LevelNode& nd, int axis, idx_t c) {
    return ws_.hist.data() + nd.hist +
           (static_cast<std::size_t>(axis) *
                static_cast<std::size_t>(nd.chunks) +
            static_cast<std::size_t>(c)) *
               num_labels();
  }

  wgt_t* node_totals(std::size_t i) {
    return ws_.totals.data() + i * num_labels();
  }

  /// Scan chunks and histogram slots of a level about to be scanned. A
  /// node of two chunks or more needs per-(axis, chunk) label histograms,
  /// since its scans start mid-range; any other node just its tally
  /// (axis 0).
  void layout_level(std::vector<LevelNode>& level) {
    std::size_t hist = 0;
    for (LevelNode& nd : level) {
      nd.chunks = std::max<idx_t>(1, (nd.hi - nd.lo) / kChunkPoints);
      nd.hist = hist;
      hist += static_cast<std::size_t>(options_.dim) *
              static_cast<std::size_t>(nd.chunks) * num_labels();
    }
    ws_.hist.resize(hist);
  }

  /// Fills `nd`'s histograms along `axis` (if it needs any) from `ord`.
  void count_chunks(const LevelNode& nd, int axis,
                    const std::vector<idx_t>& ord) {
    if (nd.chunks == 1 && axis != 0) return;
    for (idx_t c = 0; c < nd.chunks; ++c) {
      const auto [b, e] = chunk_range(nd, c);
      count_labels(ord, b, e, node_hist(nd, axis, c));
    }
  }

  void run_unit(const GangUnit& u, GangLane& lane) {
    const auto i = static_cast<std::size_t>(u.index);
    switch (stage_) {
      case Stage::kSort: {
        const idx_t b = u.index * kChunkPoints;
        sort_block(u.axis, b,
                   std::min(to_idx(points_.size()), b + kChunkPoints), warm_,
                   lane);
        break;
      }
      case Stage::kMerge:
        merge_pair(u.axis, merge_round_, u.index);
        break;
      case Stage::kScan: {
        const LevelNode& nd = ws_.level[i];
        if (u.axis < 0) {
          ws_.cands[nd.cand] = median_split(nd.lo, nd.hi);
          break;
        }
        if (degenerate(u.axis, nd.lo, nd.hi)) break;
        // Labels left of the chunk: the histograms of the chunks before it.
        wgt_t* left = lane.left_counts.data();
        std::fill(left, left + num_labels(), wgt_t{0});
        for (idx_t c = 0; c < u.chunk; ++c) {
          const wgt_t* h = node_hist(nd, u.axis, c);
          for (std::size_t l = 0; l < num_labels(); ++l) left[l] += h[l];
        }
        const auto [b, e] = chunk_range(nd, u.chunk);
        // A local best, stored once: the candidates of one node's units
        // share cache lines.
        Split best;
        scan_cuts(u.axis, nd.lo, nd.hi, b, e, node_totals(i), left, best);
        ws_.cands[nd.cand +
                  static_cast<std::size_t>(u.axis * nd.chunks + u.chunk)] = best;
        break;
      }
      case Stage::kPartition: {
        const LevelNode& nd = ws_.level[i];
        if (u.axis != nd.split.axis) {
          partition_axis(u.axis, nd.lo, nd.hi, nd.split.axis,
                         first_right_of(nd.split, nd.lo), lane.scratch);
        }
        if (count_next_) {
          const auto& ord = sorted_[static_cast<std::size_t>(u.axis)];
          count_chunks(ws_.next_level[nd.child], u.axis, ord);
          count_chunks(ws_.next_level[nd.child + 1], u.axis, ord);
        }
        break;
      }
      case Stage::kFrontier: {
        Context& ctx = ws_.contexts[i + 1];
        const Item& item = ws_.frontier[i];
        ctx.stack.push_back({ctx.new_node(), item.lo, item.hi});
        drain(ctx);
        break;
      }
      case Stage::kDone:
        break;
    }
  }

  /// The serial step between two stages (run by the barrier's last
  /// arriver): plans the next stage's units from the finished one.
  void advance() {
    ws_.units.clear();
    switch (stage_) {
      case Stage::kSort:
      case Stage::kMerge: {
        // Sorted runs left after merge_round_ rounds.
        const idx_t runs =
            (num_blocks() + (idx_t{1} << merge_round_) - 1) >> merge_round_;
        if (runs > 1) {
          stage_ = Stage::kMerge;
          ++merge_round_;
          for (int a = 0; a < options_.dim; ++a) {
            for (idx_t pair = 0; pair < (runs + 1) / 2; ++pair) {
              ws_.units.push_back({pair, a, 0});
            }
          }
          return;
        }
        if (merge_round_ % 2 == 1) {  // the last round wrote the scratch
          for (int a = 0; a < options_.dim; ++a) {
            std::swap(sorted_[static_cast<std::size_t>(a)],
                      ws_.sort_scratch[static_cast<std::size_t>(a)]);
          }
        }
        ws_.valid = true;
        plan_scan();
        return;
      }
      case Stage::kScan:
        plan_partition();
        return;
      case Stage::kPartition:
        std::swap(ws_.level, ws_.next_level);
        ws_.next_level.clear();
        if (to_idx(ws_.level.size()) >= kFrontierTarget) {
          plan_frontier();
        } else {
          plan_scan();
        }
        return;
      case Stage::kFrontier:  // ends without a barrier
      case Stage::kDone:
        return;
    }
  }

  /// Per node: label totals, majority, purity and bounds, then the split
  /// search its options call for — the Eq.-1 scan per (axis, chunk), or
  /// one median unit (axis -1) for an oversized pure node.
  void plan_scan() {
    stage_ = Stage::kScan;
    Context& top = ws_.contexts[0];
    ws_.totals.resize(ws_.level.size() * num_labels());
    std::size_t cand = 0;
    for (std::size_t i = 0; i < ws_.level.size(); ++i) {
      LevelNode& nd = ws_.level[i];
      wgt_t* totals = node_totals(i);
      std::fill(totals, totals + num_labels(), wgt_t{0});
      for (idx_t c = 0; c < nd.chunks; ++c) {
        const wgt_t* h = node_hist(nd, 0, c);
        for (std::size_t l = 0; l < num_labels(); ++l) totals[l] += h[l];
      }
      std::tie(nd.majority, nd.pure) = majority_of(totals);
      top.nodes[static_cast<std::size_t>(nd.id)].bounds =
          range_bounds(nd.lo, nd.hi);
      const idx_t m = nd.hi - nd.lo;
      nd.cand = cand;
      nd.num_cands = 0;
      if (nd.pure) {
        if (options_.max_pure > 0 && m >= options_.max_pure) {
          nd.num_cands = 1;
          ws_.units.push_back({to_idx(i), -1, 0});
        }
      } else if (options_.max_impure == 0 || m >= options_.max_impure) {
        nd.num_cands = static_cast<std::size_t>(options_.dim) *
                       static_cast<std::size_t>(nd.chunks);
        for (int a = 0; a < options_.dim; ++a) {
          for (idx_t c = 0; c < nd.chunks; ++c) {
            ws_.units.push_back({to_idx(i), a, c});
          }
        }
      }
      cand += nd.num_cands;
    }
    ws_.cands.assign(cand, Split{});
  }

  /// Reduces each node's candidates in (axis, position) order — the first
  /// found wins ties, as in the plain scan — and turns the node into a
  /// leaf or an interior node with two next-level children. Then plans the
  /// partition of every split node along each axis but the split's; unless
  /// the next level is the frontier, the same units count the children's
  /// labels along their axis, ready for the next scan.
  void plan_partition() {
    stage_ = Stage::kPartition;
    Context& top = ws_.contexts[0];
    for (std::size_t i = 0; i < ws_.level.size(); ++i) {
      LevelNode& nd = ws_.level[i];
      Split best;
      for (std::size_t c = nd.cand; c < nd.cand + nd.num_cands; ++c) {
        const Split& s = ws_.cands[c];
        if (s.found && (!best.found || s.score > best.score)) best = s;
      }
      nd.split = best;
      if (!best.found) {
        make_leaf(top, nd.id, nd.lo, nd.hi, nd.majority, nd.pure,
                  node_totals(i));
        continue;
      }
      const auto [left, right] = make_interior(top, nd.id, best, nd.hi - nd.lo,
                                               nd.majority, nd.pure);
      const idx_t boundary = nd.lo + best.position;
      nd.child = ws_.next_level.size();
      ws_.next_level.emplace_back(left, nd.lo, boundary);
      ws_.next_level.emplace_back(right, boundary, nd.hi);
    }
    if (ws_.next_level.empty()) {
      stage_ = Stage::kDone;
      return;
    }
    count_next_ = to_idx(ws_.next_level.size()) < kFrontierTarget;
    if (count_next_) layout_level(ws_.next_level);
    for (std::size_t i = 0; i < ws_.level.size(); ++i) {
      const LevelNode& nd = ws_.level[i];
      if (!nd.split.found) continue;
      const bool chunked = ws_.next_level[nd.child].chunks > 1 ||
                           ws_.next_level[nd.child + 1].chunks > 1;
      for (int a = 0; a < options_.dim; ++a) {
        const bool counts = count_next_ && (a == 0 || chunked);
        if (a != nd.split.axis || counts) {
          ws_.units.push_back({to_idx(i), a, 0});
        }
      }
    }
  }

  /// One unit per pending subtree, largest first so the long ones start
  /// early; each gets its own context, reset here (serially: growing the
  /// context deque is not safe under concurrent readers).
  void plan_frontier() {
    stage_ = Stage::kFrontier;
    for (std::size_t t = 0; t < ws_.level.size(); ++t) {
      const LevelNode& nd = ws_.level[t];
      ws_.frontier.push_back({nd.id, nd.lo, nd.hi});
      context(t + 1);
      ws_.units.push_back({to_idx(t), 0, 0});
    }
    std::stable_sort(
        ws_.units.begin(), ws_.units.end(),
        [&](const GangUnit& x, const GangUnit& y) {
          const Item& a = ws_.frontier[static_cast<std::size_t>(x.index)];
          const Item& b = ws_.frontier[static_cast<std::size_t>(y.index)];
          return a.hi - a.lo > b.hi - b.lo;
        });
  }

  /// Assembles the gang build into `tree` under the canonical numbering.
  /// The plain build gives the nodes below any node X consecutive ids, from
  /// when X is popped until its subtree is done, and each frontier unit
  /// built its subtree that way: its local node j >= 1 lands at
  /// base + j - 1. Only the top (context 0) is walked to find the ids of
  /// its own nodes and each subtree's base.
  void splice(const std::vector<Item>& frontier, DecisionTree& tree,
              Minorities& minorities) {
    Context& top = ws_.contexts[0];
    const std::size_t top_size = top.nodes.size();
    std::vector<idx_t> canon(top_size, kInvalidIndex);
    std::vector<idx_t> task_of(top_size, kInvalidIndex);
    for (std::size_t t = 0; t < frontier.size(); ++t) {
      task_of[static_cast<std::size_t>(frontier[t].node)] = to_idx(t);
    }
    std::vector<idx_t> base(frontier.size());
    canon[static_cast<std::size_t>(tree.root_)] = 0;
    idx_t next = 1;
    std::vector<idx_t> stack{tree.root_};
    while (!stack.empty()) {
      const auto x = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      if (const idx_t t = task_of[x]; t != kInvalidIndex) {
        const auto task = static_cast<std::size_t>(t);
        base[task] = next;
        next += to_idx(ws_.contexts[task + 1].nodes.size()) - 1;
        continue;
      }
      const TreeNode& nd = top.nodes[x];
      if (nd.axis < 0) continue;
      canon[static_cast<std::size_t>(nd.left)] = next++;
      canon[static_cast<std::size_t>(nd.right)] = next++;
      stack.push_back(nd.left);
      stack.push_back(nd.right);
    }

    tree.nodes_.resize(static_cast<std::size_t>(next));
    auto place = [&](Context& ctx, auto remap) {
      for (std::size_t j = 0; j < ctx.nodes.size(); ++j) {
        TreeNode nd = ctx.nodes[j];
        if (nd.axis >= 0) {
          nd.left = remap(nd.left);
          nd.right = remap(nd.right);
        }
        tree.nodes_[static_cast<std::size_t>(remap(to_idx(j)))] = nd;
      }
      for (auto& [id, labels] : ctx.minorities) {
        minorities.emplace_back(remap(id), std::move(labels));
      }
      tree.num_leaves_ += ctx.leaves;
    };
    // The top's frontier entries are placeholders (their content is each
    // subtree's local root); the subtrees overwrite them below.
    place(top, [&](idx_t id) { return canon[static_cast<std::size_t>(id)]; });
    for (std::size_t t = 0; t < frontier.size(); ++t) {
      const idx_t root_id = canon[static_cast<std::size_t>(frontier[t].node)];
      place(ws_.contexts[t + 1], [&](idx_t local) {
        return local == 0 ? root_id : base[t] + local - 1;
      });
    }
  }

  /// Leaf id of every point. The build leaves each leaf's points as one
  /// contiguous range of sorted_[0], ranges in left-to-right leaf order,
  /// so a left-first walk hands them out in sequence.
  void fill_point_leaf(const DecisionTree& tree,
                       std::vector<idx_t>& point_leaf) const {
    point_leaf.resize(points_.size());
    std::size_t pos = 0;
    std::vector<idx_t> stack{tree.root_};
    while (!stack.empty()) {
      const idx_t id = stack.back();
      stack.pop_back();
      const TreeNode& nd = tree.node(id);
      if (nd.axis >= 0) {
        stack.push_back(nd.right);
        stack.push_back(nd.left);
        continue;
      }
      for (idx_t i = 0; i < nd.count; ++i) {
        point_leaf[static_cast<std::size_t>(sorted_[0][pos++])] = id;
      }
    }
  }

  std::span<const Vec3> points_;
  std::span<const idx_t> labels_;
  idx_t num_labels_;
  TreeInduceOptions options_;

  TreeInduceWorkspace::Impl& ws_;
  // The per-axis orders consumed (leaf-partitioned) by the build; a
  // reference into the workspace.
  std::array<std::vector<idx_t>, 3>& sorted_;

  // Gang build control. stage_, merge_round_ and the workspace's unit and
  // level vectors are written only by the serial step between stages; the
  // barrier orders those writes before every participant's next reads.
  Stage stage_ = Stage::kDone;
  int merge_round_ = 0;
  bool warm_ = false;
  bool count_next_ = false;  // partition units also count the next level
  std::atomic<std::size_t> cursor_{0};
  std::mutex error_mutex_;
  std::exception_ptr error_;  // first failure; ends the gang at a barrier
};

InducedTree induce_tree(std::span<const Vec3> points,
                        std::span<const idx_t> labels, idx_t num_labels,
                        const TreeInduceOptions& options) {
  return induce_tree(points, labels, num_labels, options, nullptr);
}

InducedTree induce_tree(std::span<const Vec3> points,
                        std::span<const idx_t> labels, idx_t num_labels,
                        const TreeInduceOptions& options,
                        TreeInduceWorkspace* workspace) {
  require(points.size() == labels.size(),
          "induce_tree: points/labels size mismatch");
  require(num_labels >= 1, "induce_tree: need at least one label");
  require(options.dim == 2 || options.dim == 3,
          "induce_tree: dim must be 2 or 3");
  for (idx_t l : labels) {
    require(l >= 0 && l < num_labels, "induce_tree: label out of range");
  }
  TreeInduceWorkspace local;
  TreeInduceWorkspace& ws = workspace != nullptr ? *workspace : local;
  TreeInducer inducer(points, labels, num_labels, options, *ws.impl_);
  return inducer.run();
}

}  // namespace cpart
