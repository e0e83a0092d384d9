#include "tree/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <numeric>

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

/// Pending subtree: node id within its context plus the point range.
struct InduceItem {
  idx_t node;
  idx_t lo, hi;
};

/// Per-worker build state, pooled in the workspace. Node ids are local to
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
    counts.assign(static_cast<std::size_t>(num_labels), 0);
    left_counts.assign(static_cast<std::size_t>(num_labels), 0);
    leaves = 0;
  }
};

/// Per-axis scratch for the warm-start repair sort (one per axis so cold
/// parallel sorts of the three axes don't share state).
struct RepairBuffers {
  std::vector<idx_t> scratch;
  std::vector<idx_t> runs;
  std::vector<idx_t> runs_next;
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
  std::vector<char> side;
  std::array<RepairBuffers, 3> repair;
  /// Context pool: a deque so growing it for task contexts never
  /// invalidates the reference to the main context (slot 0).
  std::deque<InduceContext> contexts;
  std::vector<TreeNode> node_pool;  // retired tree storage (recycle())
};

TreeInduceWorkspace::TreeInduceWorkspace() : impl_(std::make_unique<Impl>()) {}
TreeInduceWorkspace::~TreeInduceWorkspace() = default;
TreeInduceWorkspace::TreeInduceWorkspace(TreeInduceWorkspace&&) noexcept =
    default;
TreeInduceWorkspace& TreeInduceWorkspace::operator=(
    TreeInduceWorkspace&&) noexcept = default;

void TreeInduceWorkspace::invalidate() { impl_->valid = false; }

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
/// Inputs of kConcurrentMinPoints or more take the concurrent build: a
/// sequential phase expands the tree until the work stack holds enough
/// independent subranges, then each pending subtree is built concurrently
/// into its own node buffer (the per-axis sorted arrays are shared —
/// subranges are disjoint — while histograms and scratch are per-worker)
/// and spliced into the final tree under the plain build's numbering.
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
        sorted_(ws.work),
        side_(ws.side) {}

  using Item = InduceItem;
  using Context = InduceContext;
  using Minorities = std::vector<std::pair<idx_t, std::vector<idx_t>>>;

  /// Inputs at least this large sort their axes and build their subtrees
  /// concurrently.
  static constexpr idx_t kConcurrentMinPoints = 4096;
  /// Frontier width of the concurrent build. A pinned constant, NOT derived
  /// from the pool size, so the work split is the same at every width. 64
  /// keeps >= 4 subtrees per worker at every pool size this library runs
  /// (<= 16 workers).
  static constexpr idx_t kFrontierTarget = 64;

  InducedTree run() {
    const idx_t n = to_idx(points_.size());
    InducedTree result;
    result.num_labels = num_labels_;
    if (n == 0) return result;

    prepare_orders(n);
    // side_ entries are fully (re)written by apply_split before being read,
    // so the buffer only needs the right size, not a cleared state.
    side_.resize(points_.size());

    const bool concurrent = n >= kConcurrentMinPoints;
    DecisionTree& tree = result.tree;
    Context& main_ctx = context(0);
    // Pooled node storage goes to whichever vector becomes the tree's.
    std::vector<TreeNode>& storage = concurrent ? tree.nodes_ : main_ctx.nodes;
    if (storage.capacity() < ws_.node_pool.capacity()) {
      storage = std::move(ws_.node_pool);
      storage.clear();
    }
    ws_.node_pool.clear();
    tree.root_ = main_ctx.new_node();
    main_ctx.stack.push_back({tree.root_, 0, n});

    Minorities minorities;
    if (concurrent) {
      build_concurrent(tree, minorities);
    } else {
      drain(main_ctx);
      tree.nodes_ = std::move(main_ctx.nodes);
      tree.num_leaves_ = main_ctx.leaves;
      minorities = std::move(main_ctx.minorities);
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
  struct Split {
    bool found = false;
    int axis = -1;
    idx_t position = 0;  // points sorted_[axis][lo .. lo+position) go left
    real_t cut = 0;
    double score = -1;
  };

  real_t coord(idx_t point, int axis) const {
    return points_[static_cast<std::size_t>(point)][axis];
  }
  idx_t label(idx_t point) const {
    return labels_[static_cast<std::size_t>(point)];
  }

  /// Histogram of labels over [lo, hi); fills ctx.counts and returns the
  /// majority label and whether the range is pure.
  std::pair<idx_t, bool> tally(Context& ctx, idx_t lo, idx_t hi) const {
    std::fill(ctx.counts.begin(), ctx.counts.end(), wgt_t{0});
    for (idx_t i = lo; i < hi; ++i) {
      ++ctx.counts[static_cast<std::size_t>(
          label(sorted_[0][static_cast<std::size_t>(i)]))];
    }
    idx_t majority = 0;
    idx_t distinct = 0;
    for (idx_t l = 0; l < num_labels_; ++l) {
      if (ctx.counts[static_cast<std::size_t>(l)] > 0) {
        ++distinct;
        if (ctx.counts[static_cast<std::size_t>(l)] >
            ctx.counts[static_cast<std::size_t>(majority)]) {
          majority = l;
        }
      }
    }
    return {majority, distinct <= 1};
  }

  /// Best Eq.-1 split over all axes for the (impure) range [lo, hi).
  Split best_gini_split(Context& ctx, idx_t lo, idx_t hi) const {
    Split best;
    const idx_t m = hi - lo;
    double sumsq_total = 0;
    for (idx_t l = 0; l < num_labels_; ++l) {
      const double c =
          static_cast<double>(ctx.counts[static_cast<std::size_t>(l)]);
      sumsq_total += c * c;
    }
    for (int axis = 0; axis < options_.dim; ++axis) {
      const auto& ord = sorted_[axis];
      const real_t span_lo = coord(ord[static_cast<std::size_t>(lo)], axis);
      const real_t span_hi = coord(ord[static_cast<std::size_t>(hi - 1)], axis);
      if (span_lo == span_hi) continue;  // degenerate axis
      const real_t width = span_hi - span_lo;
      std::fill(ctx.left_counts.begin(), ctx.left_counts.end(), wgt_t{0});
      double sumsq_left = 0;
      double sumsq_right = sumsq_total;
      for (idx_t i = 0; i + 1 < m; ++i) {
        const idx_t p = ord[static_cast<std::size_t>(lo + i)];
        const idx_t lp = label(p);
        // Move p from the right side to the left side; both sums update in
        // O(1): (c+1)^2 - c^2 = 2c+1 and c^2 - (c-1)^2 = 2c-1.
        const double cl =
            static_cast<double>(ctx.left_counts[static_cast<std::size_t>(lp)]);
        const double cr =
            static_cast<double>(ctx.counts[static_cast<std::size_t>(lp)]) - cl;
        sumsq_left += 2 * cl + 1;
        sumsq_right -= 2 * cr - 1;
        ++ctx.left_counts[static_cast<std::size_t>(lp)];
        const real_t c0 = coord(p, axis);
        const real_t c1 = coord(ord[static_cast<std::size_t>(lo + i + 1)], axis);
        if (c0 == c1) continue;  // hyperplane must separate distinct coords
        double score = std::sqrt(sumsq_left) + std::sqrt(sumsq_right);
        if (options_.gap_alpha > 0) {
          // Gap preference: wider empty corridors score higher. Scaled by m
          // so it is commensurate with the count-scaled purity term.
          score += options_.gap_alpha * static_cast<double>(m) *
                   static_cast<double>((c1 - c0) / width);
        }
        if (score > best.score) {
          best.found = true;
          best.axis = axis;
          best.position = i + 1;
          best.cut = 0.5 * (c0 + c1);
          best.score = score;
        }
      }
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

  /// Splits [lo, hi) at `split`, stable-partitioning every axis order so
  /// each side stays sorted. Returns the boundary index. Touches only the
  /// [lo, hi) slices of the shared arrays, so disjoint ranges can split
  /// concurrently.
  idx_t apply_split(Context& ctx, const Split& split, idx_t lo, idx_t hi) {
    const auto& ord = sorted_[split.axis];
    for (idx_t i = lo; i < lo + split.position; ++i) {
      side_[static_cast<std::size_t>(ord[static_cast<std::size_t>(i)])] = 0;
    }
    for (idx_t i = lo + split.position; i < hi; ++i) {
      side_[static_cast<std::size_t>(ord[static_cast<std::size_t>(i)])] = 1;
    }
    ctx.scratch.resize(static_cast<std::size_t>(hi - lo));
    for (int a = 0; a < options_.dim; ++a) {
      auto& arr = sorted_[a];
      idx_t out_left = lo;
      idx_t out_right = 0;
      for (idx_t i = lo; i < hi; ++i) {
        const idx_t p = arr[static_cast<std::size_t>(i)];
        if (side_[static_cast<std::size_t>(p)] == 0) {
          arr[static_cast<std::size_t>(out_left++)] = p;
        } else {
          ctx.scratch[static_cast<std::size_t>(out_right++)] = p;
        }
      }
      std::copy(ctx.scratch.begin(), ctx.scratch.begin() + out_right,
                arr.begin() + out_left);
    }
    return lo + split.position;
  }

  void make_leaf(Context& ctx, idx_t id, idx_t lo, idx_t hi, idx_t majority,
                 bool pure) {
    TreeNode& nd = ctx.nodes[static_cast<std::size_t>(id)];
    nd.axis = -1;
    nd.label = majority;
    nd.pure = pure;
    nd.count = hi - lo;
    ++ctx.leaves;
    if (!pure) {
      std::vector<idx_t> minorities;
      for (idx_t l = 0; l < num_labels_; ++l) {
        if (l != majority && ctx.counts[static_cast<std::size_t>(l)] > 0) {
          minorities.push_back(l);
        }
      }
      ctx.minorities.emplace_back(id, std::move(minorities));
    }
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

  /// Fills sorted_[a] (a < dim) with indices 0..n-1 ordered by
  /// (coordinate, index). The index tie-break makes the comparator a
  /// strict total order, so the sorted array is *unique*: whether it is
  /// produced by a full std::sort or by the warm repair pass, the result
  /// is bit-identical — the warm start can never change the tree.
  void prepare_orders(idx_t n) {
    // Warm only when the saved orders cover this point count and at least
    // as many axes. A stale seed would still sort correctly (the repair
    // pass is a real sort), just slower; the checks are perf gates.
    const bool warm = ws_.valid && ws_.num_points == points_.size() &&
                      ws_.dim >= options_.dim;
    auto build_axis = [&](int a) {
      auto& arr = sorted_[static_cast<std::size_t>(a)];
      auto& saved = ws_.orders[static_cast<std::size_t>(a)];
      if (warm) {
        // After coherent motion the previous order is nearly sorted:
        // repair it instead of sorting from scratch.
        std::swap(arr, saved);
        repair_sort(arr, a);
      } else {
        arr.resize(points_.size());
        std::iota(arr.begin(), arr.end(), idx_t{0});
        std::sort(arr.begin(), arr.end(),
                  [&](idx_t x, idx_t y) { return order_less(x, y, a); });
      }
      // Save the globally-sorted order now, before the build
      // leaf-partitions the work copy in place.
      saved = arr;
    };
    if (n >= kConcurrentMinPoints && options_.dim > 1) {
      // Axes are independent (separate work/order/repair buffers).
      ThreadPool::global().parallel_tasks(
          static_cast<idx_t>(options_.dim),
          [&](idx_t a) { build_axis(static_cast<int>(a)); });
    } else {
      for (int a = 0; a < options_.dim; ++a) build_axis(a);
    }
    ws_.valid = true;
    ws_.num_points = points_.size();
    ws_.dim = options_.dim;
  }

  /// Adaptive re-sort of a nearly-sorted order array: finds the maximal
  /// ascending runs and merges them pairwise (natural bottom-up merge
  /// sort). O(n) when already sorted, O(n log r) for r runs; falls back to
  /// std::sort when the array is too disordered for merging to pay off.
  void repair_sort(std::vector<idx_t>& arr, int axis) {
    const idx_t n = to_idx(arr.size());
    auto less = [&](idx_t x, idx_t y) { return order_less(x, y, axis); };
    RepairBuffers& rb = ws_.repair[static_cast<std::size_t>(axis)];
    rb.runs.clear();
    rb.runs.push_back(0);
    for (idx_t i = 1; i < n; ++i) {
      if (less(arr[static_cast<std::size_t>(i)],
               arr[static_cast<std::size_t>(i - 1)])) {
        rb.runs.push_back(i);
      }
    }
    rb.runs.push_back(n);
    std::size_t num_runs = rb.runs.size() - 1;
    if (num_runs <= 1) return;  // already sorted
    if (num_runs > static_cast<std::size_t>(n / 8) + 1) {
      std::sort(arr.begin(), arr.end(), less);
      return;
    }
    rb.scratch.resize(arr.size());
    std::vector<idx_t>* src = &arr;
    std::vector<idx_t>* dst = &rb.scratch;
    while (num_runs > 1) {
      rb.runs_next.clear();
      rb.runs_next.push_back(rb.runs.front());
      std::size_t r = 0;
      while (r + 1 < num_runs) {
        const auto a = static_cast<std::ptrdiff_t>(rb.runs[r]);
        const auto b = static_cast<std::ptrdiff_t>(rb.runs[r + 1]);
        const auto c = static_cast<std::ptrdiff_t>(rb.runs[r + 2]);
        std::merge(src->begin() + a, src->begin() + b, src->begin() + b,
                   src->begin() + c, dst->begin() + a, less);
        rb.runs_next.push_back(rb.runs[r + 2]);
        r += 2;
      }
      if (r < num_runs) {  // odd run count: carry the last run over
        const auto a = static_cast<std::ptrdiff_t>(rb.runs[r]);
        const auto b = static_cast<std::ptrdiff_t>(rb.runs[r + 1]);
        std::copy(src->begin() + a, src->begin() + b, dst->begin() + a);
        rb.runs_next.push_back(rb.runs[r + 1]);
      }
      std::swap(rb.runs, rb.runs_next);
      std::swap(src, dst);
      num_runs = rb.runs.size() - 1;
    }
    if (src != &arr) std::copy(src->begin(), src->end(), arr.begin());
  }

  void process(Context& ctx, const Item& item) {
    const auto [id, lo, hi] = item;
    const auto [majority, pure] = tally(ctx, lo, hi);
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
      make_leaf(ctx, id, lo, hi, majority, pure);
      return;
    }

    const idx_t boundary = apply_split(ctx, split, lo, hi);
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

  /// The concurrent build: expands the root in context 0 until the work
  /// stack holds kFrontierTarget subranges, builds each pending subtree in
  /// its own context, then splices everything into `tree`.
  void build_concurrent(DecisionTree& tree, Minorities& minorities) {
    Context& top = ws_.contexts[0];
    while (!top.stack.empty() && to_idx(top.stack.size()) < kFrontierTarget) {
      // Pop the widest item so the frontier ranges stay balanced.
      std::size_t widest = 0;
      for (std::size_t i = 1; i < top.stack.size(); ++i) {
        if (top.stack[i].hi - top.stack[i].lo >
            top.stack[widest].hi - top.stack[widest].lo) {
          widest = i;
        }
      }
      const Item item = top.stack[widest];
      top.stack.erase(top.stack.begin() + static_cast<std::ptrdiff_t>(widest));
      process(top, item);
    }
    const std::vector<Item> frontier = std::move(top.stack);
    top.stack.clear();
    // Acquire (and reset) the pooled task contexts up front: the pool is a
    // deque, so later growth never invalidates `top`.
    for (std::size_t t = 0; t < frontier.size(); ++t) context(t + 1);
    ThreadPool::global().parallel_tasks(to_idx(frontier.size()), [&](idx_t t) {
      Context& ctx = ws_.contexts[static_cast<std::size_t>(t) + 1];
      const Item item = frontier[static_cast<std::size_t>(t)];
      ctx.stack.push_back({ctx.new_node(), item.lo, item.hi});
      drain(ctx);
    });
    splice(frontier, tree, minorities);
  }

  /// Assembles the concurrent build into `tree` under the canonical
  /// numbering. The plain build gives the nodes below any node X
  /// consecutive ids, from when X is popped until its subtree is done, and
  /// each task built its subtree that way: its local node j >= 1 lands at
  /// base + j - 1. Only the top (context 0) is walked to find the ids of
  /// its own nodes and each task's base.
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
    // task's local root); the tasks overwrite them below.
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
  // References into the workspace: the per-axis orders consumed
  // (leaf-partitioned) by the build, and the shared point→side scratch.
  std::array<std::vector<idx_t>, 3>& sorted_;
  std::vector<char>& side_;
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
