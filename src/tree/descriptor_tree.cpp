#include "tree/descriptor_tree.hpp"

#include <algorithm>

namespace cpart {

SubdomainDescriptors::SubdomainDescriptors(
    std::span<const Vec3> contact_points, std::span<const idx_t> part_of_point,
    idx_t num_parts, const DescriptorOptions& options,
    TreeInduceWorkspace* workspace)
    : num_parts_(num_parts) {
  TreeInduceOptions induce;
  induce.dim = options.dim;
  induce.gap_alpha = options.gap_alpha;
  // The per-point leaf map is never consulted here; skip producing it.
  induce.want_point_leaf = false;
  // Descriptor trees terminate exactly at purity: max_pure = 0 (pure nodes
  // are always leaves), max_impure = 0 (impure nodes split until no
  // separating hyperplane exists).
  InducedTree induced =
      induce_tree(contact_points, part_of_point, num_parts, induce, workspace);
  tree_ = std::move(induced.tree);
  domain_ = bbox_of(contact_points);

  regions_per_part_.assign(static_cast<std::size_t>(num_parts), 0);
  for (idx_t id = 0; id < tree_.num_nodes(); ++id) {
    const TreeNode& nd = tree_.node(id);
    if (nd.axis < 0 && nd.label != kInvalidIndex) {
      ++regions_per_part_[static_cast<std::size_t>(nd.label)];
    }
  }
}

SubdomainDescriptors::SubdomainDescriptors(DecisionTree tree, idx_t num_parts)
    : tree_(std::move(tree)), num_parts_(num_parts) {
  require(num_parts >= 1, "SubdomainDescriptors: num_parts must be >= 1");
  domain_ = tree_.empty() ? BBox{} : tree_.node(tree_.root()).bounds;
  regions_per_part_.assign(static_cast<std::size_t>(num_parts), 0);
  for (idx_t id = 0; id < tree_.num_nodes(); ++id) {
    const TreeNode& nd = tree_.node(id);
    if (nd.axis < 0 && nd.label != kInvalidIndex) {
      require(nd.label >= 0 && nd.label < num_parts,
              "SubdomainDescriptors: leaf label out of range for num_parts");
      ++regions_per_part_[static_cast<std::size_t>(nd.label)];
    }
  }
}

idx_t SubdomainDescriptors::num_regions(idx_t p) const {
  require(p >= 0 && p < num_parts_, "num_regions: partition out of range");
  return regions_per_part_[static_cast<std::size_t>(p)];
}

void SubdomainDescriptors::query_box(const BBox& box,
                                     std::vector<idx_t>& parts,
                                     std::vector<char>& mask,
                                     std::vector<idx_t>& touched) const {
  if (mask.size() < static_cast<std::size_t>(num_parts_)) {
    mask.resize(static_cast<std::size_t>(num_parts_), 0);
  }
  // collect_box_labels records each label it sets in `touched`, and only
  // those entries are cleared afterwards.
  tree_.collect_box_labels(box, mask, touched);
  std::sort(touched.begin(), touched.end());
  for (idx_t p : touched) {
    parts.push_back(p);
    mask[static_cast<std::size_t>(p)] = 0;
  }
  touched.clear();
}

std::vector<BBox> SubdomainDescriptors::region_boxes(idx_t p) const {
  require(p >= 0 && p < num_parts_, "region_boxes: partition out of range");
  std::vector<BBox> boxes;
  if (tree_.empty()) return boxes;
  // DFS carrying the clipped region of each node.
  struct Item {
    idx_t id;
    BBox box;
  };
  std::vector<Item> stack{{tree_.root(), domain_}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const TreeNode& nd = tree_.node(item.id);
    if (nd.axis < 0) {
      if (nd.label == p) boxes.push_back(item.box);
      continue;
    }
    BBox left = item.box;
    left.hi[nd.axis] = nd.cut;
    BBox right = item.box;
    right.lo[nd.axis] = nd.cut;
    stack.push_back({nd.left, left});
    stack.push_back({nd.right, right});
  }
  return boxes;
}

}  // namespace cpart
