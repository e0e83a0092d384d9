// Subdomain geometric descriptors (paper Section 4.1).
//
// Given the contact points and their partition labels, the descriptor tree
// bisects space until every leaf rectangle/box contains contact points from
// a single partition; each subdomain's descriptor is the union of its leaf
// boxes. NTNodes — the paper's setup-cost metric — is the node count of
// this tree. The tree also answers the global-search query: which
// partitions' regions does a surface element's bounding box intersect?
#pragma once

#include <span>
#include <vector>

#include "tree/decision_tree.hpp"

namespace cpart {

struct DescriptorOptions {
  int dim = 3;
  /// Gap-preferring split selection (Section 6 future work); 0 disables.
  double gap_alpha = 0.0;
};

class SubdomainDescriptors {
 public:
  /// Induces descriptors for `num_parts` subdomains from contact-point
  /// positions and their partition labels.
  SubdomainDescriptors(std::span<const Vec3> contact_points,
                       std::span<const idx_t> part_of_point, idx_t num_parts,
                       const DescriptorOptions& options = {},
                       TreeInduceWorkspace* workspace = nullptr);

  /// Reassembles descriptors around a tree received off the wire (the SPMD
  /// descriptor broadcast: rank 0 induces, everyone else parses — see
  /// tree_io.hpp for the exact-round-trip format). The tree must be a
  /// descriptor tree for `num_parts` subdomains; the domain box is the root
  /// node's bounds, which induce_tree sets to the bbox of all contact
  /// points — the same box the inducing constructor computes.
  SubdomainDescriptors(DecisionTree tree, idx_t num_parts);

  idx_t num_parts() const { return num_parts_; }

  /// NTNodes: total nodes (interior + leaf) of the descriptor tree.
  idx_t num_tree_nodes() const { return tree_.num_nodes(); }
  idx_t num_leaves() const { return tree_.num_leaves(); }
  idx_t max_depth() const { return tree_.max_depth(); }

  /// Number of leaf boxes describing partition p.
  idx_t num_regions(idx_t p) const;

  /// Appends to `parts` every partition whose descriptor region intersects
  /// `box` (deduplicated, ascending). This is the global-search filter.
  /// `mask` and `touched` are caller-owned scratch: `mask` all-zero (it is
  /// grown to num_parts() on first use) and `touched` empty, on entry and
  /// on exit, so a query costs O(|result|), not O(num_parts). The
  /// descriptors themselves are never written, so threads with their own
  /// scratch may query one instance at once.
  void query_box(const BBox& box, std::vector<idx_t>& parts,
                 std::vector<char>& mask, std::vector<idx_t>& touched) const;

  const DecisionTree& tree() const { return tree_; }

  /// Heap bytes held by the tree and the per-part region counts, by
  /// capacity.
  std::size_t heap_bytes() const {
    return tree_.heap_bytes() + regions_per_part_.capacity() * sizeof(idx_t);
  }

  /// Moves the descriptor tree out — e.g. into
  /// TreeInduceWorkspace::recycle() before rebuilding descriptors for the
  /// next snapshot. Leaves the descriptors empty.
  DecisionTree release_tree() { return std::move(tree_); }

  /// Leaf boxes of partition p clipped to the overall domain box; used by
  /// visualization and tests (region/partition correspondence).
  std::vector<BBox> region_boxes(idx_t p) const;

 private:
  DecisionTree tree_;
  idx_t num_parts_ = 0;
  std::vector<idx_t> regions_per_part_;
  BBox domain_;
};

}  // namespace cpart
