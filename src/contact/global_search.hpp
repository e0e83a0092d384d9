// Parallel global contact search (paper Sections 2 and 4).
//
// Each processor must discover which *other* partitions a surface element
// might touch and send the element there. The filter deciding "might touch"
// is the difference between the two algorithms:
//   * ML+RCB represents each contact subdomain by one bounding box
//     (BBoxFilter) — coarse, and overlapping boxes cause false positives;
//   * MCML+DT represents each subdomain by its decision-tree leaf boxes
//     (SubdomainDescriptors::query_box) — tight, few false positives.
// NRemote is the total number of (surface element, remote partition) sends
// the filter produces.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "mesh/surface.hpp"
#include "tree/descriptor_tree.hpp"

namespace cpart {

/// One-bounding-box-per-subdomain filter (the ML+RCB global search).
class BBoxFilter {
 public:
  /// boxes[p] is the bounding box of partition p's contact points.
  explicit BBoxFilter(std::vector<BBox> boxes);

  /// Builds the per-partition boxes from labeled contact points.
  static BBoxFilter from_points(std::span<const Vec3> points,
                                std::span<const idx_t> labels, idx_t num_parts);

  idx_t num_parts() const { return to_idx(boxes_.size()); }
  const BBox& box(idx_t p) const { return boxes_[static_cast<std::size_t>(p)]; }

  /// Appends every partition whose box intersects `query` (ascending).
  void query_box(const BBox& query, std::vector<idx_t>& parts) const;

 private:
  std::vector<BBox> boxes_;
};

/// Majority owner of each surface face under a per-*node* labeling:
/// the partition owning most of the face's nodes (ties -> lowest id).
std::vector<idx_t> face_owners(const Surface& surface,
                               std::span<const idx_t> node_labels,
                               idx_t num_parts);

struct GlobalSearchStats {
  /// NRemote: total (element, remote partition) sends.
  wgt_t remote_sends = 0;
  /// Elements whose filter result contains at least one remote partition.
  idx_t elements_sent = 0;
  /// Candidate partitions examined (incl. own) — filter work measure.
  wgt_t candidates = 0;
};

/// Runs the global-search filter over every surface face. `filter` appends
/// candidate partitions for a face bounding box; faces are inflated by
/// `margin` (contact tolerance) before querying. Thread-safe filters are
/// evaluated in parallel.
GlobalSearchStats global_search(
    const Mesh& mesh, const Surface& surface, std::span<const idx_t> owner,
    real_t margin,
    const std::function<void(const BBox&, std::vector<idx_t>&)>& filter);

/// Convenience wrappers for the two filters under comparison.
GlobalSearchStats global_search_bbox(const Mesh& mesh, const Surface& surface,
                                     std::span<const idx_t> owner,
                                     const BBoxFilter& filter, real_t margin);
GlobalSearchStats global_search_tree(const Mesh& mesh, const Surface& surface,
                                     std::span<const idx_t> owner,
                                     const SubdomainDescriptors& descriptors,
                                     real_t margin);

}  // namespace cpart
