#include "contact/global_search.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"

namespace cpart {

BBoxFilter::BBoxFilter(std::vector<BBox> boxes) : boxes_(std::move(boxes)) {}

BBoxFilter BBoxFilter::from_points(std::span<const Vec3> points,
                                   std::span<const idx_t> labels,
                                   idx_t num_parts) {
  require(points.size() == labels.size(),
          "BBoxFilter::from_points: size mismatch");
  std::vector<BBox> boxes(static_cast<std::size_t>(num_parts));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const idx_t l = labels[i];
    require(l >= 0 && l < num_parts,
            "BBoxFilter::from_points: label out of range");
    boxes[static_cast<std::size_t>(l)].expand(points[i]);
  }
  return BBoxFilter(std::move(boxes));
}

void BBoxFilter::query_box(const BBox& query, std::vector<idx_t>& parts) const {
  for (idx_t p = 0; p < num_parts(); ++p) {
    if (boxes_[static_cast<std::size_t>(p)].intersects(query)) {
      parts.push_back(p);
    }
  }
}

std::vector<idx_t> face_owners(const Surface& surface,
                               std::span<const idx_t> node_labels,
                               idx_t num_parts) {
  std::vector<idx_t> owners(surface.faces.size(), kInvalidIndex);
  std::vector<idx_t> votes(static_cast<std::size_t>(num_parts), 0);
  std::vector<idx_t> touched;
  for (std::size_t f = 0; f < surface.faces.size(); ++f) {
    touched.clear();
    for (idx_t node : surface.faces[f].nodes) {
      const idx_t l = node_labels[static_cast<std::size_t>(node)];
      require(l >= 0 && l < num_parts, "face_owners: label out of range");
      if (votes[static_cast<std::size_t>(l)]++ == 0) touched.push_back(l);
    }
    idx_t best = touched.front();
    for (idx_t l : touched) {
      const idx_t vl = votes[static_cast<std::size_t>(l)];
      const idx_t vb = votes[static_cast<std::size_t>(best)];
      if (vl > vb || (vl == vb && l < best)) best = l;
    }
    owners[f] = best;
    for (idx_t l : touched) votes[static_cast<std::size_t>(l)] = 0;
  }
  return owners;
}

GlobalSearchStats global_search(
    const Mesh& mesh, const Surface& surface, std::span<const idx_t> owner,
    real_t margin,
    const std::function<void(const BBox&, std::vector<idx_t>&)>& filter) {
  require(owner.size() == surface.faces.size(),
          "global_search: owner array size mismatch");
  const idx_t nf = surface.num_faces();
  // One partial-stats slot per chunk, combined in chunk order: deterministic
  // totals with no atomic contention. Chunk indices are `unsigned` from the
  // pool; buffers are std::size_t-indexed, so every access goes through one
  // explicit widening cast (the repo-wide idiom for pool chunk buffers).
  struct Partial {
    wgt_t remote = 0;
    wgt_t sent = 0;
    wgt_t candidates = 0;
  };
  std::vector<Partial> partial(
      std::max<unsigned>(1u, ThreadPool::global().num_threads()));
  ThreadPool::global().parallel_for_chunks(
      nf, [&](unsigned chunk, idx_t begin, idx_t end) {
        assert(static_cast<std::size_t>(chunk) < partial.size());
        std::vector<idx_t> parts;
        Partial local;
        for (idx_t f = begin; f < end; ++f) {
          parts.clear();
          const BBox box =
              face_bbox(mesh, surface.faces[static_cast<std::size_t>(f)], margin);
          filter(box, parts);
          local.candidates += to_idx(parts.size());
          idx_t remote_here = 0;
          for (idx_t p : parts) {
            if (p != owner[static_cast<std::size_t>(f)]) ++remote_here;
          }
          local.remote += remote_here;
          if (remote_here > 0) ++local.sent;
        }
        partial[static_cast<std::size_t>(chunk)] = local;
      });
  GlobalSearchStats stats;
  for (const Partial& p : partial) {
    stats.remote_sends += p.remote;
    stats.elements_sent += static_cast<idx_t>(p.sent);
    stats.candidates += p.candidates;
  }
  return stats;
}

GlobalSearchStats global_search_bbox(const Mesh& mesh, const Surface& surface,
                                     std::span<const idx_t> owner,
                                     const BBoxFilter& filter, real_t margin) {
  return global_search(mesh, surface, owner, margin,
                       [&filter](const BBox& box, std::vector<idx_t>& parts) {
                         filter.query_box(box, parts);
                       });
}

GlobalSearchStats global_search_tree(const Mesh& mesh, const Surface& surface,
                                     std::span<const idx_t> owner,
                                     const SubdomainDescriptors& descriptors,
                                     real_t margin) {
  // Each worker thread keeps its own persistent query scratch.
  return global_search(
      mesh, surface, owner, margin,
      [&descriptors](const BBox& box, std::vector<idx_t>& parts) {
        thread_local std::vector<char> mask;
        thread_local std::vector<idx_t> touched;
        descriptors.query_box(box, parts, mask, touched);
      });
}

}  // namespace cpart
