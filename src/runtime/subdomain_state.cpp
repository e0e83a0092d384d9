#include "runtime/subdomain_state.hpp"

#include <algorithm>

namespace cpart {

idx_t majority_owner(std::span<const idx_t> nodes,
                     std::span<const idx_t> owner) {
  // Elements have at most 8 nodes; a quadratic count beats a hash map.
  idx_t best = kInvalidIndex;
  idx_t best_count = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const idx_t o = owner[static_cast<std::size_t>(nodes[i])];
    idx_t count = 0;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (owner[static_cast<std::size_t>(nodes[j])] == o) ++count;
    }
    if (count > best_count || (count == best_count && o < best)) {
      best = o;
      best_count = count;
    }
  }
  return best;
}

void collect_tracker_ranks(const MeshTopology& topo,
                           std::span<const idx_t> owner, idx_t v,
                           std::vector<char>& seen, std::vector<idx_t>& out) {
  out.clear();
  const idx_t home = owner[static_cast<std::size_t>(v)];
  for (idx_t e : topo.elements_of(v)) {
    for (idx_t u : topo.mesh().element(e)) {
      const idx_t q = owner[static_cast<std::size_t>(u)];
      if (q == home || seen[static_cast<std::size_t>(q)]) continue;
      seen[static_cast<std::size_t>(q)] = 1;
      out.push_back(q);
    }
  }
  std::sort(out.begin(), out.end());
  for (idx_t q : out) seen[static_cast<std::size_t>(q)] = 0;
}

void SubdomainState::init(const MeshTopology& topo, idx_t r,
                          std::span<const idx_t> owner, idx_t k) {
  rank = r;
  node_owner.assign(owner.begin(), owner.end());
  const std::size_t nn = static_cast<std::size_t>(topo.num_nodes());
  const std::size_t ne = static_cast<std::size_t>(topo.num_elements());
  positions.assign(nn, Vec3{});
  contact_hits.assign(nn, 0);
  node_mask.assign(nn, 0);
  elem_mask.assign(ne, 0);
  rank_seen.assign(static_cast<std::size_t>(k), 0);
  touched.clear();
  begin_step();
  rebuild_views(topo, k);
}

void SubdomainState::begin_step() {
  contact_nodes.clear();
  owned_records.clear();
  local_records.clear();
  events.clear();
  query_parts.clear();
  pending_labels.clear();
  moved_nodes_out = 0;
  moved_elements_out = 0;
}

void SubdomainState::rebuild_views(const MeshTopology& topo, idx_t k) {
  const idx_t nn = topo.num_nodes();

  owned_nodes.clear();
  for (idx_t v = 0; v < nn; ++v) {
    if (node_owner[static_cast<std::size_t>(v)] == rank) {
      owned_nodes.push_back(v);
    }
  }

  // Tracked elements: the element closure of the owned nodes. The mask is
  // cleared through the collected list so repeated rebuilds stay O(closure).
  tracked_elements.clear();
  for (idx_t v : owned_nodes) {
    for (idx_t e : topo.elements_of(v)) {
      if (elem_mask[static_cast<std::size_t>(e)]) continue;
      elem_mask[static_cast<std::size_t>(e)] = 1;
      tracked_elements.push_back(e);
    }
  }
  std::sort(tracked_elements.begin(), tracked_elements.end());
  for (idx_t e : tracked_elements) elem_mask[static_cast<std::size_t>(e)] = 0;

  owned_elements.clear();
  for (idx_t e : tracked_elements) {
    if (majority_owner(topo.mesh().element(e), node_owner) == rank) {
      owned_elements.push_back(e);
    }
  }

  halo_sends.clear();
  rank_seen.assign(static_cast<std::size_t>(k), 0);
  for (idx_t v : owned_nodes) {
    collect_tracker_ranks(topo, node_owner, v, rank_seen, touched);
    for (idx_t q : touched) halo_sends.push_back({v, q});
  }
  touched.clear();
}

}  // namespace cpart
