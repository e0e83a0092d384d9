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

idx_t SubdomainState::owned_local(idx_t v) const {
  const std::span<const idx_t> owned = owned_nodes();
  const auto it = std::lower_bound(owned.begin(), owned.end(), v);
  require(it != owned.end() && *it == v,
          "SubdomainState: node is not owned by this rank");
  return to_idx(it - owned.begin());
}

std::span<const idx_t> SubdomainState::element_local(std::size_t i) const {
  const auto npe = static_cast<std::size_t>(element_size);
  return {tracked_local.data() + i * npe, npe};
}

void SubdomainState::init(const MeshTopology& topo, idx_t r,
                          std::span<const idx_t> owner, idx_t k) {
  rank = r;
  node_owner.assign(owner.begin(), owner.end());
  rank_seen.assign(static_cast<std::size_t>(k), 0);
  touched.clear();
  begin_step();
  rebuild_views(topo, k);
}

void SubdomainState::begin_step() {
  contact_nodes.clear();
  contact_local.clear();
  contact_points.clear();
  owned_records.clear();
  local_records.clear();
  events.clear();
  query_parts.clear();
  pending_labels.clear();
  moved_nodes_out = 0;
  moved_elements_out = 0;
}

void SubdomainState::rebuild_views(const MeshTopology& topo, idx_t k) {
  const Mesh& mesh = topo.mesh();
  const idx_t nn = topo.num_nodes();
  const auto owner_of = [&](idx_t v) {
    return node_owner[static_cast<std::size_t>(v)];
  };

  local_nodes.clear();
  for (idx_t v = 0; v < nn; ++v) {
    if (owner_of(v) == rank) local_nodes.push_back(v);
  }
  num_owned = to_idx(local_nodes.size());

  // Tracked elements: the element closure of the owned nodes.
  tracked_elements.clear();
  for (idx_t v : owned_nodes()) {
    const auto incident = topo.elements_of(v);
    tracked_elements.insert(tracked_elements.end(), incident.begin(),
                            incident.end());
  }
  std::sort(tracked_elements.begin(), tracked_elements.end());
  tracked_elements.erase(
      std::unique(tracked_elements.begin(), tracked_elements.end()),
      tracked_elements.end());

  // Ghosts: the closure's other nodes, in halo-inbox order (owner, id).
  const auto ghost_order = [&](idx_t a, idx_t b) {
    return std::pair(owner_of(a), a) < std::pair(owner_of(b), b);
  };
  for (idx_t e : tracked_elements) {
    for (idx_t u : mesh.element(e)) {
      if (owner_of(u) != rank) local_nodes.push_back(u);
    }
  }
  const auto owned_end = local_nodes.begin() + num_owned;
  std::sort(owned_end, local_nodes.end(), ghost_order);
  local_nodes.erase(std::unique(owned_end, local_nodes.end()),
                    local_nodes.end());

  // Local connectivity of the tracked elements.
  element_size = nodes_per_element(mesh.element_type());
  tracked_local.clear();
  for (idx_t e : tracked_elements) {
    for (idx_t u : mesh.element(e)) {
      const auto it =
          owner_of(u) == rank
              ? std::lower_bound(local_nodes.begin(), owned_end, u)
              : std::lower_bound(owned_end, local_nodes.end(), u, ghost_order);
      tracked_local.push_back(to_idx(it - local_nodes.begin()));
    }
  }

  owned_elements.clear();
  for (idx_t e : tracked_elements) {
    if (majority_owner(mesh.element(e), node_owner) == rank) {
      owned_elements.push_back(e);
    }
  }

  halo_sends.clear();
  rank_seen.assign(static_cast<std::size_t>(k), 0);
  for (idx_t i = 0; i < num_owned; ++i) {
    collect_tracker_ranks(topo, node_owner,
                          local_nodes[static_cast<std::size_t>(i)], rank_seen,
                          touched);
    for (idx_t q : touched) halo_sends.push_back({i, q});
  }
  touched.clear();

  positions.assign(local_nodes.size(), Vec3{});
  contact_hits.assign(static_cast<std::size_t>(num_owned), 0);
  node_mask.assign(local_nodes.size(), 0);
}

std::size_t SubdomainState::heap_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(node_owner) + bytes(local_nodes) + bytes(tracked_elements) +
         bytes(tracked_local) + bytes(owned_elements) + bytes(halo_sends) +
         bytes(positions) + bytes(contact_hits) + bytes(contact_nodes) +
         bytes(contact_local) + bytes(contact_points) + bytes(owned_records) +
         bytes(local_records) + bytes(events) + bytes(query_parts) +
         bytes(search_scratch.centroids) + bytes(search_scratch.candidates) +
         bytes(search_scratch.triangles) + bytes(pending_labels) +
         bytes(node_mask) + bytes(rank_seen) + bytes(touched);
}

}  // namespace cpart
