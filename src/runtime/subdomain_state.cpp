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
                          std::shared_ptr<const std::vector<idx_t>> owner,
                          idx_t k) {
  rank = r;
  node_owner = std::move(owner);
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
  relabels.clear();
  moved_nodes_out = 0;
  moved_elements_out = 0;
}

void SubdomainState::rebuild_views(const MeshTopology& topo, idx_t k) {
  const Mesh& mesh = topo.mesh();
  const idx_t nn = topo.num_nodes();

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
    if (majority_owner(mesh.element(e), *node_owner) == rank) {
      owned_elements.push_back(e);
    }
  }

  halo_sends.clear();
  rank_seen.assign(static_cast<std::size_t>(k), 0);
  for (idx_t i = 0; i < num_owned; ++i) {
    collect_tracker_ranks(topo, *node_owner,
                          local_nodes[static_cast<std::size_t>(i)], rank_seen,
                          touched);
    for (idx_t q : touched) halo_sends.push_back({i, q});
  }
  touched.clear();

  positions.assign(local_nodes.size(), Vec3{});
  contact_hits.assign(static_cast<std::size_t>(num_owned), 0);
  node_mask.assign(local_nodes.size(), 0);
}

bool SubdomainState::note_relabels(std::span<const LabelUpdate> updates) {
  relabels.clear();
  const auto ghosts_begin = local_nodes.begin() + num_owned;
  const auto ghost_order = [&](idx_t a, idx_t b) {
    return std::pair(owner_of(a), a) < std::pair(owner_of(b), b);
  };
  for (const auto& [v, o] : updates) {
    const idx_t old = owner_of(v);
    if (o == old) continue;  // not a change: touches nothing
    idx_t at = kInvalidIndex;
    if (old == rank) {
      at = owned_local(v);
    } else {
      const auto it =
          std::lower_bound(ghosts_begin, local_nodes.end(), v, ghost_order);
      if (it != local_nodes.end() && *it == v) {
        at = to_idx(it - local_nodes.begin());
      }
    }
    if (at != kInvalidIndex || o == rank) relabels.push_back({v, at, old, o});
  }
  return !relabels.empty();
}

void SubdomainState::apply_relabels(const MeshTopology& topo) {
  const Mesh& mesh = topo.mesh();
  const auto npe = static_cast<std::size_t>(element_size);
  const std::size_t old_size = local_nodes.size();
  const auto old_owned = static_cast<std::size_t>(num_owned);
  std::vector<char> changed(old_size, 0);  // by old local id
  for (const Relabel& c : relabels) {
    if (c.old_local != kInvalidIndex) {
      changed[static_cast<std::size_t>(c.old_local)] = 1;
    }
  }

  // The elements around a relabelled node are the only ones that can join
  // or leave the closure, change majority owner, or change an owned
  // node's trackers. Every other row is kept as it is.
  std::vector<idx_t> around;
  for (const Relabel& c : relabels) {
    const auto incident = topo.elements_of(c.node);
    around.insert(around.end(), incident.begin(), incident.end());
  }
  std::sort(around.begin(), around.end());
  around.erase(std::unique(around.begin(), around.end()), around.end());

  // Tracked elements: the old rows merged with the re-decided ones.
  // row_from[t] is new row t's old row (invalid for a joiner); redo lists
  // the new rows around a relabelled node; dropped the old rows that left.
  std::vector<idx_t> elements;
  std::vector<idx_t> row_from;
  std::vector<std::size_t> redo;
  std::vector<std::size_t> dropped;
  elements.reserve(tracked_elements.size() + around.size());
  row_from.reserve(tracked_elements.size() + around.size());
  std::size_t i = 0;
  const auto keep_rows_below = [&](idx_t bound) {
    for (; i < tracked_elements.size() && tracked_elements[i] < bound; ++i) {
      elements.push_back(tracked_elements[i]);
      row_from.push_back(to_idx(i));
    }
  };
  for (idx_t e : around) {
    keep_rows_below(e);
    const bool was = i < tracked_elements.size() && tracked_elements[i] == e;
    const auto elem = mesh.element(e);
    if (std::any_of(elem.begin(), elem.end(),
                    [&](idx_t u) { return owner_of(u) == rank; })) {
      redo.push_back(elements.size());
      elements.push_back(e);
      row_from.push_back(was ? to_idx(i) : kInvalidIndex);
    } else if (was) {
      dropped.push_back(i);
    }
    if (was) ++i;
  }
  keep_rows_below(topo.num_elements());

  // Owned block: the staying owned nodes merged with the arrivals, both
  // ascending. from[i] is new local node i's old local id, or invalid.
  std::vector<idx_t> nodes;
  std::vector<idx_t> from;
  nodes.reserve(old_size + relabels.size());
  from.reserve(old_size + relabels.size());
  std::size_t a = 0;
  const auto take_arrivals_below = [&](idx_t bound) {
    for (; a < relabels.size() && relabels[a].node < bound; ++a) {
      if (relabels[a].new_owner != rank) continue;
      nodes.push_back(relabels[a].node);
      from.push_back(relabels[a].old_local);
    }
  };
  for (std::size_t x = 0; x < old_owned; ++x) {
    if (changed[x]) continue;  // departed
    take_arrivals_below(local_nodes[x]);
    nodes.push_back(local_nodes[x]);
    from.push_back(to_idx(x));
  }
  take_arrivals_below(topo.num_nodes());
  const std::size_t new_owned = nodes.size();

  // An old local node stays in the set unless every row holding it left,
  // so only the nodes of dropped rows need a look.
  std::vector<char> present(old_size, 1);
  for (std::size_t row : dropped) {
    for (std::size_t q = 0; q < npe; ++q) {
      const auto x = static_cast<std::size_t>(tracked_local[row * npe + q]);
      const auto incident = topo.elements_of(local_nodes[x]);
      present[x] = std::any_of(incident.begin(), incident.end(), [&](idx_t e) {
        return std::binary_search(elements.begin(), elements.end(), e);
      });
    }
  }

  // Ghosts. An old ghost whose owner is unchanged keeps its place in the
  // (owner, id) order; every other ghost — a relabelled ghost, a departed
  // node still in the closure, a node of a joining element — is sorted on
  // its own and merged in. A node can enter both lists (an old ghost that
  // is also in a joining element); equal keys collapse, keeping the old id.
  struct Ghost {
    idx_t owner;
    idx_t node;
    idx_t from;
  };
  const auto ghost_less = [](const Ghost& x, const Ghost& y) {
    return std::pair(x.owner, x.node) < std::pair(y.owner, y.node);
  };
  std::vector<Ghost> resorted;
  for (const Relabel& c : relabels) {
    if (c.old_local != kInvalidIndex && c.new_owner != rank &&
        present[static_cast<std::size_t>(c.old_local)]) {
      resorted.push_back({c.new_owner, c.node, c.old_local});
    }
  }
  for (std::size_t t : redo) {
    if (row_from[t] != kInvalidIndex) continue;
    for (idx_t u : mesh.element(elements[t])) {
      if (owner_of(u) != rank) {
        resorted.push_back({owner_of(u), u, kInvalidIndex});
      }
    }
  }
  std::sort(resorted.begin(), resorted.end(), ghost_less);
  const auto push_ghost = [&](const Ghost& g) {
    if (nodes.size() > new_owned && nodes.back() == g.node) {
      from.back() = std::max(from.back(), g.from);
      return;
    }
    nodes.push_back(g.node);
    from.push_back(g.from);
  };
  std::size_t next = 0;
  for (std::size_t x = old_owned; x < old_size; ++x) {
    if (!present[x] || changed[x]) continue;
    const Ghost kept{owner_of(local_nodes[x]), local_nodes[x], to_idx(x)};
    for (; next < resorted.size() && !ghost_less(kept, resorted[next]);
         ++next) {
      push_ghost(resorted[next]);
    }
    push_ghost(kept);
  }
  for (; next < resorted.size(); ++next) push_ghost(resorted[next]);

  // Renumbering: one old -> new map carries the state and the kept rows;
  // a joining row looks its nodes up in the new numbering.
  std::vector<idx_t> remap(old_size, kInvalidIndex);
  std::vector<Vec3> new_positions(nodes.size(), Vec3{});
  std::vector<wgt_t> new_hits(new_owned, 0);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (from[n] == kInvalidIndex) continue;
    const auto x = static_cast<std::size_t>(from[n]);
    remap[x] = to_idx(n);
    new_positions[n] = positions[x];
    if (n < new_owned && x < old_owned) new_hits[n] = contact_hits[x];
  }
  const auto owned_end = nodes.begin() + static_cast<std::ptrdiff_t>(new_owned);
  const auto ghost_order = [&](idx_t p, idx_t q) {
    return std::pair(owner_of(p), p) < std::pair(owner_of(q), q);
  };
  std::vector<idx_t> new_tracked_local(elements.size() * npe);
  for (std::size_t t = 0; t < elements.size(); ++t) {
    idx_t* out = new_tracked_local.data() + t * npe;
    if (row_from[t] != kInvalidIndex) {
      const idx_t* in =
          tracked_local.data() + static_cast<std::size_t>(row_from[t]) * npe;
      for (std::size_t q = 0; q < npe; ++q) {
        out[q] = remap[static_cast<std::size_t>(in[q])];
      }
      continue;
    }
    const auto elem = mesh.element(elements[t]);
    for (std::size_t q = 0; q < npe; ++q) {
      const idx_t u = elem[q];
      const auto it = owner_of(u) == rank
                          ? std::lower_bound(nodes.begin(), owned_end, u)
                          : std::lower_bound(owned_end, nodes.end(), u,
                                             ghost_order);
      out[q] = to_idx(it - nodes.begin());
    }
  }

  // Owned elements: the old ones away from every relabelled node, merged
  // with the re-decided rows that the rank now majority-owns. Halo sends:
  // an owned node keeps its trackers unless one of its rows is re-decided
  // or it just arrived.
  std::vector<idx_t> new_owned_elements;
  std::vector<char> dirty(new_owned, 0);
  std::size_t oe = 0;
  std::size_t near = 0;  // cursor into `around`
  const auto keep_owned_below = [&](idx_t bound) {
    for (; oe < owned_elements.size() && owned_elements[oe] < bound; ++oe) {
      const idx_t e = owned_elements[oe];
      while (near < around.size() && around[near] < e) ++near;
      if (near == around.size() || around[near] != e) {
        new_owned_elements.push_back(e);
      }
    }
  };
  for (std::size_t t : redo) {
    const idx_t e = elements[t];
    keep_owned_below(e + 1);
    if (majority_owner(mesh.element(e), *node_owner) == rank) {
      new_owned_elements.push_back(e);
    }
    for (std::size_t q = 0; q < npe; ++q) {
      const auto n = static_cast<std::size_t>(new_tracked_local[t * npe + q]);
      if (n < new_owned) dirty[n] = 1;
    }
  }
  keep_owned_below(topo.num_elements());
  std::vector<HaloSend> new_halo_sends;
  new_halo_sends.reserve(halo_sends.size() + relabels.size());
  std::size_t hs = 0;
  for (std::size_t n = 0; n < new_owned; ++n) {
    const idx_t x = from[n];
    if (dirty[n] || x == kInvalidIndex ||
        static_cast<std::size_t>(x) >= old_owned) {
      collect_tracker_ranks(topo, *node_owner, nodes[n], rank_seen, touched);
      for (idx_t q : touched) new_halo_sends.push_back({to_idx(n), q});
      continue;
    }
    while (hs < halo_sends.size() && halo_sends[hs].local < x) ++hs;
    for (; hs < halo_sends.size() && halo_sends[hs].local == x; ++hs) {
      new_halo_sends.push_back({to_idx(n), halo_sends[hs].dst});
    }
  }
  touched.clear();

  local_nodes = std::move(nodes);
  num_owned = to_idx(new_owned);
  tracked_elements = std::move(elements);
  tracked_local = std::move(new_tracked_local);
  owned_elements = std::move(new_owned_elements);
  halo_sends = std::move(new_halo_sends);
  positions = std::move(new_positions);
  contact_hits = std::move(new_hits);
  node_mask.assign(local_nodes.size(), 0);
}

void SubdomainState::ghost_owners(std::vector<idx_t>& out) const {
  out.clear();
  for (std::size_t i = static_cast<std::size_t>(num_owned);
       i < local_nodes.size(); ++i) {
    const idx_t q = owner_of(local_nodes[i]);
    if (out.empty() || out.back() != q) out.push_back(q);
  }
}

std::size_t SubdomainState::heap_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(local_nodes) + bytes(tracked_elements) +
         bytes(tracked_local) + bytes(owned_elements) + bytes(halo_sends) +
         bytes(positions) + bytes(contact_hits) + bytes(contact_nodes) +
         bytes(contact_local) + bytes(contact_points) + bytes(owned_records) +
         bytes(local_records) + bytes(events) + bytes(query_parts) +
         search_scratch.heap_bytes() + bytes(relabels) + bytes(node_mask) +
         bytes(rank_seen) + bytes(touched);
}

}  // namespace cpart
