// Rank-owned distributed simulation state.
//
// Each rank holds the authoritative state of exactly the nodes its
// partition label assigns to it (positions, accumulated contact hits), plus
// a ghost layer — the element closure of its owned nodes — kept current by
// halo exchange. Everything a rank derives (surface records, contact-node
// lists, search events) comes from this local state; nothing reads a
// central snapshot.
//
// Ownership of derived entities follows the nodes: an element belongs to the
// majority owner of its nodes (ties to the lowest rank), and so does a
// boundary face. When a repartition changes the node labels, ownership moves
// — and with it the authoritative per-node state, shipped over the
// exchange's migration channels (see core/distributed_sim.hpp for the
// protocol).
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "contact/local_search.hpp"
#include "mesh/mesh_topology.hpp"
#include "tree/descriptor_tree.hpp"

namespace cpart {

/// One FE halo post: `node`'s data goes to partition `dst` this step.
struct HaloSend {
  idx_t node = kInvalidIndex;
  idx_t dst = kInvalidIndex;
};

/// Owner rank of an entity given the owners of its nodes: the most frequent
/// owner, ties broken toward the lowest rank. Deterministic in the node
/// order (it only reads the multiset of owners).
idx_t majority_owner(std::span<const idx_t> nodes,
                     std::span<const idx_t> owner);

/// Appends to `out` (cleared first) the distinct ranks other than owner[v]
/// that track some element incident to v — i.e. own at least one node of
/// it. These are exactly the ranks whose ghost layer contains v, so they
/// are the destinations of v's halo post. Ascending rank order. `seen` is
/// k-sized scratch, all-zero on entry and exit.
void collect_tracker_ranks(const MeshTopology& topo,
                           std::span<const idx_t> owner, idx_t v,
                           std::vector<char>& seen, std::vector<idx_t>& out);

/// One rank's share of the distributed simulation. Dense arrays are sized
/// by the full initial mesh (node id == global id, no local renumbering —
/// the paper's meshes fit per-node arrays comfortably and global ids keep
/// every cross-rank message self-describing); a rank only ever *writes*
/// the entries it owns, plus ghost entries from delivered halo messages.
struct SubdomainState {
  idx_t rank = kInvalidIndex;

  // --- Replicated metadata (identical on every rank between supersteps) ---
  /// Current owner of every node. Updated only at the migration commit.
  std::vector<idx_t> node_owner;

  // --- Ownership views (rebuilt by rebuild_views after migration) ---
  std::vector<idx_t> owned_nodes;      // ascending node id
  std::vector<idx_t> owned_elements;   // ascending; majority-owned by rank
  std::vector<idx_t> tracked_elements; // ascending; >=1 node owned by rank
  std::vector<HaloSend> halo_sends;    // owned node -> ghost-holding rank

  // --- Authoritative per-node state (valid on owned; positions also on
  //     the ghost closure after the halo superstep) ---
  std::vector<Vec3> positions;
  std::vector<wgt_t> contact_hits;

  // --- Per-step products (cleared by begin_step) ---
  std::vector<idx_t> contact_nodes;        // owned, ascending
  std::vector<FaceRecord> owned_records;   // home faces, ascending key
  std::vector<FaceRecord> local_records;   // owned + received, ascending key
  std::optional<SubdomainDescriptors> descriptors;
  std::vector<ContactEvent> events;
  std::vector<idx_t> query_parts;
  SubsetSearchScratch search_scratch;
  /// Label updates received this step, applied at the migration commit.
  std::vector<std::pair<idx_t, idx_t>> pending_labels;  // (node, new owner)
  std::vector<idx_t> owner_scratch;        // next node_owner, built pre-commit
  idx_t moved_nodes_out = 0;
  idx_t moved_elements_out = 0;

  /// Sizes every array for `topo`, copies the initial ownership, zeroes the
  /// per-node state, and builds the ownership views.
  void init(const MeshTopology& topo, idx_t r, std::span<const idx_t> owner,
            idx_t k);

  /// Clears the per-step products. The descriptor copy is kept: the next
  /// broadcast replaces it, and rank 0 recycles its tree storage into the
  /// next induction.
  void begin_step();

  /// Recomputes owned_nodes / tracked_elements / owned_elements /
  /// halo_sends from node_owner. Called at init and after every migration
  /// commit; between those, the views are stable because the topology is.
  void rebuild_views(const MeshTopology& topo, idx_t k);

  // Scratch (kept across steps so the steady state allocates nothing).
  std::vector<char> node_mask;   // num_nodes, all-zero between uses
  std::vector<char> elem_mask;   // num_elements, all-zero between uses
  std::vector<char> rank_seen;   // k, all-zero between uses
  std::vector<idx_t> touched;
};

}  // namespace cpart
