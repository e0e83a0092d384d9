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

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "contact/local_search.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/label_codec.hpp"
#include "tree/descriptor_tree.hpp"

namespace cpart {

/// One FE halo post: the owned node at local id `local` goes to partition
/// `dst` this step.
struct HaloSend {
  idx_t local = kInvalidIndex;
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

/// One label change of a migration step that touches a rank's views: the
/// node leaves the rank's owned set, joins it, or is one of its ghosts and
/// changes owner.
struct Relabel {
  idx_t node = kInvalidIndex;
  idx_t old_local = kInvalidIndex;  // local id under the old labels, if any
  idx_t old_owner = kInvalidIndex;
  idx_t new_owner = kInvalidIndex;
};

/// One rank's share of the distributed simulation, sized by that share.
/// Nodes are numbered locally: the owned nodes in ascending global id, then
/// the ghosts (the element closure's other nodes) sorted by (owner, id) —
/// exactly the order a halo inbox arrives in, since each owner posts its
/// nodes in ascending id and an inbox concatenates sources in ascending
/// rank. Per-node state is indexed by local id; messages, events, records
/// and checkpoints keep global ids. Nothing a rank holds is sized by the
/// mesh: node owners are one immutable map per label epoch, which all
/// ranks share. A rank only ever writes its owned entries, plus ghost
/// entries from delivered halo messages.
struct SubdomainState {
  idx_t rank = kInvalidIndex;

  /// Current owner of every node: the shared map of this label epoch,
  /// never written. Switched to the next epoch's map on migration steps.
  std::shared_ptr<const std::vector<idx_t>> node_owner;

  // --- Local numbering and ownership views (rebuild_views; a migration
  //     commit updates them in place with apply_relabels) ---
  /// Global id of each local node: [0, num_owned) owned, ascending; then
  /// the ghosts by (owner, id).
  std::vector<idx_t> local_nodes;
  idx_t num_owned = 0;
  std::vector<idx_t> tracked_elements; // ascending; >=1 node owned by rank
  /// Local ids of each tracked element's nodes, in Mesh::element order:
  /// row i (element_size entries) belongs to tracked_elements[i].
  std::vector<idx_t> tracked_local;
  int element_size = 0;  // nodes per element
  std::vector<idx_t> owned_elements;   // ascending; majority-owned by rank
  std::vector<HaloSend> halo_sends;    // owned node -> ghost-holding rank

  // --- Authoritative per-node state, by local id (positions valid on the
  //     whole local set after the halo superstep; hits on the owned block) ---
  std::vector<Vec3> positions;         // local_nodes.size()
  std::vector<wgt_t> contact_hits;     // num_owned

  // --- Per-step products (cleared by begin_step) ---
  std::vector<idx_t> contact_nodes;        // owned, ascending global id
  std::vector<idx_t> contact_local;        // their local ids
  std::vector<Vec3> contact_points;        // their positions
  std::vector<FaceRecord> owned_records;   // home faces, ascending key
  std::vector<FaceRecord> local_records;   // owned, then received
  /// This step's descriptors, shared and immutable: rank 0 holds the tree
  /// it induced, the other ranks the one tree decoded from their validated
  /// broadcast wire. Queried with the scratch below (rank_seen, touched).
  std::shared_ptr<const SubdomainDescriptors> descriptors;
  std::vector<ContactEvent> events;
  std::vector<idx_t> query_parts;
  SubsetSearchScratch search_scratch;
  /// This step's label changes that touch this rank's views, in ascending
  /// node id (note_relabels). Empty when the views outlive the label
  /// commit as they are.
  std::vector<Relabel> relabels;
  idx_t moved_nodes_out = 0;
  idx_t moved_elements_out = 0;

  /// Owner of node `v` under the current map.
  idx_t owner_of(idx_t v) const {
    return (*node_owner)[static_cast<std::size_t>(v)];
  }
  /// The owned global ids, ascending.
  std::span<const idx_t> owned_nodes() const {
    return {local_nodes.data(), static_cast<std::size_t>(num_owned)};
  }
  /// Local id of owned node `v` (binary search; throws when not owned).
  idx_t owned_local(idx_t v) const;
  /// Local ids of the nodes of tracked_elements[i].
  std::span<const idx_t> element_local(std::size_t i) const;

  /// Adopts the shared ownership map, builds the local numbering and
  /// views, and sizes the per-node state to it, zeroed.
  void init(const MeshTopology& topo, idx_t r,
            std::shared_ptr<const std::vector<idx_t>> owner, idx_t k);

  /// Clears the per-step products. The descriptors are kept: the next
  /// step's induction or broadcast replaces them.
  void begin_step();

  /// Recomputes the local numbering and every view from node_owner, and
  /// resizes positions / contact_hits / node_mask to it, zeroed (callers
  /// refill the state they carry). The cold path, run by init: every
  /// wholesale load of the map (construction, a degraded step's reload,
  /// restore). Between those, the views are stable because the
  /// topology is, and a migration commit updates them in place
  /// (note_relabels, apply_relabels).
  void rebuild_views(const MeshTopology& topo, idx_t k);

  /// Before the label commit (node_owner still the old map): fills
  /// `relabels` with the range-checked label updates (v, o) that touch
  /// this rank — v in the local set, or o == rank — and returns whether
  /// there are any. The views are a function of the owners on the local
  /// set alone, so when there are none they stay exact under the new
  /// labels. Ghost membership is a binary search under the old order.
  bool note_relabels(std::span<const LabelUpdate> updates);

  /// After the label commit (node_owner is the new map): brings the
  /// local numbering and every view from the old labels to the new ones —
  /// exactly what rebuild_views computes — in passes linear in the local
  /// set plus the relabelled nodes' element neighbourhoods, and carries
  /// positions and the staying owned nodes' contact_hits to the new
  /// numbering. The slots of nodes new to the local set are zeroed; the
  /// caller fills the arrivals' state from their migration messages.
  void apply_relabels(const MeshTopology& topo);

  /// Writes into `out` the distinct owners of the ghost block, ascending:
  /// exactly the ranks whose halo_sends post to this rank (q posts v here
  /// when q owns v and v is one of this rank's ghosts).
  void ghost_owners(std::vector<idx_t>& out) const;

  /// Heap bytes held by every buffer of this state, by capacity, except the
  /// shared owner map and descriptors (DistributedSim::resident_bytes
  /// counts each distinct one once).
  std::size_t heap_bytes() const;

  // Scratch (kept across steps so the steady state allocates nothing).
  std::vector<char> node_mask;   // local_nodes.size(), all-zero between uses
  std::vector<char> rank_seen;   // k, all-zero between uses
  std::vector<idx_t> touched;
};

}  // namespace cpart
