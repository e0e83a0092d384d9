// One SPMD rank: the per-processor state a rank program carries across the
// supersteps of a pipeline step.
//
// The ownership view (which nodes/faces/halo posts are mine) lives in
// mesh/subdomain.hpp; this struct holds what the rank *computes* during a
// step — its own descriptor copy (rank 0 induces, everyone else parses the
// broadcast wire), the received ghost layer, the merged local face list,
// and the local contact events. All buffers are rank-private and reused
// across steps, so the steady state is allocation-light and the rank
// programs run concurrently without sharing any mutable state.
#pragma once

#include <optional>
#include <vector>

#include "contact/local_search.hpp"
#include "runtime/exchange.hpp"
#include "tree/descriptor_tree.hpp"

namespace cpart {

struct Rank {
  idx_t id = 0;

  /// This rank's descriptor copy. Each rank needs its OWN copy even in
  /// shared memory: query_box keeps mutable mask/touched scratch, so a
  /// shared instance would race.
  std::optional<SubdomainDescriptors> descriptors;

  /// The ghost layer received in the FE halo exchange — the real payload a
  /// production FE phase would compute on.
  std::vector<HaloNodeMsg> ghosts;

  /// Owned + received surface faces, ascending (the centralized pipeline's
  /// faces_on[rank] order).
  std::vector<idx_t> local_faces;

  /// Contact events this rank found in its local search.
  std::vector<ContactEvent> events;

  /// query_box / local-search scratch.
  std::vector<idx_t> query_parts;
  SubsetSearchScratch search_scratch;

  /// Clears the per-step products (keeps capacities and the view). The
  /// descriptor copy is kept: the next broadcast replaces it, and rank 0
  /// recycles its tree storage into the next induction.
  void begin_step();

  /// Rebuilds local_faces as the ascending merge of `owned` (already
  /// ascending) and the face ids of `received` — identical to the order the
  /// centralized global-search loop appends faces_on[rank] in.
  void merge_faces(std::span<const idx_t> owned,
                   std::span<const FaceShipMsg> received);
};

}  // namespace cpart
