// Compressed-sparse-row graph with vector vertex weights and scalar edge
// weights — the input format of every partitioning algorithm in the library.
//
// Layout follows the METIS convention:
//   xadj   : size n+1, adjacency offsets
//   adjncy : size 2m, neighbour lists (each undirected edge stored twice)
//   adjwgt : size 2m, per-direction edge weights (symmetric)
//   vwgt   : size n*ncon, interleaved vertex weight vectors
// An empty vwgt/adjwgt means "all ones".
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace cpart {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of prebuilt CSR arrays. `ncon` is the number of vertex
  /// weight components; pass vwgt empty for unit weights. Validates shape
  /// (sizes, offsets monotone, indices in range) and throws InputError on
  /// malformed input.
  CsrGraph(std::vector<idx_t> xadj, std::vector<idx_t> adjncy,
           std::vector<wgt_t> vwgt = {}, std::vector<wgt_t> adjwgt = {},
           idx_t ncon = 1);

  idx_t num_vertices() const { return to_idx(xadj_.size()) - 1; }
  /// Number of undirected edges (adjncy stores each twice).
  idx_t num_edges() const { return to_idx(adjncy_.size() / 2); }
  idx_t ncon() const { return ncon_; }

  idx_t degree(idx_t v) const {
    return xadj_[static_cast<std::size_t>(v) + 1] -
           xadj_[static_cast<std::size_t>(v)];
  }

  /// Neighbour ids of v.
  std::span<const idx_t> neighbors(idx_t v) const {
    return {adjncy_.data() + xadj_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }

  /// Edge weights aligned with neighbors(v). Valid only when has_edge_weights().
  std::span<const wgt_t> edge_weights(idx_t v) const {
    assert(has_edge_weights());
    return {adjwgt_.data() + xadj_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(degree(v))};
  }

  bool has_edge_weights() const { return !adjwgt_.empty(); }
  bool has_vertex_weights() const { return !vwgt_.empty(); }

  /// Weight of the j-th incident edge of v (1 when unweighted).
  wgt_t edge_weight(idx_t v, idx_t j) const {
    return adjwgt_.empty()
               ? 1
               : adjwgt_[static_cast<std::size_t>(
                     xadj_[static_cast<std::size_t>(v)] + j)];
  }

  /// The c-th weight component of vertex v (1 when unweighted).
  wgt_t vertex_weight(idx_t v, idx_t c = 0) const {
    assert(c >= 0 && c < ncon_);
    return vwgt_.empty()
               ? 1
               : vwgt_[static_cast<std::size_t>(v) * ncon_ +
                       static_cast<std::size_t>(c)];
  }

  /// Sum of the c-th weight component over all vertices.
  wgt_t total_vertex_weight(idx_t c = 0) const;

  const std::vector<idx_t>& xadj() const { return xadj_; }
  const std::vector<idx_t>& adjncy() const { return adjncy_; }
  const std::vector<wgt_t>& vwgt() const { return vwgt_; }
  const std::vector<wgt_t>& adjwgt() const { return adjwgt_; }

  /// Writable views of the weight arrays (empty when unweighted), for
  /// rewriting weights in place on a fixed structure.
  std::span<wgt_t> mutable_vwgt() { return vwgt_; }
  std::span<wgt_t> mutable_adjwgt() { return adjwgt_; }

  /// Replaces vertex weights (size must be n*new_ncon; may change ncon).
  void set_vertex_weights(std::vector<wgt_t> vwgt, idx_t ncon);

  /// Checks structural symmetry: (u,v) present iff (v,u) present with the
  /// same weight. O(m log d). Used by tests and input validation.
  bool is_symmetric() const;

 private:
  void validate() const;

  std::vector<idx_t> xadj_{0};
  std::vector<idx_t> adjncy_;
  std::vector<wgt_t> vwgt_;
  std::vector<wgt_t> adjwgt_;
  idx_t ncon_ = 1;
};

}  // namespace cpart
