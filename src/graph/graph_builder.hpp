// Incremental construction of CsrGraph from unordered edge insertions.
//
// Meshes and tests build graphs edge-by-edge; GraphBuilder deduplicates,
// symmetrizes, and emits CSR in time linear in the insertions (a counting
// sort by lower endpoint, then short per-vertex sorts). Inserting the same
// edge twice keeps the maximum weight (useful when both endpoints report
// the edge). Every CSR row comes out in ascending neighbour order.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"

namespace cpart {

/// How duplicate edge insertions combine.
enum class DupPolicy {
  kMax,  // keep the maximum weight (mesh edges reported by many elements)
  kSum,  // sum the weights (aggregating a quotient/collapsed graph)
};

class GraphBuilder {
 public:
  explicit GraphBuilder(idx_t num_vertices);

  idx_t num_vertices() const { return n_; }

  /// Adds the undirected edge {u, v} with weight w. Self-loops are rejected.
  void add_edge(idx_t u, idx_t v, wgt_t w = 1);

  /// Sets the full vertex-weight array (interleaved, size n*ncon).
  void set_vertex_weights(std::vector<wgt_t> vwgt, idx_t ncon);

  /// Emits the CSR graph: rows ascending, duplicates combined under
  /// `duplicates`. Peak memory is about 28 bytes per inserted edge. The
  /// builder is left empty afterwards.
  CsrGraph build(DupPolicy duplicates = DupPolicy::kMax);

 private:
  idx_t n_;
  idx_t ncon_ = 1;
  std::vector<wgt_t> vwgt_;
  // COO triples with u < v; deduplicated at build time.
  std::vector<idx_t> src_, dst_;
  std::vector<wgt_t> wgt_;
};

/// Convenience: builds the unweighted path graph 0-1-2-...-(n-1).
CsrGraph make_path_graph(idx_t n);

/// Convenience: builds the unweighted (nx x ny) grid graph, vertex (i, j)
/// at index i*ny + j with 4-neighbour connectivity.
CsrGraph make_grid_graph(idx_t nx, idx_t ny);

/// Convenience: 3D grid graph with 6-neighbour connectivity, vertex
/// (i, j, k) at index (i*ny + j)*nz + k.
CsrGraph make_grid_graph_3d(idx_t nx, idx_t ny, idx_t nz);

}  // namespace cpart
