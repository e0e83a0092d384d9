// Mesh-to-graph conversions (paper Section 2):
//   nodal graph — one vertex per mesh node, edges along element edges;
//   dual graph  — one vertex per element, edges between elements sharing an
//                 edge (2D) or a face (3D).
// The paper's partitioning algorithm operates on the nodal graph.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/csr_graph.hpp"
#include "mesh/mesh.hpp"

namespace cpart {

class ChunkedMeshReader;

/// Pull source of element connectivity: each call returns the next chunk of
/// concatenated node ids (a multiple of nodes_per_element long), an empty
/// span once exhausted. nodal_graph consumes connectivity strictly
/// sequentially through this interface, so construction needs only one
/// chunk resident at a time — an in-core Mesh is just the one-chunk case.
using ElementChunkSource = std::function<std::span<const idx_t>()>;

/// Builds the (unweighted) nodal graph from streamed connectivity. Isolated
/// nodes (all incident elements eroded) become degree-0 vertices.
CsrGraph nodal_graph(idx_t num_nodes, ElementType type,
                     const ElementChunkSource& chunks);

/// Builds the (unweighted) nodal graph of the mesh.
CsrGraph nodal_graph(const Mesh& mesh);

/// Builds the dual graph of the mesh: one edge per interior face (a face
/// in 3D, an edge in 2D) of MeshTopology's face-neighbour index.
CsrGraph dual_graph(const Mesh& mesh);

/// Streaming build over a chunked on-disk mesh: connectivity flows block
/// by block through the reader's bounded window; the mesh is never whole
/// in core (the graph, of course, is).
CsrGraph nodal_graph(ChunkedMeshReader& reader);

/// Caches the nodal graph across the snapshots of one simulation sequence.
///
/// Rebuilding nodal_graph() every step is pure waste on the (common) steps
/// where no element eroded. The cache is keyed on (num_nodes, num_elements):
/// within one sequence node ids are stable and elements only ever disappear
/// (erosion is monotone), so equal counts imply the identical element set
/// and therefore the identical graph. Do NOT feed unrelated meshes through
/// one cache — two different meshes with equal counts would alias.
class NodalGraphCache {
 public:
  /// Returns the nodal graph of `mesh`, rebuilding only when the key
  /// changed. The reference stays valid until the next get() call.
  const CsrGraph& get(const Mesh& mesh);

  /// Increments every time get() actually rebuilt; lets dependents (halo
  /// send lists, partition-boundary structures) refresh exactly when the
  /// topology changed.
  std::uint64_t version() const { return version_; }

 private:
  CsrGraph graph_;
  idx_t num_nodes_ = kInvalidIndex;
  idx_t num_elements_ = kInvalidIndex;
  std::uint64_t version_ = 0;
};

/// Node index pairs of each edge of the reference element.
std::span<const std::pair<int, int>> element_edges(ElementType type);

}  // namespace cpart
