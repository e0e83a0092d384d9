#include "mesh/mesh_graphs.hpp"

#include "graph/graph_builder.hpp"
#include "mesh/chunked_mesh.hpp"
#include "mesh/mesh_topology.hpp"

namespace cpart {

namespace {

/// One-chunk source over an in-core connectivity array.
ElementChunkSource whole_array_source(std::span<const idx_t> conn) {
  return [conn, done = false]() mutable -> std::span<const idx_t> {
    if (done) return {};
    done = true;
    return conn;
  };
}

/// Source draining a ChunkedMeshReader's element blocks in order. Each
/// pull touches exactly one block, so residency stays within the window.
ElementChunkSource reader_source(ChunkedMeshReader& reader) {
  return [&reader, b = idx_t{0}]() mutable -> std::span<const idx_t> {
    if (b >= reader.num_element_blocks()) return {};
    return reader.element_block(b++);
  };
}

}  // namespace

std::span<const std::pair<int, int>> element_edges(ElementType type) {
  static const std::vector<std::pair<int, int>> tri{{0, 1}, {1, 2}, {2, 0}};
  static const std::vector<std::pair<int, int>> quad{
      {0, 1}, {1, 2}, {2, 3}, {3, 0}};
  static const std::vector<std::pair<int, int>> tet{
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  static const std::vector<std::pair<int, int>> hex{
      {0, 1}, {1, 2}, {2, 3}, {3, 0},   // bottom ring
      {4, 5}, {5, 6}, {6, 7}, {7, 4},   // top ring
      {0, 4}, {1, 5}, {2, 6}, {3, 7}};  // verticals
  switch (type) {
    case ElementType::kTri3: return tri;
    case ElementType::kQuad4: return quad;
    case ElementType::kTet4: return tet;
    case ElementType::kHex8: return hex;
  }
  return {};
}

CsrGraph nodal_graph(idx_t num_nodes, ElementType type,
                     const ElementChunkSource& chunks) {
  GraphBuilder builder(num_nodes);
  const auto edges = element_edges(type);
  const auto npe = static_cast<std::size_t>(nodes_per_element(type));
  for (std::span<const idx_t> chunk = chunks(); !chunk.empty();
       chunk = chunks()) {
    require(chunk.size() % npe == 0,
            "nodal_graph: chunk length not a multiple of nodes_per_element");
    for (std::size_t off = 0; off < chunk.size(); off += npe) {
      for (const auto& [a, b] : edges) {
        builder.add_edge(chunk[off + static_cast<std::size_t>(a)],
                         chunk[off + static_cast<std::size_t>(b)]);
      }
    }
  }
  return builder.build();
}

CsrGraph nodal_graph(const Mesh& mesh) {
  return nodal_graph(mesh.num_nodes(), mesh.element_type(),
                     whole_array_source(mesh.element_nodes()));
}

CsrGraph nodal_graph(ChunkedMeshReader& reader) {
  return nodal_graph(reader.num_nodes(), reader.element_type(),
                     reader_source(reader));
}

const CsrGraph& NodalGraphCache::get(const Mesh& mesh) {
  if (mesh.num_nodes() != num_nodes_ || mesh.num_elements() != num_elements_) {
    graph_ = nodal_graph(mesh);
    num_nodes_ = mesh.num_nodes();
    num_elements_ = mesh.num_elements();
    ++version_;
  }
  return graph_;
}

CsrGraph dual_graph(const Mesh& mesh) {
  const MeshTopology topo(mesh);
  GraphBuilder builder(mesh.num_elements());
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    for (int lf = 0; lf < topo.faces_per_element(); ++lf) {
      // One edge per interior face, added from its lower-numbered side.
      const idx_t nb = topo.face_neighbor(e, lf);
      if (nb != kInvalidIndex && nb > e) builder.add_edge(e, nb);
    }
  }
  return builder.build();
}

}  // namespace cpart
