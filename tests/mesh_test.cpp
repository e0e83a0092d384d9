// Tests for mesh/: element tables, generators, surface extraction, graphs
// derived from meshes, erosion, and I/O round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/mesh_io.hpp"
#include "mesh/mesh_topology.hpp"
#include "mesh/surface.hpp"

namespace cpart {
namespace {

TEST(ElementTables, NodesAndDims) {
  EXPECT_EQ(nodes_per_element(ElementType::kTri3), 3);
  EXPECT_EQ(nodes_per_element(ElementType::kQuad4), 4);
  EXPECT_EQ(nodes_per_element(ElementType::kTet4), 4);
  EXPECT_EQ(nodes_per_element(ElementType::kHex8), 8);
  EXPECT_EQ(element_dim(ElementType::kTri3), 2);
  EXPECT_EQ(element_dim(ElementType::kHex8), 3);
}

TEST(ElementTables, NameRoundTrip) {
  for (ElementType t : {ElementType::kTri3, ElementType::kQuad4,
                        ElementType::kTet4, ElementType::kHex8}) {
    EXPECT_EQ(element_type_from_name(element_type_name(t)), t);
  }
  EXPECT_THROW(element_type_from_name("hex20"), InputError);
}

TEST(ElementTables, FaceAndEdgeCounts) {
  EXPECT_EQ(element_faces(ElementType::kTet4).size(), 4u);
  EXPECT_EQ(element_faces(ElementType::kHex8).size(), 6u);
  EXPECT_EQ(element_faces(ElementType::kTri3).size(), 3u);
  EXPECT_EQ(element_edges(ElementType::kTet4).size(), 6u);
  EXPECT_EQ(element_edges(ElementType::kHex8).size(), 12u);
}

TEST(Generators, HexBoxCounts) {
  const Mesh m = make_hex_box(3, 4, 5, Vec3{0, 0, 0}, Vec3{3, 4, 5});
  EXPECT_EQ(m.num_nodes(), 4 * 5 * 6);
  EXPECT_EQ(m.num_elements(), 3 * 4 * 5);
  const BBox b = m.bounds();
  EXPECT_DOUBLE_EQ(b.extent(0), 3);
  EXPECT_DOUBLE_EQ(b.extent(2), 5);
}

TEST(Generators, TetBoxConformal) {
  const Mesh m = make_tet_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  EXPECT_EQ(m.num_elements(), 2 * 2 * 2 * 6);
  // A conforming tet mesh of a box has only the outer boundary: each
  // outer quad face splits into 2 triangles -> 6 sides * 4 cells * 2 = 48.
  const Surface s = extract_surface(m);
  EXPECT_EQ(s.num_faces(), 48);
}

TEST(Generators, QuadAndTriRects) {
  const Mesh q = make_quad_rect(3, 2, Vec3{0, 0, 0}, Vec3{3, 2, 0});
  EXPECT_EQ(q.num_elements(), 6);
  EXPECT_EQ(q.num_nodes(), 12);
  const Mesh t = make_tri_rect(3, 2, Vec3{0, 0, 0}, Vec3{3, 2, 0});
  EXPECT_EQ(t.num_elements(), 12);
}

TEST(Generators, CylinderTrimsCorners) {
  const Mesh c = make_hex_cylinder(1.0, 2.0, Vec3{0, 0, 0}, 8, 4);
  const Mesh full = make_hex_box(8, 8, 4, Vec3{-1, -1, 0}, Vec3{2, 2, 2});
  EXPECT_LT(c.num_elements(), full.num_elements());
  EXPECT_GT(c.num_elements(), full.num_elements() / 2);
  // Every element centre within the radius.
  for (idx_t e = 0; e < c.num_elements(); ++e) {
    const Vec3 ctr = c.element_center(e);
    EXPECT_LE(ctr.x * ctr.x + ctr.y * ctr.y, 1.0 + 1e-9);
  }
  // No unreferenced nodes after compaction.
  std::set<idx_t> used;
  for (idx_t e = 0; e < c.num_elements(); ++e) {
    for (idx_t id : c.element(e)) used.insert(id);
  }
  EXPECT_EQ(to_idx(used.size()), c.num_nodes());
}

TEST(Mesh, ElementCenterAndBBox) {
  const Mesh m = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{2, 2, 2});
  const Vec3 c = m.element_center(0);
  EXPECT_DOUBLE_EQ(c.x, 1);
  EXPECT_DOUBLE_EQ(c.y, 1);
  EXPECT_DOUBLE_EQ(c.z, 1);
  const BBox b = m.element_bbox(0);
  EXPECT_DOUBLE_EQ(b.extent(1), 2);
}

TEST(Mesh, RemoveElementsKeepsNodes) {
  Mesh m = make_hex_box(2, 1, 1, Vec3{0, 0, 0}, Vec3{2, 1, 1});
  const idx_t nodes_before = m.num_nodes();
  std::vector<char> keep{1, 0};
  EXPECT_EQ(m.remove_elements(keep), 1);
  EXPECT_EQ(m.num_elements(), 1);
  EXPECT_EQ(m.num_nodes(), nodes_before);
}

TEST(Mesh, AppendOffsetsNodeIds) {
  Mesh a = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Mesh b = make_hex_box(1, 1, 1, Vec3{5, 0, 0}, Vec3{1, 1, 1});
  const idx_t offset = a.append(b);
  EXPECT_EQ(offset, 8);
  EXPECT_EQ(a.num_nodes(), 16);
  EXPECT_EQ(a.num_elements(), 2);
  for (idx_t id : a.element(1)) EXPECT_GE(id, 8);
}

TEST(Mesh, RejectsBadElementIds) {
  std::vector<Vec3> nodes{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  std::vector<idx_t> elems{0, 1, 7};  // 7 out of range
  EXPECT_THROW(Mesh(ElementType::kTri3, nodes, elems), InputError);
  std::vector<idx_t> wrong_count{0, 1};  // not a multiple of 3
  EXPECT_THROW(Mesh(ElementType::kTri3, nodes, wrong_count), InputError);
}

TEST(Surface, HexBoxBoundaryFaceCount) {
  const Mesh m = make_hex_box(3, 3, 3, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Surface s = extract_surface(m);
  EXPECT_EQ(s.num_faces(), 6 * 9);
  // Boundary nodes of a 4x4x4 node grid: 64 - 8 interior = 56.
  EXPECT_EQ(s.num_contact_nodes(), 56);
  for (idx_t id : s.contact_nodes) {
    EXPECT_TRUE(s.is_contact_node[static_cast<std::size_t>(id)]);
  }
}

TEST(Surface, ErosionExposesInteriorFaces) {
  Mesh m = make_hex_box(3, 3, 3, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const idx_t before = extract_surface(m).num_faces();
  // Remove the centre element: its 6 faces become boundary.
  std::vector<char> keep(27, 1);
  keep[13] = 0;  // centre of the 3x3x3 block
  m.remove_elements(keep);
  const Surface s = extract_surface(m);
  EXPECT_EQ(s.num_faces(), before + 6);
}

/// Faces of the elements with keep[e] != 0 whose topology neighbour is
/// missing or has keep == 0, numbered as Mesh::remove_elements numbers the
/// surviving elements.
std::vector<SurfaceFace> topology_boundary(const MeshTopology& topo,
                                           std::span<const char> keep) {
  std::vector<SurfaceFace> faces;
  idx_t live = 0;
  for (idx_t e = 0; e < topo.num_elements(); ++e) {
    if (!keep[static_cast<std::size_t>(e)]) continue;
    for (int lf = 0; lf < topo.faces_per_element(); ++lf) {
      const idx_t nb = topo.face_neighbor(e, lf);
      if (nb != kInvalidIndex && keep[static_cast<std::size_t>(nb)]) continue;
      const auto elem = topo.mesh().element(e);
      std::vector<idx_t> ids;
      for (int corner : element_faces(
               topo.mesh().element_type())[static_cast<std::size_t>(lf)]) {
        ids.push_back(elem[static_cast<std::size_t>(corner)]);
      }
      faces.push_back({live, lf, ids});
    }
    ++live;
  }
  return faces;
}

void expect_same_faces(const std::vector<SurfaceFace>& got,
                       const std::vector<SurfaceFace>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t f = 0; f < want.size(); ++f) {
    EXPECT_EQ(got[f].element, want[f].element) << "face " << f;
    EXPECT_EQ(got[f].local_face, want[f].local_face) << "face " << f;
    EXPECT_EQ(got[f].nodes, want[f].nodes) << "face " << f;
  }
}

TEST(MeshTopology, BoundaryFacesMatchExtractSurface) {
  const std::vector<Mesh> meshes = {
      make_tri_rect(4, 3, Vec3{0, 0, 0}, Vec3{4, 3, 0}),
      make_quad_rect(4, 3, Vec3{0, 0, 0}, Vec3{4, 3, 0}),
      make_tet_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{1, 1, 1}),
      make_hex_box(3, 3, 3, Vec3{0, 0, 0}, Vec3{1, 1, 1})};
  for (const Mesh& mesh : meshes) {
    SCOPED_TRACE(element_type_name(mesh.element_type()));
    const MeshTopology topo(mesh);
    const auto ne = static_cast<std::size_t>(mesh.num_elements());

    // Intact mesh: exactly the faces without a neighbour.
    const std::vector<char> all(ne, 1);
    const std::vector<SurfaceFace> intact = topology_boundary(topo, all);
    for (const SurfaceFace& f : intact) {
      EXPECT_EQ(topo.face_neighbor(f.element, f.local_face), kInvalidIndex);
    }
    expect_same_faces(intact, extract_surface(mesh).faces);

    // Erode every third element (the first included): the faces next to a
    // removed element join the boundary.
    std::vector<char> keep(ne, 1);
    for (std::size_t e = 0; e < ne; e += 3) keep[e] = 0;
    idx_t exposed = 0;
    for (idx_t e = 0; e < mesh.num_elements(); ++e) {
      for (int lf = 0; lf < topo.faces_per_element(); ++lf) {
        const idx_t nb = topo.face_neighbor(e, lf);
        exposed += keep[static_cast<std::size_t>(e)] && nb != kInvalidIndex &&
                   !keep[static_cast<std::size_t>(nb)];
      }
    }
    EXPECT_GT(exposed, 0);
    Mesh eroded = mesh;
    eroded.remove_elements(keep);
    expect_same_faces(topology_boundary(topo, keep),
                      extract_surface(eroded).faces);
  }
}

TEST(Surface, FaceBBoxWithMargin) {
  const Mesh m = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Surface s = extract_surface(m);
  const BBox tight = face_bbox(m, s.faces[0], 0);
  const BBox fat = face_bbox(m, s.faces[0], 0.25);
  EXPECT_DOUBLE_EQ(fat.extent(0), tight.extent(0) + 0.5);
}

TEST(MeshGraphs, NodalGraphOfSingleHex) {
  const Mesh m = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const CsrGraph g = nodal_graph(m);
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_EQ(g.num_edges(), 12);  // hex edges
  EXPECT_TRUE(g.is_symmetric());
}

TEST(MeshGraphs, NodalGraphSharedEdgesDeduplicated) {
  const Mesh m = make_hex_box(2, 1, 1, Vec3{0, 0, 0}, Vec3{2, 1, 1});
  const CsrGraph g = nodal_graph(m);
  EXPECT_EQ(g.num_vertices(), 12);
  // 2 hexes: 12 + 12 edges - 4 shared = 20.
  EXPECT_EQ(g.num_edges(), 20);
}

TEST(MeshGraphs, DualGraphOfHexRow) {
  const Mesh m = make_hex_box(3, 1, 1, Vec3{0, 0, 0}, Vec3{3, 1, 1});
  const CsrGraph g = dual_graph(m);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // a path of elements
}

TEST(MeshGraphs, DualGraphGrid) {
  const Mesh m = make_hex_box(4, 4, 4, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const CsrGraph g = dual_graph(m);
  EXPECT_EQ(g.num_vertices(), 64);
  // 6-connectivity over a 4x4x4 cell grid: 3 * 4 * 4 * 3 = 144 edges.
  EXPECT_EQ(g.num_edges(), 144);
}

/// The dual graph as a face hash builds it: sorted face-node tuples, an
/// edge from each repeat occurrence to the tuple's first element.
CsrGraph hashed_dual_graph(const Mesh& mesh) {
  GraphBuilder builder(mesh.num_elements());
  std::map<std::vector<idx_t>, idx_t> first_owner;
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const auto elem = mesh.element(e);
    for (const auto& face : element_faces(mesh.element_type())) {
      std::vector<idx_t> key;
      for (int i : face) key.push_back(elem[static_cast<std::size_t>(i)]);
      std::sort(key.begin(), key.end());
      const auto [it, inserted] = first_owner.try_emplace(key, e);
      if (!inserted) builder.add_edge(it->second, e);
    }
  }
  return builder.build();
}

TEST(MeshGraphs, DualGraphMatchesFaceHashBuild) {
  const std::vector<Mesh> meshes{
      make_tri_rect(5, 4, Vec3{0, 0, 0}, Vec3{5, 4, 0}),
      make_quad_rect(5, 4, Vec3{0, 0, 0}, Vec3{5, 4, 0}),
      make_tet_box(3, 3, 2, Vec3{0, 0, 0}, Vec3{3, 3, 2}),
      make_hex_box(4, 3, 3, Vec3{0, 0, 0}, Vec3{4, 3, 3})};
  for (Mesh m : meshes) {
    for (int eroded = 0; eroded < 2; ++eroded) {
      SCOPED_TRACE(testing::Message()
                   << element_type_name(m.element_type()) << " eroded "
                   << eroded);
      if (eroded == 1) {
        std::vector<char> keep(static_cast<std::size_t>(m.num_elements()));
        for (std::size_t e = 0; e < keep.size(); ++e) keep[e] = e % 3 != 1;
        m.remove_elements(keep);
      }
      const CsrGraph got = dual_graph(m);
      const CsrGraph want = hashed_dual_graph(m);
      EXPECT_GT(got.num_edges(), 0);
      EXPECT_EQ(got.xadj(), want.xadj());
      EXPECT_EQ(got.adjncy(), want.adjncy());
      EXPECT_EQ(got.adjwgt(), want.adjwgt());
    }
  }
}

TEST(MeshGraphs, IsolatedNodesAfterErosion) {
  Mesh m = make_hex_box(2, 1, 1, Vec3{0, 0, 0}, Vec3{2, 1, 1});
  std::vector<char> keep{1, 0};
  m.remove_elements(keep);
  const CsrGraph g = nodal_graph(m);
  EXPECT_EQ(g.num_vertices(), 12);  // node array unchanged
  idx_t isolated = 0;
  for (idx_t v = 0; v < 12; ++v) isolated += g.degree(v) == 0;
  EXPECT_EQ(isolated, 4);  // the far face of the removed hex
}

TEST(MeshIo, RoundTripHex) {
  const Mesh m = make_hex_box(2, 3, 1, Vec3{-1, 0, 2}, Vec3{2, 3, 1});
  std::stringstream ss;
  write_mesh(ss, m);
  const Mesh r = read_mesh(ss);
  EXPECT_EQ(r.element_type(), ElementType::kHex8);
  EXPECT_EQ(r.num_nodes(), m.num_nodes());
  EXPECT_EQ(r.num_elements(), m.num_elements());
  for (idx_t i = 0; i < m.num_nodes(); ++i) {
    EXPECT_EQ(r.node(i), m.node(i));
  }
  for (idx_t e = 0; e < m.num_elements(); ++e) {
    const auto a = m.element(e);
    const auto b = r.element(e);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(MeshIo, RoundTripTri) {
  const Mesh m = make_tri_rect(2, 2, Vec3{0, 0, 0}, Vec3{1, 1, 0});
  std::stringstream ss;
  write_mesh(ss, m);
  const Mesh r = read_mesh(ss);
  EXPECT_EQ(r.element_type(), ElementType::kTri3);
  EXPECT_EQ(r.num_elements(), 8);
}

TEST(MeshIo, RejectsMalformedInput) {
  std::stringstream bad1("not-a-mesh 1\n");
  EXPECT_THROW(read_mesh(bad1), InputError);
  std::stringstream bad2("cpartmesh 1\netype hex8\nnodes 2\n0 0 0\n");
  EXPECT_THROW(read_mesh(bad2), InputError);
  std::stringstream bad3(
      "cpartmesh 1\netype tri3\nnodes 3\n0 0 0\n1 0 0\n0 1 0\nelements 1\n0 1\n");
  EXPECT_THROW(read_mesh(bad3), InputError);
  EXPECT_THROW(read_mesh_file("/nonexistent/path.mesh"), InputError);
}

}  // namespace
}  // namespace cpart
