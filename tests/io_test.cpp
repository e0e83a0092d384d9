// Tests for the I/O modules: METIS graph files, partition files, decision
// tree serialization, VTK export.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "mesh/generators.hpp"
#include "mesh/vtk_io.hpp"
#include "tree/tree_io.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

TEST(GraphIo, RoundTripUnweighted) {
  const CsrGraph g = make_grid_graph(5, 4);
  std::stringstream ss;
  write_metis_graph(ss, g);
  const CsrGraph r = read_metis_graph(ss);
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.degree(v), g.degree(v));
  }
}

TEST(GraphIo, RoundTripWeighted) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 3);
  b.add_edge(2, 3, 7);
  b.set_vertex_weights({1, 0, 2, 1, 3, 0, 4, 1}, 2);
  const CsrGraph g = b.build();
  std::stringstream ss;
  write_metis_graph(ss, g);
  const CsrGraph r = read_metis_graph(ss);
  EXPECT_EQ(r.ncon(), 2);
  for (idx_t v = 0; v < 4; ++v) {
    EXPECT_EQ(r.vertex_weight(v, 0), g.vertex_weight(v, 0));
    EXPECT_EQ(r.vertex_weight(v, 1), g.vertex_weight(v, 1));
  }
  EXPECT_EQ(r.edge_weight(0, 0), 5);
  EXPECT_TRUE(r.is_symmetric());
}

TEST(GraphIo, ReadsCommentsAndEdgeWeightOnlyFormat) {
  std::stringstream ss(
      "% a comment\n"
      "3 2 001\n"
      "% another\n"
      "2 10\n"
      "1 10 3 20\n"
      "2 20\n");
  const CsrGraph g = read_metis_graph(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge_weight(0, 0), 10);
}

TEST(GraphIo, RejectsMalformed) {
  std::stringstream bad_header("x y\n");
  EXPECT_THROW(read_metis_graph(bad_header), InputError);
  std::stringstream bad_neighbor("2 1\n5\n1\n");
  EXPECT_THROW(read_metis_graph(bad_neighbor), InputError);
  std::stringstream bad_count("2 5\n2\n1\n");
  EXPECT_THROW(read_metis_graph(bad_count), InputError);
  std::stringstream vertex_sizes("2 1 100\n2\n1\n");
  EXPECT_THROW(read_metis_graph(vertex_sizes), InputError);
}

TEST(PartitionIo, RoundTrip) {
  const std::vector<idx_t> part{0, 3, 2, 1, 0, 2};
  std::stringstream ss;
  write_partition(ss, part);
  EXPECT_EQ(read_partition(ss, 6), part);
}

TEST(PartitionIo, SizeCheck) {
  std::stringstream ss("0\n1\n");
  EXPECT_THROW(read_partition(ss, 5), InputError);
}

TEST(TreeIo, RoundTripDescriptorTree) {
  Rng rng(42);
  std::vector<Vec3> pts;
  std::vector<idx_t> labels;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(Vec3{rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)});
    labels.push_back((pts.back().x < 4 ? 0 : 1) + 2 * (pts.back().z < 4 ? 0 : 1));
  }
  const InducedTree t = induce_tree(pts, labels, 4);
  const std::string wire = tree_to_binary(t.tree);
  const DecisionTree r = tree_from_binary(wire);
  EXPECT_TRUE(trees_equal(t.tree, r));
  // The reconstructed tree answers queries identically.
  for (int i = 0; i < 50; ++i) {
    const Vec3 q{rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)};
    EXPECT_EQ(t.tree.classify(q), r.classify(q));
  }
}

TEST(TreeIo, RoundTripPreservesImpureLeaves) {
  const std::vector<Vec3> pts{{1, 1, 0}, {1, 1, 0}, {4, 1, 0}};
  const std::vector<idx_t> labels{0, 1, 1};
  TreeInduceOptions opts;
  opts.dim = 2;
  const InducedTree t = induce_tree(pts, labels, 2, opts);
  const DecisionTree r = tree_from_binary(tree_to_binary(t.tree));
  EXPECT_TRUE(trees_equal(t.tree, r));
  // Box query over the impure leaf reports both labels.
  std::vector<char> mask(2, 0);
  BBox box;
  box.expand(Vec3{1, 1, 0});
  box.inflate(0.1);
  r.collect_box_labels(box, mask);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(TreeIo, EmptyTreeRoundTrip) {
  const InducedTree t = induce_tree({}, {}, 1);
  const DecisionTree r = tree_from_binary(tree_to_binary(t.tree));
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(trees_equal(t.tree, r));
}

TEST(TreeIo, AssembleRejectsBrokenStructure) {
  std::vector<TreeNode> nodes(3);
  nodes[0].axis = 0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].axis = -1;
  nodes[2].axis = -1;
  const std::vector<idx_t> offsets{0, 0, 0, 0};
  // Valid assembly works.
  EXPECT_NO_THROW(assemble_tree(nodes, 0, offsets, {}));
  // Child out of range.
  auto bad = nodes;
  bad[0].right = 9;
  EXPECT_THROW(assemble_tree(bad, 0, offsets, {}), InputError);
  // Node referenced twice.
  bad = nodes;
  bad[0].right = 1;
  EXPECT_THROW(assemble_tree(bad, 0, offsets, {}), InputError);
  // Root has a parent (cycle through root).
  bad = nodes;
  bad[0].left = 0;
  EXPECT_THROW(assemble_tree(bad, 0, offsets, {}), InputError);
  // Root out of range.
  EXPECT_THROW(assemble_tree(nodes, 5, offsets, {}), InputError);
}

TEST(TreeIo, RejectsBadStream) {
  EXPECT_THROW(tree_from_binary("nottree 1\n"), InputError);
}

TEST(VtkIo, WritesWellFormedFile) {
  const Mesh m = make_hex_box(2, 2, 1, Vec3{0, 0, 0}, Vec3{2, 2, 1});
  std::vector<idx_t> node_part(static_cast<std::size_t>(m.num_nodes()));
  for (std::size_t i = 0; i < node_part.size(); ++i) {
    node_part[i] = to_idx(i) % 3;
  }
  std::vector<idx_t> elem_body(static_cast<std::size_t>(m.num_elements()), 1);
  const VtkScalarField nf{"partition", node_part};
  const VtkScalarField ef{"body", elem_body};
  std::stringstream ss;
  write_vtk(ss, m, {&nf, 1}, {&ef, 1});
  const std::string out = ss.str();
  EXPECT_NE(out.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(out.find("POINTS 18 double"), std::string::npos);
  EXPECT_NE(out.find("CELLS 4 36"), std::string::npos);
  EXPECT_NE(out.find("CELL_TYPES 4"), std::string::npos);
  EXPECT_NE(out.find("SCALARS partition int 1"), std::string::npos);
  EXPECT_NE(out.find("SCALARS body int 1"), std::string::npos);
  // Hexahedra are VTK type 12.
  EXPECT_NE(out.find("\n12\n"), std::string::npos);
}

TEST(VtkIo, TriangleCellType) {
  const Mesh m = make_tri_rect(1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 0});
  std::stringstream ss;
  write_vtk(ss, m);
  EXPECT_NE(ss.str().find("\n5\n"), std::string::npos);  // VTK_TRIANGLE
}

TEST(VtkIo, RejectsFieldSizeMismatch) {
  const Mesh m = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const std::vector<idx_t> wrong(3, 0);
  const VtkScalarField f{"oops", wrong};
  std::stringstream ss;
  EXPECT_THROW(write_vtk(ss, m, {&f, 1}), InputError);
}

}  // namespace
}  // namespace cpart
