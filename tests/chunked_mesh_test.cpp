// Chunked on-disk mesh format: round-trip bit-identity against the in-core
// representation at block sizes that land exactly on, one under and one
// over the section boundaries; bounded-window accounting; streamed graph
// builds equal to the in-core builds; rejection of truncated and corrupted
// files; and the streamed large-impact generator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/graph_metrics.hpp"
#include "mesh/chunked_mesh.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"

namespace cpart {
namespace {

class ChunkedMesh : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpart_chunked_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

void expect_mesh_equal(const Mesh& a, const Mesh& b) {
  ASSERT_EQ(a.element_type(), b.element_type());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (idx_t i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.node(i), b.node(i)) << "node " << i;
  }
  for (idx_t e = 0; e < a.num_elements(); ++e) {
    const auto ea = a.element(e);
    const auto eb = b.element(e);
    for (std::size_t j = 0; j < ea.size(); ++j) {
      EXPECT_EQ(ea[j], eb[j]) << "element " << e << " slot " << j;
    }
  }
}

TEST_F(ChunkedMesh, RoundTripAtBlockBoundaries) {
  // 4x3x2 hex box: 60 nodes, 24 elements. Block sizes exactly on, one
  // under and one over each section's divisors must all round-trip
  // bit-identically — the final partial block is the edge being probed.
  const Mesh m = make_hex_box(4, 3, 2, Vec3{0, 0, 0}, Vec3{4, 3, 2});
  ASSERT_EQ(m.num_nodes(), 60);
  ASSERT_EQ(m.num_elements(), 24);
  const idx_t node_sizes[] = {60, 59, 61, 30, 29, 31, 1};
  const idx_t elem_sizes[] = {24, 23, 25, 12, 11, 13, 1};
  for (std::size_t i = 0; i < std::size(node_sizes); ++i) {
    const std::string p = path("box_" + std::to_string(i) + ".cpmk");
    write_chunked_mesh(p, m, node_sizes[i], elem_sizes[i]);
    ChunkedMeshReader reader(p);
    EXPECT_EQ(reader.num_nodes(), m.num_nodes());
    EXPECT_EQ(reader.num_elements(), m.num_elements());
    const Mesh r = reader.load_mesh();
    expect_mesh_equal(m, r);
  }
}

TEST_F(ChunkedMesh, RoundTripAllElementTypes) {
  const Mesh meshes[] = {
      make_tri_rect(3, 2, Vec3{0, 0, 0}, Vec3{3, 2, 0}),
      make_quad_rect(3, 2, Vec3{0, 0, 0}, Vec3{3, 2, 0}),
      make_tet_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{2, 2, 2}),
      make_hex_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{2, 2, 2}),
  };
  for (std::size_t i = 0; i < std::size(meshes); ++i) {
    const std::string p = path("t" + std::to_string(i) + ".cpmk");
    write_chunked_mesh(p, meshes[i], 7, 5);
    ChunkedMeshReader reader(p);
    expect_mesh_equal(meshes[i], reader.load_mesh());
  }
}

TEST_F(ChunkedMesh, WindowStaysBounded) {
  const Mesh m = make_hex_box(6, 6, 6, Vec3{0, 0, 0}, Vec3{6, 6, 6});
  const std::string p = path("win.cpmk");
  write_chunked_mesh(p, m, 32, 16);
  ChunkedMeshReader::Options options;
  options.max_resident_blocks = 2;
  ChunkedMeshReader reader(p, options);
  // Touch every block, repeatedly and out of order.
  for (int pass = 0; pass < 2; ++pass) {
    for (idx_t b = reader.num_element_blocks(); b-- > 0;) {
      (void)reader.element_block(b);
    }
    for (idx_t b = 0; b < reader.num_node_blocks(); ++b) {
      (void)reader.node_block(b);
    }
  }
  EXPECT_LE(reader.resident_bytes(), reader.peak_resident_bytes());
  EXPECT_LE(reader.peak_resident_bytes(), reader.window_limit_bytes());
}

TEST_F(ChunkedMesh, RandomNodeAccessMatches) {
  const Mesh m = make_tet_box(3, 3, 3, Vec3{-1, -1, -1}, Vec3{2, 2, 2});
  const std::string p = path("rand.cpmk");
  write_chunked_mesh(p, m, 10, 10);
  ChunkedMeshReader reader(p);
  for (idx_t i = m.num_nodes(); i-- > 0;) {
    EXPECT_EQ(reader.node(i), m.node(i));
  }
}

TEST_F(ChunkedMesh, StreamedGraphsMatchInCore) {
  const Mesh m = make_hex_box(4, 4, 3, Vec3{0, 0, 0}, Vec3{4, 4, 3});
  const std::string p = path("graphs.cpmk");
  write_chunked_mesh(p, m, 17, 9);
  const CsrGraph nodal_ref = nodal_graph(m);
  ChunkedMeshReader r1(p);
  const CsrGraph nodal_s = nodal_graph(r1);
  EXPECT_EQ(nodal_s.num_vertices(), nodal_ref.num_vertices());
  EXPECT_EQ(nodal_s.num_edges(), nodal_ref.num_edges());
  EXPECT_EQ(nodal_s.xadj(), nodal_ref.xadj());
  EXPECT_EQ(nodal_s.adjncy(), nodal_ref.adjncy());
}

TEST_F(ChunkedMesh, RejectsBadMagicAndVersion) {
  const Mesh m = make_hex_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{2, 2, 2});
  const std::string p = path("bad.cpmk");
  write_chunked_mesh(p, m, 8, 8);
  std::string bytes;
  {
    std::ifstream in(p, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto rewrite = [&](const std::string& name, const std::string& data) {
    const std::string q = path(name);
    std::ofstream out(q, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return q;
  };
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_THROW(ChunkedMeshReader r(rewrite("magic.cpmk", magic)), InputError);
  std::string version = bytes;
  version[4] = 9;
  EXPECT_THROW(ChunkedMeshReader r(rewrite("ver.cpmk", version)), InputError);
  EXPECT_THROW(ChunkedMeshReader r(rewrite("empty.cpmk", "")), InputError);
  EXPECT_THROW(ChunkedMeshReader r(rewrite("tiny.cpmk", "cpm")), InputError);
}

TEST_F(ChunkedMesh, RejectsTruncationAndTrailingGarbage) {
  const Mesh m = make_hex_box(3, 3, 3, Vec3{0, 0, 0}, Vec3{3, 3, 3});
  const std::string p = path("full.cpmk");
  write_chunked_mesh(p, m, 16, 8);
  std::string bytes;
  {
    std::ifstream in(p, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Every strict prefix long enough to parse the magic must be rejected
  // (shorter ones are covered above). Step a prime to keep the test fast.
  for (std::size_t len = 5; len < bytes.size(); len += 37) {
    const std::string q = path("trunc.cpmk");
    std::ofstream out(q, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_THROW(ChunkedMeshReader r(q), InputError) << "prefix " << len;
  }
  const std::string garbage = bytes + std::string(3, '\0');
  const std::string q = path("garbage.cpmk");
  std::ofstream out(q, std::ios::binary);
  out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  out.close();
  EXPECT_THROW(ChunkedMeshReader r(q), InputError);
}

TEST_F(ChunkedMesh, RejectsOutOfRangeNodeId) {
  // Hand-build a file whose single element references node 7 of 4.
  ChunkedMeshWriter w(path("oor.cpmk"), ElementType::kQuad4, 4, 1, 8, 8);
  for (idx_t i = 0; i < 4; ++i) {
    w.add_node(Vec3{static_cast<real_t>(i), 0, 0});
  }
  const idx_t bad[] = {0, 1, 2, 7};
  EXPECT_THROW(w.add_element(bad), InputError);
}

TEST_F(ChunkedMesh, WriterEnforcesProtocol) {
  const std::string p = path("proto.cpmk");
  {
    ChunkedMeshWriter w(p, ElementType::kTri3, 3, 1, 8, 8);
    w.add_node(Vec3{0, 0, 0});
    EXPECT_THROW(w.finish(), InputError);  // node count not reached
  }
  {
    ChunkedMeshWriter w(p, ElementType::kTri3, 3, 1, 8, 8);
    w.add_node(Vec3{0, 0, 0});
    w.add_node(Vec3{1, 0, 0});
    w.add_node(Vec3{0, 1, 0});
    const idx_t conn[] = {0, 1, 2};
    w.add_element(conn);
    EXPECT_THROW(w.add_node(Vec3{9, 9, 9}), InputError);  // nodes after elems
    w.finish();
  }
  ChunkedMeshReader reader(p);
  EXPECT_EQ(reader.num_elements(), 1);
}

TEST_F(ChunkedMesh, LargeImpactStreamsAndPartitions) {
  LargeImpactSpec spec;
  spec.nx = spec.ny = spec.nz = 6;
  spec.impactor_cells = 2;
  spec.nodes_per_block = 64;
  spec.elems_per_block = 64;
  const std::string p = path("impact.cpmk");
  const ChunkedMeshInfo info = make_large_impact(p, spec);
  EXPECT_EQ(info.num_elements, 6 * 6 * 6 + 2 * 2 * 2);
  EXPECT_EQ(info.num_nodes, 7 * 7 * 7 + 3 * 3 * 3);
  ChunkedMeshReader reader(p);
  EXPECT_EQ(reader.num_nodes(), info.num_nodes);
  EXPECT_EQ(reader.num_elements(), info.num_elements);
  const Mesh m = reader.load_mesh();
  // Two separated bodies: every element must reference valid nodes
  // (load_mesh already validated ranges; check geometry separation here).
  const BBox plate = m.element_bbox(0);
  const BBox impactor = m.element_bbox(info.num_elements - 1);
  EXPECT_GT(impactor.lo.z, plate.hi.z);
  const CsrGraph g = nodal_graph(m);
  EXPECT_EQ(g.num_vertices(), info.num_nodes);
  EXPECT_GT(g.num_edges(), 0);
}

TEST_F(ChunkedMesh, SpecForElementsReachesTarget) {
  for (idx_t target : {idx_t{1}, idx_t{1000}, idx_t{50000}}) {
    const LargeImpactSpec spec = LargeImpactSpec::for_elements(target);
    EXPECT_GE(spec.nx * spec.ny * spec.nz, target);
  }
}

}  // namespace
}  // namespace cpart
