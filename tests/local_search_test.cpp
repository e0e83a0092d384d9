// Tests for contact/local_search: point-triangle geometry, node-to-face
// contact events, penetration signs, body exclusion, and the
// candidate-driven variant used by the parallel pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "contact/local_search.hpp"
#include "mesh/generators.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

TEST(ClosestPoint, InteriorEdgeAndVertexRegions) {
  const Vec3 a{0, 0, 0}, b{2, 0, 0}, c{0, 2, 0};
  // Above the interior -> projection.
  Vec3 r = closest_point_on_triangle(Vec3{0.5, 0.5, 1}, a, b, c);
  EXPECT_DOUBLE_EQ(r.x, 0.5);
  EXPECT_DOUBLE_EQ(r.y, 0.5);
  EXPECT_DOUBLE_EQ(r.z, 0);
  // Beyond vertex a.
  r = closest_point_on_triangle(Vec3{-1, -1, 0}, a, b, c);
  EXPECT_EQ(r, a);
  // Beyond edge ab.
  r = closest_point_on_triangle(Vec3{1, -3, 0}, a, b, c);
  EXPECT_DOUBLE_EQ(r.x, 1);
  EXPECT_DOUBLE_EQ(r.y, 0);
  // Beyond vertex b.
  r = closest_point_on_triangle(Vec3{5, 0, 0}, a, b, c);
  EXPECT_EQ(r, b);
  // Beyond the hypotenuse.
  r = closest_point_on_triangle(Vec3{2, 2, 0}, a, b, c);
  EXPECT_DOUBLE_EQ(r.x, 1);
  EXPECT_DOUBLE_EQ(r.y, 1);
}

/// Two unit cubes separated by `gap` along z (upper body above lower).
struct TwoCubes {
  Mesh mesh;
  Surface surface;
  std::vector<int> body;
  explicit TwoCubes(real_t gap) {
    mesh = make_hex_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{1, 1, 1});
    body.assign(static_cast<std::size_t>(mesh.num_nodes()), 0);
    const Mesh upper =
        make_hex_box(2, 2, 2, Vec3{0, 0, 1 + gap}, Vec3{1, 1, 1});
    mesh.append(upper);
    body.resize(static_cast<std::size_t>(mesh.num_nodes()), 1);
    surface = extract_surface(mesh);
  }
};

TEST(LocalSearch, FindsGapContacts) {
  const TwoCubes scene(0.05);
  LocalSearchOptions opts;
  opts.tolerance = 0.1;
  opts.body_of_node = scene.body;
  const auto events = local_contact_search(scene.mesh, scene.surface, opts);
  ASSERT_FALSE(events.empty());
  for (const ContactEvent& e : events) {
    EXPECT_NEAR(e.distance, 0.05, 1e-9);
    EXPECT_LE(e.distance, opts.tolerance);
    // Node and face belong to different bodies.
    EXPECT_NE(scene.body[static_cast<std::size_t>(e.node)],
              scene.body[static_cast<std::size_t>(
                  scene.surface.faces[static_cast<std::size_t>(e.face)]
                      .nodes.front())]);
  }
  // Every node of the facing 3x3 grids participates: 9 + 9 = 18 events
  // (closest_only keeps one event per node).
  EXPECT_EQ(events.size(), 18u);
}

TEST(LocalSearch, NoEventsWhenFarApart) {
  const TwoCubes scene(1.0);
  LocalSearchOptions opts;
  opts.tolerance = 0.1;
  opts.body_of_node = scene.body;
  EXPECT_TRUE(local_contact_search(scene.mesh, scene.surface, opts).empty());
}

TEST(LocalSearch, PenetrationHasNegativeSignOnOneSide) {
  // Overlapping cubes: facing surfaces interpenetrate.
  const TwoCubes scene(-0.04);
  LocalSearchOptions opts;
  opts.tolerance = 0.1;
  opts.body_of_node = scene.body;
  const auto events = local_contact_search(scene.mesh, scene.surface, opts);
  ASSERT_FALSE(events.empty());
  // At least one event shows a node behind the contacted face.
  const bool any_negative =
      std::any_of(events.begin(), events.end(), [](const ContactEvent& e) {
        return e.signed_distance < 0;
      });
  EXPECT_TRUE(any_negative);
}

TEST(LocalSearch, SelfContactExcludedWithoutBodyInfoOnlyByFaceMembership) {
  // Without body info, adjacent faces of the same cube produce events at
  // distance 0 for shared... no: nodes belonging to a face are excluded,
  // but a node still sees other faces of its own body. On a single cube
  // with tolerance smaller than the cube's feature distance, corner nodes
  // touch adjacent faces at distance 0 — those faces contain the node and
  // are excluded; non-incident faces are >= half an edge away.
  const Mesh cube = make_hex_box(2, 2, 2, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Surface s = extract_surface(cube);
  LocalSearchOptions opts;
  opts.tolerance = 0.2;
  const auto events = local_contact_search(cube, s, opts);
  // Mid-edge nodes lie on two faces (both excluded) but are within 0.5 of
  // nothing else; expect no spurious events closer than half a cell.
  for (const ContactEvent& e : events) {
    EXPECT_GT(e.distance, 0.0);
  }
}

/// Three hex boxes: a lower slab, a box hovering `gap` above it, and a box
/// sunk sideways into the slab — gap contacts, penetrations and plain
/// distant faces in one scene. Body ids are deliberately not 0..2.
struct ThreeBodies {
  Mesh mesh;
  Surface surface;
  std::vector<int> body;
  ThreeBodies() {
    constexpr real_t gap = 0.05;
    mesh = make_hex_box(3, 3, 2, Vec3{0, 0, 0}, Vec3{1.5, 1.5, 1});
    body.assign(static_cast<std::size_t>(mesh.num_nodes()), 4);
    mesh.append(make_hex_box(2, 2, 2, Vec3{0.2, 0.3, 1 + gap}, Vec3{1, 1, 1}));
    body.resize(static_cast<std::size_t>(mesh.num_nodes()), -1);
    mesh.append(
        make_hex_box(2, 2, 2, Vec3{1.4, 0.45, 0.3}, Vec3{1, 0.8, 0.8}));
    body.resize(static_cast<std::size_t>(mesh.num_nodes()), 9);
    surface = extract_surface(mesh);
  }
};

/// All-pairs reference for the rank kernels: every (node, face) pair with
/// the same exclusions, the same triangulation ((0,1,2) + (0,2,3)) and the
/// same normal, with no spatial structure at all. Every in-range face is
/// kept; events are sorted by (node, face).
std::vector<ContactEvent> brute_force_search(const Mesh& mesh,
                                             const Surface& surface,
                                             std::span<const idx_t> node_ids,
                                             std::span<const idx_t> face_ids,
                                             const LocalSearchOptions& opts) {
  std::vector<ContactEvent> events;
  for (idx_t node : node_ids) {
    const Vec3 p = mesh.node(node);
    for (idx_t f : face_ids) {
      const auto& ids = surface.faces[static_cast<std::size_t>(f)].nodes;
      if (std::find(ids.begin(), ids.end(), node) != ids.end()) continue;
      if (!opts.body_of_node.empty() &&
          opts.body_of_node[static_cast<std::size_t>(node)] ==
              opts.body_of_node[static_cast<std::size_t>(ids[0])]) {
        continue;
      }
      ContactEvent e;
      e.node = node;
      e.face = f;
      e.distance = std::numeric_limits<real_t>::max();
      for (std::size_t t = 1; t + 1 < ids.size(); ++t) {
        const Vec3 c = closest_point_on_triangle(
            p, mesh.node(ids[0]), mesh.node(ids[t]), mesh.node(ids[t + 1]));
        if (norm(p - c) < e.distance) {
          e.distance = norm(p - c);
          e.closest_point = c;
        }
      }
      if (e.distance > opts.tolerance) continue;
      const Vec3 n = face_normal(mesh, surface.faces[static_cast<std::size_t>(f)]);
      e.signed_distance = norm(n) > 0
                              ? dot(p - e.closest_point, (1.0 / norm(n)) * n)
                              : e.distance;
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ContactEvent& a, const ContactEvent& b) {
              return std::pair(a.node, a.face) < std::pair(b.node, b.face);
            });
  return events;
}

/// Runs the records kernel (records keyed by face + kKeyOffset) and checks
/// it against the all-pairs reference, once keeping every face in range and
/// once keeping the closest.
void expect_kernels_match_brute_force(const Mesh& mesh, const Surface& surface,
                                      std::span<const idx_t> node_ids,
                                      std::span<const idx_t> face_ids,
                                      LocalSearchOptions opts,
                                      const std::string& what) {
  constexpr idx_t kKeyOffset = 1000;
  opts.closest_only = false;
  const std::vector<ContactEvent> want =
      brute_force_search(mesh, surface, node_ids, face_ids, opts);
  ASSERT_FALSE(want.empty()) << what << ": scene produced no contacts";

  std::vector<FaceRecord> records;
  for (idx_t f : face_ids) {
    const SurfaceFace& face = surface.faces[static_cast<std::size_t>(f)];
    FaceRecord rec;
    rec.key = kKeyOffset + f;
    rec.num_nodes = static_cast<std::int32_t>(face.nodes.size());
    for (std::size_t j = 0; j < face.nodes.size(); ++j) {
      rec.nodes[j] = face.nodes[j];
      rec.coords[j] = mesh.node(face.nodes[j]);
    }
    records.push_back(rec);
  }
  const auto run = [&](bool closest_only) {
    LocalSearchOptions o = opts;
    o.closest_only = closest_only;
    SubsetSearchScratch scratch;
    std::vector<ContactEvent> got;
    std::vector<Vec3> node_positions;
    for (idx_t v : node_ids) node_positions.push_back(mesh.node(v));
    local_contact_search_records_into(node_ids, node_positions, records, o,
                                      scratch, got);
    for (ContactEvent& e : got) e.face -= kKeyOffset;
    return got;
  };

  const std::string kernel = what + " records kernel";
  // Every face in range: the same (node, face) set, the same gaps.
  std::vector<ContactEvent> all = run(false);
  std::sort(all.begin(), all.end(),
            [](const ContactEvent& a, const ContactEvent& b) {
              return std::pair(a.node, a.face) < std::pair(b.node, b.face);
            });
  ASSERT_EQ(all.size(), want.size()) << kernel;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(all[i].node, want[i].node) << kernel << " event " << i;
    ASSERT_EQ(all[i].face, want[i].face) << kernel << " event " << i;
    EXPECT_DOUBLE_EQ(all[i].distance, want[i].distance) << kernel;
    EXPECT_DOUBLE_EQ(all[i].signed_distance, want[i].signed_distance)
        << kernel;
  }
  // Closest only: one event per node in range, at the smallest gap, on the
  // lowest face among those at that gap in the run above (same arithmetic,
  // so ties are exact).
  const std::vector<ContactEvent> closest = run(true);
  std::size_t k = 0;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    const ContactEvent* best = &all[i];
    while (j < all.size() && all[j].node == all[i].node) {
      if (all[j].distance < best->distance) best = &all[j];
      ++j;
    }
    ASSERT_LT(k, closest.size()) << kernel;
    EXPECT_EQ(closest[k].node, best->node) << kernel;
    EXPECT_EQ(closest[k].face, best->face) << kernel;
    EXPECT_EQ(closest[k].distance, best->distance) << kernel;
    ++k;
    i = j;
  }
  EXPECT_EQ(k, closest.size()) << kernel;
}

/// Every face index of `surface`, in a seeded shuffled order (the kernels
/// must not depend on the face order they are given).
std::vector<idx_t> shuffled_faces(const Surface& surface, std::uint64_t seed) {
  std::vector<idx_t> faces(static_cast<std::size_t>(surface.num_faces()));
  std::iota(faces.begin(), faces.end(), idx_t{0});
  Rng rng(seed);
  for (std::size_t i = faces.size(); i > 1; --i) {
    std::swap(faces[i - 1],
              faces[static_cast<std::size_t>(rng.uniform_int(to_idx(i)))]);
  }
  return faces;
}

TEST(LocalSearchKernels, MatchBruteForceOnThreeBodies) {
  const ThreeBodies scene;
  LocalSearchOptions opts;
  opts.tolerance = 0.12;
  opts.body_of_node = scene.body;
  expect_kernels_match_brute_force(scene.mesh, scene.surface,
                                   scene.surface.contact_nodes,
                                   shuffled_faces(scene.surface, 1), opts,
                                   "three bodies");
}

TEST(LocalSearchKernels, MatchBruteForceWithoutBodyInfo) {
  // Face membership is the only exclusion: with a tolerance past half a
  // cell, a node also sees non-incident faces of its own body.
  const ThreeBodies scene;
  LocalSearchOptions opts;
  opts.tolerance = 0.55;
  expect_kernels_match_brute_force(scene.mesh, scene.surface,
                                   scene.surface.contact_nodes,
                                   shuffled_faces(scene.surface, 2), opts,
                                   "no body info");
}

TEST(LocalSearchKernels, MatchBruteForceWhenOneBodyHasNoFaces) {
  // Body 9's nodes search, but none of its faces is in the subset.
  const ThreeBodies scene;
  LocalSearchOptions opts;
  opts.tolerance = 0.12;
  opts.body_of_node = scene.body;
  std::vector<idx_t> faces;
  for (idx_t f : shuffled_faces(scene.surface, 3)) {
    const idx_t first = scene.surface.faces[static_cast<std::size_t>(f)].nodes[0];
    if (scene.body[static_cast<std::size_t>(first)] != 9) faces.push_back(f);
  }
  ASSERT_LT(faces.size(), scene.surface.faces.size());
  expect_kernels_match_brute_force(scene.mesh, scene.surface,
                                   scene.surface.contact_nodes, faces, opts,
                                   "one body without faces");
}

TEST(LocalSearchKernels, MatchBruteForceWithManyBodies) {
  // Many small per-body trees: every node is its own body modulo 23, so
  // faces mix bodies arbitrarily.
  const ThreeBodies scene;
  std::vector<int> body(scene.body.size());
  for (std::size_t v = 0; v < body.size(); ++v) {
    body[v] = static_cast<int>(v % 23);
  }
  LocalSearchOptions opts;
  opts.tolerance = 0.3;
  opts.body_of_node = body;
  expect_kernels_match_brute_force(scene.mesh, scene.surface,
                                   scene.surface.contact_nodes,
                                   shuffled_faces(scene.surface, 4), opts,
                                   "many bodies");
}

TEST(LocalSearchKernels, WideBodyIdsGroupOnceEachInFaceOrder) {
  // Body ids below zero that differ only in their third byte: the grouping
  // takes several counting passes, and must still give each body one group
  // with its faces in their given order.
  const ThreeBodies scene;
  std::vector<int> body(scene.body.size());
  for (std::size_t v = 0; v < body.size(); ++v) {
    body[v] = static_cast<int>(v % 23) * 65536 - 1000000;
  }
  LocalSearchOptions opts;
  opts.tolerance = 0.3;
  opts.body_of_node = body;
  const std::vector<idx_t> faces = shuffled_faces(scene.surface, 5);
  expect_kernels_match_brute_force(scene.mesh, scene.surface,
                                   scene.surface.contact_nodes, faces, opts,
                                   "wide body ids");

  std::vector<FaceRecord> records;
  for (idx_t f : faces) {
    const SurfaceFace& face = scene.surface.faces[static_cast<std::size_t>(f)];
    FaceRecord& rec = records.emplace_back();
    rec.key = f;
    rec.num_nodes = static_cast<std::int32_t>(face.nodes.size());
    for (std::size_t j = 0; j < face.nodes.size(); ++j) {
      rec.nodes[j] = face.nodes[j];
      rec.coords[j] = scene.mesh.node(face.nodes[j]);
    }
  }
  const std::vector<idx_t> nodes = {scene.surface.contact_nodes.front()};
  const std::vector<Vec3> at = {scene.mesh.node(nodes.front())};
  SubsetSearchScratch scratch;
  std::vector<ContactEvent> events;
  local_contact_search_records_into(nodes, at, records, opts, scratch, events);
  const auto body_of = [&](idx_t i) {
    return body[static_cast<std::size_t>(
        records[static_cast<std::size_t>(i)].nodes[0])];
  };
  std::vector<int> seen;
  std::size_t covered = 0;
  for (const SubsetSearchScratch::Group& g : scratch.groups) {
    ASSERT_EQ(g.begin, covered);
    ASSERT_LT(g.begin, g.end);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), g.body), 0)
        << "body " << g.body << " split into several groups";
    seen.push_back(g.body);
    for (std::size_t k = g.begin; k < g.end; ++k) {
      EXPECT_EQ(body_of(scratch.order[k]), g.body);
      if (k > g.begin) {
        EXPECT_LT(scratch.order[k - 1], scratch.order[k]);
      }
    }
    covered = g.end;
  }
  EXPECT_EQ(covered, records.size());
  std::vector<int> distinct;
  for (std::size_t i = 0; i < records.size(); ++i) {
    distinct.push_back(body_of(to_idx(i)));
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(seen.size(), distinct.size());
}

TEST(LocalSearchKernels, ClosestTieGoesToLowerKey) {
  // Node 6 hovers over the vertex (1, 0, 0) shared by two unit squares, so
  // both faces are exactly equidistant; either record order picks key 3.
  const std::vector<Vec3> positions = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                       {0, 1, 0}, {2, 0, 0}, {2, 1, 0},
                                       {1, 0, 0.05}};
  const auto square = [&](idx_t key, std::array<idx_t, 4> nodes) {
    FaceRecord rec;
    rec.key = key;
    rec.num_nodes = 4;
    rec.nodes = nodes;
    for (std::size_t j = 0; j < 4; ++j) rec.coords[j] = positions[nodes[j]];
    return rec;
  };
  const FaceRecord a = square(7, {0, 1, 2, 3});
  const FaceRecord b = square(3, {1, 4, 5, 2});
  const std::vector<idx_t> nodes = {6};
  LocalSearchOptions opts;
  for (const auto& records :
       {std::vector<FaceRecord>{a, b}, std::vector<FaceRecord>{b, a}}) {
    SubsetSearchScratch scratch;
    std::vector<ContactEvent> events;
    local_contact_search_records_into(nodes, {&positions[6], 1}, records,
                                      opts, scratch, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].face, 3);
    EXPECT_DOUBLE_EQ(events[0].distance, 0.05);
  }
}

TEST(LocalSearchKernels, AllInRangeOutputIgnoresFaceOrder) {
  // A 2x2x1 box sits 0.05 above a 4x4x1 slab on the same unit lattice, so
  // every node of the facing sides is exactly equidistant from the two or
  // four faces that share the vertex below or above it. With every face in
  // range kept, the raw output (not re-sorted) must not depend on the order
  // of the records: ties come in ascending key.
  Mesh mesh = make_hex_box(4, 4, 1, Vec3{0, 0, 0}, Vec3{4, 4, 1});
  std::vector<int> body(static_cast<std::size_t>(mesh.num_nodes()), 0);
  mesh.append(make_hex_box(2, 2, 1, Vec3{1, 1, 1.05}, Vec3{2, 2, 1}));
  body.resize(static_cast<std::size_t>(mesh.num_nodes()), 1);
  const Surface surface = extract_surface(mesh);
  LocalSearchOptions opts;
  opts.tolerance = 0.1;
  opts.body_of_node = body;
  opts.closest_only = false;
  std::vector<Vec3> positions;
  for (idx_t v : surface.contact_nodes) positions.push_back(mesh.node(v));

  std::vector<ContactEvent> first;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<FaceRecord> records;
    for (idx_t f : shuffled_faces(surface, seed)) {
      const SurfaceFace& face = surface.faces[static_cast<std::size_t>(f)];
      FaceRecord& rec = records.emplace_back();
      rec.key = f;
      rec.num_nodes = static_cast<std::int32_t>(face.nodes.size());
      for (std::size_t j = 0; j < face.nodes.size(); ++j) {
        rec.nodes[j] = face.nodes[j];
        rec.coords[j] = mesh.node(face.nodes[j]);
      }
    }
    SubsetSearchScratch scratch;
    std::vector<ContactEvent> events;
    local_contact_search_records_into(surface.contact_nodes, positions,
                                      records, opts, scratch, events);
    if (seed == 1) {
      first = events;
      // The 9 box nodes each see the 4 slab faces around the vertex below.
      // Of the 9 slab nodes under the box, the centre sees 4 bottom faces,
      // an edge node 2 bottom and 2 side faces, a corner 1 bottom and 2
      // side faces (their lower edge is 0.05 above it too).
      ASSERT_EQ(events.size(), 9u * 4 + 4 + 4 * (2 + 2) + 4 * (1 + 2));
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_TRUE(event_order(events[i - 1], events[i])) << "event " << i;
      }
      continue;
    }
    ASSERT_EQ(events.size(), first.size()) << "seed " << seed;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].node, first[i].node) << "seed " << seed;
      EXPECT_EQ(events[i].face, first[i].face) << "seed " << seed;
      EXPECT_EQ(events[i].distance, first[i].distance) << "seed " << seed;
      EXPECT_EQ(events[i].signed_distance, first[i].signed_distance);
      EXPECT_EQ(events[i].closest_point, first[i].closest_point);
    }
  }
}

TEST(LocalSearch, FaceNormalOrientation) {
  const Mesh cube = make_hex_box(1, 1, 1, Vec3{0, 0, 0}, Vec3{1, 1, 1});
  const Surface s = extract_surface(cube);
  // Every face normal must be non-zero and axis-aligned for a unit cube.
  for (const SurfaceFace& f : s.faces) {
    const Vec3 n = face_normal(cube, f);
    const real_t len = norm(n);
    EXPECT_GT(len, 0.5);
    const Vec3 u = (1.0 / len) * n;
    const real_t max_comp =
        std::max({std::abs(u.x), std::abs(u.y), std::abs(u.z)});
    EXPECT_NEAR(max_comp, 1.0, 1e-9);
  }
}

TEST(LocalSearch, RejectsBadOptions) {
  const TwoCubes scene(0.05);
  LocalSearchOptions opts;
  opts.tolerance = 0;
  EXPECT_THROW(local_contact_search(scene.mesh, scene.surface, opts),
               InputError);
}

}  // namespace
}  // namespace cpart
