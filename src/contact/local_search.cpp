#include "contact/local_search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "geom/kdtree.hpp"
#include "parallel/thread_pool.hpp"

namespace cpart {

bool event_order(const ContactEvent& a, const ContactEvent& b) {
  if (a.node != b.node) return a.node < b.node;
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.face < b.face;
}

Vec3 closest_point_on_triangle(Vec3 p, Vec3 a, Vec3 b, Vec3 c) {
  // Ericson, "Real-Time Collision Detection", 5.1.5.
  const Vec3 ab = b - a;
  const Vec3 ac = c - a;
  const Vec3 ap = p - a;
  const real_t d1 = dot(ab, ap);
  const real_t d2 = dot(ac, ap);
  if (d1 <= 0 && d2 <= 0) return a;

  const Vec3 bp = p - b;
  const real_t d3 = dot(ab, bp);
  const real_t d4 = dot(ac, bp);
  if (d3 >= 0 && d4 <= d3) return b;

  const real_t vc = d1 * d4 - d3 * d2;
  if (vc <= 0 && d1 >= 0 && d3 <= 0) {
    const real_t v = d1 / (d1 - d3);
    return a + v * ab;
  }

  const Vec3 cp = p - c;
  const real_t d5 = dot(ab, cp);
  const real_t d6 = dot(ac, cp);
  if (d6 >= 0 && d5 <= d6) return c;

  const real_t vb = d5 * d2 - d1 * d6;
  if (vb <= 0 && d2 >= 0 && d6 <= 0) {
    const real_t w = d2 / (d2 - d6);
    return a + w * ac;
  }

  const real_t va = d3 * d6 - d5 * d4;
  if (va <= 0 && (d4 - d3) >= 0 && (d5 - d6) >= 0) {
    const real_t w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
    return b + w * (c - b);
  }

  const real_t denom = 1.0 / (va + vb + vc);
  const real_t v = vb * denom;
  const real_t w = vc * denom;
  return a + v * ab + w * ac;
}

namespace {

Vec3 cross(Vec3 a, Vec3 b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

/// Triangulation of a face: (0,1,2) plus (0,2,3) for quads; edges in 2D are
/// treated as degenerate triangles (a, b, b).
void face_triangles(const Mesh& mesh, const SurfaceFace& face,
                    std::vector<std::array<Vec3, 3>>* tris) {
  tris->clear();
  const auto& ids = face.nodes;
  if (ids.size() == 2) {
    tris->push_back({mesh.node(ids[0]), mesh.node(ids[1]), mesh.node(ids[1])});
  } else if (ids.size() == 3) {
    tris->push_back(
        {mesh.node(ids[0]), mesh.node(ids[1]), mesh.node(ids[2])});
  } else {
    tris->push_back(
        {mesh.node(ids[0]), mesh.node(ids[1]), mesh.node(ids[2])});
    tris->push_back(
        {mesh.node(ids[0]), mesh.node(ids[2]), mesh.node(ids[3])});
  }
}

/// Closest point on a (possibly degenerate) triangle, robust to b == c.
Vec3 closest_on_tri_robust(Vec3 p, const std::array<Vec3, 3>& t) {
  if (t[1] == t[2]) {
    // Segment case.
    const Vec3 ab = t[1] - t[0];
    const real_t len2 = dot(ab, ab);
    if (len2 <= 0) return t[0];
    const real_t s = std::clamp<real_t>(dot(p - t[0], ab) / len2, 0, 1);
    return t[0] + s * ab;
  }
  return closest_point_on_triangle(p, t[0], t[1], t[2]);
}

struct FaceTest {
  real_t distance;
  real_t signed_distance;
  Vec3 closest;
};

FaceTest test_face(const Mesh& mesh, const SurfaceFace& face, Vec3 p,
                   std::vector<std::array<Vec3, 3>>* scratch) {
  face_triangles(mesh, face, scratch);
  FaceTest best{std::numeric_limits<real_t>::max(), 0, {}};
  for (const auto& tri : *scratch) {
    const Vec3 c = closest_on_tri_robust(p, tri);
    const real_t d = norm(p - c);
    if (d < best.distance) {
      best.distance = d;
      best.closest = c;
    }
  }
  const Vec3 n = face_normal(mesh, face);
  const real_t nn = norm(n);
  best.signed_distance =
      nn > 0 ? dot(p - best.closest, (1.0 / nn) * n) : best.distance;
  return best;
}

}  // namespace

Vec3 face_normal(const Mesh& mesh, const SurfaceFace& face) {
  const auto& ids = face.nodes;
  if (ids.size() < 3) {
    // 2D edge: rotate the edge direction by 90 degrees in the plane.
    const Vec3 d = mesh.node(ids[1]) - mesh.node(ids[0]);
    return {-d.y, d.x, 0};
  }
  Vec3 n{};
  const Vec3 a = mesh.node(ids[0]);
  for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
    n = n + cross(mesh.node(ids[i]) - a, mesh.node(ids[i + 1]) - a);
  }
  return n;
}

std::vector<ContactEvent> local_contact_search(
    const Mesh& mesh, const Surface& surface, const LocalSearchOptions& opts) {
  require(opts.tolerance > 0, "local_contact_search: tolerance must be > 0");
  require(opts.body_of_node.empty() ||
              opts.body_of_node.size() ==
                  static_cast<std::size_t>(mesh.num_nodes()),
          "local_contact_search: body array size mismatch");

  // kd-tree over face centroids; candidate faces for a node are those whose
  // centroid lies within (tolerance + face radius bound).
  std::vector<Vec3> centroids(surface.faces.size());
  real_t max_radius = 0;
  for (std::size_t f = 0; f < surface.faces.size(); ++f) {
    Vec3 c{};
    for (idx_t id : surface.faces[f].nodes) c = c + mesh.node(id);
    c = (1.0 / static_cast<real_t>(surface.faces[f].nodes.size())) * c;
    centroids[f] = c;
    for (idx_t id : surface.faces[f].nodes) {
      max_radius = std::max(max_radius, norm(mesh.node(id) - c));
    }
  }
  const KdTree tree(centroids, mesh.dim());
  const real_t reach = opts.tolerance + max_radius;

  const idx_t num_contact = surface.num_contact_nodes();
  std::vector<std::vector<ContactEvent>> per_chunk(
      std::max<unsigned>(1, ThreadPool::global().num_threads()));
  ThreadPool::global().parallel_for_chunks(
      num_contact, [&](unsigned chunk, idx_t begin, idx_t end) {
        assert(static_cast<std::size_t>(chunk) < per_chunk.size());
        std::vector<idx_t> candidates;
        std::vector<std::array<Vec3, 3>> scratch;
        auto& events = per_chunk[static_cast<std::size_t>(chunk)];
        for (idx_t i = begin; i < end; ++i) {
          const idx_t node = surface.contact_nodes[static_cast<std::size_t>(i)];
          const Vec3 p = mesh.node(node);
          BBox box;
          box.expand(p);
          box.inflate(reach);
          candidates.clear();
          tree.query_box(box, candidates);
          ContactEvent best;
          bool have_best = false;
          for (idx_t f : candidates) {
            const SurfaceFace& face =
                surface.faces[static_cast<std::size_t>(f)];
            // Exclusions: a node never contacts a face it belongs to, and
            // (with body info) never a face of its own body.
            if (std::find(face.nodes.begin(), face.nodes.end(), node) !=
                face.nodes.end()) {
              continue;
            }
            if (!opts.body_of_node.empty() &&
                opts.body_of_node[static_cast<std::size_t>(node)] ==
                    opts.body_of_node[static_cast<std::size_t>(
                        face.nodes.front())]) {
              continue;
            }
            const FaceTest t = test_face(mesh, face, p, &scratch);
            if (t.distance > opts.tolerance) continue;
            ContactEvent e;
            e.node = node;
            e.face = f;
            e.distance = t.distance;
            e.signed_distance = t.signed_distance;
            e.closest_point = t.closest;
            if (opts.closest_only) {
              // Same tie rule as the records kernel: equidistant faces go
              // to the lower face index, whatever the kd-tree order.
              if (!have_best || e.distance < best.distance ||
                  (e.distance == best.distance && e.face < best.face)) {
                best = e;
                have_best = true;
              }
            } else {
              events.push_back(e);
            }
          }
          if (opts.closest_only && have_best) events.push_back(best);
        }
      });

  std::vector<ContactEvent> all;
  for (auto& chunk : per_chunk) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  std::sort(all.begin(), all.end(), event_order);
  return all;
}

namespace {

/// Triangulation of a face record, mirroring face_triangles: (0,1,2) plus
/// (0,2,3) for quads, degenerate (a, b, b) for 2-node edges.
void record_triangles(const FaceRecord& rec,
                      std::vector<std::array<Vec3, 3>>* tris) {
  tris->clear();
  const auto& c = rec.coords;
  if (rec.num_nodes == 2) {
    tris->push_back({c[0], c[1], c[1]});
  } else if (rec.num_nodes == 3) {
    tris->push_back({c[0], c[1], c[2]});
  } else {
    tris->push_back({c[0], c[1], c[2]});
    tris->push_back({c[0], c[2], c[3]});
  }
}

/// face_normal over a record's coordinates (fan cross-sum from node 0).
Vec3 record_normal(const FaceRecord& rec) {
  if (rec.num_nodes < 3) {
    const Vec3 d = rec.coords[1] - rec.coords[0];
    return {-d.y, d.x, 0};
  }
  Vec3 n{};
  const Vec3 a = rec.coords[0];
  for (std::int32_t i = 1; i + 1 < rec.num_nodes; ++i) {
    n = n + cross(rec.coords[static_cast<std::size_t>(i)] - a,
                  rec.coords[static_cast<std::size_t>(i) + 1] - a);
  }
  return n;
}

/// Distance part of the record test: the closest point over the record's
/// triangulation. signed_distance is left 0 — record_signed_distance adds
/// it, only for faces within tolerance.
FaceTest closest_on_record(const FaceRecord& rec, Vec3 p,
                           std::vector<std::array<Vec3, 3>>* scratch) {
  record_triangles(rec, scratch);
  FaceTest best{std::numeric_limits<real_t>::max(), 0, {}};
  for (const auto& tri : *scratch) {
    const Vec3 c = closest_on_tri_robust(p, tri);
    const real_t d = norm(p - c);
    if (d < best.distance) {
      best.distance = d;
      best.closest = c;
    }
  }
  return best;
}

/// Signed gap of p behind the record's normal, given its closest point.
real_t record_signed_distance(const FaceRecord& rec, Vec3 p,
                              const FaceTest& t) {
  const Vec3 n = record_normal(rec);
  const real_t nn = norm(n);
  return nn > 0 ? dot(p - t.closest, (1.0 / nn) * n) : t.distance;
}

bool record_contains_node(const FaceRecord& rec, idx_t node) {
  for (std::int32_t i = 0; i < rec.num_nodes; ++i) {
    if (rec.nodes[static_cast<std::size_t>(i)] == node) return true;
  }
  return false;
}

/// Groups the faces by the body of their first node into scratch.order:
/// a stable LSD radix sort on body - lowest body, one counting pass per
/// byte of that range (one pass for up to 256 bodies, none for one), so
/// faces keep their relative order within a body. Without body info every
/// face is in one group.
void group_faces_by_body(std::span<const FaceRecord> faces,
                         std::span<const int> body_of_node,
                         SubsetSearchScratch& s) {
  const std::size_t n = faces.size();
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), idx_t{0});
  s.groups.clear();
  if (n == 0) return;
  if (body_of_node.empty()) {
    s.groups.push_back({0, 0, 0, n});
    return;
  }
  const auto body = [&](idx_t f) {
    return body_of_node[static_cast<std::size_t>(
        faces[static_cast<std::size_t>(f)].nodes[0])];
  };
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (idx_t f : s.order) {
    lo = std::min(lo, body(f));
    hi = std::max(hi, body(f));
  }
  const auto key = [&](idx_t f) {  // body - lo, without signed overflow
    return static_cast<std::uint32_t>(body(f)) -
           static_cast<std::uint32_t>(lo);
  };
  const std::uint32_t range =
      static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
  for (unsigned shift = 0; shift < 32 && (range >> shift) != 0; shift += 8) {
    // A pass reads the identity (first pass) or a copy of the previous
    // pass's order, so only a grouping of 256+ bodies needs the copy.
    if (shift > 0) s.order_tmp.assign(s.order.begin(), s.order.end());
    const auto input = [&](std::size_t i) {
      return shift == 0 ? static_cast<idx_t>(i) : s.order_tmp[i];
    };
    const auto digit = [&](idx_t f) { return (key(f) >> shift) & 0xffu; };
    std::array<idx_t, 257> start{};  // start[d + 1]: faces with digit d
    for (std::size_t i = 0; i < n; ++i) ++start[digit(input(i)) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::size_t i = 0; i < n; ++i) {
      const idx_t f = input(i);
      s.order[static_cast<std::size_t>(start[digit(f)]++)] = f;
    }
  }
  for (std::size_t begin = 0; begin < n;) {
    const int b = body(s.order[begin]);
    std::size_t end = begin + 1;
    while (end < n && body(s.order[end]) == b) ++end;
    s.groups.push_back({b, 0, begin, end});
    begin = end;
  }
}

/// Builds the candidate index of the rank kernel: the body groups, and per
/// group a CellGrid over its face centroids with cell edge = reach =
/// tolerance + the group's largest face radius. This is conservative:
/// every point of a face lies within its radius of its centroid, so a face
/// whose closest point is within `tolerance` of p has its centroid within
/// reach of p. A node queries only the groups of other bodies, so its own
/// body's faces (nearly all of its neighbours) are never generated.
void build_candidate_index(std::span<const FaceRecord> faces,
                           std::span<const int> body_of_node,
                           real_t tolerance, SubsetSearchScratch& s) {
  for (const FaceRecord& rec : faces) {
    require(rec.num_nodes >= 2 && rec.num_nodes <= 4,
            "local_contact_search_records: bad face record");
  }
  group_faces_by_body(faces, body_of_node, s);
  s.centroids.resize(faces.size());
  if (s.grids.size() < s.groups.size()) s.grids.resize(s.groups.size());
  for (std::size_t g = 0; g < s.groups.size(); ++g) {
    SubsetSearchScratch::Group& group = s.groups[g];
    real_t max_radius = 0;
    for (std::size_t k = group.begin; k < group.end; ++k) {
      const FaceRecord& rec = faces[static_cast<std::size_t>(s.order[k])];
      Vec3 c{};
      for (std::int32_t j = 0; j < rec.num_nodes; ++j) {
        c = c + rec.coords[static_cast<std::size_t>(j)];
      }
      c = (1.0 / static_cast<real_t>(rec.num_nodes)) * c;
      s.centroids[k] = c;
      for (std::int32_t j = 0; j < rec.num_nodes; ++j) {
        max_radius = std::max(
            max_radius, norm(rec.coords[static_cast<std::size_t>(j)] - c));
      }
    }
    group.reach = tolerance + max_radius;
    s.grids[g].build(std::span<const Vec3>(s.centroids)
                         .subspan(group.begin, group.end - group.begin),
                     group.reach);
  }
}

/// Appends the candidate indices into the faces for contact node `node` at
/// position `p`: the faces of every other body's group whose centroid lies
/// in p ± that group's reach.
void query_candidates(const SubsetSearchScratch& s,
                      std::span<const int> body_of_node, idx_t node, Vec3 p,
                      std::vector<idx_t>& out) {
  for (std::size_t g = 0; g < s.groups.size(); ++g) {
    const SubsetSearchScratch::Group& group = s.groups[g];
    if (!body_of_node.empty() &&
        group.body == body_of_node[static_cast<std::size_t>(node)]) {
      continue;
    }
    BBox box;
    box.expand(p);
    box.inflate(group.reach);
    const std::size_t first = out.size();
    s.grids[g].query_box(box, out);
    for (std::size_t k = first; k < out.size(); ++k) {
      out[k] = s.order[group.begin + static_cast<std::size_t>(out[k])];
    }
  }
}

}  // namespace

void local_contact_search_records_into(std::span<const idx_t> node_ids,
                                       std::span<const Vec3> node_positions,
                                       std::span<const FaceRecord> faces,
                                       const LocalSearchOptions& opts,
                                       SubsetSearchScratch& scratch,
                                       std::vector<ContactEvent>& out) {
  require(opts.tolerance > 0,
          "local_contact_search_records: tolerance must be > 0");
  require(node_positions.size() == node_ids.size(),
          "local_contact_search_records: one position per node id");
  out.clear();
  build_candidate_index(faces, opts.body_of_node, opts.tolerance, scratch);
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    const idx_t node = node_ids[i];
    const Vec3 p = node_positions[i];
    scratch.candidates.clear();
    query_candidates(scratch, opts.body_of_node, node, p,
                     scratch.candidates);
    ContactEvent best;
    bool have_best = false;
    for (idx_t local : scratch.candidates) {
      const FaceRecord& rec = faces[static_cast<std::size_t>(local)];
      // Same-body faces were never generated (query_candidates).
      if (record_contains_node(rec, node)) continue;
      const FaceTest t = closest_on_record(rec, p, &scratch.triangles);
      if (t.distance > opts.tolerance) continue;
      ContactEvent e;
      e.node = node;
      e.face = rec.key;
      e.distance = t.distance;
      e.signed_distance = record_signed_distance(rec, p, t);
      e.closest_point = t.closest;
      if (opts.closest_only) {
        // Equidistant faces (a shared edge or vertex) go to the lower key,
        // so the pick does not depend on the candidate order.
        if (!have_best || e.distance < best.distance ||
            (e.distance == best.distance && e.face < best.face)) {
          best = e;
          have_best = true;
        }
      } else {
        out.push_back(e);
      }
    }
    if (opts.closest_only && have_best) out.push_back(best);
  }
  std::sort(out.begin(), out.end(), event_order);
}

std::size_t SubsetSearchScratch::heap_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  std::size_t total = bytes(order) + bytes(order_tmp) + bytes(centroids) +
                      bytes(groups) + bytes(grids) + bytes(candidates) +
                      bytes(triangles);
  for (const CellGrid& grid : grids) total += grid.heap_bytes();
  return total;
}

}  // namespace cpart
