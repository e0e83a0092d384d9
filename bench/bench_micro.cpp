// Micro-benchmarks (google-benchmark) for every substrate: multilevel
// partitioning, RCB build/update, decision-tree induction, descriptor
// queries, global search, Hungarian matching, surface extraction and
// communication metrics.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>

#include "contact/global_search.hpp"
#include "core/mcml_dt.hpp"
#include "geom/rcb.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "match/hungarian.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/surface.hpp"
#include "partition/coarsen.hpp"
#include "partition/partition.hpp"
#include "sim/impact_sim.hpp"
#include "tree/descriptor_tree.hpp"
#include "util/rng.hpp"

namespace cpart {
namespace {

std::vector<Vec3> random_points(idx_t n, Rng& rng) {
  std::vector<Vec3> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p = Vec3{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
  }
  return pts;
}

void BM_PartitionGrid(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  const idx_t k = static_cast<idx_t>(state.range(1));
  const CsrGraph g = make_grid_graph(side, side);
  PartitionOptions opts;
  opts.k = k;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opts.seed = seed++;
    benchmark::DoNotOptimize(partition_graph(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionGrid)->Args({64, 8})->Args({64, 32})->Args({128, 8});

void BM_PartitionMultiConstraint(benchmark::State& state) {
  const idx_t side = static_cast<idx_t>(state.range(0));
  CsrGraph g = make_grid_graph(side, side);
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(side) * side * 2);
  for (idx_t v = 0; v < side * side; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = (v % 7 == 0) ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  PartitionOptions opts;
  opts.k = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opts.seed = seed++;
    benchmark::DoNotOptimize(partition_graph(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionMultiConstraint)->Arg(64)->Arg(96);

void BM_Coarsen(benchmark::State& state) {
  const CsrGraph g = make_grid_graph_3d(32, 32, 32);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coarsen_once(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_Coarsen);

void BM_RcbBuild(benchmark::State& state) {
  Rng rng(2);
  const auto pts = random_points(static_cast<idx_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RcbTree::build(pts, {}, 64, 3));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RcbBuild)->Arg(10000)->Arg(100000);

void BM_RcbUpdate(benchmark::State& state) {
  Rng rng(3);
  auto pts = random_points(static_cast<idx_t>(state.range(0)), rng);
  RcbTree tree = RcbTree::build(pts, {}, 64, 3);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& p : pts) p.x += rng.uniform(-0.01, 0.01);
    state.ResumeTiming();
    tree.update(pts, {});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RcbUpdate)->Arg(10000)->Arg(100000);

void BM_TreeInduction(benchmark::State& state) {
  Rng rng(4);
  const idx_t n = static_cast<idx_t>(state.range(0));
  const auto pts = random_points(n, rng);
  // 16 spatial blocks as labels: realistic partition-like label structure.
  std::vector<idx_t> labels(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) {
    const Vec3& p = pts[static_cast<std::size_t>(i)];
    labels[static_cast<std::size_t>(i)] =
        (p.x < 5 ? 0 : 1) + 2 * (p.y < 5 ? 0 : 1) + 4 * (p.z < 5 ? 0 : 1) +
        8 * (p.x + p.y < 10 ? 0 : 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(induce_tree(pts, labels, 16));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeInduction)->Arg(5000)->Arg(20000)->Arg(100000);

void BM_DescriptorInductionWarm(benchmark::State& state) {
  // The contact step's descriptor induction: ~12k contact points labelled
  // by 25 spatially coherent subdomains, re-induced from a warm workspace
  // with no point map. Iterations alternate between two copies of the
  // points, one slightly moved, so each sees the small coherent motion of
  // one step and the saved orders need repair.
  Rng rng(7);
  const idx_t n = static_cast<idx_t>(state.range(0));
  std::array<std::vector<Vec3>, 2> pts{random_points(n, rng), {}};
  pts[1] = pts[0];
  for (Vec3& p : pts[1]) {
    p.x += 0.01 * std::sin(3 * p.y);
    p.z += 0.01 * std::cos(3 * p.x);
  }
  std::vector<idx_t> labels(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) {
    const Vec3& p = pts[0][static_cast<std::size_t>(i)];
    labels[static_cast<std::size_t>(i)] =
        static_cast<idx_t>(p.x / 2) + 5 * static_cast<idx_t>(p.y / 2);
  }
  TreeInduceOptions opts;
  opts.want_point_leaf = false;
  TreeInduceWorkspace ws;
  std::size_t step = 0;
  for (auto _ : state) {
    InducedTree t = induce_tree(pts[step++ % 2], labels, 25, opts, &ws);
    benchmark::DoNotOptimize(t.tree.num_nodes());
    ws.recycle(std::move(t.tree));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DescriptorInductionWarm)->Arg(12000)->UseRealTime();

void BM_DescriptorQuery(benchmark::State& state) {
  Rng rng(5);
  const auto pts = random_points(50000, rng);
  std::vector<idx_t> labels(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    labels[i] = static_cast<idx_t>(static_cast<int>(pts[i].x) % 25);
  }
  const SubdomainDescriptors desc(pts, labels, 25);
  std::vector<idx_t> out;
  std::vector<char> mask;
  std::vector<idx_t> touched;
  for (auto _ : state) {
    BBox q;
    q.expand(Vec3{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
    q.inflate(0.2);
    out.clear();
    desc.query_box(q, out, mask, touched);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DescriptorQuery);

void BM_Hungarian(benchmark::State& state) {
  const idx_t k = static_cast<idx_t>(state.range(0));
  Rng rng(6);
  std::vector<wgt_t> w(static_cast<std::size_t>(k) * k);
  for (auto& x : w) x = rng.uniform_int(10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_assignment(w, k));
  }
}
BENCHMARK(BM_Hungarian)->Arg(25)->Arg(100)->Arg(256);

void BM_SurfaceExtraction(benchmark::State& state) {
  const Mesh m = make_hex_box(30, 30, 10, Vec3{0, 0, 0}, Vec3{3, 3, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_surface(m));
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_SurfaceExtraction);

void BM_NodalGraph(benchmark::State& state) {
  const Mesh m = make_hex_box(30, 30, 10, Vec3{0, 0, 0}, Vec3{3, 3, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nodal_graph(m));
  }
  state.SetItemsProcessed(state.iterations() * m.num_elements());
}
BENCHMARK(BM_NodalGraph);

// The repartition graph of the impact scene perfbench steps (resolution
// 2.0, 39k hexes, ~470k edge insertions): element edges through
// GraphBuilder, then the two-phase weights for the snapshot-0 contact mask.
void BM_TwoPhaseGraph(benchmark::State& state) {
  ImpactSimConfig config;
  config.scale_resolution(2.0);
  config.num_snapshots = 2;
  const ImpactSim sim(config);
  const auto snap = sim.snapshot(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_two_phase_graph(
        sim.initial_mesh(), snap.surface.is_contact_node, 5));
  }
  state.SetItemsProcessed(state.iterations() *
                          sim.initial_mesh().num_elements());
}
BENCHMARK(BM_TwoPhaseGraph)->Unit(benchmark::kMillisecond);

void BM_CommVolume(benchmark::State& state) {
  const CsrGraph g = make_grid_graph_3d(40, 40, 40);
  PartitionOptions opts;
  opts.k = 16;
  const auto part = partition_graph(g, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(total_comm_volume(g, part));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_CommVolume);

void BM_GlobalSearchTree(benchmark::State& state) {
  ImpactSimConfig config;
  config.num_snapshots = 2;
  const ImpactSim sim(config);
  const auto snap = sim.snapshot(0);
  McmlDtConfig dc;
  dc.k = 25;
  const McmlDtPartitioner p(snap.mesh, snap.surface, dc);
  const auto desc = p.build_descriptors(snap.mesh, snap.surface);
  const auto owners = face_owners(snap.surface, p.node_partition(), 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        global_search_tree(snap.mesh, snap.surface, owners, desc, 0.1));
  }
  state.SetItemsProcessed(state.iterations() * snap.surface.num_faces());
}
BENCHMARK(BM_GlobalSearchTree);

void BM_McmlDtFullPipeline(benchmark::State& state) {
  ImpactSimConfig config;
  config.num_snapshots = 2;
  config.plate_cells_xy = 24;
  config.plate_cells_z = 3;
  const ImpactSim sim(config);
  const auto snap = sim.snapshot(0);
  McmlDtConfig dc;
  dc.k = static_cast<idx_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    dc.partitioner.seed = seed++;
    McmlDtPartitioner p(snap.mesh, snap.surface, dc);
    benchmark::DoNotOptimize(p.node_partition().data());
  }
  state.SetItemsProcessed(state.iterations() * snap.mesh.num_nodes());
}
BENCHMARK(BM_McmlDtFullPipeline)->Arg(8)->Arg(25);

}  // namespace
}  // namespace cpart

BENCHMARK_MAIN();
