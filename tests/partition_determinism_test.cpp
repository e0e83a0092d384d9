// Determinism and quality guarantees of the parallel multilevel partitioner:
// partitions must be byte-identical across thread counts at a fixed seed
// (the parallel matching resolves conflicts by permutation rank, never by
// thread schedule), and the parallel coarsening path must not regress
// edge-cut quality versus the serial seed implementation. This binary also
// runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/kway_multilevel.hpp"
#include "partition/partition.hpp"

namespace cpart {
namespace {

/// Restores the default global pool when a test that swaps it exits.
class GlobalPoolGuard {
 public:
  ~GlobalPoolGuard() { ThreadPool::set_global_threads(0); }
};

// Large enough to drive the parallel coarsening path (threshold 4096) for
// several levels.
CsrGraph large_test_graph() { return make_grid_graph_3d(22, 22, 22); }

CsrGraph large_two_constraint_graph() {
  CsrGraph g = make_grid_graph_3d(20, 20, 20);
  const idx_t n = g.num_vertices();
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(n) * 2);
  for (idx_t v = 0; v < n; ++v) {
    vwgt[static_cast<std::size_t>(v) * 2] = 1;
    // A "contact zone" carrying the second constraint, as in the paper.
    vwgt[static_cast<std::size_t>(v) * 2 + 1] = (v % 20 < 6) ? 1 : 0;
  }
  g.set_vertex_weights(vwgt, 2);
  return g;
}

TEST(PartitionDeterminism, CoarsenIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_test_graph();
  struct Result {
    std::vector<idx_t> coarse_of_fine;
    std::vector<idx_t> xadj, adjncy;
    std::vector<wgt_t> vwgt, adjwgt;
  };
  std::vector<Result> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(42);
    const Coarsening c = coarsen_once(g, rng);
    results.push_back({c.coarse_of_fine, c.coarse.xadj(), c.coarse.adjncy(),
                       c.coarse.vwgt(), c.coarse.adjwgt()});
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].coarse_of_fine, results[i].coarse_of_fine);
    EXPECT_EQ(results[0].xadj, results[i].xadj);
    EXPECT_EQ(results[0].adjncy, results[i].adjncy);
    EXPECT_EQ(results[0].vwgt, results[i].vwgt);
    EXPECT_EQ(results[0].adjwgt, results[i].adjwgt);
  }
}

// Pool widths the recursive-bisection tests sweep: serial, even and odd
// widths, and an oversubscribed one.
constexpr unsigned kWidths[] = {1u, 2u, 3u, 4u, 8u};

TEST(PartitionDeterminism, RecursiveBisectionIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_test_graph();
  PartitionOptions opts;
  opts.k = 8;
  opts.seed = 7;
  std::vector<std::vector<idx_t>> parts;
  for (unsigned threads : kWidths) {
    ThreadPool::set_global_threads(threads);
    parts.push_back(partition_graph(g, opts));
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[0], parts[i]) << "width " << kWidths[i];
  }
  EXPECT_TRUE(is_valid_partition(parts[0], opts.k));
}

TEST(PartitionDeterminism, UnevenLeavesIdenticalAcrossThreadCounts) {
  // k = 25 splits 13 | 12, then 7 | 6 and 6 | 6, ...: sibling problems carry
  // different leaf counts and sizes, so they finish out of order on a wide
  // pool. The leaf-weighted driver (the hierarchy's group split) gets the
  // same sweep with parts spread 3/1/4/2 over four leaves.
  GlobalPoolGuard guard;
  const CsrGraph g = large_two_constraint_graph();
  PartitionOptions opts;
  opts.k = 25;
  opts.seed = 5;
  const std::vector<idx_t> leaf_begin{0, 3, 4, 8, 10};
  std::vector<std::vector<idx_t>> parts;
  std::vector<std::vector<idx_t>> leaves;
  for (unsigned threads : kWidths) {
    ThreadPool::set_global_threads(threads);
    parts.push_back(partition_graph(g, opts));
    leaves.push_back(recursive_bisection(g, leaf_begin, 0.05, opts));
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[0], parts[i]) << "width " << kWidths[i];
    EXPECT_EQ(leaves[0], leaves[i]) << "width " << kWidths[i];
  }
  EXPECT_TRUE(is_valid_partition(parts[0], opts.k));
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 0), 1.11);
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 1), 1.11);
  EXPECT_TRUE(is_valid_partition(leaves[0], 4));
}

TEST(PartitionDeterminism, InlineRecursiveBisectionSameLabels) {
  // Inside a parallel_tasks body every dispatch runs inline, and a level of
  // fewer than 4096 vertices runs inline by rule. Neither may change labels.
  GlobalPoolGuard guard;
  const CsrGraph big = large_two_constraint_graph();
  const CsrGraph small = make_grid_graph_3d(14, 14, 14);
  ASSERT_LT(small.num_vertices(), 4096);
  PartitionOptions opts;
  opts.k = 25;
  opts.seed = 11;
  ThreadPool::set_global_threads(1);
  const std::vector<idx_t> want_big = partition_graph(big, opts);
  const std::vector<idx_t> want_small = partition_graph(small, opts);
  for (unsigned threads : kWidths) {
    ThreadPool::set_global_threads(threads);
    std::vector<std::vector<idx_t>> got(4);
    ThreadPool::global().parallel_tasks(4, [&](idx_t i) {
      got[static_cast<std::size_t>(i)] =
          partition_graph(i % 2 == 0 ? big : small, opts);
    });
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], i % 2 == 0 ? want_big : want_small)
          << "width " << threads << " task " << i;
    }
    EXPECT_EQ(partition_graph(small, opts), want_small) << "width " << threads;
  }
}

TEST(PartitionDeterminism, DirectKwayIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const CsrGraph g = large_two_constraint_graph();
  PartitionOptions opts;
  opts.k = 12;
  opts.seed = 3;
  std::vector<std::vector<idx_t>> parts;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    parts.push_back(partition_graph_kway(g, opts));
  }
  EXPECT_EQ(parts[0], parts[1]);
  EXPECT_EQ(parts[0], parts[2]);
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 0), 1.11);
  EXPECT_LE(load_imbalance(g, parts[0], opts.k, 1), 1.11);
}

/// The parallel matching differs from the serial greedy matching, so the
/// final cut is not identical — but it must stay in the same quality league.
/// Compares against the serial path (forced via a huge threshold) on the
/// kind of mesh Table 1 uses: a structured body partitioned k ways.
TEST(PartitionQuality, ParallelCoarseningNoCutRegression) {
  const Mesh mesh = make_hex_box(28, 28, 28, {0, 0, 0}, {1, 1, 1});
  const CsrGraph g = nodal_graph(mesh);
  ASSERT_GE(g.num_vertices(), 20000);

  PartitionOptions serial_opts;
  serial_opts.k = 25;
  serial_opts.seed = 1;
  serial_opts.coarsen_parallel_threshold =
      std::numeric_limits<idx_t>::max();  // seed implementation
  PartitionOptions parallel_opts = serial_opts;
  parallel_opts.coarsen_parallel_threshold = 4096;

  const wgt_t serial_cut = edge_cut(g, partition_graph(g, serial_opts));
  const wgt_t parallel_cut = edge_cut(g, partition_graph(g, parallel_opts));
  EXPECT_LE(static_cast<double>(parallel_cut),
            1.05 * static_cast<double>(serial_cut))
      << "serial=" << serial_cut << " parallel=" << parallel_cut;
}

TEST(PartitionQuality, ParallelCoarseningPreservesInvariants) {
  const CsrGraph g = large_two_constraint_graph();
  Rng rng(9);
  const Coarsening c = coarsen_once(g, rng);
  EXPECT_LT(c.coarse.num_vertices(), g.num_vertices());
  EXPECT_GE(c.coarse.num_vertices(), g.num_vertices() / 2);
  EXPECT_EQ(c.coarse.total_vertex_weight(0), g.total_vertex_weight(0));
  EXPECT_EQ(c.coarse.total_vertex_weight(1), g.total_vertex_weight(1));
  EXPECT_TRUE(c.coarse.is_symmetric());
  // Cut preservation under projection: edge aggregation is exact.
  Rng rng2(10);
  std::vector<idx_t> coarse_part(
      static_cast<std::size_t>(c.coarse.num_vertices()));
  for (auto& p : coarse_part) p = rng2.uniform_int(4);
  std::vector<idx_t> fine_part(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    fine_part[static_cast<std::size_t>(v)] = coarse_part[static_cast<std::size_t>(
        c.coarse_of_fine[static_cast<std::size_t>(v)])];
  }
  EXPECT_EQ(edge_cut(c.coarse, coarse_part), edge_cut(g, fine_part));
}

}  // namespace
}  // namespace cpart
