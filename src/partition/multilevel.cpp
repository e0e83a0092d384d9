// Multilevel driver: coarsen / initial-partition / uncoarsen-and-refine
// bisections, composed into k-way partitionings by recursive bisection with
// proportional part counts, plus a final k-way polish pass.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "partition/initial_partition.hpp"
#include "partition/partition.hpp"
#include "partition/refine_bisection.hpp"
#include "util/seed_stream.hpp"

namespace cpart {

namespace {

std::vector<idx_t> multilevel_bisect(const CsrGraph& g, double left_fraction,
                                     double epsilon,
                                     const PartitionOptions& options,
                                     Rng& rng) {
  CoarsenOptions copts;
  copts.parallel_threshold = options.coarsen_parallel_threshold;
  // Coarsening chain: chain[i] maps graph_i -> graph_{i+1}; graph_0 is g.
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  while (cur->num_vertices() > options.coarsen_target) {
    Coarsening c = coarsen_once(*cur, rng, copts);
    // Matching collapse stalls on star-like graphs; stop when the graph
    // shrinks by less than 5% to avoid spinning.
    if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
    chain.push_back(std::move(c));
    cur = &chain.back().coarse;
  }

  std::vector<idx_t> part =
      initial_bisection(*cur, left_fraction, epsilon, options.initial_tries,
                        options.refine_passes, rng);

  for (std::size_t i = chain.size(); i-- > 0;) {
    const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
    std::vector<idx_t> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    const std::vector<idx_t>& map = chain[i].coarse_of_fine;
    ThreadPool::global().parallel_for(fine.num_vertices(), [&](idx_t v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    });
    // The coarser level is projected; free it before refining the finer.
    chain.pop_back();
    fm_refine_bisection(fine, fine_part, left_fraction, epsilon,
                        options.refine_passes, rng);
    part = std::move(fine_part);
  }
  return part;
}

/// One pending problem of the recursive bisection: split the vertices of a
/// graph over the leaves [first_leaf, first_leaf + leaves), leaves >= 2.
/// The root problem bisects the caller's graph in place and owns nothing;
/// every other problem owns its induced subgraph, whose `parent` holds
/// vertex ids of the root graph.
struct BisectionProblem {
  InducedSubgraph sub;
  bool root = false;
  idx_t first_leaf = 0;
  idx_t leaves = 0;

  idx_t num_vertices(const CsrGraph& g) const {
    return root ? g.num_vertices() : sub.graph.num_vertices();
  }
};

/// Bisects problem `p` into `children[0]` and `children[1]`, then frees its
/// subgraph. A side that holds one leaf is labelled in `out` directly instead
/// of becoming a child. The bisection draws only from its own stream, seeded
/// by (seed, first leaf, leaf count), so the result does not depend on which
/// other problems run, in which order, or on which thread.
void bisect_problem(const CsrGraph& g, BisectionProblem& p,
                    std::span<const idx_t> leaf_begin, double epsilon,
                    const PartitionOptions& options, std::span<idx_t> out,
                    std::span<BisectionProblem, 2> children) {
  const CsrGraph& graph = p.root ? g : p.sub.graph;
  const idx_t first = p.first_leaf;
  const idx_t mid = first + (p.leaves + 1) / 2;  // left gets ceil(leaves/2)
  const idx_t last = first + p.leaves;
  const auto at = [&](idx_t leaf) {
    return leaf_begin[static_cast<std::size_t>(leaf)];
  };
  const double fraction = static_cast<double>(at(mid) - at(first)) /
                          static_cast<double>(at(last) - at(first));
  Rng rng(seed_mix(seed_mix(options.seed, static_cast<std::uint64_t>(first)),
                   static_cast<std::uint64_t>(p.leaves)));
  const std::vector<idx_t> part01 =
      multilevel_bisect(graph, fraction, epsilon, options, rng);
  const auto outer = [&](idx_t v) {
    return p.root ? v : p.sub.parent[static_cast<std::size_t>(v)];
  };
  for (idx_t side = 0; side < 2; ++side) {
    const idx_t lo = (side == 0) ? first : mid;
    const idx_t hi = (side == 0) ? mid : last;
    if (hi - lo == 1) {
      for (idx_t v = 0; v < graph.num_vertices(); ++v) {
        if (part01[static_cast<std::size_t>(v)] == side) {
          out[static_cast<std::size_t>(outer(v))] = lo;
        }
      }
      continue;
    }
    BisectionProblem& child = children[static_cast<std::size_t>(side)];
    child.sub = induce_subgraph(graph, part01, side);
    for (idx_t& q : child.sub.parent) q = outer(q);
    child.first_leaf = lo;
    child.leaves = hi - lo;
  }
  p.sub = InducedSubgraph{};
}

}  // namespace

InducedSubgraph induce_subgraph(const CsrGraph& g,
                                std::span<const idx_t> labels, idx_t value) {
  const idx_t n = g.num_vertices();
  const idx_t ncon = g.ncon();
  std::vector<idx_t> local(static_cast<std::size_t>(n), kInvalidIndex);
  InducedSubgraph sub;
  for (idx_t v = 0; v < n; ++v) {
    if (labels[static_cast<std::size_t>(v)] == value) {
      local[static_cast<std::size_t>(v)] = to_idx(sub.parent.size());
      sub.parent.push_back(v);
    }
  }
  const idx_t ns = to_idx(sub.parent.size());
  std::vector<idx_t> xadj{0};
  xadj.reserve(static_cast<std::size_t>(ns) + 1);
  std::vector<idx_t> adjncy;
  std::vector<wgt_t> adjwgt;
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(ns) *
                          static_cast<std::size_t>(ncon));
  for (idx_t sv = 0; sv < ns; ++sv) {
    const idx_t v = sub.parent[static_cast<std::size_t>(sv)];
    for (idx_t c = 0; c < ncon; ++c) {
      vwgt[static_cast<std::size_t>(sv) * ncon + static_cast<std::size_t>(c)] =
          g.vertex_weight(v, c);
    }
    const auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t lu =
          local[static_cast<std::size_t>(nbrs[static_cast<std::size_t>(j)])];
      if (lu == kInvalidIndex) continue;
      adjncy.push_back(lu);
      adjwgt.push_back(g.edge_weight(v, j));
    }
    xadj.push_back(to_idx(adjncy.size()));
  }
  sub.graph = CsrGraph(std::move(xadj), std::move(adjncy), std::move(vwgt),
                       std::move(adjwgt), ncon);
  return sub;
}

std::vector<idx_t> recursive_bisection(const CsrGraph& g,
                                       std::span<const idx_t> leaf_begin,
                                       double epsilon,
                                       const PartitionOptions& options) {
  require(leaf_begin.size() >= 2,
          "recursive_bisection: need at least one leaf");
  for (std::size_t i = 1; i < leaf_begin.size(); ++i) {
    require(leaf_begin[i] > leaf_begin[i - 1],
            "recursive_bisection: every leaf needs a positive weight");
  }
  const idx_t leaves = to_idx(leaf_begin.size()) - 1;
  std::vector<idx_t> out(static_cast<std::size_t>(g.num_vertices()), 0);
  if (leaves == 1 || g.num_vertices() == 0) return out;

  // Level-synchronous: every problem of a level is independent of its
  // siblings, so a level runs as one parallel_tasks dispatch. A level of one
  // problem, or of fewer vertices in total than the parallel-coarsening
  // threshold, runs inline in order instead; small sessions then never queue
  // partitioning work behind other tenants' steps on the shared pool.
  std::vector<BisectionProblem> level(1);
  level[0].root = true;
  level[0].leaves = leaves;
  while (!level.empty()) {
    std::vector<BisectionProblem> next(2 * level.size());
    const auto solve = [&](idx_t i) {
      const auto at = static_cast<std::size_t>(i);
      bisect_problem(g, level[at], leaf_begin, epsilon, options, out,
                     std::span<BisectionProblem, 2>(next.data() + 2 * at, 2));
    };
    idx_t total = 0;
    for (const BisectionProblem& p : level) total += p.num_vertices(g);
    if (level.size() == 1 || total < options.coarsen_parallel_threshold) {
      for (idx_t i = 0; i < to_idx(level.size()); ++i) solve(i);
    } else {
      ThreadPool::global().parallel_tasks(to_idx(level.size()), solve);
    }
    level.clear();
    for (BisectionProblem& child : next) {
      if (child.leaves > 0 && child.sub.graph.num_vertices() > 0) {
        level.push_back(std::move(child));
      }
    }
  }
  return out;
}

std::vector<idx_t> partition_graph(const CsrGraph& g,
                                   const PartitionOptions& options) {
  const idx_t n = g.num_vertices();
  const idx_t k = options.k;
  require(k >= 1, "partition_graph: k must be >= 1");
  if (k == 1 || n == 0) {
    return std::vector<idx_t>(static_cast<std::size_t>(n), 0);
  }

  // Imbalance budget per bisection level: tight budgets (epsilon/levels)
  // force the bisector to contort boundaries around lumpy constraints, so we
  // give each level a looser budget (epsilon / sqrt(levels)) and let the
  // final k-way polish repair the residual against the full epsilon.
  const int levels =
      std::max(1, static_cast<int>(std::ceil(std::log2(static_cast<double>(k)))));
  const double eps_level = std::clamp(
      options.epsilon / std::sqrt(static_cast<double>(levels)), 0.02,
      options.epsilon);

  // One leaf per part: every leaf weighs one part.
  std::vector<idx_t> leaf_begin(static_cast<std::size_t>(k) + 1);
  std::iota(leaf_begin.begin(), leaf_begin.end(), 0);
  std::vector<idx_t> part =
      recursive_bisection(g, leaf_begin, eps_level, options);

  if (options.kway_passes > 0) {
    KwayRefineOptions kro;
    kro.k = k;
    kro.epsilon = options.epsilon;
    kro.passes = options.kway_passes;
    Rng rng(options.seed);
    // Alternate fragment cleanup with refinement: merging stray components
    // unbalances the partition, refinement re-balances and may strand new
    // fragments; two rounds reach a fixed point in practice.
    for (int round = 0; round < 2; ++round) {
      merge_partition_fragments(g, part, k);
      kway_refine(g, part, kro, rng);
    }
  }
  return part;
}

}  // namespace cpart
