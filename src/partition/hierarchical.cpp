#include "partition/hierarchical.hpp"

#include <algorithm>

#include "graph/graph_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "util/seed_stream.hpp"
#include "util/timer.hpp"

namespace cpart {

std::vector<idx_t> part_groups(idx_t k, idx_t groups) {
  require(k >= 1 && groups >= 1 && groups <= k,
          "part_groups: need 1 <= groups <= k");
  std::vector<idx_t> out(static_cast<std::size_t>(k));
  for (idx_t grp = 0; grp < groups; ++grp) {
    const idx_t lo = parts_begin(grp, k, groups);
    const idx_t hi = parts_begin(grp + 1, k, groups);
    for (idx_t p = lo; p < hi; ++p) out[static_cast<std::size_t>(p)] = grp;
  }
  return out;
}

double hierarchy_group_imbalance(const CsrGraph& g,
                                 std::span<const idx_t> group_of, idx_t k,
                                 idx_t groups) {
  const idx_t ncon = g.ncon();
  std::vector<wgt_t> weight(static_cast<std::size_t>(groups) *
                                static_cast<std::size_t>(ncon),
                            0);
  std::vector<wgt_t> total(static_cast<std::size_t>(ncon), 0);
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const idx_t grp = group_of[static_cast<std::size_t>(v)];
    for (idx_t c = 0; c < ncon; ++c) {
      const wgt_t w = g.vertex_weight(v, c);
      weight[static_cast<std::size_t>(grp) * ncon +
             static_cast<std::size_t>(c)] += w;
      total[static_cast<std::size_t>(c)] += w;
    }
  }
  double worst = 1.0;
  for (idx_t grp = 0; grp < groups; ++grp) {
    const double share =
        static_cast<double>(parts_begin(grp + 1, k, groups) -
                            parts_begin(grp, k, groups)) /
        static_cast<double>(k);
    for (idx_t c = 0; c < ncon; ++c) {
      const double target = static_cast<double>(total[static_cast<std::size_t>(c)]) * share;
      if (target <= 0) continue;
      worst = std::max(
          worst, static_cast<double>(
                     weight[static_cast<std::size_t>(grp) * ncon +
                            static_cast<std::size_t>(c)]) /
                     target);
    }
  }
  return worst;
}

HierarchicalResult hierarchical_partition(const CsrGraph& g,
                                          const PartitionOptions& base,
                                          const HierarchyOptions& hierarchy) {
  const idx_t n = g.num_vertices();
  const idx_t k = base.k;
  require(k >= 1, "hierarchical_partition: k must be >= 1");
  const idx_t groups = std::clamp<idx_t>(hierarchy.groups, 1, k);

  HierarchicalResult result;
  if (groups <= 1 || k == 1 || n == 0) {
    Timer timer;
    result.part = partition_graph(g, base);
    result.stats.local_ms = timer.milliseconds();
    result.stats.groups = 1;
    result.stats.final_cut = edge_cut(g, result.part);
    result.stats.final_balance = max_load_imbalance(g, result.part, k);
    result.stats.group_cut = result.stats.final_cut;
    result.stats.group_balance = 1.0;
    return result;
  }

  Timer timer;
  Rng rng(seed_mix(base.seed, 0x9c0a));

  // Level 1: coarsen to the proxy, split the proxy into G groups, project
  // the labels back through the chain. The proxy partition sees summed
  // vertex-weight vectors, so multi-constraint balance carries through.
  CoarsenOptions copts;
  copts.parallel_threshold = base.coarsen_parallel_threshold;
  const idx_t proxy_size =
      std::max<idx_t>(hierarchy.proxy_target, 32 * groups);
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  while (cur->num_vertices() > proxy_size) {
    Coarsening c = coarsen_once(*cur, rng, copts);
    if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
    chain.push_back(std::move(c));
    cur = &chain.back().coarse;
  }
  result.stats.proxy_vertices = cur->num_vertices();

  // Split the proxy into the G groups, each leaf weighted by its share of
  // the k parts, so groups owning more parts receive proportionally more
  // weight.
  std::vector<idx_t> leaf_begin(static_cast<std::size_t>(groups) + 1);
  for (idx_t grp = 0; grp <= groups; ++grp) {
    leaf_begin[static_cast<std::size_t>(grp)] = parts_begin(grp, k, groups);
  }
  std::vector<idx_t> proxy_group =
      recursive_bisection(*cur, leaf_begin, kGroupEpsilon, base);

  std::vector<idx_t> group_of(static_cast<std::size_t>(n));
  {
    std::vector<idx_t> coarse_part = std::move(proxy_group);
    for (std::size_t i = chain.size(); i-- > 0;) {
      const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
      std::vector<idx_t> fine_part(
          static_cast<std::size_t>(fine.num_vertices()));
      const std::vector<idx_t>& map = chain[i].coarse_of_fine;
      ThreadPool::global().parallel_for(fine.num_vertices(), [&](idx_t v) {
        fine_part[static_cast<std::size_t>(v)] = coarse_part
            [static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
      });
      coarse_part = std::move(fine_part);
    }
    group_of = std::move(coarse_part);
  }
  result.stats.groups = groups;
  result.stats.group_ms = timer.milliseconds();

  // Level 2: partition each group's induced subgraph into its contiguous
  // share of the parts. The per-group problems are independent — they run
  // concurrently via parallel_tasks, each one inline inside its worker —
  // and each derives its seed from (base seed, group id) only, so the
  // labels cannot depend on the pool size.
  timer.reset();
  result.part.assign(static_cast<std::size_t>(n), 0);
  ThreadPool::global().parallel_tasks(groups, [&](idx_t grp) {
    const InducedSubgraph sub = induce_subgraph(g, group_of, grp);
    if (sub.graph.num_vertices() == 0) return;
    const idx_t first = parts_begin(grp, k, groups);
    PartitionOptions sub_opts = base;
    sub_opts.k = parts_begin(grp + 1, k, groups) - first;
    sub_opts.seed = seed_mix(base.seed, static_cast<std::uint64_t>(grp));
    const std::vector<idx_t> sub_part = partition_graph(sub.graph, sub_opts);
    for (idx_t sv = 0; sv < sub.graph.num_vertices(); ++sv) {
      result.part[static_cast<std::size_t>(
          sub.parent[static_cast<std::size_t>(sv)])] =
          first + sub_part[static_cast<std::size_t>(sv)];
    }
  });
  result.stats.local_ms = timer.milliseconds();

  result.stats.group_cut = edge_cut(g, group_of);
  result.stats.group_balance =
      hierarchy_group_imbalance(g, group_of, k, groups);
  result.stats.final_cut = edge_cut(g, result.part);
  result.stats.final_balance = max_load_imbalance(g, result.part, k);
  return result;
}

}  // namespace cpart
