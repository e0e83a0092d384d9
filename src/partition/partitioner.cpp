#include "partition/partitioner.hpp"

#include <algorithm>

#include "graph/graph_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/kway_multilevel.hpp"
#include "util/seed_stream.hpp"
#include "util/timer.hpp"

namespace cpart {

Partitioner::Partitioner(PartitionerConfig config)
    : config_(std::move(config)) {
  require(config_.options.k >= 1, "Partitioner: k must be >= 1");
  require(config_.hierarchy.groups >= 0,
          "Partitioner: hierarchy.groups must be >= 0");
}

idx_t Partitioner::groups() const {
  return std::clamp<idx_t>(config_.hierarchy.groups, 1, k());
}

std::vector<idx_t> Partitioner::group_of_parts() const {
  return part_groups(k(), groups());
}

std::vector<idx_t> Partitioner::partition(const CsrGraph& g,
                                          HierarchyStats* stats) const {
  if (hierarchical()) {
    HierarchicalResult result =
        hierarchical_partition(g, config_.options, config_.hierarchy);
    if (stats != nullptr) *stats = result.stats;
    return std::move(result.part);
  }
  Timer timer;
  std::vector<idx_t> part =
      config_.scheme == PartitionScheme::kDirectKway
          ? partition_graph_kway(g, config_.options)
          : partition_graph(g, config_.options);
  if (stats != nullptr) {
    stats->groups = 1;
    stats->local_ms = timer.milliseconds();
    stats->final_cut = edge_cut(g, part);
    stats->final_balance = max_load_imbalance(g, part, k());
    stats->group_cut = stats->final_cut;
    stats->group_balance = 1.0;
  }
  return part;
}

std::vector<idx_t> Partitioner::repartition(const CsrGraph& g,
                                            std::span<const idx_t> old_part,
                                            const RepartitionOptions& options,
                                            bool* moved_cross_group) const {
  require(old_part.size() == static_cast<std::size_t>(g.num_vertices()),
          "Partitioner::repartition: old partition size mismatch");
  if (moved_cross_group != nullptr) *moved_cross_group = false;
  RepartitionOptions ro = options;
  ro.k = k();
  const idx_t num_groups = groups();
  if (num_groups <= 1) {
    return repartition_graph(g, old_part, ro);
  }

  // Vertex -> group through the contiguous part->group assignment.
  const std::vector<idx_t> group_of_part = part_groups(k(), num_groups);
  std::vector<idx_t> vertex_group(static_cast<std::size_t>(g.num_vertices()));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const idx_t p = old_part[static_cast<std::size_t>(v)];
    require(p >= 0 && p < k(),
            "Partitioner::repartition: old partition id out of range");
    vertex_group[static_cast<std::size_t>(v)] =
        group_of_part[static_cast<std::size_t>(p)];
  }

  // Escalate to one global repartition only when some group's load drifted
  // past the threshold — the expensive cross-group migration is the
  // exception, not the steady state.
  const double imbalance =
      hierarchy_group_imbalance(g, vertex_group, k(), num_groups);
  if (imbalance > kCrossGroupThreshold) {
    if (moved_cross_group != nullptr) *moved_cross_group = true;
    return repartition_graph(g, old_part, ro);
  }

  // Group-local repartition: adapt each group's induced subgraph to its
  // share of the parts, independently and in parallel. Per-group seeds
  // derive from (seed, group) only, so labels are thread-count invariant.
  std::vector<idx_t> part(old_part.begin(), old_part.end());
  ThreadPool::global().parallel_tasks(num_groups, [&](idx_t grp) {
    const InducedSubgraph sub = induce_subgraph(g, vertex_group, grp);
    if (sub.graph.num_vertices() == 0) return;
    const idx_t first = parts_begin(grp, k(), num_groups);
    const idx_t group_k = parts_begin(grp + 1, k(), num_groups) - first;
    std::vector<idx_t> sub_old(
        static_cast<std::size_t>(sub.graph.num_vertices()));
    for (idx_t sv = 0; sv < sub.graph.num_vertices(); ++sv) {
      sub_old[static_cast<std::size_t>(sv)] =
          old_part[static_cast<std::size_t>(
              sub.parent[static_cast<std::size_t>(sv)])] -
          first;
    }
    RepartitionOptions sub_ro = ro;
    sub_ro.k = group_k;
    sub_ro.seed = seed_mix(ro.seed, static_cast<std::uint64_t>(grp));
    const std::vector<idx_t> sub_new =
        repartition_graph(sub.graph, sub_old, sub_ro);
    for (idx_t sv = 0; sv < sub.graph.num_vertices(); ++sv) {
      part[static_cast<std::size_t>(
          sub.parent[static_cast<std::size_t>(sv)])] =
          first + sub_new[static_cast<std::size_t>(sv)];
    }
  });
  return part;
}

}  // namespace cpart
