// partition_large: the streamed large impact scene (~250k hex8 elements)
// written to the chunked on-disk format, its nodal graph built through the
// reader's bounded window (set-up), then the two-level hierarchical
// Partitioner::partition with k=32 over G=4 rank groups, repeated until
// the window is used (at least kMinPartitions times).
//
// op = one Partitioner::partition. Checked: labels in [0, k), no empty
// part, the recomputed cut equals HierarchyStats::final_cut, and every
// repeat reproduces the first labels.
#include <filesystem>

#include "graph/graph_metrics.hpp"
#include "mesh/chunked_mesh.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/hierarchical.hpp"
#include "partition/partitioner.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cpart;

namespace {

constexpr idx_t kElements = 250000;
constexpr idx_t kParts = 32;
constexpr idx_t kGroups = 4;
// One partition takes several seconds, so a window holds only a few; at
// least three make the median a middle value, and fix the op count (and
// with it the peak RSS) whether or not a partition fits the window.
constexpr std::size_t kMinPartitions = 3;

}  // namespace

void run_partition_large(const RunOptions& opts, Tracer& tracer,
                         RunResult& out) {
  ThreadPool& pool = ThreadPool::global();
  const std::string mesh_path = opts.work_dir + "/large_impact.cpmk";
  const LargeImpactSpec spec = LargeImpactSpec::for_elements(kElements);
  ChunkedMeshInfo info;
  {
    auto span = tracer.span("mesh.make_large_impact");
    info = make_large_impact(mesh_path, spec);
  }
  out.info["nodes"] = std::to_string(info.num_nodes);
  out.info["elements"] = std::to_string(info.num_elements);
  out.info["k"] = std::to_string(kParts);
  out.info["groups"] = std::to_string(kGroups);

  // ----- Set-up: nodal graph through the bounded window -----------------
  std::vector<double> setup_s;
  CsrGraph g;
  std::size_t window_peak = 0, window_limit = 0;
  for (int i = 0; i < kSetups; ++i) {
    g = CsrGraph();
    ChunkedMeshReader reader(mesh_path);
    auto span = tracer.span("mesh.nodal_graph");
    Timer timer;
    g = nodal_graph(reader);
    setup_s.push_back(timer.seconds());
    window_peak = reader.peak_resident_bytes();
    window_limit = reader.window_limit_bytes();
  }
  std::filesystem::remove(mesh_path);
  out.check(window_peak <= window_limit,
            "chunked reader exceeded its window: " +
                std::to_string(window_peak) + " > " +
                std::to_string(window_limit) + " bytes");
  out.check(g.num_vertices() == info.num_nodes,
            "nodal graph vertex count differs from the mesh node count");

  // ----- Window: repeated hierarchical partitions -----------------------
  PartitionerConfig pc;
  pc.options.k = kParts;
  pc.options.seed = opts.seed;
  pc.hierarchy.groups = kGroups;
  const Partitioner partitioner(pc);
  std::vector<double> op_ms, group_ms, local_ms;
  std::vector<idx_t> first;
  HierarchyStats stats;
  PoolSampler sampler(pool.workers(), tracer.enabled());
  Timer window;
  do {
    std::vector<idx_t> part;
    {
      auto span = tracer.span("partition.partition");
      Timer timer;
      part = partitioner.partition(g, &stats);
      op_ms.push_back(timer.milliseconds());
    }
    group_ms.push_back(stats.group_ms);
    local_ms.push_back(stats.local_ms);
    if (first.empty()) {
      first = std::move(part);
      const bool in_range = is_valid_partition(first, kParts);
      out.check(in_range, "labels outside [0, k)");
      if (in_range) {
        const std::vector<wgt_t> sizes = partition_weights(g, first, kParts);
        bool nonempty = true;
        for (wgt_t w : sizes) nonempty = nonempty && w > 0;
        out.check(nonempty, "a part is empty");
      }
      out.check(edge_cut(g, first) == stats.final_cut,
                "recomputed cut differs from HierarchyStats::final_cut");
    } else {
      out.check(part == first, "a repeat produced different labels");
    }
  } while (window.seconds() < opts.seconds || op_ms.size() < kMinPartitions);
  const double window_s = window.seconds();
  if (tracer.enabled()) {
    zero_layer_metrics(out);
    sampler.stop(out);
  }

  const Stat partition_ms = median_of(op_ms, "partitions");
  set_common_metrics(out, median_of(setup_s, "setup"), partition_ms,
                     static_cast<double>(op_ms.size()) / window_s,
                     Stat{static_cast<double>(edge_cut(g, first)), 1},
                     Stat{max_load_imbalance(g, first, kParts), 1});
  out.report.set("partition_s", partition_ms.value / 1e3, partition_ms.samples);
  out.info["partitions"] = std::to_string(op_ms.size());

  if (!tracer.enabled()) return;

  out.report.set("mesh.graph_build_ms",
                 median_of(setup_s, "setup").value * 1e3, setup_s.size());
  out.report.set("mesh.window_peak_bytes", static_cast<double>(window_peak));
  out.report.set("partition.group_ms", median_of(group_ms, "partitions"));
  out.report.set("partition.local_ms", median_of(local_ms, "partitions"));

  // The group-local level does the work here, so replay its layers on
  // group 0's induced subgraph: one top-level bisection into the group's
  // share of the parts, and the k-way polish of its final labels.
  const std::vector<idx_t> group_of_part = part_groups(kParts, kGroups);
  std::vector<idx_t> group(first.size());
  for (std::size_t v = 0; v < first.size(); ++v) {
    group[v] = group_of_part[static_cast<std::size_t>(first[v])];
  }
  const InducedSubgraph sub = induce_subgraph(g, group, 0);
  const idx_t group_parts = parts_begin(1, kParts, kGroups);
  std::vector<idx_t> sub_labels(sub.parent.size());
  for (std::size_t i = 0; i < sub.parent.size(); ++i) {
    sub_labels[i] = first[static_cast<std::size_t>(sub.parent[i])];
  }
  PartitionOptions popts = pc.options;
  popts.k = group_parts;
  set_replay_metrics(out,
                     replay_partition_layers(sub.graph, sub_labels, popts, tracer));
}

}  // namespace perfbench
