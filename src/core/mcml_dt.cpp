#include "core/mcml_dt.hpp"

#include <algorithm>

#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "partition/connectivity.hpp"
#include "partition/geometric.hpp"

namespace cpart {

CsrGraph build_two_phase_graph(const Mesh& mesh,
                               std::span<const char> is_contact_node,
                               wgt_t contact_edge_weight) {
  require(is_contact_node.size() == static_cast<std::size_t>(mesh.num_nodes()),
          "build_two_phase_graph: contact mask size mismatch");
  CsrGraph g = nodal_graph(mesh);
  g.set_vertex_weights(
      std::vector<wgt_t>(static_cast<std::size_t>(mesh.num_nodes()) * 2), 2);
  reweight_two_phase_graph(g, is_contact_node, contact_edge_weight);
  return g;
}

void reweight_two_phase_graph(CsrGraph& g,
                              std::span<const char> is_contact_node,
                              wgt_t contact_edge_weight) {
  const idx_t n = g.num_vertices();
  require(is_contact_node.size() == static_cast<std::size_t>(n),
          "reweight_two_phase_graph: contact mask size mismatch");
  require(g.ncon() == 2 && g.has_vertex_weights() && g.has_edge_weights(),
          "reweight_two_phase_graph: not a two-phase graph");
  require(contact_edge_weight > 0,
          "reweight_two_phase_graph: contact_edge_weight must be positive");
  // Two constraints: FE work (1 per node) and contact-search work (1 per
  // contact node). Section 5 uses exactly these unit weights. An edge
  // between two contact nodes weighs contact_edge_weight, any other 1.
  const std::span<wgt_t> vwgt = g.mutable_vwgt();
  const std::span<wgt_t> adjwgt = g.mutable_adjwgt();
  const std::vector<idx_t>& xadj = g.xadj();
  const std::vector<idx_t>& adjncy = g.adjncy();
  for (idx_t v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const bool contact = is_contact_node[sv] != 0;
    vwgt[sv * 2] = 1;
    vwgt[sv * 2 + 1] = contact ? 1 : 0;
    for (auto j = static_cast<std::size_t>(xadj[sv]);
         j < static_cast<std::size_t>(xadj[sv + 1]); ++j) {
      const auto u = static_cast<std::size_t>(adjncy[j]);
      adjwgt[j] = contact && is_contact_node[u] != 0 ? contact_edge_weight : 1;
    }
  }
}

namespace {

/// Collapses the region tree's leaves into the quotient graph G'
/// (Section 4.2): one vertex per region carrying the summed weight vectors,
/// edges aggregating all fine edges between different regions.
CsrGraph build_region_graph(const CsrGraph& g,
                            std::span<const idx_t> region_of_vertex,
                            idx_t num_regions) {
  GraphBuilder builder(num_regions);
  std::vector<wgt_t> vwgt(static_cast<std::size_t>(num_regions) *
                              static_cast<std::size_t>(g.ncon()),
                          0);
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    const idx_t rv = region_of_vertex[static_cast<std::size_t>(v)];
    for (idx_t c = 0; c < g.ncon(); ++c) {
      vwgt[static_cast<std::size_t>(rv) * g.ncon() +
           static_cast<std::size_t>(c)] += g.vertex_weight(v, c);
    }
    const auto nbrs = g.neighbors(v);
    for (idx_t j = 0; j < to_idx(nbrs.size()); ++j) {
      const idx_t u = nbrs[static_cast<std::size_t>(j)];
      if (u <= v) continue;  // count each undirected edge once
      const idx_t ru = region_of_vertex[static_cast<std::size_t>(u)];
      if (ru != rv) builder.add_edge(rv, ru, g.edge_weight(v, j));
    }
  }
  builder.set_vertex_weights(std::move(vwgt), g.ncon());
  return builder.build(DupPolicy::kSum);
}

}  // namespace

McmlDtPartitioner::McmlDtPartitioner(const Mesh& mesh, const Surface& surface,
                                     const McmlDtConfig& config)
    : config_(config) {
  require(config_.k >= 1, "McmlDtPartitioner: k must be >= 1");
  const idx_t n = mesh.num_nodes();
  const CsrGraph g = build_two_phase_graph(mesh, surface.is_contact_node,
                                           config_.contact_edge_weight);

  // Step 1-2: multi-constraint partitioning (P).
  PartitionOptions popts = config_.partitioner;
  popts.k = config_.k;
  popts.epsilon = config_.epsilon;
  if (config_.initial == InitialPartitioner::kGeometric) {
    GeometricPartitionOptions gopts;
    gopts.k = config_.k;
    gopts.dim = mesh.dim();
    gopts.ncon = 2;
    partition_ =
        geometric_multiconstraint_partition(mesh.nodes(), g.vwgt(), gopts);
  } else {
    PartitionerConfig pc;
    pc.options = popts;
    pc.hierarchy = config_.hierarchy;
    partition_ = Partitioner(pc).partition(g, &hierarchy_stats_);
  }
  stats_.cut_initial = edge_cut(g, partition_);
  stats_.imbalance_initial = max_load_imbalance(g, partition_, config_.k);

  if (!config_.tree_friendly || config_.k == 1) {
    stats_.cut_majority = stats_.cut_initial;
    stats_.cut_final = stats_.cut_initial;
    stats_.imbalance_majority = stats_.imbalance_initial;
    stats_.imbalance_final = stats_.imbalance_initial;
    return;
  }

  // Step 3a: region tree over all nodes, majority reassignment (P -> P').
  RegionTreeOptions ropts = config_.region;
  if (ropts.max_pure == 0 || ropts.max_impure == 0) {
    ropts = recommended_region_options(n, config_.k, mesh.dim());
  }
  ropts.dim = mesh.dim();
  const RegionTree regions(mesh.nodes(), partition_, config_.k, ropts);
  stats_.num_regions = regions.num_regions();
  stats_.region_tree_nodes = regions.num_tree_nodes();
  partition_ = regions.majority_partition();
  stats_.cut_majority = edge_cut(g, partition_);
  stats_.imbalance_majority = max_load_imbalance(g, partition_, config_.k);

  // Step 3b: multi-constraint k-way refinement on the collapsed graph G'
  // (P' -> P''), moving whole regions so boundaries stay axes-parallel.
  const CsrGraph region_graph =
      build_region_graph(g, regions.region_of_point(), regions.num_regions());
  std::vector<idx_t> region_part = regions.region_majority();
  KwayRefineOptions kro;
  kro.k = config_.k;
  kro.epsilon = config_.epsilon;
  kro.passes = std::max(8, popts.kway_passes);
  Rng rng(popts.seed ^ 0xabcdef1234567ULL);
  for (int round = 0; round < 2; ++round) {
    merge_partition_fragments(region_graph, region_part, config_.k);
    kway_refine(region_graph, region_part, kro, rng);
  }
  for (idx_t v = 0; v < n; ++v) {
    partition_[static_cast<std::size_t>(v)] = region_part[static_cast<std::size_t>(
        regions.region_of_point()[static_cast<std::size_t>(v)])];
  }
  stats_.cut_final = edge_cut(g, partition_);
  stats_.imbalance_final = max_load_imbalance(g, partition_, config_.k);
}

SubdomainDescriptors McmlDtPartitioner::build_descriptors(
    const Mesh& mesh, const Surface& surface) const {
  require(mesh.num_nodes() == to_idx(partition_.size()),
          "build_descriptors: mesh node count differs from partition");
  // Gather the current positions and labels of the contact points.
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  points.reserve(surface.contact_nodes.size());
  labels.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    points.push_back(mesh.node(id));
    labels.push_back(partition_[static_cast<std::size_t>(id)]);
  }
  DescriptorOptions dopts = config_.descriptor;
  dopts.dim = mesh.dim();
  return SubdomainDescriptors(points, labels, config_.k, dopts);
}

void McmlDtPartitioner::set_node_partition(std::vector<idx_t> partition) {
  require(partition.size() == partition_.size(),
          "set_node_partition: size mismatch");
  for (idx_t p : partition) {
    require(p >= 0 && p < config_.k,
            "set_node_partition: partition id out of range");
  }
  partition_ = std::move(partition);
}

}  // namespace cpart
