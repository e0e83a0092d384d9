#include "core/experiment.hpp"

#include <ostream>

#include "contact/search_metrics.hpp"
#include "core/distributed_sim.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"

namespace cpart {

namespace {

/// Imbalance of a labeling restricted to a subset: max count / mean count.
double subset_imbalance(std::span<const idx_t> labels, idx_t k) {
  if (labels.empty()) return 1.0;
  std::vector<wgt_t> counts(static_cast<std::size_t>(k), 0);
  for (idx_t l : labels) ++counts[static_cast<std::size_t>(l)];
  wgt_t maxc = 0;
  for (wgt_t c : counts) maxc = std::max(maxc, c);
  return static_cast<double>(maxc) * static_cast<double>(k) /
         static_cast<double>(labels.size());
}

/// Labels of the contact nodes under a per-node labeling.
std::vector<idx_t> gather_contact_labels(const Surface& surface,
                                         std::span<const idx_t> node_labels) {
  std::vector<idx_t> out;
  out.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    out.push_back(node_labels[static_cast<std::size_t>(id)]);
  }
  return out;
}

}  // namespace

ExperimentResult run_contact_experiment(const ExperimentConfig& config,
                                        std::ostream* progress) {
  require(config.k >= 1, "run_contact_experiment: k must be >= 1");
  require(config.snapshot_stride >= 1,
          "run_contact_experiment: stride must be >= 1");
  const ImpactSim sim(config.sim);

  // Contact tolerance from the plate cell size (geometry-scale aware).
  const real_t cell =
      config.sim.plate_width / static_cast<real_t>(config.sim.plate_cells_xy);
  const real_t margin = static_cast<real_t>(kMarginCellFraction) * cell;

  // --- MCML+DT: the production step driver. --------------------------------
  DistributedSimConfig dist_config;
  McmlDtConfig& dt_config = dist_config.decomposition;
  dt_config.k = config.k;
  dt_config.epsilon = config.epsilon;
  dt_config.contact_edge_weight = config.contact_edge_weight;
  dt_config.tree_friendly = config.tree_friendly;
  dt_config.initial = config.geometric_init ? InitialPartitioner::kGeometric
                                            : InitialPartitioner::kMultilevelGraph;
  dt_config.partitioner.seed = config.seed;
  dt_config.descriptor.gap_alpha = config.gap_alpha;
  dist_config.search.search_margin = margin;
  dist_config.search.contact_tolerance = margin;
  dist_config.repartition.epsilon = config.epsilon;
  dist_config.repartition.seed = config.seed;
  dist_config.repartition_period = config.repartition_period;
  DistributedSim dist(sim, dist_config);

  // --- ML+RCB on snapshot 0. -----------------------------------------------
  ImpactSim::SnapshotWorkspace snapshot_ws;
  ImpactSim::Snapshot snap;
  sim.snapshot_into(0, snapshot_ws, snap);

  MlRcbConfig rcb_config;
  rcb_config.k = config.k;
  rcb_config.epsilon = config.epsilon;
  rcb_config.partitioner.seed = config.seed + 1;
  MlRcbPartitioner mlrcb(snap.mesh, snap.surface, rcb_config);

  ExperimentResult result;
  result.k = config.k;

  // The nodal graph only changes when erosion removes elements, so cache it
  // across snapshots instead of rebuilding every step.
  NodalGraphCache graph_cache;

  for (idx_t s = 0; s < sim.num_snapshots(); s += config.snapshot_stride) {
    if (s > 0) sim.snapshot_into(s, snapshot_ws, snap);
    const CsrGraph& graph = graph_cache.get(snap.mesh);

    SnapshotMetrics m;
    m.step = s;
    m.contact_nodes = snap.surface.num_contact_nodes();
    m.surface_faces = snap.surface.num_faces();

    // --- MCML+DT --------------------------------------------------------
    // FEComm and the balances are those of the map the step runs under; a
    // repartition inside the step applies from the next processed snapshot.
    {
      const std::vector<idx_t> owner = dist.ownership_map();
      m.dt_fe_comm = total_comm_volume(graph, owner);
      m.dt_imbalance_fe = load_imbalance(graph, owner, config.k);
      m.dt_imbalance_contact = subset_imbalance(
          gather_contact_labels(snap.surface, owner), config.k);
      const DistributedStepReport report = dist.run_step(s);
      m.dt_tree_nodes = report.descriptor_tree_nodes;
      m.dt_remote = report.search_exchange.total_units();
      m.dt_repart_moved = report.repart_moved_nodes;
    }

    // --- ML+RCB ----------------------------------------------------------
    m.rcb_fe_comm = total_comm_volume(graph, mlrcb.node_partition());
    if (s > 0) {
      m.rcb_upd = mlrcb.update_contact_partition(snap.mesh, snap.surface);
    }
    {
      const std::vector<idx_t> fe_labels =
          gather_contact_labels(snap.surface, mlrcb.node_partition());
      m.rcb_m2m = m2m_comm(fe_labels, mlrcb.contact_labels(), config.k).mismatched;
      m.rcb_imbalance_fe =
          load_imbalance(graph, mlrcb.node_partition(), config.k);
      m.rcb_imbalance_contact = subset_imbalance(mlrcb.contact_labels(), config.k);
    }
    {
      // The contact phase runs in the RCB decomposition: owners follow the
      // per-node RCB labels.
      std::vector<idx_t> rcb_node_labels(
          static_cast<std::size_t>(snap.mesh.num_nodes()), 0);
      const auto& ids = mlrcb.contact_ids();
      const auto& labels = mlrcb.contact_labels();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        rcb_node_labels[static_cast<std::size_t>(ids[i])] = labels[i];
      }
      const std::vector<idx_t> owners =
          face_owners(snap.surface, rcb_node_labels, config.k);
      const BBoxFilter filter = mlrcb.make_bbox_filter(snap.mesh);
      m.rcb_remote =
          global_search_bbox(snap.mesh, snap.surface, owners, filter, margin)
              .remote_sends;
    }

    result.series.push_back(m);
    if (progress != nullptr) {
      *progress << "snapshot " << s << ": contact_nodes=" << m.contact_nodes
                << " dt{fe=" << m.dt_fe_comm << " nt=" << m.dt_tree_nodes
                << " rem=" << m.dt_remote << "} rcb{fe=" << m.rcb_fe_comm
                << " m2m=" << m.rcb_m2m << " upd=" << m.rcb_upd
                << " rem=" << m.rcb_remote << "}\n";
    }
  }

  // --- Averages. -----------------------------------------------------------
  result.snapshots = to_idx(result.series.size());
  const double ns = static_cast<double>(result.snapshots);
  for (const SnapshotMetrics& m : result.series) {
    result.mcml_dt.fe_comm += static_cast<double>(m.dt_fe_comm) / ns;
    result.mcml_dt.tree_nodes += static_cast<double>(m.dt_tree_nodes) / ns;
    result.mcml_dt.remote += static_cast<double>(m.dt_remote) / ns;
    result.mcml_dt.repart_moved += static_cast<double>(m.dt_repart_moved) / ns;
    result.mcml_dt.imbalance_fe += m.dt_imbalance_fe / ns;
    result.mcml_dt.imbalance_contact += m.dt_imbalance_contact / ns;
    result.ml_rcb.fe_comm += static_cast<double>(m.rcb_fe_comm) / ns;
    result.ml_rcb.m2m += static_cast<double>(m.rcb_m2m) / ns;
    result.ml_rcb.upd += static_cast<double>(m.rcb_upd) / ns;
    result.ml_rcb.remote += static_cast<double>(m.rcb_remote) / ns;
    result.ml_rcb.imbalance_fe += m.rcb_imbalance_fe / ns;
    result.ml_rcb.imbalance_contact += m.rcb_imbalance_contact / ns;
  }
  // Coupling-inclusive per-step communication (Section 5.2's comparison):
  // ML+RCB ships surface-node data to the contact decomposition and back
  // (2x M2MComm) plus the incremental-RCB redistribution; MCML+DT has no
  // coupling cost (one decomposition), only repartition movement when
  // repartition_period > 0.
  result.mcml_dt.total_step_comm =
      result.mcml_dt.fe_comm + result.mcml_dt.repart_moved;
  result.ml_rcb.total_step_comm = result.ml_rcb.fe_comm +
                                  2.0 * result.ml_rcb.m2m + result.ml_rcb.upd;
  return result;
}

}  // namespace cpart
