// End-to-end contact/impact partitioning experiment (paper Section 5).
//
// Runs both algorithms over the full snapshot sequence of the impact
// simulation and accounts the paper's metrics per snapshot:
//   FEComm   — total communication volume of the mesh partition over the
//              snapshot's nodal graph (eroded elements removed)
//   NTNodes  — descriptor-tree size (MCML+DT)
//   NRemote  — surface elements shipped for global search
//   M2MComm  — FE <-> contact decomposition transfer (ML+RCB)
//   UpdComm  — incremental-RCB redistribution (ML+RCB)
// The MCML+DT columns come from DistributedSim, the step driver the
// benches, the service and perfbench run: NTNodes is the step report's
// descriptor_tree_nodes, NRemote its face-shipping units, and FEComm and
// the balances are measured on the ownership map the step runs under. The
// ML+RCB columns are counted units of the two-decomposition scheme.
// Averages over the sequence reproduce Table 1; the per-snapshot series
// drive the time-series figures and the ablations.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

struct ExperimentConfig {
  ImpactSimConfig sim{};
  idx_t k = 25;
  double epsilon = 0.10;
  wgt_t contact_edge_weight = 5;
  std::uint64_t seed = 1;
  /// Repartition (multi-constraint repartitioning, then migration) every
  /// `repartition_period` processed snapshots; 0 keeps the partition fixed
  /// and rebuilds only the descriptors (the paper's evaluation). Period 1 is
  /// the paper's "first approach", larger periods the hybrid (Section 4.3).
  /// A repartition takes effect from the next processed snapshot.
  idx_t repartition_period = 0;
  /// Ablation switches.
  bool tree_friendly = true;
  double gap_alpha = 0.0;
  /// Use the geometry-aware multi-constraint initial partition (Section 6
  /// future-work direction) instead of multilevel graph partitioning.
  bool geometric_init = false;
  /// Process only every `stride`-th snapshot (1 = all). Lets quick checks
  /// subsample the sequence without changing the simulated trajectory.
  idx_t snapshot_stride = 1;
};

/// Contact-search tolerance of the experiment: surface-element boxes are
/// inflated by this fraction of the mean plate cell size before filtering.
inline constexpr double kMarginCellFraction = 0.5;

/// Per-snapshot metric record.
struct SnapshotMetrics {
  idx_t step = 0;
  idx_t contact_nodes = 0;
  idx_t surface_faces = 0;
  // MCML+DT
  wgt_t dt_fe_comm = 0;
  wgt_t dt_tree_nodes = 0;
  wgt_t dt_remote = 0;
  wgt_t dt_repart_moved = 0;
  double dt_imbalance_fe = 0;
  double dt_imbalance_contact = 0;
  // ML+RCB
  wgt_t rcb_fe_comm = 0;
  wgt_t rcb_m2m = 0;
  wgt_t rcb_upd = 0;
  wgt_t rcb_remote = 0;
  double rcb_imbalance_fe = 0;
  double rcb_imbalance_contact = 0;
};

struct AlgorithmAverages {
  double fe_comm = 0;
  double tree_nodes = 0;  // MCML+DT only
  double remote = 0;
  double m2m = 0;   // ML+RCB only
  double upd = 0;   // ML+RCB only
  double repart_moved = 0;  // repartition_period > 0 only
  double imbalance_fe = 0;
  double imbalance_contact = 0;
  /// Mean per-step communication including decomposition-coupling costs:
  /// FEComm + 2*M2MComm + UpdComm (+ repartition movement). The quantity
  /// behind the paper's "72% / 29% more communication" claim.
  double total_step_comm = 0;
};

struct ExperimentResult {
  idx_t k = 0;
  idx_t snapshots = 0;
  std::vector<SnapshotMetrics> series;
  AlgorithmAverages mcml_dt;
  AlgorithmAverages ml_rcb;
};

/// Runs the full experiment. When `progress` is non-null, one line per
/// snapshot is written to it.
ExperimentResult run_contact_experiment(const ExperimentConfig& config,
                                        std::ostream* progress = nullptr);

}  // namespace cpart
