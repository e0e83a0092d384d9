// Ablations over MCML+DT's design choices (paper Sections 4.2, 4.3, 6):
//   1. contact-edge weight (Section 5 uses 5; sweep 1/2/5/10);
//   2. tree-friendly partition adjustment on/off;
//   3. gap-preferring split selection (Section 6 future work);
//   4. update policy: fixed partition vs periodic repartitioning.
//
//   ./bench_ablation [--k 25] [--snapshots 20] [--stride 2]
#include <iostream>

#include "core/experiment.hpp"
#include "core/mcml_dt.hpp"
#include "graph/graph_metrics.hpp"
#include "partition/kway_multilevel.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

void add_row(Table& table, const std::string& name, const ExperimentResult& r) {
  table.begin_row();
  table.add_cell(name);
  table.add_cell(r.mcml_dt.fe_comm, 0);
  table.add_cell(r.mcml_dt.tree_nodes, 0);
  table.add_cell(r.mcml_dt.remote, 0);
  table.add_cell(r.mcml_dt.repart_moved, 0);
  table.add_cell(r.mcml_dt.imbalance_fe, 3);
  table.add_cell(r.mcml_dt.imbalance_contact, 3);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("k", "25", "number of partitions");
  flags.define("snapshots", "20", "snapshots in the simulated sequence");
  flags.define("stride", "2", "process every n-th snapshot");
  try {
    flags.parse(argc, argv);
    ExperimentConfig base;
    base.k = static_cast<idx_t>(flags.get_int("k"));
    base.sim.num_snapshots = static_cast<idx_t>(flags.get_int("snapshots"));
    base.snapshot_stride = static_cast<idx_t>(flags.get_int("stride"));

    Table table({"variant", "FEComm", "NTNodes", "NRemote", "RepartMoved",
                 "imb_FE", "imb_contact"});

    std::cout << "MCML+DT ablations (k=" << base.k << ", "
              << base.sim.num_snapshots << " snapshots, stride "
              << base.snapshot_stride << ")\n\n";

    // 1. Contact-edge weight sweep.
    for (wgt_t w : {wgt_t{1}, wgt_t{2}, wgt_t{5}, wgt_t{10}}) {
      ExperimentConfig c = base;
      c.contact_edge_weight = w;
      add_row(table, "edge_weight=" + std::to_string(w),
              run_contact_experiment(c));
    }

    // 2. Tree-friendly adjustment off (raw multi-constraint partition).
    {
      ExperimentConfig c = base;
      c.tree_friendly = false;
      add_row(table, "no_tree_friendly", run_contact_experiment(c));
    }

    // 3. Gap-preferring splits (Section 6 extension).
    for (double alpha : {0.25, 1.0}) {
      ExperimentConfig c = base;
      c.gap_alpha = alpha;
      char buf[32];
      std::snprintf(buf, sizeof buf, "gap_alpha=%.2f", alpha);
      add_row(table, buf, run_contact_experiment(c));
    }

    // 4. Geometry-aware initial partition (Section 6 future work).
    {
      ExperimentConfig c = base;
      c.geometric_init = true;
      add_row(table, "geometric_init", run_contact_experiment(c));
    }

    // 5. Update policies (Section 4.3): repartition every step / hybrid.
    for (idx_t period : {idx_t{1}, idx_t{5}}) {
      ExperimentConfig c = base;
      c.repartition_period = period;
      add_row(table, "repartition_every=" + std::to_string(period),
              run_contact_experiment(c));
    }

    table.print(std::cout);

    // 5. Partitioning scheme: recursive bisection vs direct multilevel
    //    k-way on the two-phase (multi-constraint) graph.
    {
      const ImpactSim sim(base.sim);
      const auto snap = sim.snapshot(0);
      const CsrGraph g = build_two_phase_graph(
          snap.mesh, snap.surface.is_contact_node, base.contact_edge_weight);
      PartitionOptions popts;
      popts.k = base.k;
      popts.epsilon = base.epsilon;
      Table scheme({"scheme", "edge_cut", "comm_volume", "imb_c0", "imb_c1",
                    "seconds"});
      auto run = [&](const char* name, auto&& fn) {
        Timer timer;
        const std::vector<idx_t> part = fn(g, popts);
        const double secs = timer.seconds();
        scheme.begin_row();
        scheme.add_cell(name);
        scheme.add_cell(static_cast<long long>(edge_cut(g, part)));
        scheme.add_cell(static_cast<long long>(total_comm_volume(g, part)));
        scheme.add_cell(load_imbalance(g, part, base.k, 0), 3);
        scheme.add_cell(load_imbalance(g, part, base.k, 1), 3);
        scheme.add_cell(secs, 2);
      };
      run("recursive_bisection", [](const CsrGraph& graph,
                                    const PartitionOptions& o) {
        return partition_graph(graph, o);
      });
      run("direct_kway", [](const CsrGraph& graph, const PartitionOptions& o) {
        return partition_graph_kway(graph, o);
      });
      std::cout << "\nPartitioning scheme (two-phase graph, k=" << base.k
                << "):\n";
      scheme.print(std::cout);
    }

    std::cout
        << "\nReading: edge_weight trades FEComm against NRemote (heavier "
           "contact edges keep contact surfaces interior); disabling the "
           "tree-friendly step inflates NTNodes and NRemote; gap-preferring "
           "splits aim to reduce NRemote further; periodic repartitioning "
           "keeps the partition matched to the deforming mesh at the price "
           "of RepartMoved node migrations.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("bench_ablation");
    return 1;
  }
}
