// Per-processor traffic analysis (extension beyond the paper's Table 1).
//
// The paper compares aggregate communication volumes; this bench executes
// the same exchanges on a virtual k-processor cluster and reports what the
// aggregates hide — how unevenly the traffic lands on processors (the
// busiest receiver sets the critical path of an exchange).
//
//   ./bench_congestion [--k 25] [--step 50]
#include <iostream>

#include "contact/search_metrics.hpp"
#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "runtime/virtual_cluster.hpp"
#include "sim/impact_sim.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace cpart;

namespace {

void add_row(Table& table, const std::string& phase, const StepTraffic& t) {
  table.begin_row();
  table.add_cell(phase);
  table.add_cell(static_cast<long long>(t.total_units()));
  table.add_cell(static_cast<long long>(t.max_sent()));
  table.add_cell(static_cast<long long>(t.max_received()));
  table.add_cell(t.imbalance(), 2);
  table.add_cell(static_cast<long long>(t.total_messages()));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("k", "25", "number of processors");
  flags.define("step", "50", "snapshot to execute");
  try {
    flags.parse(argc, argv);
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    const idx_t step = static_cast<idx_t>(flags.get_int("step"));

    ImpactSimConfig sim_config;
    const ImpactSim sim(sim_config);
    const auto snap0 = sim.snapshot(0);
    const auto snap = sim.snapshot(std::min(step, sim.num_snapshots() - 1));
    const CsrGraph g = nodal_graph(snap.mesh);
    const real_t margin =
        0.5 * sim_config.plate_width / sim_config.plate_cells_xy;

    std::cout << "Per-processor traffic at snapshot " << snap.step << " (k="
              << k << ", " << snap.surface.num_faces()
              << " contact surfaces)\n\n";
    Table table({"phase", "total", "max_sent", "max_recv", "imbalance",
                 "messages"});

    {  // MCML+DT: FE halo + descriptor-tree search. One decomposition.
      McmlDtConfig config;
      config.k = k;
      const McmlDtPartitioner p(snap0.mesh, snap0.surface, config);
      const auto desc = p.build_descriptors(snap.mesh, snap.surface);
      const auto owners = face_owners(snap.surface, p.node_partition(), k);
      StepTraffic total = fe_halo_traffic(g, p.node_partition(), k);
      add_row(table, "MCML+DT fe_halo", total);
      const StepTraffic search = global_search_traffic(
          snap.mesh, snap.surface, owners, margin, k,
          [&desc, mask = std::vector<char>(), touched = std::vector<idx_t>()](
              const BBox& box, std::vector<idx_t>& parts) mutable {
            desc.query_box(box, parts, mask, touched);
          });
      add_row(table, "MCML+DT search", search);
      total += search;
      add_row(table, "MCML+DT step total", total);
    }

    {  // ML+RCB: FE halo + bbox search + mesh-to-mesh transfer both ways.
      MlRcbConfig config;
      config.k = k;
      MlRcbPartitioner p(snap0.mesh, snap0.surface, config);
      for (idx_t s = 1; s <= snap.step; ++s) {
        const auto si = sim.snapshot(s);
        p.update_contact_partition(si.mesh, si.surface);
      }
      StepTraffic total = fe_halo_traffic(g, p.node_partition(), k);
      add_row(table, "ML+RCB fe_halo", total);

      std::vector<idx_t> rcb_node_labels(
          static_cast<std::size_t>(snap.mesh.num_nodes()), 0);
      for (std::size_t i = 0; i < p.contact_ids().size(); ++i) {
        rcb_node_labels[static_cast<std::size_t>(p.contact_ids()[i])] =
            p.contact_labels()[i];
      }
      const auto owners = face_owners(snap.surface, rcb_node_labels, k);
      const BBoxFilter filter = p.make_bbox_filter(snap.mesh);
      const StepTraffic search = global_search_traffic(
          snap.mesh, snap.surface, owners, margin, k,
          [&filter](const BBox& box, std::vector<idx_t>& parts) {
            filter.query_box(box, parts);
          });
      add_row(table, "ML+RCB search", search);

      std::vector<idx_t> fe_labels;
      for (idx_t id : snap.surface.contact_nodes) {
        fe_labels.push_back(
            p.node_partition()[static_cast<std::size_t>(id)]);
      }
      const M2MResult m2m = m2m_comm(fe_labels, p.contact_labels(), k);
      const StepTraffic coupling =
          m2m_traffic(fe_labels, p.contact_labels(), m2m.relabel, k);
      add_row(table, "ML+RCB mesh2mesh", coupling);
      total += search;
      total += coupling;
      add_row(table, "ML+RCB step total", total);
    }

    table.print(std::cout);
    std::cout << "\nimbalance = busiest processor's (sent+received) over the "
                 "mean; the step-total rows are what each algorithm's "
                 "critical path pays per time step.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << flags.usage("bench_congestion");
    return 1;
  }
}
