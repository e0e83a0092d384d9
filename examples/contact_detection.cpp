// Full contact-detection pipeline on one simulation snapshot: MCML+DT
// partitioning -> per-subdomain descriptors -> global search (candidate
// partitions per surface element) -> local search (actual node-to-face
// proximities and penetrations). Shows how the paper's decomposition plugs
// into the rest of a contact code.
//
//   ./contact_detection [--k 8] [--step 40] [--tolerance 0.08]
#include <iostream>

#include "contact/global_search.hpp"
#include "contact/local_search.hpp"
#include "core/mcml_dt.hpp"
#include "sim/impact_sim.hpp"
#include "util/flags.hpp"

using namespace cpart;

int main(int argc, char** argv) {
  Flags flags;
  flags.define("k", "8", "number of partitions");
  // Default: the step where the nose reaches the lower plate's surface
  // (fresh impact, no eroded clearance yet) — the contact-rich moment.
  flags.define("step", "48", "snapshot to analyse");
  flags.define("tolerance", "0.08", "contact proximity tolerance");
  try {
    flags.parse(argc, argv);
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    const auto tolerance = static_cast<real_t>(flags.get_double("tolerance"));

    ImpactSimConfig sim_config;
    const ImpactSim sim(sim_config);
    const auto snap0 = sim.snapshot(0);
    const idx_t step = std::min(static_cast<idx_t>(flags.get_int("step")),
                                sim.num_snapshots() - 1);
    const auto snap = sim.snapshot(step);
    std::cout << "snapshot " << step << ": nose at z=" << snap.nose_z << ", "
              << snap.surface.num_faces() << " contact surfaces, "
              << snap.surface.num_contact_nodes() << " contact nodes\n";

    // Decompose once (snapshot 0), reuse — the paper's update policy.
    McmlDtConfig config;
    config.k = k;
    const McmlDtPartitioner partitioner(snap0.mesh, snap0.surface, config);
    const SubdomainDescriptors descriptors =
        partitioner.build_descriptors(snap.mesh, snap.surface);

    // Global search: how much inter-processor shipping does this step need?
    const auto owners =
        face_owners(snap.surface, partitioner.node_partition(), k);
    const GlobalSearchStats gs = global_search_tree(
        snap.mesh, snap.surface, owners, descriptors, tolerance);
    std::cout << "global search: " << gs.remote_sends
              << " element transfers (" << gs.elements_sent << " of "
              << snap.surface.num_faces() << " elements leave home)\n";

    // Local search: the actual contacts (cross-body proximities).
    LocalSearchOptions ls;
    ls.tolerance = tolerance;
    ls.body_of_node = sim.node_body();
    const auto events = local_contact_search(snap.mesh, snap.surface, ls);
    idx_t penetrating = 0;
    real_t min_gap = tolerance;
    for (const ContactEvent& e : events) {
      if (e.signed_distance < 0) ++penetrating;
      min_gap = std::min(min_gap, e.distance);
    }
    std::cout << "local search: " << events.size() << " contact events, "
              << penetrating << " penetrating, closest gap " << min_gap
              << "\n";
    if (!events.empty()) {
      const ContactEvent& e = events.front();
      const Vec3 p = snap.mesh.node(e.node);
      std::cout << "  e.g. node " << e.node << " at (" << p.x << ", " << p.y
                << ", " << p.z << ") gap=" << e.distance
                << (e.signed_distance < 0 ? " [penetrating]" : "") << "\n";
    }
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << flags.usage("contact_detection");
    return 1;
  }
}
