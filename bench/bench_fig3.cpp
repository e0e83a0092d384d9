// Reproduces Figure 3 of the paper: "various stages of the simulation" —
// the projectile penetrating the two plates. Prints the geometric evolution
// of the synthetic sequence (the EPIC-dataset substitute) and renders x-z
// cross-sections of selected snapshots as SVG.
//
//   ./bench_fig3 [--snapshots 100] [--svg-prefix fig3]
#include <iostream>

#include "sim/impact_sim.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "viz/svg.hpp"

using namespace cpart;

namespace {

/// Renders the x-z cross-section (elements whose centre lies near y = 0)
/// coloured by body.
void render_cross_section(const ImpactSim& sim, idx_t step,
                          const std::string& path) {
  const Mesh mesh = sim.snapshot(step).mesh;
  // Snapshot element index -> initial element body: remove_elements keeps
  // order, so recompute the kept-element mapping from the erosion rule by
  // matching counts. Simpler and robust: use the first node's body.
  BBox world;
  for (idx_t v = 0; v < mesh.num_nodes(); ++v) {
    const Vec3 p = mesh.node(v);
    world.expand(Vec3{p.x, p.z, 0});
  }
  world.inflate(0.4);
  SvgCanvas canvas(world, 800);
  const real_t slab = 0.4;
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    const Vec3 c = mesh.element_center(e);
    if (std::abs(c.y) > slab) continue;
    const auto body = static_cast<Body>(
        sim.node_body()[static_cast<std::size_t>(mesh.element(e).front())]);
    const BBox eb = mesh.element_bbox(e);
    BBox flat;
    flat.expand(Vec3{eb.lo.x, eb.lo.z, 0});
    flat.expand(Vec3{eb.hi.x, eb.hi.z, 0});
    canvas.add_rect(flat, SvgCanvas::partition_color(static_cast<idx_t>(body)),
                    "none", 0, 0.8);
  }
  canvas.save(path);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("snapshots", "100", "snapshots in the sequence");
  flags.define("svg-prefix", "fig3", "cross-section SVG prefix (empty: skip)");
  try {
    flags.parse(argc, argv);
    ImpactSimConfig config;
    config.num_snapshots = static_cast<idx_t>(flags.get_int("snapshots"));
    const ImpactSim sim(config);

    std::cout << "Figure 3 reproduction — projectile through two plates\n"
              << "initial mesh: " << sim.initial_mesh().num_nodes()
              << " nodes, " << sim.initial_mesh().num_elements()
              << " elements\n\n";

    Table table({"step", "nose_z", "elements", "eroded", "contact_surfaces",
                 "contact_nodes"});
    const idx_t last = sim.num_snapshots() - 1;
    for (idx_t step : {idx_t{0}, last / 4, last / 2, 3 * last / 4, last}) {
      const auto snap = sim.snapshot(step);
      table.begin_row();
      table.add_cell(static_cast<long long>(step));
      table.add_cell(snap.nose_z, 2);
      table.add_cell(static_cast<long long>(snap.mesh.num_elements()));
      table.add_cell(static_cast<long long>(snap.eroded_elements));
      table.add_cell(static_cast<long long>(snap.surface.num_faces()));
      table.add_cell(static_cast<long long>(snap.surface.num_contact_nodes()));
      const std::string prefix = flags.get_string("svg-prefix");
      if (!prefix.empty()) {
        render_cross_section(sim, step,
                             prefix + "_step" + std::to_string(step) + ".svg");
      }
    }
    table.print(std::cout);
    if (!flags.get_string("svg-prefix").empty()) {
      std::cout << "\ncross-section SVGs written with prefix "
                << flags.get_string("svg-prefix") << "_step*.svg\n";
    }
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("bench_fig3");
    return 1;
  }
}
