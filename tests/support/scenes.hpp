// Scene set-ups shared by the step tests.
#pragma once

#include "sim/impact_sim.hpp"

namespace cpart {

/// The small impact scene of the step tests: a 12 x 12 x 2 plate, a
/// projectile 6 cells across and 6 deep, 40 snapshots.
inline ImpactSimConfig small_impact_config() {
  ImpactSimConfig sc;
  sc.plate_cells_xy = 12;
  sc.plate_cells_z = 2;
  sc.proj_cells_diameter = 6;
  sc.proj_cells_z = 6;
  sc.num_snapshots = 40;
  return sc;
}

}  // namespace cpart
