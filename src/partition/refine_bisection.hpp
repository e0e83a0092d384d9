// Fiduccia–Mattheyses boundary refinement for (multi-constraint) bisections.
//
// Moves vertices between the two sides to reduce edge-cut while driving all
// vertex-weight components toward the target split (left side receives
// `left_fraction` of each component, tolerance epsilon). Each pass performs
// a sequence of locked moves with rollback to the best prefix, where states
// are ordered lexicographically by (balance violation, cut). A pass stops
// once it is more than min(max(n/100, 15), 100) moves past its best prefix.
#pragma once

#include <span>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace cpart {

/// Relative balance violation of a 0/1 partition: sum over constraints and
/// sides of the overweight beyond (1+epsilon)*target, normalized by the
/// constraint total. 0 means every constraint is within tolerance.
double bisection_violation(const CsrGraph& g, std::span<const idx_t> part01,
                           double left_fraction, double epsilon);

/// Runs up to `passes` FM passes; modifies part01 in place. Returns the
/// number of vertices whose side changed overall.
idx_t fm_refine_bisection(const CsrGraph& g, std::span<idx_t> part01,
                          double left_fraction, double epsilon, int passes,
                          Rng& rng);

}  // namespace cpart
