// Bit-identity comparison of two step reports, shared by the tests (through
// expect_reports.hpp) and bench_spmd.
#pragma once

#include <string>
#include <vector>

#include "core/distributed_sim.hpp"

namespace cpart {

/// Where two event lists differ: a size mismatch, or the first event whose
/// node, face, distance, signed distance or closest point differs (exact
/// double comparison). Empty when identical.
std::vector<std::string> event_differences(
    const std::vector<ContactEvent>& got, const std::vector<ContactEvent>& want);

/// Where two step reports differ, one line per field ("fe_exchange", ...,
/// then event_differences). Compared: step, migrated, the four traffic
/// matrices, descriptor tree nodes, every payload and broadcast byte count,
/// moved nodes and elements, event counts and per-rank counts, ownership
/// hash and events. Not compared: health (faults and recovery add
/// transport activity), the wall-clock fields, the recovery accounting, and
/// the per-rank phase breakdown and migration_ranks_rebuilt, which the
/// centralized reference does not model. Empty when identical.
std::vector<std::string> report_differences(const DistributedStepReport& got,
                                            const DistributedStepReport& want);

inline bool reports_identical(const DistributedStepReport& got,
                              const DistributedStepReport& want) {
  return report_differences(got, want).empty();
}

}  // namespace cpart
