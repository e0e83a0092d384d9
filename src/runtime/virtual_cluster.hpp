// Virtual parallel machine: executes the per-step communication of a
// k-processor contact/impact run concretely instead of analytically.
//
// The paper reports aggregate counts (FEComm, NRemote, M2MComm). Those
// aggregates hide *congestion*: two decompositions with equal totals can
// load the busiest processor very differently. VirtualCluster tracks the
// per-processor send/receive volumes and message counts of every transfer
// routed through it. It is used two ways:
//   * as the transport under the SPMD exchange layer (runtime/exchange.hpp):
//     the typed channels charge it while actually carrying the payloads, so
//     traffic accounting is a side effect of moving the bytes;
//   * by the analytic drivers below, which generate each phase's traffic
//     from the global data structures without executing ranks:
//       fe_halo_traffic       — FE-phase halo exchange (sum == FEComm);
//       global_search_traffic — surface-element shipping (sum == NRemote);
//       m2m_traffic           — ML+RCB mesh-to-mesh (sum == 2 * M2MComm).
// The test suite asserts that the executed SPMD traffic, the analytic
// drivers, and the paper metrics all agree, so the three cross-validate.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "contact/global_search.hpp"
#include "graph/csr_graph.hpp"
#include "mesh/surface.hpp"

namespace cpart {

struct ProcessorTraffic {
  wgt_t sent_units = 0;      // data units sent
  wgt_t received_units = 0;  // data units received
  idx_t messages = 0;        // distinct (src, dst) pairs touched as sender

  bool operator==(const ProcessorTraffic&) const = default;
};

struct StepTraffic {
  std::vector<ProcessorTraffic> processors;

  idx_t num_processors() const { return to_idx(processors.size()); }
  /// Total units transferred (each unit counted once, on the send side).
  wgt_t total_units() const;
  /// Heaviest receiver's volume — the straggler of the exchange.
  wgt_t max_received() const;
  wgt_t max_sent() const;
  /// max over processors of (sent + received) divided by the mean; 1.0 is
  /// perfectly even traffic.
  double imbalance() const;
  /// Total messages (point-to-point pairs with nonzero traffic).
  idx_t total_messages() const;

  /// Element-wise sum of two traffic snapshots (same k).
  StepTraffic& operator+=(const StepTraffic& other);

  /// Exact per-processor equality — what the step-vs-reference
  /// equivalence tests assert.
  bool operator==(const StepTraffic&) const = default;
};

/// Records point-to-point transfers between k virtual processors.
class VirtualCluster {
 public:
  explicit VirtualCluster(idx_t k);

  idx_t num_processors() const { return k_; }

  /// Transfers `units` data units from processor `from` to `to`.
  /// Self-sends are ignored (local data needs no communication).
  void send(idx_t from, idx_t to, wgt_t units);

  /// Returns the accumulated traffic and resets the cluster.
  StepTraffic finish();

 private:
  idx_t k_;
  std::vector<wgt_t> matrix_;  // k*k send matrix
};

/// FE-phase halo exchange: every boundary vertex sends one unit to each
/// distinct external partition adjacent to it. Summed units equal
/// total_comm_volume(g, part).
StepTraffic fe_halo_traffic(const CsrGraph& g, std::span<const idx_t> part,
                            idx_t k);

/// Global-search shipping: each surface face goes from its owner to every
/// candidate partition the filter reports (excluding the owner). Summed
/// units equal GlobalSearchStats::remote_sends for the same filter.
StepTraffic global_search_traffic(
    const Mesh& mesh, const Surface& surface, std::span<const idx_t> owner,
    real_t margin, idx_t k,
    const std::function<void(const BBox&, std::vector<idx_t>&)>& filter);

/// ML+RCB mesh-to-mesh transfer: each contact point whose FE processor
/// differs from its (relabelled) contact processor moves one unit each way.
/// `relabel` maps contact partition ids to FE partition ids (from m2m_comm).
/// Summed units equal 2 * M2MComm.
StepTraffic m2m_traffic(std::span<const idx_t> fe_labels,
                        std::span<const idx_t> contact_labels,
                        std::span<const idx_t> relabel, idx_t k);

}  // namespace cpart
