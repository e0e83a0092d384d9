// The pieces every contact step driver shares, and the ML+RCB baseline run
// end to end.
//
// A step driver executes one time step as k concurrent per-rank programs
// over typed exchange channels (runtime/exchange.hpp): descriptor or box
// filter update, FE halo exchange, global search with element shipping, and
// per-rank local search. The MCML+DT step with rank-owned state is
// DistributedSim (core/distributed_sim.hpp); this header holds what it
// shares with MlRcbPipeline — the search knobs, the event merge, the
// degrade-on-failure wrapper, the halo provider inversion, and the per-rank
// phase breakdown — plus MlRcbPipeline itself, the paper's baseline
// (Section 5.2) driven over centrally generated snapshots.
//
// Every driver keeps a centralized run_step_reference() as its equivalence
// oracle: the SPMD path must match it bit for bit (events, per-rank counts,
// traffic), and the union of the per-rank local searches must equal a
// serial search over the whole surface whenever the search margin covers
// the contact tolerance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "contact/local_search.hpp"
#include "core/ml_rcb.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/subdomain.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/health.hpp"
#include "runtime/rank.hpp"
#include "runtime/virtual_cluster.hpp"
#include "tree/tree_io.hpp"

namespace cpart {

/// Runs an SPMD step body, degrading on exactly the failure classes the
/// robustness layer owns: transport retry exhaustion (TransportError),
/// rejected descriptor wires (TreeParseError), and failing rank programs
/// (ParallelGroupError). Anything else (config errors, logic bugs) still
/// propagates — degrading would mask it. On failure, `health` receives the
/// step's counters (plus what the transport could not record itself) with
/// degraded_steps == 1, and the exchange is reset for the fallback. Shared
/// by every pipeline built on the rank/exchange runtime.
template <typename Spmd>
bool try_spmd_step(Exchange& exchange, PipelineHealth& health, Spmd&& spmd) {
  wgt_t parse_failures = 0;
  wgt_t failed_ranks = 0;
  try {
    spmd();
    return true;
  } catch (const TransportError&) {
    // Retry/exhaustion counters were recorded by the exchange itself.
  } catch (const TreeParseError&) {
    // One rank program rejected a descriptor wire off the transport.
    parse_failures = 1;
    failed_ranks = 1;
  } catch (const ParallelGroupError& e) {
    failed_ranks = to_idx(e.failures().size());
  }
  health = exchange.take_health();
  health.wire_parse_failures += parse_failures;
  health.failed_ranks += failed_ranks;
  ++health.degraded_steps;
  exchange.abort_step();
  return false;
}

/// Contact-search knobs shared by every step driver.
struct SearchConfig {
  /// Global-search inflation of surface-element boxes. Must be at least the
  /// local tolerance for the pipeline to be exact (checked by validate()).
  real_t search_margin = 0.1;
  /// Local-search proximity tolerance.
  real_t contact_tolerance = 0.1;
  /// Report every face within tolerance (false) or only the closest per
  /// node (true).
  bool closest_only = true;

  /// Throws InputError unless search_margin >= contact_tolerance (`who`
  /// prefixes the message).
  void validate(const char* who) const;

  /// The LocalSearchOptions these knobs describe.
  LocalSearchOptions local_options(std::span<const int> body_of_node) const;
};

/// The contact events of one step, shared by every step report.
struct StepEvents {
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  std::vector<ContactEvent> events;  // merged, sorted by (node, distance)
  /// Contact events found by each processor (sums to contact_events).
  std::vector<idx_t> events_per_processor;
};

// ---------------------------------------------------------------------------
// Phase helpers shared by the step drivers (MlRcbPipeline, DistributedSim):
// each driver is a phase list over these plus its own state. The SPMD and
// reference flavors call the same helpers, which is what keeps them
// bit-identical.
// ---------------------------------------------------------------------------

/// Sorts `out.events` by (node, distance) — the deterministic order every
/// step flavor reports — and recounts contact and penetrating events.
void finalize_events(StepEvents& out);

/// Deterministic merge of per-rank events: concatenated in rank order (with
/// the per-rank counts), then finalize_events — the identical sequence and
/// comparison the centralized flavors sort, hence bit-identical output.
template <typename RankState>
void merge_rank_events(const std::vector<RankState>& ranks, StepEvents& out) {
  out.events_per_processor.assign(ranks.size(), 0);
  out.events.clear();
  for (std::size_t q = 0; q < ranks.size(); ++q) {
    out.events_per_processor[q] = to_idx(ranks[q].events.size());
    out.events.insert(out.events.end(), ranks[q].events.begin(),
                      ranks[q].events.end());
  }
  finalize_events(out);
}

/// providers[dst] = sorted unique ranks whose halo_sends post to dst — the
/// inverse of the send lists, so a halo-consuming phase waits on just its
/// neighbors' rows (AsyncPhase::providers) instead of all k.
template <typename View>
void build_halo_providers(const std::vector<View>& views,
                          std::vector<std::vector<idx_t>>& providers) {
  providers.assign(views.size(), {});
  for (std::size_t r = 0; r < views.size(); ++r) {
    for (const HaloSend& hs : views[r].halo_sends) {
      providers[static_cast<std::size_t>(hs.dst)].push_back(to_idx(r));
    }
  }
  for (std::vector<idx_t>& list : providers) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

/// Per-rank wall milliseconds of each SPMD phase of the last run_step,
/// filled from the executor's per-body and per-wait timers (empty after
/// run_step_reference and on degraded steps, which have no per-rank
/// execution). Each wait is the readiness wait before a phase that reads a
/// channel: time the rank spent blocked until the inbox rows it reads were
/// closed (0 for already-ready inputs).
///
/// MlRcbPipeline: halo = halo + forward-coupling post and box allgather;
/// ship = coupling return + element shipping (ship_wait its halo/coupling
/// wait); search = merge + local search. descriptor_ms stays 0.
///
/// DistributedSim (superstep letters as in core/distributed_sim.hpp):
///   descriptor_ms[0]    the driver's descriptor induction + encode (and the
///                       label encode on migration steps); 0 on other ranks;
///   halo_ms             A kinematics + halo post, B surface extraction +
///                       contact-point post, and rank 0's gather;
///   ship_ms             D descriptor decode + face shipping;
///   search_ms           E local search (+ migration sends), F commit;
///   ship_wait_ms        B's wait on its halo neighbors;
///   descriptor_wait_ms  the gather's wait on the contact points, plus D's
///                       wait on the descriptor/label broadcast;
///   search_wait_ms      E's wait on shipped faces, F's on migration.
struct RankPhaseBreakdown {
  std::vector<double> descriptor_ms;
  std::vector<double> halo_ms;
  std::vector<double> ship_ms;
  std::vector<double> search_ms;
  std::vector<double> descriptor_wait_ms;
  std::vector<double> ship_wait_ms;
  std::vector<double> search_wait_ms;

  /// Sizes every array to k ranks, all zero.
  void reset(idx_t k);
};

// ---------------------------------------------------------------------------
// The end-to-end step of the ML+RCB baseline.
// ---------------------------------------------------------------------------

struct MlRcbStepConfig {
  MlRcbConfig decomposition{};
  SearchConfig search{};
};

struct MlRcbStepReport : StepEvents {
  StepTraffic fe_exchange;
  StepTraffic coupling_exchange;  // mesh-to-mesh, both directions
  StepTraffic search_exchange;
  wgt_t upd_comm = 0;  // incremental-RCB redistribution this step
  /// Measured payload bytes the exchange actually carried (SPMD path only;
  /// the reference path models units, not bytes, and leaves these 0).
  wgt_t halo_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  wgt_t coupling_payload_bytes = 0;
  wgt_t box_allgather_bytes = 0;  // RCB subdomain-box allgather
  RankPhaseBreakdown phase;  // SPMD path only (descriptor_ms stays 0)
  /// Transport detection/recovery counters of this step. clean() on a
  /// healthy step; degraded() when the step fell back to the reference
  /// path. run_step_reference leaves it default (no transport ran).
  PipelineHealth health;
};

/// ML+RCB's step: FE halo on the graph decomposition, transfer of contact
/// data to the RCB decomposition and back (2x M2MComm), element shipping
/// under the bounding-box filter, local search in the RCB decomposition.
/// Equally exact: the per-processor searches reproduce the serial result
/// (the subdomain boxes are conservative).
class MlRcbPipeline {
 public:
  MlRcbPipeline(const Mesh& mesh0, const Surface& surface0,
                const MlRcbStepConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const MlRcbPartitioner& partitioner() const { return partitioner_; }

  /// Advances the incremental RCB and executes the step SPMD. Must be
  /// called in snapshot order (the RCB update is stateful). Degrades to the
  /// centralized phases on transport/rank failure (see try_spmd_step) —
  /// the RCB advance runs once either way.
  MlRcbStepReport run_step(const Mesh& mesh, const Surface& surface,
                           std::span<const int> body_of_node = {});

  /// The pre-refactor centralized step (also advances the RCB — drive a
  /// given pipeline instance through exactly one of run_step /
  /// run_step_reference; the equivalence tests compare two identically
  /// seeded instances).
  MlRcbStepReport run_step_reference(const Mesh& mesh, const Surface& surface,
                                     std::span<const int> body_of_node = {});

  /// The Exchange this pipeline's supersteps run over — exposed so callers
  /// (tests, benches) can arm fault injection and tune the retry policy.
  Exchange& exchange() { return exchange_; }

 private:
  /// Shared stateful preamble of both step flavors: RCB advance + UpdComm
  /// bookkeeping.
  void advance_partition(const Mesh& mesh, const Surface& surface,
                         MlRcbStepReport& report);

  /// The SPMD supersteps after advance_partition; throws on failure.
  void run_step_spmd(const Mesh& mesh, const Surface& surface,
                     std::span<const int> body_of_node,
                     MlRcbStepReport& report);

  /// The centralized phases after advance_partition (shared by
  /// run_step_reference and the degraded path of run_step, which must not
  /// advance the stateful RCB a second time).
  void run_reference_phases(const Mesh& mesh, const Surface& surface,
                            std::span<const int> body_of_node,
                            MlRcbStepReport& report) const;

  MlRcbStepConfig config_;
  MlRcbPartitioner partitioner_;
  // Snapshot-sequence identity captured at construction (see
  // validate_snapshot_identity).
  ElementType element_type0_;
  idx_t num_nodes0_ = 0;
  idx_t num_elements0_ = 0;
  bool first_step_ = true;
  // SPMD state, reused across steps.
  NodalGraphCache graph_cache_;
  std::uint64_t halo_version_ = 0;
  std::vector<SubdomainView> views_;
  std::vector<Rank> ranks_;
  Exchange exchange_;
  AsyncExecutor executor_;
  std::vector<idx_t> fe_labels_;  // per-step gather scratch
  std::vector<idx_t> rcb_node_labels_;
  std::vector<idx_t> face_owner_;
};

}  // namespace cpart
