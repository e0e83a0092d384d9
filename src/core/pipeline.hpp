// End-to-end parallel contact pipeline, executed SPMD on the rank/exchange
// runtime.
//
// One full time step the way a production MPI integration of MCML+DT would
// run it (paper Sections 2 and 4), as k concurrent per-rank programs over
// typed exchange channels (runtime/exchange.hpp):
//   1. descriptor update — rank 0 induces this snapshot's descriptor tree
//      from the moved contact points and broadcasts the serialized tree to
//      the other k-1 ranks (bytes x (k-1) = the NTNodes setup cost); every
//      receiver parses its own copy;
//   2. FE halo exchange — each rank posts its boundary-node positions to
//      the adjacent partitions;
//   3. global search — each rank filters its own surface faces through its
//      descriptor copy and ships each face (ids + coordinates) to every
//      candidate rank;
//   4. local search — each rank tests its own contact nodes against its
//      owned + received faces.
// The per-rank events are merged deterministically (rank order, then sorted
// by (node, distance)) — bit-identical to the centralized implementation,
// which is retained as run_step_reference() and serves as the equivalence
// oracle for tests and benches. The union of the per-rank local searches
// must also equal a serial search over the whole surface whenever the
// search margin covers the contact tolerance — the integration tests assert
// exactly that, which validates the conservativeness of the descriptor
// filter end-to-end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "contact/local_search.hpp"
#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "mesh/mesh_graphs.hpp"
#include "mesh/subdomain.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/health.hpp"
#include "runtime/rank.hpp"
#include "runtime/virtual_cluster.hpp"
#include "tree/descriptor_tree.hpp"
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

/// Contact-search knobs shared by both pipelines (deduplicated — they used
/// to be copy-pasted fields with the margin/tolerance check in two places).
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

struct PipelineConfig {
  McmlDtConfig decomposition{};
  SearchConfig search{};
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
// Phase helpers shared by the step drivers (ContactPipeline, MlRcbPipeline,
// DistributedSim): each driver is a phase list over these plus its own
// state. The SPMD and reference flavors call the same helpers, which is
// what keeps them bit-identical.
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

/// Rank 0's descriptor update: induces this step's descriptors into `out`
/// — warm-started from the tree `out` held last step — and broadcasts the
/// binary wire to the other k-1 ranks. Runs on the driver thread: parallel
/// induction dispatches pool work, which a rank program must never do.
void induce_and_broadcast_descriptors(std::span<const Vec3> points,
                                      std::span<const idx_t> labels, idx_t k,
                                      const DescriptorOptions& options,
                                      TreeInduceWorkspace& workspace,
                                      std::optional<SubdomainDescriptors>& out,
                                      Exchange& exchange);

/// Rank r's side of the broadcast: decodes its own copy of the wire into
/// `out` (every rank needs its own — query_box keeps per-instance scratch).
/// Rank 0 keeps the copy it induced. Throws TreeParseError on a rejected
/// wire.
void receive_descriptors(Exchange& exchange, idx_t r, idx_t k,
                         std::optional<SubdomainDescriptors>& out);

/// The reference flavors' byte model of the broadcast: the binary wire of
/// `descriptors` once per receiving rank.
wgt_t descriptor_broadcast_bytes(const SubdomainDescriptors& descriptors,
                                 idx_t k);

/// Per-rank wall milliseconds of each SPMD phase of the last run_step
/// (empty after run_step_reference, which has no per-rank execution).
struct RankPhaseBreakdown {
  std::vector<double> descriptor_ms;  // induce/serialize (rank 0), parse
  std::vector<double> halo_ms;        // halo posting
  std::vector<double> ship_ms;        // ghost intake + element shipping
  std::vector<double> search_ms;      // merge + local search
  // Readiness-wait wall ms preceding each phase that reads a channel under
  // the dependency-driven executor: time the rank spent blocked until the
  // inbox rows its phase reads were closed (0 for already-ready inputs).
  // The halo phase reads no channel, so it never waits.
  std::vector<double> descriptor_wait_ms;
  std::vector<double> ship_wait_ms;
  std::vector<double> search_wait_ms;
};

struct PipelineStepReport : StepEvents {
  StepTraffic fe_exchange;       // phase 2
  StepTraffic search_exchange;   // phase 3
  wgt_t descriptor_tree_nodes = 0;
  wgt_t descriptor_broadcast_bytes = 0;  // phase 1 cost
  /// Measured payload bytes the exchange actually carried (SPMD path only;
  /// the reference path models units, not bytes, and leaves these 0).
  wgt_t halo_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  /// Periodic-repartition migration accounting: what the last repartition
  /// moved, charged to the step it happened in. The pipelines themselves
  /// keep a fixed partition, so these stay 0 unless the driver runs the
  /// repartitioning update policy (experiment driver, bench_spmd
  /// --repart_period) — DistributedSim fills the equivalent fields of its
  /// own report natively.
  idx_t repart_moved_nodes = 0;
  idx_t repart_moved_elements = 0;
  wgt_t repart_moved_bytes = 0;
  RankPhaseBreakdown phase;  // SPMD path only
  /// Transport detection/recovery counters of this step. clean() on a
  /// healthy step; degraded() when the step fell back to the reference
  /// path. run_step_reference leaves it default (no transport ran).
  PipelineHealth health;
};

class ContactPipeline {
 public:
  /// Decomposes the snapshot-0 mesh; the partition is reused across steps
  /// (the paper's fixed-partition update policy).
  ContactPipeline(const Mesh& mesh0, const Surface& surface0,
                  const PipelineConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const McmlDtPartitioner& partitioner() const { return partitioner_; }

  /// Executes one full step SPMD: k rank programs run concurrently on the
  /// global ThreadPool, exchanging real payloads. `body_of_node` (size
  /// num_nodes) enables the standard same-body contact exclusion. Snapshots
  /// must come from one simulation sequence (the nodal-graph cache keys on
  /// monotone erosion — see NodalGraphCache).
  ///
  /// Robustness: delivery validation failures are retried inside the
  /// exchange (see RetryPolicy); if the transport gives up (TransportError),
  /// a descriptor wire is rejected (TreeParseError), or rank programs throw
  /// (ParallelGroupError), the step completes through run_step_reference
  /// instead of crashing, with health.degraded_steps == 1 on the report.
  PipelineStepReport run_step(const Mesh& mesh, const Surface& surface,
                              std::span<const int> body_of_node = {});

  /// The pre-refactor centralized implementation, kept as the equivalence
  /// oracle: run_step must match it bit for bit (events, per-rank counts,
  /// traffic), which the spmd tests assert at 1 and 8 threads.
  PipelineStepReport run_step_reference(
      const Mesh& mesh, const Surface& surface,
      std::span<const int> body_of_node = {}) const;

  /// The Exchange this pipeline's supersteps run over — exposed so callers
  /// (tests, benches, the experiment driver) can arm fault injection and
  /// tune the retry policy.
  Exchange& exchange() { return exchange_; }

 private:
  /// The SPMD step body; throws on transport/parse/rank-program failure
  /// (run_step catches and degrades).
  PipelineStepReport run_step_spmd(const Mesh& mesh, const Surface& surface,
                                   std::span<const int> body_of_node);

  PipelineConfig config_;
  McmlDtPartitioner partitioner_;
  // Snapshot-sequence identity captured at construction; every step's
  // snapshot is validated against it (see validate_snapshot_identity).
  ElementType element_type0_;
  idx_t num_nodes0_ = 0;
  idx_t num_elements0_ = 0;
  // SPMD state, reused across steps.
  NodalGraphCache graph_cache_;
  std::uint64_t halo_version_ = 0;  // views_ halo lists match this version
  std::vector<SubdomainView> views_;
  std::vector<Rank> ranks_;
  Exchange exchange_;
  AsyncExecutor executor_;
  // build_halo_providers(views_), rebuilt with the halo lists (same
  // halo_version_ key).
  std::vector<std::vector<idx_t>> halo_providers_;
  TreeInduceWorkspace induce_ws_;      // warm storage across step inductions
  std::vector<idx_t> contact_labels_;  // per-step gather scratch
  std::vector<idx_t> face_owner_;
};

// ---------------------------------------------------------------------------
// The same end-to-end step for the ML+RCB baseline.
// ---------------------------------------------------------------------------

struct MlRcbPipelineConfig {
  MlRcbConfig decomposition{};
  SearchConfig search{};
};

struct MlRcbStepReport : StepEvents {
  StepTraffic fe_exchange;
  StepTraffic coupling_exchange;  // mesh-to-mesh, both directions
  StepTraffic search_exchange;
  wgt_t upd_comm = 0;  // incremental-RCB redistribution this step
  /// Measured payload bytes (SPMD path only, like PipelineStepReport).
  wgt_t halo_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  wgt_t coupling_payload_bytes = 0;
  wgt_t box_allgather_bytes = 0;  // RCB subdomain-box allgather
  RankPhaseBreakdown phase;  // SPMD path only (descriptor_ms stays 0)
  /// Transport health of this step (see PipelineStepReport::health).
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
                const MlRcbPipelineConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const MlRcbPartitioner& partitioner() const { return partitioner_; }

  /// Advances the incremental RCB and executes the step SPMD. Must be
  /// called in snapshot order (the RCB update is stateful). Degrades to the
  /// centralized phases on transport/rank failure exactly like
  /// ContactPipeline::run_step — the RCB advance runs once either way.
  MlRcbStepReport run_step(const Mesh& mesh, const Surface& surface,
                           std::span<const int> body_of_node = {});

  /// The pre-refactor centralized step (also advances the RCB — drive a
  /// given pipeline instance through exactly one of run_step /
  /// run_step_reference; the equivalence tests compare two identically
  /// seeded instances).
  MlRcbStepReport run_step_reference(const Mesh& mesh, const Surface& surface,
                                     std::span<const int> body_of_node = {});

  /// See ContactPipeline::exchange().
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

  MlRcbPipelineConfig config_;
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
