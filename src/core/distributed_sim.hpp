// Rank-owned distributed contact simulation with live element migration.
//
// This is the MCML+DT time step the benches, the service and perfbench run:
// with repartition_period = 0 the mesh partition stays fixed and only the
// descriptor tree is re-induced and broadcast every snapshot, as in the
// paper. No central snapshot is on the step path. Each rank holds a
// SubdomainState — the authoritative positions and contact-hit accumulators
// of exactly the nodes it owns, plus a ghost layer (the element closure of
// its owned nodes) refreshed by halo exchange — and derives everything else
// locally against the sim's immutable MeshTopology:
//   A. kinematics + halo — each rank advances its owned nodes with the
//      closed-form ImpactSim kinematics and posts boundary positions to the
//      ranks tracking them (the halo carries the *authoritative* values;
//      receivers never recompute ghosts);
//   B. local surface extraction — each rank scans its tracked elements
//      with ImpactSim::for_each_contact_face (the rule snapshots use too),
//      marks its owned contact nodes, and emits a FaceRecord for every face
//      it is the majority owner of; owned contact points stream to rank 0;
//   C. descriptor induction — the driver (on behalf of rank 0) induces this
//      step's subdomain descriptors from the gathered contact points —
//      parallel subtree induction on the whole pool, warm-started from last
//      step's recycled tree storage — and broadcasts the encoded tree as
//      one shared immutable buffer (plus, on migration steps, one
//      delta-coded blob of the changed labels of the new repartition);
//   D. global search — the ranks share one tree decoded from the broadcast
//      wire (the first rank to hold a validated buffer decodes it; rank 0
//      keeps the tree it induced) and each ships its owned face records to
//      the candidate ranks the tree names;
//   E. local search — owned contact nodes vs owned + received records;
//      events charge the per-node hit accumulators, which each rank also
//      writes into the node-ordered hits that become the next step's
//      start-of-step snapshot. On migration steps each
//      rank then computes its outgoing set from the new labels and ships
//      node state (position + hits) and element records over the exchange's
//      migration channels;
//   F. migration commit — receivers splice the migrated state, validate
//      element records against the immutable topology, and every rank a
//      label change touches updates its local numbering and views to the
//      new labels, carrying its owned state across. A rank no change
//      touches (no changed node in its local set, none arriving) keeps its
//      views as they are: they read the owners of the local set alone.
//
// The ownership labels are one immutable map per label epoch, shared by
// the driver and every rank. A migration step decodes the label broadcast
// once into the next epoch's map, which each rank switches to in E and the
// driver adopts after the step; a degraded step starts from the old map.
//
// Supersteps A+B (plus rank 0's gather of the contact points) and D+E+F
// each run as one dependency-driven AsyncExecutor::run: each phase declares
// the channels it reads, and a rank enters its next phase the moment its
// own inbox cells commit — B waits only on its halo neighbors' rows, and
// the descriptor/label broadcast group is born closed so its per-rank wire
// validations spread across the workers while D proceeds. Rank 0's
// induction C runs on the calling thread between the two runs, and the
// migration commit F consumes the migration channels as the last phase of
// the second run: 4 deliveries per step, 5 with migration.
//
// This is the library's one step body. A degraded step (transport retry
// exhaustion, a rejected wire, a failing rank program, or a rank death with
// no usable checkpoint) reloads the start-of-step snapshot and runs the
// same body again with the fault injector disarmed. A bug in the rank body
// is therefore not masked: it recurs in the rerun and surfaces as that
// rerun's exception. The centralized reference the tests and bench_spmd
// compare against lives in tests/support, outside the library.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "contact/local_search.hpp"
#include "core/mcml_dt.hpp"
#include "mesh/mesh_topology.hpp"
#include "partition/partitioner.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/exchange.hpp"
#include "runtime/subdomain_state.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

/// Contact-search knobs of the step.
struct SearchConfig {
  /// Global-search inflation of surface-element boxes. Must be at least the
  /// local tolerance for the step to be exact (checked by validate()).
  real_t search_margin = 0.1;
  /// Local-search proximity tolerance.
  real_t contact_tolerance = 0.1;
  /// Report every face within tolerance (false) or only the closest per
  /// node (true).
  bool closest_only = true;

  /// Throws InputError unless contact_tolerance > 0 and search_margin >=
  /// contact_tolerance (`who` prefixes the message).
  void validate(const char* who) const;

  /// The LocalSearchOptions these knobs describe.
  LocalSearchOptions local_options(std::span<const int> body_of_node) const;
};

/// The contact events of one step.
struct StepEvents {
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  std::vector<ContactEvent> events;  // merged, sorted by (node, distance)
  /// Contact events found by each processor (sums to contact_events).
  std::vector<idx_t> events_per_processor;
};

/// Per-rank wall milliseconds of each SPMD phase of the last run_step,
/// filled from the executor's per-body and per-wait timers (on a degraded
/// step, those of the rerun). Each wait is the readiness wait before a
/// phase that reads a channel: time the rank spent blocked until the inbox
/// rows it reads were closed (0 for already-ready inputs). Superstep
/// letters as in this file's header comment:
///   descriptor_ms[0]    the driver's descriptor induction + encode (and the
///                       label encode on migration steps); 0 on other ranks;
///   halo_ms             A kinematics + halo post, B surface extraction +
///                       contact-point post, and rank 0's gather;
///   ship_ms             D descriptor receipt (the one shared decode, or
///                       the wait for it) + face shipping;
///   search_ms           E local search (+ migration sends);
///   migrate_ms          F migration commit;
///   deliver_ms          validation and commit of the rank's inbox columns
///                       ahead of B, the gather, D, E and F (outside the
///                       bodies above);
///   ship_wait_ms        B's wait on its halo neighbors;
///   descriptor_wait_ms  the gather's wait on the contact points, plus D's
///                       wait on the descriptor/label broadcast;
///   search_wait_ms      E's wait on shipped faces, F's on migration.
struct RankPhaseBreakdown {
  std::vector<double> descriptor_ms;
  std::vector<double> halo_ms;
  std::vector<double> ship_ms;
  std::vector<double> search_ms;
  std::vector<double> migrate_ms;
  std::vector<double> deliver_ms;
  std::vector<double> descriptor_wait_ms;
  std::vector<double> ship_wait_ms;
  std::vector<double> search_wait_ms;

  /// Sizes every array to k ranks, all zero.
  void reset(idx_t k);
};

struct DistributedSimConfig {
  McmlDtConfig decomposition{};
  SearchConfig search{};
  /// Repartition (and migrate state) every `period` steps; 0 disables. The
  /// first eligible step is step index `period` (never the first step run).
  idx_t repartition_period = 0;
  /// Repartitioning knobs; `k` is overridden with decomposition.k and
  /// `seed` is offset by the snapshot index so every migration step draws
  /// an independent (but reproducible) refinement sequence.
  RepartitionOptions repartition{};
  /// Durable checkpoint cadence: commit a checkpoint after every `period`
  /// completed steps (plus a baseline before the first step); 0 disables
  /// checkpointing, in which case a detected rank death degrades the step
  /// (a fault-free rerun) instead of restore+replay. Requires
  /// checkpoint_dir when > 0.
  idx_t checkpoint_period = 0;
  /// Directory holding the checkpoint blobs and manifest (created on first
  /// use; see CheckpointStore).
  std::string checkpoint_dir;
  /// Commit budget/backoff for checkpoint writes. An exhausted budget never
  /// destroys the previous checkpoint (keep-last-good): the sim counts a
  /// checkpoint_write_failure and continues unprotected until the next
  /// period boundary.
  RetryPolicy checkpoint_retry{};
};

struct DistributedStepReport : StepEvents {
  idx_t step = 0;
  bool migrated = false;  // this step ran the repartition+migration protocol
  StepTraffic fe_exchange;         // halo (superstep A)
  StepTraffic coupling_exchange;   // contact-point gather to rank 0 (B)
  StepTraffic search_exchange;     // face shipping (D)
  StepTraffic migration_exchange;  // node+element migration (E, if migrated)
  wgt_t descriptor_tree_nodes = 0;
  wgt_t descriptor_broadcast_bytes = 0;
  wgt_t label_broadcast_bytes = 0;  // repartition label updates (C)
  wgt_t halo_payload_bytes = 0;
  wgt_t coupling_payload_bytes = 0;
  wgt_t face_payload_bytes = 0;
  /// Satellite migration accounting: what the repartition actually moved.
  wgt_t migration_payload_bytes = 0;
  idx_t repart_moved_nodes = 0;
  idx_t repart_moved_elements = 0;
  /// Ranks whose local numbering and views the migration commit updated:
  /// those a label change touches (0 when no label changed).
  idx_t migration_ranks_rebuilt = 0;
  /// True when a hierarchical repartition escalated past the group level:
  /// some rank group breached kCrossGroupThreshold and one global
  /// repartition ran instead of the group-local ones. Always false with the
  /// hierarchy disabled.
  bool repart_cross_group = false;
  /// Driver time in compute_repartition (re-weighting the cached
  /// repartition graph plus the k-way repartition); 0 on steps that do not
  /// migrate.
  double repartition_ms = 0;
  /// FNV-1a over the end-of-step ownership map and the owner-authoritative
  /// contact-hit accumulators — the cheap state oracle.
  std::uint64_t ownership_hash = 0;
  /// Rank-death recovery accounting: `recovered` is set when at least one
  /// death was detected and repaired while producing this report, and
  /// `replayed_steps` counts previously completed steps re-executed from
  /// the restored checkpoint. checkpoint_ms covers encoding + durable
  /// commit; recovery_ms covers restore + replay (the step's MTTR share).
  bool recovered = false;
  idx_t replayed_steps = 0;
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  /// Per-rank phase timings (see RankPhaseBreakdown for how supersteps A-F
  /// map onto its arrays); k entries each, on degraded steps too.
  RankPhaseBreakdown phase;
  PipelineHealth health;
};

class DistributedSim {
 public:
  /// Decomposes the snapshot-0 mesh with MCML+DT and splits the result into
  /// per-rank SubdomainStates. `sim` must outlive the DistributedSim.
  DistributedSim(const ImpactSim& sim, const DistributedSimConfig& config);

  idx_t k() const { return config_.decomposition.k; }
  const DistributedSimConfig& config() const { return config_; }
  /// The sim's topology: the immutable substrate the rank states index.
  const MeshTopology& topology() const { return sim_->topology(); }
  const std::vector<SubdomainState>& states() const { return states_; }

  /// Number of rank groups (1 when the hierarchy is disabled). Rank r is a
  /// part id, so group g owns the contiguous rank range
  /// [parts_begin(g, k, groups), parts_begin(g+1, k, groups)).
  idx_t groups() const { return partitioner_.groups(); }

  /// Executes snapshot step `s` SPMD (k rank programs on the global
  /// ThreadPool). Steps must be run in the order the instance is driven —
  /// the migration cadence counts steps run, not snapshot indices. Degrades
  /// on transport/rank failure (see rerun_step_degraded), with
  /// health.degraded_steps == 1 on the report.
  ///
  /// Rank-death tolerance: with checkpoint_period > 0 the sim keeps a
  /// durable checkpoint (runtime/checkpoint.hpp) and, when the injected
  /// death/hang schedule kills a rank mid-step, restores every rank from
  /// the last checkpoint and deterministically replays the lost steps —
  /// the returned report (and all later ones) is bit-identical to a
  /// fault-free run. Replay cannot re-fire the original fault: the
  /// injector keys rank faults on the per-step incarnation, which the sim
  /// bumps on every re-execution.
  DistributedStepReport run_step(idx_t s);

  /// The exchange the SPMD supersteps run over — for fault injection and
  /// retry-policy tuning by tests/benches.
  Exchange& exchange() { return exchange_; }

  /// Routes checkpoint I/O through `shim` (fault injection: short writes,
  /// ENOSPC, read bit-flips — see FaultyFileShim). Must be called before
  /// the first run_step; `shim` must outlive the sim.
  void set_checkpoint_shim(FileShim& shim) { checkpoint_shim_ = &shim; }

  /// Suspends the session: commits a durable checkpoint at the current
  /// step (a zero-replay restore point) and releases the per-rank states —
  /// the dominant resident cost — and the cached repartition graph, so a
  /// suspended sim keeps only topology and configuration in memory.
  /// Requires checkpoint_dir; must be called between steps. False (with
  /// everything still resident and runnable) when the commit exhausts its
  /// retry budget — keep-last-good means a failed suspend never loses
  /// state. Idempotent. `backoff_ms_accum`, when given, accumulates the
  /// commit's retry backoff.
  bool suspend(double* backoff_ms_accum = nullptr);

  /// Resumes a suspended session: restores every rank from the suspend
  /// checkpoint through exactly the rank-death recovery path (load the rank
  /// states from the checkpointed ownership/positions/hits, roll the step
  /// and superstep cursors) — so a resumed run is bit-identical to one
  /// that never suspended. False (still suspended) when the checkpoint
  /// cannot be loaded or fails validation. Idempotent.
  bool resume();

  bool suspended() const { return suspended_; }

  /// Heap bytes held by the per-rank states right now, by capacity (0
  /// while suspended): every buffer a SubdomainState keeps — local
  /// numbering and views, per-node state, per-step products and search
  /// scratch — plus each distinct owner map and descriptor tree the states
  /// share, once. What a service's resident-bytes budget meters.
  std::size_t resident_bytes() const;

  /// Admission-control estimate of resident_bytes() for a not-yet-built
  /// sim: the one shared owner map plus a model of the local sets
  /// (owned nodes plus a ghost layer that grows as the subdomains' surface),
  /// of the per-step products and of the two descriptor trees. An upper
  /// bound on resident_bytes() for the impact scenes at any k, within a
  /// small factor of it (see
  /// DistributedSim.ResidentEstimateBoundsMeasuredBytes).
  static std::size_t estimate_resident_bytes(idx_t num_nodes,
                                             idx_t num_elements, idx_t k);

  /// A copy of the ownership map the ranks share. Throws while suspended.
  std::vector<idx_t> ownership_map() const;

  /// The owner-authoritative per-node contact-hit accumulators. Throws
  /// while suspended.
  std::vector<wgt_t> gather_contact_hits() const;

  /// The start-of-step snapshot the next step degrades from (empty while
  /// suspended): the ownership map every rank views, and node-ordered hits
  /// kept equal to gather_contact_hits() between steps.
  std::span<const idx_t> start_owner() const { return *owner_; }
  std::span<const wgt_t> start_hits() const { return start_hits_; }

 private:
  bool is_migration_step() const {
    return config_.repartition_period > 0 && steps_run_ > 0 &&
           steps_run_ % config_.repartition_period == 0;
  }

  /// Runs run_step_spmd, degrading on exactly the failure classes the
  /// robustness layer owns: transport retry exhaustion (TransportError),
  /// rejected descriptor wires (TreeParseError), and failing rank programs
  /// (ParallelGroupError). Anything else (config errors, logic bugs, rank
  /// deaths) propagates — degrading would mask it. On failure, `health`
  /// receives the step's counters (plus what the transport could not
  /// record itself) with degraded_steps == 1, the exchange is reset for the
  /// fallback, and the result is false.
  bool try_spmd_step(idx_t s, bool migrate, DistributedStepReport& report,
                     PipelineHealth& health);

  /// One attempt at snapshot step `s`: the SPMD path with the degraded
  /// fallback — exactly the pre-recovery run_step body, minus the
  /// step-counter bump. Throws RankDeathError when a rank dies (injected
  /// death or watchdog-declared hang); every other failure completes the
  /// step degraded as before.
  void run_step_attempt(idx_t s, DistributedStepReport& report);

  /// The SPMD supersteps; throws on transport/parse/rank failure.
  void run_step_spmd(idx_t s, bool migrate, DistributedStepReport& report);

  /// FNV-1a over the immutable run parameters a checkpoint must have been
  /// written under to be restorable into this instance.
  std::uint64_t config_hash() const;

  /// The durable state as of now: ownership labels and hit accumulators
  /// (the start-of-step snapshot), owner-authoritative positions, the step
  /// counter, and the exchange superstep cursor (so replayed deliveries
  /// key the exact transport fault schedule).
  CheckpointData make_checkpoint_data() const;

  /// Restores every rank from the last durable checkpoint: loads the rank
  /// states from the checkpointed state, rolls back steps_run_
  /// and the exchange superstep cursor, and rewinds the replay cursor to
  /// the start of step_history_. Rank-death recovery and resume() both
  /// adopt a checkpoint through here. False when no usable checkpoint
  /// exists (checkpointing disabled, or the store has no loadable
  /// manifest).
  bool restore_from_checkpoint();

  /// Commits make_checkpoint_data() to the store, creating the store on
  /// first use (requires checkpoint_dir): the baseline, period and suspend
  /// commits. Counts the commit or its failure and its retry backoff in
  /// `health`, and its wall time in `checkpoint_ms`. False when the retry
  /// budget ran out (the previous checkpoint survives).
  bool commit_checkpoint(PipelineHealth& health, double& checkpoint_ms);

  /// Computes this step's repartition from the current labels and the
  /// contact mask (seed: repartition.seed + s).
  /// Hierarchical configurations repartition group-locally by default and
  /// escalate cross-group only on threshold breach (report.repart_cross_group
  /// says which); report.repartition_ms gets the call's wall time. Runs on
  /// the driver thread — kway refinement dispatches pool work, so it must
  /// never run inside a rank program.
  std::vector<idx_t> compute_repartition(idx_t s, std::span<const idx_t> owner,
                                         std::span<const char> is_contact,
                                         DistributedStepReport& report);

  /// The degraded fallback: reloads the start-of-step snapshot, clears the
  /// death and hang masks, and reruns run_step_spmd into a fresh `report`
  /// with the injector disarmed. The injector and the superstep cursor the
  /// failed attempt left are restored afterwards, so the rerun draws no
  /// fault decisions. A throwing rerun propagates: there is no second
  /// fallback.
  void rerun_step_degraded(idx_t s, DistributedStepReport& report);

  /// The one way rank states are built from global state: construction,
  /// degraded steps, and restore_from_checkpoint.
  /// `owner` becomes the shared map of a new label epoch. Every rank runs
  /// SubdomainState::init on it in one channel-free executor phase (it
  /// consumes no exchange superstep), takes its positions from
  /// `position_of` and its owned hits from `hits`, and writes its halo
  /// providers; `hits` then become the start-of-step hits.
  void load_states(std::vector<idx_t> owner, std::vector<wgt_t> hits,
                   const std::function<Vec3(idx_t)>& position_of);

  std::uint64_t ownership_hash(std::span<const idx_t> owner,
                               std::span<const wgt_t> hits) const;

  const ImpactSim* sim_;
  DistributedSimConfig config_;
  Partitioner partitioner_;  // the unified repartition entry (owns hierarchy)
  std::vector<SubdomainState> states_;
  Exchange exchange_;
  AsyncExecutor async_;
  idx_t steps_run_ = 0;
  // Driver scratch.
  TreeInduceWorkspace induce_ws_;  // warm storage across per-step inductions
  // Rank 0's contact-point gather (place_contact_points), reused across
  // steps and released by suspend().
  std::vector<idx_t> gather_slot_;
  std::vector<Vec3> gather_points_;
  std::vector<idx_t> gather_labels_;
  // halo_providers_[r]: the ranks that post halo nodes to r, which are the
  // distinct owners of r's ghosts, ascending. Rank r writes its own entry
  // wherever its views change: in load_states, and in phase F after
  // apply_relabels. No phase of that run reads it.
  std::vector<std::vector<idx_t>> halo_providers_;
  std::vector<char> contact_mask_;
  // The two-phase graph over the immutable topology, built on the first
  // repartition and re-weighted for each later contact mask (its structure
  // never changes). Released by suspend().
  std::optional<CsrGraph> two_phase_graph_;
  // The tree rank 0 induced this step (its state shares it), kept so the
  // next induction can recycle its storage.
  std::shared_ptr<SubdomainDescriptors> induced_descriptors_;
  // Start-of-step recovery snapshot. owner_: the label epoch's map, which
  // every rank's node_owner views between steps (empty while suspended);
  // load_states makes a new one, a successful step adopts the one the
  // ranks switched to. start_hits_: the node-ordered hits, which phase E
  // writes into end_hits_ (swapped in after a successful step).
  std::shared_ptr<const std::vector<idx_t>> owner_;
  std::vector<wgt_t> start_hits_;
  std::vector<wgt_t> end_hits_;
  // Rank-death tolerance (see run_step). step_history_ records the snapshot
  // ids of every step since the last durable checkpoint; replay_pos_ is its
  // completed prefix, rewound to 0 by a restore. step_attempts_ counts
  // executions per logical step — the incarnation the injector keys rank
  // faults on, so a replayed step never re-fires its kill.
  FileShim* checkpoint_shim_ = &FileShim::real();
  std::unique_ptr<CheckpointStore> store_;  // created by commit_checkpoint
  std::vector<idx_t> step_history_;
  std::size_t replay_pos_ = 0;
  std::vector<idx_t> step_attempts_;
  // This attempt's injected rank faults (sized k while an injector with a
  // rank-fault schedule is armed; consulted by run_step_spmd).
  std::vector<char> death_mask_;
  std::vector<char> hang_mask_;
  bool any_death_ = false;
  bool any_hang_ = false;
  bool suspended_ = false;  // see suspend()/resume()
};

}  // namespace cpart
