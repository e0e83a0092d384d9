// Dependency-driven rank execution: the one executor for rank programs.
//
// A run is a sequence of rank phases. Each phase declares the ChannelMask
// it reads and the mask it writes, and a rank starts its next phase the
// moment *its own* inbox cells for the channels that phase reads have been
// committed. There is no global barrier inside a run:
//
//   * Publication is per (channel-group, source-rank) row: when a rank
//     finishes the last phase that writes into a group, its outbox row is
//     closed with an atomic release store and a shared epoch bump.
//   * A consuming rank validates and commits only its own inbox column —
//     per-cell frame/checksum validation with per-cell retry loops, then a
//     per-destination commit — so a rank consuming halo from 3 neighbors
//     does not wait for the other k-4 (pass an exact provider list to wait
//     on just those rows; without one the rank waits for all k rows).
//   * Quiescence is established by a termination detector, not a barrier:
//     per-group closed-row counters against the sent-row total, plus a
//     monotone epoch word waiters park on (bounded spin, then futex). A
//     group is quiescent for rank r once every row r consumes is closed;
//     the run is quiescent when every phase completed or an abort (rank
//     failure, retry-budget exhaustion) was published on the epoch.
//   * Slow serial sections overlap with phases that do not depend on them:
//     a group whose channels were posted before the run (the rank-0
//     descriptor broadcast, the migration label batch) is born closed, so
//     its k per-destination validations spread across the workers while
//     independent phases proceed.
//   * A phase that reads nothing is a plain superstep: body(rank) once per
//     rank, claimed by the workers. A run of only such phases (state
//     scatter, checkpoint restore) touches no channel and consumes no
//     Exchange superstep.
//   * Scheduling is claim-based with per-rank program order. Each phase has
//     an atomic claim cursor; a worker takes ranks 0, 1, ... of its current
//     phase in turn and moves on when the cursor runs out, so idle workers
//     pick up the remaining ranks and rank 0's heavy phases start first.
//     A claimed (rank r, phase p) runs only after rank r completed phase
//     p-1 (a per-rank done word, part of the readiness wait): rank r's
//     phases may run on different workers but never overlap or reorder,
//     even when r is not among its own providers. A rank whose body threw
//     never runs a later phase.
//
// Determinism: commit assembles each inbox in ascending source order at
// consumption time, so results never depend on arrival order. Group j of a
// run is one delivery, numbered superstep base+j, and per-cell validation
// keys injector decisions on (channel, superstep, attempt, src, dst); when
// an injector is armed, group validation additionally gates on completion
// of all prior phases, so detection counters, retry accounting, and budget
// exhaustion are identical at any thread count. Health accounting folds
// per group (see Exchange::async_fold_group); readiness waits are counted
// in PipelineHealth's readiness-stall totals.
//
// Failure semantics are BSP: every rank completes the earliest failing
// phase before the run unwinds (later-phase work is discarded), a single
// failing rank rethrows its original exception, several aggregate into
// ParallelGroupError ordered by rank id, and an exhausted retry budget
// aborts the step and throws TransportError.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/health.hpp"
#include "util/common.hpp"

namespace cpart {

class Exchange;

/// One or more rank programs were declared dead: either a body threw this
/// (the seeded death schedule's injection point), or the run's watchdog
/// expired on a rank that never published its rows. The step's state is
/// unusable — unlike TransportError/ParallelGroupError, DistributedSim
/// restores the last durable checkpoint and replays (see
/// runtime/checkpoint.hpp), and degrades the step only without one.
class RankDeathError : public std::runtime_error {
 public:
  explicit RankDeathError(std::vector<idx_t> ranks);

  /// The dead ranks, ascending.
  const std::vector<idx_t>& ranks() const { return ranks_; }

 private:
  std::vector<idx_t> ranks_;
};

/// One rank phase of a dependency-driven run.
struct AsyncPhase {
  /// The rank program: body(rank) for every rank in [0, k).
  std::function<void(idx_t)> body;
  /// Channels whose inbox cells this phase's bodies read. They are
  /// validated and committed per destination immediately before body(rank)
  /// runs, as soon as rank's cells are ready. Within one run a channel may
  /// be read by at most one phase, and its last writer must be an earlier
  /// phase (or the caller, before the run — such a group is born closed).
  ChannelMask reads = 0;
  /// Channels this phase's bodies post into (send/broadcast). A written
  /// channel read by a later phase of the same run commits inside the run;
  /// one read by no phase stays staged, and a later run reads it as a
  /// born-closed group.
  ChannelMask writes = 0;
  /// Optional per-rank wall-ms accumulator for the body (size k).
  std::span<double> ms_accum = {};
  /// Optional per-rank wall-ms accumulator for the readiness wait that
  /// precedes the body (size k). Zero when the inputs were already ready.
  std::span<double> wait_ms_accum = {};
  /// Optional per-rank wall-ms accumulator for the validation and commit of
  /// the rank's inbox column of `reads` (size k); untouched when the phase
  /// reads nothing.
  std::span<double> deliver_ms_accum = {};
  /// Optional exact provider topology for `reads`: providers[dst] lists
  /// every source rank that may post to dst on any channel of the mask.
  /// Lets dst proceed once just those rows are closed (neighbor-granular
  /// delivery). nullptr = any rank may post, wait for all k rows. Ignored
  /// while a fault injector is armed (validation then gates on full phase
  /// completion to keep the fault schedule thread-count independent).
  const std::vector<std::vector<idx_t>>* providers = nullptr;
};

/// Failure-detection knobs of one run.
struct AsyncRunOptions {
  /// Watchdog deadline: a readiness wait blocked longer than this declares
  /// every hung rank dead — their rows are force-closed (the exhaustion
  /// drain idiom, so no waiter deadlocks) and the run unwinds with
  /// RankDeathError instead of blocking forever. 0 disables the watchdog.
  double watchdog_deadline_ms = 0;
  /// Per-rank hang mask (size k, or empty for none): a rank with a nonzero
  /// entry never executes — no bodies, no row closes, no publications —
  /// simulating a vanished process. In-process rank programs cannot
  /// genuinely disappear mid-body, so death candidates are restricted to
  /// this injected set; a deployment over real processes would feed its
  /// liveness signal in here. Requires watchdog_deadline_ms > 0.
  std::span<const char> hung = {};
};

class AsyncExecutor {
 public:
  explicit AsyncExecutor(idx_t k);

  idx_t num_ranks() const { return k_; }

  /// Runs the phase sequence to quiescence in one pool dispatch.
  /// W = min(pool size, hardware concurrency, k) workers claim ranks phase
  /// by phase: each takes the next unclaimed rank of its current phase and
  /// advances to phase p+1 once phase p's ranks are all claimed. A claimed
  /// rank waits only for its own phase p-1 and its input rows. Consumes
  /// one Exchange superstep per group (a phase with non-zero reads), in
  /// phase order; phases without reads leave the exchange untouched.
  void run(std::span<const AsyncPhase> phases, Exchange& exchange,
           const AsyncRunOptions& options = {}) const;

 private:
  idx_t k_;
};

}  // namespace cpart
