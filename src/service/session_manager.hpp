// Multi-tenant simulation service: session lifecycle over the shared pool.
//
// A session is one DistributedSim plus everything that scopes it: a
// SessionContext (seeds, checkpoint subdirectory, fault injector, health
// accumulator), a TaskArena (its fair share of the process's WorkerPool),
// and its step products. The manager owns admission control — a bounded
// number of resident sessions and a resident-bytes budget; sessions beyond
// it queue (or are rejected) and are admitted as residents leave — and the
// lifecycle verbs: create, step, suspend, resume, destroy.
//
// Scenes: the ImpactSim (mesh, topology, body arrays, open-face mask) is
// immutable, so sessions of equal ImpactSimConfig share one. The manager
// caches a weak reference per distinct config; the scene is built when the
// first session of its config reaches the head of admission and freed
// with its last session. The budget charges a scene's heap bytes once,
// while at least one resident session holds it.
//
// Execution model: step() queues work on the session's arena and returns;
// pool workers execute the steps. Each session runs one step per queued
// arena job and requeues itself for the next, so the pool's round-robin
// scheduler re-decides between every step — a session with a thousand
// queued steps cannot monopolize the service, and a large
// session's long step occupies exactly one worker (its inner dispatches
// run inline, see below). Lifecycle calls are driver-thread operations:
// call them from one thread; only the step execution itself is concurrent.
//
// Bit-identity: a session's step jobs run on pool workers, so in_worker()
// is true for their entire body and every dispatch the sim issues runs
// inline at width 1. By the width-independence invariant
// (docs/parallelism.md) that is bit-identical to running the same sim
// alone at any thread count — per-session results do not depend on the
// pool size, co-residents, or the scheduler's interleaving. Fault
// schedules are per-session pure functions of (service seed, session key)
// via SessionContext, so they replay identically too.
//
// Suspend/resume ride the rank-death recovery machinery: suspend commits a
// durable checkpoint at the current step and releases both the rank states
// and the arena; resume re-admits under the same budget, rebuilds the
// arena, and restores through DistributedSim::resume — bit-identical to
// never having suspended.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/distributed_sim.hpp"
#include "parallel/task_arena.hpp"
#include "parallel/worker_pool.hpp"
#include "runtime/session_context.hpp"
#include "service/stat_registry.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {

struct SessionConfig {
  std::string name;
  ImpactSimConfig sim{};
  /// Per-sim knobs. checkpoint_dir is overridden with the session's
  /// private subdirectory (SessionContext::checkpoint_dir) whenever the
  /// service has a checkpoint root.
  DistributedSimConfig dist{};
  /// Arm per-session fault injection: `faults` gives the schedule shape;
  /// its seed is replaced by the session's derived fault domain.
  bool inject_faults = false;
  FaultConfig faults{};
};

struct ServiceConfig {
  /// Service root seed; every session derives its streams from it.
  std::uint64_t seed = 0;
  /// Checkpoint root directory; sessions get `<root>/<name>`. Empty
  /// disables durability (sessions cannot suspend).
  std::string checkpoint_root;
  /// Admission control: bounded resident sessions ...
  idx_t max_resident_sessions = 64;
  /// ... and a resident-bytes budget over the sims' rank-state footprint
  /// plus each resident scene, once (0 = unmetered). A session that would
  /// not fit waits in the pending queue. The first session is always
  /// admitted even when it alone exceeds the budget, so an oversized
  /// session reports its true cost instead of starving forever.
  std::size_t resident_bytes_budget = 0;
  /// Full service: queue the create (admit later, FIFO) or reject it.
  bool queue_when_full = true;
};

enum class SessionState { kPending, kResident, kSuspended };

const char* session_state_name(SessionState state);

class SessionManager {
 public:
  SessionManager(WorkerPool& pool, ServiceConfig config);
  /// Drains and destroys every session.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a session and tries to admit it. False when the service is
  /// full and queue_when_full is off (the session is not registered).
  bool create(const SessionConfig& config);

  /// Queues `count` simulation steps. Snapshot indices continue from the
  /// session's cursor; steps execute on pool workers, one arena job per
  /// step. Resident sessions only.
  void step(const std::string& name, idx_t count = 1);

  /// Blocks until the session has no queued or executing steps.
  void wait(const std::string& name);
  void wait_all();

  /// Durable commit + release of the session's resident state and arena.
  /// False (still resident) when the commit fails or the service has no
  /// checkpoint root. Frees budget, so a pending session may be admitted.
  bool suspend(const std::string& name);

  /// Re-admits a suspended session under the same budget rules and
  /// restores it from its suspend checkpoint. False when admission has no
  /// room (try again after a suspend/destroy) or the restore fails.
  bool resume(const std::string& name);

  /// Drains (if resident) and removes the session. Its health is retired
  /// into the service totals; checkpoint files stay on disk.
  void destroy(const std::string& name);

  SessionState state(const std::string& name) const;

  /// This session's completed step reports, in step order, cleared from
  /// the session. Rethrows the session's stored error, if any.
  std::vector<DistributedStepReport> take_reports(const std::string& name);

  const SessionContext& context(const std::string& name) const;

  /// The resident sim (nullptr while pending/suspended) — for oracle
  /// comparisons by tests and benches.
  DistributedSim* sim(const std::string& name);

  /// The session's scene, shared with every live session of an equal
  /// ImpactSimConfig. Null while the session waits behind the head of the
  /// admission queue (the scene is acquired when admission first weighs
  /// the session).
  std::shared_ptr<const ImpactSim> scene(const std::string& name) const;
  /// Scenes built over the manager's life. A config builds again only
  /// after every session holding its previous scene is gone.
  idx_t scenes_built() const { return scenes_built_; }

  idx_t resident_sessions() const;
  idx_t pending_sessions() const;
  idx_t suspended_sessions() const;
  /// Resident-bytes currently accounted against the budget. Exactly what
  /// admission added for each resident session plus each scene a resident
  /// session holds, once, so it returns to zero when every session is
  /// suspended or destroyed (leak check).
  std::size_t resident_bytes() const;

  StatRegistry& stats() { return registry_; }
  /// Service totals: live sessions' health merged with retired sessions',
  /// plus latency percentiles over every recorded step.
  ServiceStats service_stats() const;
  SchedulerStats scheduler_stats() const { return pool_.stats(); }

 private:
  struct Session {
    SessionConfig config;
    SessionContext context;
    SessionState state = SessionState::kPending;
    std::shared_ptr<const ImpactSim> sim;  // the shared scene; outlives dist
    std::unique_ptr<TaskArena> arena;
    std::unique_ptr<DistributedSim> dist;
    std::size_t accounted_bytes = 0;  // dist's charge; the scene's is apart
    // Step-pump state, guarded by m (touched by pool workers).
    std::mutex m;
    idx_t steps_requested = 0;
    idx_t next_snapshot = 0;
    bool job_active = false;
    std::vector<DistributedStepReport> reports;
    std::exception_ptr error;

    Session(SessionConfig cfg, SessionContext ctx)
        : config(std::move(cfg)), context(std::move(ctx)) {}
  };

  std::shared_ptr<Session> find(const std::string& name) const;

  /// Admits pending sessions FIFO while the resident count and byte
  /// budget allow: acquires the scene (for the size estimate), then builds
  /// the arena and the DistributedSim, and charges the actual footprint.
  void admit_pending();
  /// The scene of `config`: the cached one while a session holds it,
  /// otherwise a new one.
  std::shared_ptr<const ImpactSim> acquire_scene(const ImpactSimConfig& config);
  /// True when a resident session holds `scene` (its bytes are charged).
  bool scene_charged(const ImpactSim& scene) const;
  /// Admission estimate of session s: its rank states, plus its scene when
  /// no resident session has charged it yet.
  std::size_t admission_estimate(const Session& s) const;
  /// True when a session of `estimate` bytes fits right now.
  bool admission_fits(std::size_t estimate) const;
  /// Builds a queued session's DistributedSim, then mark_resident().
  void make_resident(Session& s);
  /// Opens the session's arena, charges its actual footprint (and its
  /// scene, if uncharged) to the budget and marks it resident (admission
  /// and resume()).
  void mark_resident(Session& s);
  /// Returns the charges of a session that has just left residency (its
  /// state changed or it left sessions_): its own bytes, and its scene's
  /// once no resident session holds the scene.
  void release_charges(Session& s);

  /// One queued step: runs it, records latency/health/report, requeues
  /// itself while more steps are requested.
  void pump(const std::shared_ptr<Session>& s);

  WorkerPool& pool_;
  ServiceConfig config_;
  StatRegistry registry_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  // One weak reference per distinct live scene; expired ones are pruned
  // when the next scene is acquired.
  std::vector<std::weak_ptr<const ImpactSim>> scenes_;
  idx_t scenes_built_ = 0;
  std::deque<std::string> pending_;  // FIFO admission queue
  std::uint64_t next_session_key_ = 0;
  std::size_t resident_bytes_ = 0;
  // Retired (destroyed) sessions' contribution to service totals.
  idx_t retired_sessions_ = 0;
  wgt_t retired_steps_ = 0;
  PipelineHealth retired_health_{};
};

}  // namespace cpart
