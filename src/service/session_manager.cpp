#include "service/session_manager.hpp"

#include <algorithm>
#include <utility>

#include "util/common.hpp"
#include "util/timer.hpp"

namespace cpart {

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kPending: return "pending";
    case SessionState::kResident: return "resident";
    case SessionState::kSuspended: return "suspended";
  }
  return "?";
}

SessionManager::SessionManager(WorkerPool& pool, ServiceConfig config)
    : pool_(pool), config_(std::move(config)) {
  require(config_.max_resident_sessions > 0,
          "SessionManager: max_resident_sessions must be positive");
}

SessionManager::~SessionManager() {
  // Drain in-flight steps before tearing down arenas; errors stay stored in
  // the sessions and die with them.
  for (auto& [name, s] : sessions_) {
    if (s->arena) s->arena->drain();
  }
}

std::shared_ptr<SessionManager::Session> SessionManager::find(
    const std::string& name) const {
  const auto it = sessions_.find(name);
  require(it != sessions_.end(), "SessionManager: unknown session " + name);
  return it->second;
}

std::shared_ptr<const ImpactSim> SessionManager::acquire_scene(
    const ImpactSimConfig& config) {
  std::erase_if(scenes_, [](const auto& w) { return w.expired(); });
  for (const auto& w : scenes_) {
    std::shared_ptr<const ImpactSim> scene = w.lock();
    if (scene && scene->config() == config) return scene;
  }
  std::shared_ptr<const ImpactSim> scene = std::make_shared<ImpactSim>(config);
  scenes_.push_back(scene);
  ++scenes_built_;
  return scene;
}

bool SessionManager::scene_charged(const ImpactSim& scene) const {
  return std::any_of(sessions_.begin(), sessions_.end(), [&](auto& e) {
    return e.second->state == SessionState::kResident &&
           e.second->sim.get() == &scene;
  });
}

std::size_t SessionManager::admission_estimate(const Session& s) const {
  const Mesh& mesh = s.sim->initial_mesh();
  std::size_t estimate = DistributedSim::estimate_resident_bytes(
      mesh.num_nodes(), mesh.num_elements(), s.config.dist.decomposition.k);
  if (!scene_charged(*s.sim)) estimate += s.sim->heap_bytes();
  return estimate;
}

bool SessionManager::admission_fits(std::size_t estimate) const {
  const idx_t resident =
      to_idx(std::count_if(sessions_.begin(), sessions_.end(), [](auto& e) {
        return e.second->state == SessionState::kResident;
      }));
  if (resident >= config_.max_resident_sessions) return false;
  if (config_.resident_bytes_budget == 0) return true;
  // First-session override: an oversized sim may run alone.
  if (resident == 0) return true;
  return resident_bytes_ + estimate <= config_.resident_bytes_budget;
}

void SessionManager::make_resident(Session& s) {
  // Only admit_pending calls this, for a queued session: it has a sim but
  // no DistributedSim yet.
  DistributedSimConfig dc = s.config.dist;
  if (!s.context.checkpoint_dir().empty())
    dc.checkpoint_dir = s.context.checkpoint_dir();
  s.dist = std::make_unique<DistributedSim>(*s.sim, dc);
  if (s.config.inject_faults) {
    // The schedule is a pure function of the session's fault seed.
    s.dist->exchange().set_fault_injector(
        &s.context.arm_faults(s.config.faults));
  }
  mark_resident(s);
}

void SessionManager::mark_resident(Session& s) {
  s.arena = std::make_unique<TaskArena>(pool_);
  if (!scene_charged(*s.sim)) resident_bytes_ += s.sim->heap_bytes();
  s.accounted_bytes = s.dist->resident_bytes();
  resident_bytes_ += s.accounted_bytes;
  s.state = SessionState::kResident;
}

void SessionManager::release_charges(Session& s) {
  std::size_t released = std::exchange(s.accounted_bytes, 0);
  if (!scene_charged(*s.sim)) released += s.sim->heap_bytes();
  require(resident_bytes_ >= released,
          "SessionManager: resident-bytes accounting underflow");
  resident_bytes_ -= released;
}

void SessionManager::admit_pending() {
  while (!pending_.empty()) {
    const auto it = sessions_.find(pending_.front());
    if (it == sessions_.end()) {  // destroyed while pending
      pending_.pop_front();
      continue;
    }
    Session& s = *it->second;
    // Acquire the scene first: the admission estimate needs the mesh
    // dimensions and, if no resident session holds the scene yet, its bytes.
    if (!s.sim) s.sim = acquire_scene(s.config.sim);
    if (!admission_fits(admission_estimate(s))) return;  // FIFO: head blocks
    pending_.pop_front();
    make_resident(s);
  }
}

bool SessionManager::create(const SessionConfig& config) {
  require(!config.name.empty(), "SessionManager: session needs a name");
  require(sessions_.find(config.name) == sessions_.end(),
          "SessionManager: duplicate session " + config.name);
  SessionContextConfig ctx;
  ctx.name = config.name;
  ctx.service_seed = config_.seed;
  ctx.session_key = next_session_key_;
  ctx.checkpoint_root = config_.checkpoint_root;
  auto s = std::make_shared<Session>(config, SessionContext(ctx));
  // The key is burned even on rejection so a retry derives the same
  // schedule only if it lands in the same slot — admission order is part of
  // the service seed contract, documented in docs/service.md.
  ++next_session_key_;
  sessions_.emplace(config.name, s);
  pending_.push_back(config.name);
  admit_pending();
  if (s->state == SessionState::kPending && !config_.queue_when_full) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), config.name));
    sessions_.erase(config.name);
    return false;
  }
  return true;
}

void SessionManager::pump(const std::shared_ptr<Session>& s) {
  idx_t snapshot;
  {
    std::lock_guard<std::mutex> lock(s->m);
    if (s->steps_requested == 0 || s->error) {
      s->job_active = false;
      return;
    }
    snapshot = s->next_snapshot;
  }
  Timer timer;
  DistributedStepReport report;
  std::exception_ptr error;
  try {
    report = s->dist->run_step(snapshot);
  } catch (...) {
    error = std::current_exception();
  }
  const double latency_ms = timer.milliseconds();
  bool more = false;
  {
    std::lock_guard<std::mutex> lock(s->m);
    if (error) {
      s->error = error;
      s->steps_requested = 0;
    } else {
      registry_.record_step(s->config.name, latency_ms);
      s->context.record_step(report.health);
      s->reports.push_back(std::move(report));
      ++s->next_snapshot;
      --s->steps_requested;
      more = s->steps_requested > 0;
    }
    s->job_active = more;
  }
  // Requeue as a fresh arena job (instead of looping here) so the
  // round-robin scheduler re-decides between every step — this is the
  // fairness mechanism, not an optimization.
  if (more) {
    auto self = s;
    s->arena->submit([this, self] { pump(self); });
  }
}

void SessionManager::step(const std::string& name, idx_t count) {
  auto s = find(name);
  require(s->state == SessionState::kResident,
          "SessionManager::step: session " + name + " is " +
              session_state_name(s->state));
  if (count <= 0) return;
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(s->m);
    s->steps_requested += count;
    if (!s->job_active) {
      s->job_active = true;
      start = true;
    }
  }
  if (start) {
    auto self = s;
    s->arena->submit([this, self] { pump(self); });
  }
}

void SessionManager::wait(const std::string& name) {
  auto s = find(name);
  if (s->arena) s->arena->drain();
}

void SessionManager::wait_all() {
  for (auto& [name, s] : sessions_) {
    if (s->arena) s->arena->drain();
  }
}

bool SessionManager::suspend(const std::string& name) {
  auto s = find(name);
  if (s->state == SessionState::kSuspended) return true;
  require(s->state == SessionState::kResident,
          "SessionManager::suspend: session " + name + " is pending");
  s->arena->drain();
  if (!s->dist->suspend()) return false;  // keep-last-good: still resident
  s->arena.reset();  // unregisters the queue; drained, so safe
  s->state = SessionState::kSuspended;
  release_charges(*s);
  admit_pending();
  return true;
}

bool SessionManager::resume(const std::string& name) {
  auto s = find(name);
  if (s->state == SessionState::kResident) return true;
  require(s->state == SessionState::kSuspended,
          "SessionManager::resume: session " + name + " is pending");
  if (!admission_fits(admission_estimate(*s))) return false;
  if (!s->dist->resume()) return false;
  mark_resident(*s);
  return true;
}

void SessionManager::destroy(const std::string& name) {
  auto s = find(name);
  if (s->arena) s->arena->drain();
  ++retired_sessions_;
  retired_steps_ += s->context.steps_recorded();
  retired_health_ += s->context.health();
  const auto pending_it = std::find(pending_.begin(), pending_.end(), name);
  if (pending_it != pending_.end()) pending_.erase(pending_it);
  sessions_.erase(name);
  if (s->state == SessionState::kResident) release_charges(*s);
  // s still holds the scene here, so a pending session of the same config
  // reuses it; the scene goes with the last holder.
  admit_pending();
}

SessionState SessionManager::state(const std::string& name) const {
  return find(name)->state;
}

std::vector<DistributedStepReport> SessionManager::take_reports(
    const std::string& name) {
  auto s = find(name);
  std::lock_guard<std::mutex> lock(s->m);
  if (s->error) {
    const std::exception_ptr e = std::exchange(s->error, nullptr);
    std::rethrow_exception(e);
  }
  return std::exchange(s->reports, {});
}

const SessionContext& SessionManager::context(const std::string& name) const {
  return find(name)->context;
}

DistributedSim* SessionManager::sim(const std::string& name) {
  auto s = find(name);
  return s->state == SessionState::kResident ? s->dist.get() : nullptr;
}

std::shared_ptr<const ImpactSim> SessionManager::scene(
    const std::string& name) const {
  return find(name)->sim;
}

idx_t SessionManager::resident_sessions() const {
  return to_idx(std::count_if(sessions_.begin(), sessions_.end(), [](auto& e) {
    return e.second->state == SessionState::kResident;
  }));
}

idx_t SessionManager::pending_sessions() const {
  return to_idx(pending_.size());
}

idx_t SessionManager::suspended_sessions() const {
  return to_idx(std::count_if(sessions_.begin(), sessions_.end(), [](auto& e) {
    return e.second->state == SessionState::kSuspended;
  }));
}

std::size_t SessionManager::resident_bytes() const { return resident_bytes_; }

ServiceStats SessionManager::service_stats() const {
  std::vector<const SessionContext*> contexts;
  contexts.reserve(sessions_.size());
  for (const auto& [name, s] : sessions_) contexts.push_back(&s->context);
  ServiceStats stats = registry_.aggregate(contexts);
  stats.sessions += retired_sessions_;
  stats.steps += retired_steps_;
  stats.health += retired_health_;
  return stats;
}

}  // namespace cpart
