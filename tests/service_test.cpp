// Tests for service/: session lifecycle over the shared pool, admission
// control accounting, fair-scheduler integration, and the multi-tenant
// isolation contract — every session's results bit-identical to a solo run
// of the same sim, at any pool width, through suspend/resume — and the
// scene cache: one shared, once-metered scene per distinct sim config.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session_context.hpp"
#include "service/session_manager.hpp"
#include "service/stat_registry.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

ImpactSimConfig tiny_sim_config(idx_t snapshots = 4) {
  ImpactSimConfig c;
  c.scale_resolution(0.02);
  c.num_snapshots = snapshots;
  return c;
}

DistributedSimConfig tiny_dist_config(const ImpactSimConfig& sim, idx_t k) {
  DistributedSimConfig d;
  d.decomposition.k = k;
  const real_t cell =
      sim.plate_width / static_cast<real_t>(sim.plate_cells_xy);
  d.search.search_margin = 0.5 * cell;
  d.search.contact_tolerance = 0.25 * cell;
  return d;
}

SessionConfig tiny_session(const std::string& name, idx_t k = 2,
                           idx_t snapshots = 4) {
  SessionConfig sc;
  sc.name = name;
  sc.sim = tiny_sim_config(snapshots);
  sc.dist = tiny_dist_config(sc.sim, k);
  return sc;
}

struct Fingerprint {
  std::uint64_t hash = 0;
  idx_t events = 0;
  // Transport retries are part of the per-step identity too: the chaos
  // schedule is deterministic per session, and the service must reproduce
  // it exactly (successful retries keep results bit-identical by design,
  // so the result hash alone cannot distinguish schedules).
  wgt_t retries = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const DistributedStepReport& r) {
  return {r.ownership_hash, r.contact_events, r.health.retries};
}

/// Solo oracle for one session: its own DistributedSim, with the fault
/// schedule the service would derive for (service_seed, session_key).
std::vector<Fingerprint> solo_fingerprints(const SessionConfig& sc,
                                           std::uint64_t service_seed,
                                           std::uint64_t session_key,
                                           idx_t steps) {
  const ImpactSim sim(sc.sim);
  SessionContextConfig cc;
  cc.name = sc.name;
  cc.service_seed = service_seed;
  cc.session_key = session_key;
  SessionContext ctx(cc);
  DistributedSim dist(sim, sc.dist);
  if (sc.inject_faults) {
    dist.exchange().set_fault_injector(&ctx.arm_faults(sc.faults));
  }
  std::vector<Fingerprint> out;
  for (idx_t s = 0; s < steps; ++s) {
    out.push_back(fingerprint_of(dist.run_step(s)));
  }
  return out;
}

std::vector<Fingerprint> fingerprints_of(
    const std::vector<DistributedStepReport>& reports) {
  std::vector<Fingerprint> out;
  for (const auto& r : reports) out.push_back(fingerprint_of(r));
  return out;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpart_service_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    ThreadPool::set_global_threads(0);
  }

  std::string dir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

TEST_F(ServiceTest, LifecycleCreateStepDestroy) {
  ThreadPool pool(2);
  ServiceConfig svc;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  EXPECT_EQ(mgr.state("a"), SessionState::kResident);
  EXPECT_EQ(mgr.resident_sessions(), 1);
  EXPECT_GT(mgr.resident_bytes(), 0u);

  mgr.step("a", 3);
  mgr.wait("a");
  const auto reports = mgr.take_reports("a");
  ASSERT_EQ(reports.size(), 3u);
  for (idx_t s = 0; s < 3; ++s) {
    EXPECT_EQ(reports[static_cast<std::size_t>(s)].step, s);
  }
  EXPECT_EQ(mgr.service_stats().steps, 3);
  EXPECT_EQ(mgr.stats().samples(), 3);

  mgr.destroy("a");
  EXPECT_EQ(mgr.resident_sessions(), 0);
  EXPECT_EQ(mgr.resident_bytes(), 0u);  // zero admission leaks
  // Retired sessions keep contributing to the service totals.
  EXPECT_EQ(mgr.service_stats().steps, 3);
  EXPECT_EQ(mgr.service_stats().sessions, 1);
}

TEST_F(ServiceTest, StepsAccumulateAcrossCalls) {
  ThreadPool pool(2);
  ServiceConfig svc;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  mgr.step("a", 1);
  mgr.step("a", 2);
  mgr.wait("a");
  EXPECT_EQ(mgr.take_reports("a").size(), 3u);
}

TEST_F(ServiceTest, UnknownAndWrongStateSessionsThrow) {
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.max_resident_sessions = 1;
  SessionManager mgr(pool.workers(), svc);
  EXPECT_THROW(mgr.step("ghost", 1), InputError);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  ASSERT_TRUE(mgr.create(tiny_session("b")));  // queued: service full
  EXPECT_EQ(mgr.state("b"), SessionState::kPending);
  EXPECT_THROW(mgr.step("b", 1), InputError);        // pending can't step
  EXPECT_THROW(mgr.create(tiny_session("a")), InputError);  // duplicate
}

TEST_F(ServiceTest, AdmissionQueuesAndAdmitsFifoOnDestroy) {
  ThreadPool pool(2);
  ServiceConfig svc;
  svc.max_resident_sessions = 2;
  SessionManager mgr(pool.workers(), svc);
  for (const char* name : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(mgr.create(tiny_session(name)));
  }
  EXPECT_EQ(mgr.resident_sessions(), 2);
  EXPECT_EQ(mgr.pending_sessions(), 2);
  EXPECT_EQ(mgr.state("c"), SessionState::kPending);

  mgr.destroy("a");
  EXPECT_EQ(mgr.state("c"), SessionState::kResident);  // FIFO: c before d
  EXPECT_EQ(mgr.state("d"), SessionState::kPending);
  mgr.destroy("b");
  EXPECT_EQ(mgr.state("d"), SessionState::kResident);
  mgr.destroy("c");
  mgr.destroy("d");
  EXPECT_EQ(mgr.resident_bytes(), 0u);
}

TEST_F(ServiceTest, AdmissionRejectsWhenQueueingDisabled) {
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.max_resident_sessions = 1;
  svc.queue_when_full = false;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  EXPECT_FALSE(mgr.create(tiny_session("b")));
  // The rejected session is not registered at all.
  EXPECT_THROW(mgr.state("b"), InputError);
  EXPECT_EQ(mgr.resident_sessions(), 1);
  EXPECT_EQ(mgr.pending_sessions(), 0);
}

TEST_F(ServiceTest, ByteBudgetGatesAdmissionButNeverStarvesTheFirst) {
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.resident_bytes_budget = 1;  // nothing fits
  SessionManager mgr(pool.workers(), svc);
  // First-session override: an oversized tenant runs alone.
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  EXPECT_EQ(mgr.state("a"), SessionState::kResident);
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  EXPECT_EQ(mgr.state("b"), SessionState::kPending);
  mgr.destroy("a");
  EXPECT_EQ(mgr.state("b"), SessionState::kResident);
  mgr.destroy("b");
  EXPECT_EQ(mgr.resident_bytes(), 0u);
}

TEST_F(ServiceTest, ConcurrentSessionsBitIdenticalToSoloAtAnyWidth) {
  // The isolation contract, including per-session chaos: four tenants with
  // derived fault schedules, stepped concurrently on pools of different
  // widths, must each reproduce their solo run bit-for-bit.
  constexpr idx_t kSessions = 4;
  constexpr idx_t kSteps = 4;
  constexpr std::uint64_t kSeed = 7;
  std::vector<SessionConfig> configs;
  std::vector<std::vector<Fingerprint>> solo;
  for (idx_t i = 0; i < kSessions; ++i) {
    SessionConfig sc =
        tiny_session(std::string("s").append(std::to_string(i)));
    sc.inject_faults = true;
    sc.faults.cell_fault_probability = 0.2;
    configs.push_back(sc);
    solo.push_back(solo_fingerprints(sc, kSeed, static_cast<std::uint64_t>(i),
                                     kSteps));
  }
  // The chaos must actually bite somewhere (the schedules are deterministic
  // for this seed, so this is a fixed fact, not a flaky sample) — otherwise
  // the identity check below never exercises the retry path.
  wgt_t total_retries = 0;
  for (const auto& fps : solo) {
    for (const auto& fp : fps) total_retries += fp.retries;
  }
  EXPECT_GT(total_retries, 0);

  for (unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    ServiceConfig svc;
    svc.seed = kSeed;
    SessionManager mgr(pool.workers(), svc);
    for (const auto& sc : configs) ASSERT_TRUE(mgr.create(sc));
    for (const auto& sc : configs) mgr.step(sc.name, kSteps);
    mgr.wait_all();
    for (idx_t i = 0; i < kSessions; ++i) {
      const auto got = fingerprints_of(
          mgr.take_reports(configs[static_cast<std::size_t>(i)].name));
      EXPECT_EQ(got, solo[static_cast<std::size_t>(i)])
          << "session " << i << " diverged at width " << width;
    }
  }
}

TEST_F(ServiceTest, SuspendResumeIsBitIdenticalMidRun) {
  ThreadPool pool(2);
  SessionConfig sc = tiny_session("a");
  const auto solo = solo_fingerprints(sc, 0, 0, 4);

  ServiceConfig svc;
  svc.checkpoint_root = dir();
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(sc));
  mgr.step("a", 2);
  mgr.wait("a");
  auto reports = mgr.take_reports("a");

  ASSERT_TRUE(mgr.suspend("a"));
  EXPECT_EQ(mgr.state("a"), SessionState::kSuspended);
  EXPECT_EQ(mgr.suspended_sessions(), 1);
  EXPECT_EQ(mgr.resident_sessions(), 0);
  EXPECT_EQ(mgr.resident_bytes(), 0u);  // the budget got its bytes back
  EXPECT_EQ(mgr.sim("a"), nullptr);
  EXPECT_TRUE(mgr.suspend("a"));  // idempotent
  EXPECT_THROW(mgr.step("a", 1), InputError);  // suspended can't step

  ASSERT_TRUE(mgr.resume("a"));
  EXPECT_EQ(mgr.state("a"), SessionState::kResident);
  EXPECT_GT(mgr.resident_bytes(), 0u);
  mgr.step("a", 2);
  mgr.wait("a");
  auto tail = mgr.take_reports("a");
  reports.insert(reports.end(), tail.begin(), tail.end());
  EXPECT_EQ(fingerprints_of(reports), solo);
  // The session's accumulated health survived the suspend.
  EXPECT_EQ(mgr.context("a").steps_recorded(), 4);
}

TEST_F(ServiceTest, SuspendWithoutCheckpointRootFails) {
  ThreadPool pool(1);
  ServiceConfig svc;  // no checkpoint_root
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  EXPECT_THROW(mgr.suspend("a"), InputError);  // no durable home
  EXPECT_EQ(mgr.state("a"), SessionState::kResident);  // still runnable
  mgr.step("a", 1);
  mgr.wait("a");
  EXPECT_EQ(mgr.take_reports("a").size(), 1u);
}

TEST_F(ServiceTest, SuspendFreesBudgetForPendingSessions) {
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.max_resident_sessions = 1;
  svc.checkpoint_root = dir();
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  EXPECT_EQ(mgr.state("b"), SessionState::kPending);
  ASSERT_TRUE(mgr.suspend("a"));
  EXPECT_EQ(mgr.state("b"), SessionState::kResident);  // admitted
  // No room to resume until b leaves.
  EXPECT_FALSE(mgr.resume("a"));
  EXPECT_EQ(mgr.state("a"), SessionState::kSuspended);
  mgr.destroy("b");
  ASSERT_TRUE(mgr.resume("a"));
  EXPECT_EQ(mgr.state("a"), SessionState::kResident);
}

TEST_F(ServiceTest, ServiceStatsAggregateAcrossSessions) {
  ThreadPool pool(2);
  ServiceConfig svc;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  mgr.step("a", 2);
  mgr.step("b", 3);
  mgr.wait_all();
  const ServiceStats stats = mgr.service_stats();
  EXPECT_EQ(stats.sessions, 2);
  EXPECT_EQ(stats.steps, 5);
  EXPECT_EQ(stats.latency_samples, 5);
  EXPECT_GT(stats.health.deliveries, 0);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_EQ(mgr.stats().session_latencies("a").size(), 2u);
  EXPECT_EQ(mgr.stats().session_latencies("b").size(), 3u);

  const SchedulerStats sched = mgr.scheduler_stats();
  EXPECT_EQ(sched.total_workers, 2);
  EXPECT_GT(sched.items_executed, 0);
}

TEST_F(ServiceTest, SameConfigSessionsShareOneScene) {
  ThreadPool pool(1);
  ServiceConfig svc;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  // One field apart: the snapshot count.
  ASSERT_TRUE(mgr.create(tiny_session("c", 2, 5)));
  ASSERT_NE(mgr.scene("a"), nullptr);
  EXPECT_EQ(mgr.scene("a"), mgr.scene("b"));
  EXPECT_NE(mgr.scene("a"), mgr.scene("c"));
  EXPECT_EQ(mgr.scenes_built(), 2);
  // The rank programs read the shared scene, not a copy.
  EXPECT_EQ(&mgr.sim("a")->topology(), &mgr.scene("a")->topology());
  EXPECT_EQ(&mgr.sim("b")->topology(), &mgr.scene("a")->topology());
  EXPECT_EQ(mgr.resident_bytes(),
            mgr.sim("a")->resident_bytes() + mgr.sim("b")->resident_bytes() +
                mgr.sim("c")->resident_bytes() +
                mgr.scene("a")->heap_bytes() + mgr.scene("c")->heap_bytes());
}

TEST_F(ServiceTest, LastHolderFreesTheScene) {
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.checkpoint_root = dir();
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(tiny_session("a")));
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  const std::weak_ptr<const ImpactSim> scene = mgr.scene("a");
  const std::size_t scene_bytes = scene.lock()->heap_bytes();
  EXPECT_GT(scene_bytes, 0u);

  // A suspended session keeps its scene but no longer pays for it.
  ASSERT_TRUE(mgr.suspend("a"));
  EXPECT_EQ(mgr.resident_bytes(),
            mgr.sim("b")->resident_bytes() + scene_bytes);
  ASSERT_TRUE(mgr.suspend("b"));
  EXPECT_EQ(mgr.resident_bytes(), 0u);
  EXPECT_FALSE(scene.expired());
  ASSERT_TRUE(mgr.resume("a"));
  EXPECT_EQ(mgr.resident_bytes(),
            mgr.sim("a")->resident_bytes() + scene_bytes);

  mgr.destroy("a");
  EXPECT_FALSE(scene.expired());  // b still holds it
  EXPECT_EQ(mgr.resident_bytes(), 0u);
  mgr.destroy("b");
  EXPECT_TRUE(scene.expired());
  EXPECT_EQ(mgr.resident_bytes(), 0u);

  // A later session of the same config builds the scene anew.
  ASSERT_TRUE(mgr.create(tiny_session("c")));
  EXPECT_EQ(mgr.scenes_built(), 2);
  mgr.destroy("c");
  EXPECT_EQ(mgr.resident_bytes(), 0u);
}

TEST_F(ServiceTest, ByteBudgetChargesTheSceneOnce) {
  const SessionConfig sc = tiny_session("a");
  std::size_t alone = 0;  // session a's rank states plus its scene
  std::size_t estimate = 0;
  std::size_t scene_bytes = 0;
  {
    ThreadPool pool(1);
    SessionManager mgr(pool.workers(), ServiceConfig{});
    ASSERT_TRUE(mgr.create(sc));
    alone = mgr.resident_bytes();
    scene_bytes = mgr.scene("a")->heap_bytes();
    EXPECT_EQ(alone, mgr.sim("a")->resident_bytes() + scene_bytes);
    const Mesh& mesh = mgr.scene("a")->initial_mesh();
    estimate = DistributedSim::estimate_resident_bytes(
        mesh.num_nodes(), mesh.num_elements(), sc.dist.decomposition.k);
  }
  // Room for a second session's rank states but not for a second copy of
  // the scene: a same-config session fits, a session on a new scene not.
  ThreadPool pool(1);
  ServiceConfig svc;
  svc.resident_bytes_budget = alone + estimate;
  SessionManager mgr(pool.workers(), svc);
  ASSERT_TRUE(mgr.create(sc));
  ASSERT_TRUE(mgr.create(tiny_session("b")));
  ASSERT_EQ(mgr.state("b"), SessionState::kResident);
  EXPECT_EQ(mgr.resident_bytes(), mgr.sim("a")->resident_bytes() +
                                      mgr.sim("b")->resident_bytes() +
                                      scene_bytes);
  ASSERT_TRUE(mgr.create(tiny_session("c", 2, 5)));
  EXPECT_EQ(mgr.state("c"), SessionState::kPending);
  mgr.destroy("a");
  mgr.destroy("b");
  EXPECT_EQ(mgr.state("c"), SessionState::kResident);
  mgr.destroy("c");
  EXPECT_EQ(mgr.resident_bytes(), 0u);
}

TEST_F(ServiceTest, SuspendResumeBesideCoResidentOnSharedScene) {
  // Two tenants on one scene, with chaos: suspending and resuming one while
  // the other keeps stepping leaves both bit-identical to their solo runs.
  constexpr std::uint64_t kSeed = 11;
  std::vector<SessionConfig> configs;
  std::vector<std::vector<Fingerprint>> solo;
  for (const char* name : {"a", "b"}) {
    SessionConfig sc = tiny_session(name);
    sc.inject_faults = true;
    sc.faults.cell_fault_probability = 0.2;
    solo.push_back(solo_fingerprints(sc, kSeed, configs.size(), 4));
    configs.push_back(sc);
  }
  ThreadPool pool(2);
  ServiceConfig svc;
  svc.seed = kSeed;
  svc.checkpoint_root = dir();
  SessionManager mgr(pool.workers(), svc);
  for (const auto& sc : configs) ASSERT_TRUE(mgr.create(sc));
  ASSERT_EQ(mgr.scene("a"), mgr.scene("b"));
  mgr.step("a", 2);
  mgr.step("b", 1);
  mgr.wait_all();
  auto a = mgr.take_reports("a");
  auto b = mgr.take_reports("b");

  ASSERT_TRUE(mgr.suspend("a"));
  mgr.step("b", 2);
  mgr.wait("b");
  const auto b_mid = mgr.take_reports("b");
  b.insert(b.end(), b_mid.begin(), b_mid.end());
  ASSERT_TRUE(mgr.resume("a"));
  EXPECT_EQ(mgr.scene("a"), mgr.scene("b"));
  mgr.step("a", 2);
  mgr.step("b", 1);
  mgr.wait_all();
  const auto a_tail = mgr.take_reports("a");
  const auto b_tail = mgr.take_reports("b");
  a.insert(a.end(), a_tail.begin(), a_tail.end());
  b.insert(b.end(), b_tail.begin(), b_tail.end());
  EXPECT_EQ(fingerprints_of(a), solo[0]);
  EXPECT_EQ(fingerprints_of(b), solo[1]);
  EXPECT_EQ(mgr.scenes_built(), 1);
}

TEST(StatRegistryTest, PercentileIsNearestRank) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(StatRegistry::percentile(sorted, 0.0), 1);
  EXPECT_EQ(StatRegistry::percentile(sorted, 0.10), 1);
  EXPECT_EQ(StatRegistry::percentile(sorted, 0.50), 5);
  EXPECT_EQ(StatRegistry::percentile(sorted, 0.95), 10);
  EXPECT_EQ(StatRegistry::percentile(sorted, 1.0), 10);
  EXPECT_EQ(StatRegistry::percentile({}, 0.5), 0);
}

TEST(SessionStateTest, Names) {
  EXPECT_STREQ(session_state_name(SessionState::kPending), "pending");
  EXPECT_STREQ(session_state_name(SessionState::kResident), "resident");
  EXPECT_STREQ(session_state_name(SessionState::kSuspended), "suspended");
}

}  // namespace
}  // namespace cpart
