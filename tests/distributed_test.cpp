// DistributedSim equivalence: the rank-owned SPMD step (per-rank kinematics,
// halo exchange, local surface extraction, descriptor induction, global +
// local search, and live element migration on repartition steps) must be
// bit-identical to the centralized reference (ReferenceSim, tests/support)
// — events, traffic matrices, payload bytes, ownership maps, and
// contact-hit accumulators — at 1 worker thread and at 8, including under
// the fault-injected transport and on degraded steps.
// The step must also be exact against a serial search of the snapshot (no
// contact is lost to the decomposition), and its halo traffic must equal a
// brute-force count over the element closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "contact/local_search.hpp"
#include "contact/search_metrics.hpp"
#include "core/distributed_sim.hpp"
#include "core/ml_rcb.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/virtual_cluster.hpp"
#include "sim/impact_sim.hpp"
#include "support/expect_reports.hpp"
#include "support/scenes.hpp"
#include "support/reference_sim.hpp"

namespace cpart {
namespace {

// The fault-retry soak seed can be swept from CI via CPART_CHAOS_SEED, the
// same knob tests/chaos_test.cpp uses, to vary the corruption schedule.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("CPART_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 11;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

class DistributedSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<ImpactSim>(small_impact_config());
  }

  void TearDown() override {
    // Other test binaries assume the default pool; restore it.
    ThreadPool::set_global_threads(0);
  }

  DistributedSimConfig make_config(idx_t k, idx_t period) const {
    DistributedSimConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    c.repartition_period = period;
    // Tight balance: the crater's evolving contact constraint pushes the
    // anchor partition out of tolerance, so migration steps actually move
    // state (the default 0.10 tolerance absorbs this small mesh's drift and
    // would leave every migration payload empty).
    c.repartition.epsilon = 0.02;
    return c;
  }

  // Two identically-configured runs: one driven SPMD, one through the
  // centralized reference. Every step — including the two
  // repartition+migration steps the period puts in the sequence — must
  // produce identical reports and identical end-of-step rank state.
  void check_bit_identity(idx_t k) {
    const DistributedSimConfig config = make_config(k, /*period=*/2);
    DistributedSim spmd(*sim_, config);
    ReferenceSim oracle(*sim_, config);
    bool saw_migration = false;
    for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}, idx_t{15}, idx_t{20},
                    idx_t{29}}) {
      const std::string what = "k=" + std::to_string(k) +
                               " s=" + std::to_string(s);
      const DistributedStepReport ref = oracle.run_step(s);
      const DistributedStepReport got = spmd.run_step(s);
      expect_reports_identical(got, ref, what);
      saw_migration = saw_migration || got.migrated;
      // End-of-step authoritative state, not just this step's products.
      EXPECT_EQ(spmd.ownership_map(), oracle.ownership_map()) << what;
      EXPECT_EQ(spmd.gather_contact_hits(), oracle.gather_contact_hits())
          << what;
      // A fault-free transport is clean: 4 deliveries per step, plus the
      // migration superstep on repartition steps. The reference runs no
      // transport at all.
      EXPECT_TRUE(got.health.clean()) << what << " " << got.health.summary();
      EXPECT_FALSE(got.health.degraded()) << what;
      EXPECT_EQ(got.health.deliveries, got.migrated ? 5 : 4) << what;
      EXPECT_EQ(got.health.delivery_attempts, got.health.deliveries) << what;
      EXPECT_EQ(ref.health, PipelineHealth{}) << what;
    }
    // The cadence (period 2, six steps driven) must actually have migrated.
    EXPECT_TRUE(saw_migration) << "k=" << k;
  }

  // The serial oracle: one local search over snapshot s's whole surface,
  // with the same tolerance and same-body exclusion as make_config.
  std::vector<ContactEvent> serial_events(idx_t s) const {
    const ImpactSim::Snapshot snap = sim_->snapshot(s);
    LocalSearchOptions opts;
    opts.tolerance = 0.08;
    opts.body_of_node = sim_->node_body();
    return local_contact_search(snap.mesh, snap.surface, opts);
  }

  std::unique_ptr<ImpactSim> sim_;
};

TEST_F(DistributedSimTest, SpmdMatchesReferenceSingleThread) {
  ThreadPool::set_global_threads(1);
  check_bit_identity(2);
  check_bit_identity(5);
}

TEST_F(DistributedSimTest, SpmdMatchesReferenceEightThreads) {
  ThreadPool::set_global_threads(8);
  check_bit_identity(5);
  check_bit_identity(9);  // more ranks than a typical pool — still safe
}

TEST_F(DistributedSimTest, GangInductionMatchesReferenceAtOneAndFour) {
  // The fixture's contact surface is far below the 4096 points at which
  // rank 0's descriptor induction takes the gang build. Flagging every
  // boundary face of thin 32 x 32 plates as contact surface gives ~4.6k
  // contact points on a mesh that still steps in milliseconds. Three steps
  // (the last two back to back, as the workspace's warm start expects) must
  // match the reference body at pool widths 1 and 4, and the two widths
  // must match each other.
  ImpactSimConfig sc;
  sc.plate_cells_xy = 32;
  sc.plate_cells_z = 1;
  sc.proj_cells_diameter = 6;
  sc.proj_cells_z = 6;
  sc.num_snapshots = 40;
  sc.contact_zone_factor = 0;
  const ImpactSim sim(sc);
  ASSERT_GE(sim.snapshot(0).surface.num_contact_nodes(), 4096);
  const DistributedSimConfig config = make_config(9, /*period=*/0);
  std::vector<DistributedStepReport> at_width_one;
  for (const unsigned width : {1u, 4u}) {
    ThreadPool::set_global_threads(width);
    DistributedSim spmd(sim, config);
    ReferenceSim oracle(sim, config);
    std::size_t i = 0;
    for (idx_t s : {idx_t{0}, idx_t{28}, idx_t{29}}) {
      const std::string what =
          "width " + std::to_string(width) + " s=" + std::to_string(s);
      const DistributedStepReport ref = oracle.run_step(s);
      const DistributedStepReport got = spmd.run_step(s);
      expect_reports_identical(got, ref, what);
      if (width == 1) {
        at_width_one.push_back(got);
      } else {
        expect_reports_identical(got, at_width_one[i], what);
      }
      ++i;
    }
  }
  // The scene must actually exercise the search: some step has contacts.
  EXPECT_GT(at_width_one.back().contact_events, 0);
}

TEST_F(DistributedSimTest, MigrationStepsMoveStateAndChargeBytes) {
  ThreadPool::set_global_threads(8);
  DistributedSim dsim(*sim_, make_config(5, /*period=*/2));
  bool moved_something = false;
  for (idx_t s : {idx_t{0}, idx_t{8}, idx_t{16}, idx_t{24}, idx_t{29},
                  idx_t{33}}) {
    const DistributedStepReport r = dsim.run_step(s);
    if (!r.migrated) {
      // Non-migration steps run no migration protocol at all.
      EXPECT_EQ(r.migration_exchange.total_units(), 0) << "s=" << s;
      EXPECT_EQ(r.migration_payload_bytes, 0) << "s=" << s;
      EXPECT_EQ(r.label_broadcast_bytes, 0) << "s=" << s;
      EXPECT_EQ(r.repart_moved_nodes, 0) << "s=" << s;
      EXPECT_EQ(r.repart_moved_elements, 0) << "s=" << s;
      continue;
    }
    // Moved entities and migration bytes travel together: bytes are charged
    // iff the repartition actually moved something.
    const wgt_t moved = static_cast<wgt_t>(r.repart_moved_nodes) +
                        static_cast<wgt_t>(r.repart_moved_elements);
    EXPECT_EQ(r.migration_exchange.total_units(), moved) << "s=" << s;
    EXPECT_EQ(moved > 0, r.migration_payload_bytes > 0) << "s=" << s;
    moved_something = moved_something || moved > 0;
  }
  EXPECT_TRUE(moved_something) << "no migration step moved any state";
  // Ownership must stay a valid [0, k) map after the migrations.
  const std::vector<idx_t> owner = dsim.ownership_map();
  for (idx_t o : owner) {
    ASSERT_GE(o, 0);
    ASSERT_LT(o, dsim.k());
  }
}

// Ten steps of a k = 9 run at period 2: the migration steps fall on
// snapshots 3, 6, 21 and 24, which carry four different contact masks, so
// every repartition after the first re-weights the cached repartition graph
// for a new mask. The per-step ownership hash and moved-node count are
// pinned to the values a fresh graph build on every migration step produced.
struct StepFingerprint {
  idx_t snapshot;
  std::uint64_t ownership_hash;
  idx_t repart_moved_nodes;
};
constexpr idx_t kReuseRanks = 9;
constexpr std::array<StepFingerprint, 10> kRebuildFingerprints{{
    {0, 0x5e961b921666531fULL, 0},
    {1, 0xb9e43e979a438163ULL, 0},
    {3, 0xe7090905ec3945faULL, 65},
    {4, 0xc3198fd603d5d226ULL, 0},
    {6, 0x60ecff51a92a15e6ULL, 0},
    {10, 0xf4b57954fcd4d486ULL, 0},
    {21, 0xe1ff4d5d25a479fbULL, 12},
    {22, 0x7adf17554c96b291ULL, 0},
    {24, 0xfeaac8949987a9c6ULL, 15},
    {30, 0x83275d7f6e98e9aeULL, 0},
}};

TEST_F(DistributedSimTest, RepartitionGraphReuseMatchesRebuildAndReference) {
  // Consecutive migration snapshots really do carry different masks.
  const std::array<idx_t, 4> migration_snapshots{3, 6, 21, 24};
  for (std::size_t i = 0; i + 1 < migration_snapshots.size(); ++i) {
    EXPECT_NE(sim_->snapshot(migration_snapshots[i]).surface.is_contact_node,
              sim_->snapshot(migration_snapshots[i + 1])
                  .surface.is_contact_node)
        << "s=" << migration_snapshots[i];
  }
  for (const unsigned width : {1u, 4u}) {
    ThreadPool::set_global_threads(width);
    const DistributedSimConfig config =
        make_config(kReuseRanks, /*period=*/2);
    DistributedSim spmd(*sim_, config);
    ReferenceSim oracle(*sim_, config);
    idx_t migrations = 0;
    for (const StepFingerprint& f : kRebuildFingerprints) {
      const std::string what = "width " + std::to_string(width) +
                               " s=" + std::to_string(f.snapshot);
      const DistributedStepReport ref = oracle.run_step(f.snapshot);
      const DistributedStepReport got = spmd.run_step(f.snapshot);
      expect_reports_identical(got, ref, what);
      EXPECT_EQ(got.ownership_hash, f.ownership_hash) << what;
      EXPECT_EQ(got.repart_moved_nodes, f.repart_moved_nodes) << what;
      // Both time the repartition, and only on migration steps.
      for (const DistributedStepReport* r : {&got, &ref}) {
        if (r->migrated) {
          EXPECT_GT(r->repartition_ms, 0.0) << what;
        } else {
          EXPECT_EQ(r->repartition_ms, 0.0) << what;
        }
      }
      migrations += got.migrated ? 1 : 0;
    }
    EXPECT_EQ(migrations, 4) << "width " << width;
  }
}

TEST_F(DistributedSimTest, SuspendBetweenMigrationsKeepsRepartitionIdentical) {
  // suspend() releases the cached repartition graph; the first migration
  // after resume() rebuilds it. The run must stay bit-identical to a twin
  // that never suspended.
  ThreadPool::set_global_threads(4);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpart_repartition_reuse_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DistributedSimConfig config = make_config(kReuseRanks, /*period=*/2);
  DistributedSim twin(*sim_, config);
  config.checkpoint_dir = dir.string();
  DistributedSim dsim(*sim_, config);
  for (const StepFingerprint& f : kRebuildFingerprints) {
    const std::string what = "s=" + std::to_string(f.snapshot);
    const DistributedStepReport want = twin.run_step(f.snapshot);
    const DistributedStepReport got = dsim.run_step(f.snapshot);
    expect_reports_identical(got, want, what);
    EXPECT_EQ(got.ownership_hash, f.ownership_hash) << what;
    EXPECT_EQ(dsim.ownership_map(), twin.ownership_map()) << what;
    EXPECT_EQ(dsim.gather_contact_hits(), twin.gather_contact_hits()) << what;
    // Suspend right after the first two migration steps, so the next
    // migration runs on a freshly rebuilt graph.
    if (got.migrated && f.snapshot <= 6) {
      ASSERT_TRUE(dsim.suspend()) << what;
      ASSERT_TRUE(dsim.suspended());
      ASSERT_TRUE(dsim.resume()) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(DistributedSimTest, OwnedRecordsTileTheSnapshotSurface) {
  // The union of the ranks' home-face records must be exactly the snapshot's
  // contact surface: same faces (as sorted node tuples), each derived by
  // exactly one rank — the cheap proof that the rank-local surface
  // extraction over ghosted positions reconstructs the central product.
  ThreadPool::set_global_threads(8);
  DistributedSim dsim(*sim_, make_config(6, /*period=*/0));
  for (idx_t s : {idx_t{0}, idx_t{15}, idx_t{29}}) {
    const DistributedStepReport r = dsim.run_step(s);
    ASSERT_TRUE(r.health.clean()) << "s=" << s;
    std::map<std::array<idx_t, 4>, int> distributed;
    for (const SubdomainState& st : dsim.states()) {
      for (const FaceRecord& rec : st.owned_records) {
        std::array<idx_t, 4> key = rec.nodes;
        std::sort(key.begin(), key.end());
        ++distributed[key];
      }
    }
    std::map<std::array<idx_t, 4>, int> central;
    const ImpactSim::Snapshot snap = sim_->snapshot(s);
    for (const SurfaceFace& face : snap.surface.faces) {
      std::array<idx_t, 4> key{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                               kInvalidIndex};
      std::copy(face.nodes.begin(), face.nodes.end(), key.begin());
      std::sort(key.begin(), key.end());
      ++central[key];
    }
    EXPECT_EQ(distributed, central) << "s=" << s;
    for (const auto& [key, count] : distributed) {
      EXPECT_EQ(count, 1) << "face owned by more than one rank, s=" << s;
    }
  }
}

TEST_F(DistributedSimTest, SingleRankMovesNoBytes) {
  ThreadPool::set_global_threads(8);
  DistributedSim dsim(*sim_, make_config(1, /*period=*/2));
  ReferenceSim oracle(*sim_, make_config(1, /*period=*/2));
  for (idx_t s : {idx_t{0}, idx_t{10}, idx_t{20}, idx_t{29}}) {
    const DistributedStepReport ref = oracle.run_step(s);
    const DistributedStepReport got = dsim.run_step(s);
    expect_reports_identical(got, ref, "k=1 s=" + std::to_string(s));
    EXPECT_EQ(got.fe_exchange.total_units(), 0);
    EXPECT_EQ(got.coupling_exchange.total_units(), 0);
    EXPECT_EQ(got.search_exchange.total_units(), 0);
    EXPECT_EQ(got.migration_exchange.total_units(), 0);
    EXPECT_EQ(got.halo_payload_bytes, 0);
    EXPECT_EQ(got.coupling_payload_bytes, 0);
    EXPECT_EQ(got.face_payload_bytes, 0);
    EXPECT_EQ(got.migration_payload_bytes, 0);
    EXPECT_EQ(got.descriptor_broadcast_bytes, 0);
    EXPECT_EQ(got.label_broadcast_bytes, 0);
    // A single rank owns everything: a repartition can move nothing.
    EXPECT_EQ(got.repart_moved_nodes, 0);
    EXPECT_EQ(got.repart_moved_elements, 0);
  }
}

TEST_F(DistributedSimTest, FaultRetryKeepsBitIdentityAcrossMigration) {
  // A seeded low-probability fault schedule with a generous retry budget:
  // every step — migration steps included — must still match the fault-free
  // twin exactly, with the corruption fully absorbed by retries.
  ThreadPool::set_global_threads(8);
  DistributedSim faulty(*sim_, make_config(5, /*period=*/2));
  DistributedSim clean(*sim_, make_config(5, /*period=*/2));
  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.cell_fault_probability = 0.10;
  FaultInjector injector(fc);
  faulty.exchange().set_fault_injector(&injector);
  // 0.1^10 per cell chain: no plausible schedule exhausts the budget.
  faulty.exchange().set_retry_policy({.max_attempts = 10});

  PipelineHealth total;
  for (idx_t s = 0; s < 12; ++s) {
    const DistributedStepReport want = clean.run_step(s);
    const DistributedStepReport got = faulty.run_step(s);
    total += got.health;
    expect_reports_identical(got, want, "faulty s=" + std::to_string(s));
    EXPECT_EQ(faulty.ownership_map(), clean.ownership_map()) << "s=" << s;
    EXPECT_EQ(faulty.gather_contact_hits(), clean.gather_contact_hits())
        << "s=" << s;
  }
  EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected);
  EXPECT_GT(injector.stats().faults_injected, 0) << "schedule was empty";
  EXPECT_GT(total.retries, 0);
  EXPECT_EQ(total.exhausted_deliveries, 0);
  EXPECT_EQ(total.degraded_steps, 0);
}

TEST_F(DistributedSimTest, ExhaustedBudgetDegradesToReferenceNotCrash) {
  ThreadPool::set_global_threads(4);
  const idx_t k = 4;
  DistributedSim faulty(*sim_, make_config(k, /*period=*/2));
  DistributedSim clean(*sim_, make_config(k, /*period=*/2));
  ReferenceSim oracle(*sim_, make_config(k, /*period=*/2));
  FaultInjector injector(
      FaultConfig{.seed = 7, .cell_fault_probability = 1.0});

  // Step 0 runs clean on both, step 1 (not yet a migration step) and step 2
  // (the first migration step) exhaust the budget on the faulty instance.
  for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}}) {
    const std::string what = "degraded s=" + std::to_string(s);
    const bool inject = s != 0;
    faulty.exchange().set_fault_injector(inject ? &injector : nullptr);
    faulty.exchange().set_retry_policy({.max_attempts = 2});
    const DistributedStepReport ref = oracle.run_step(s);
    const DistributedStepReport want = clean.run_step(s);
    const DistributedStepReport got = faulty.run_step(s);
    EXPECT_EQ(got.health.degraded(), inject) << what;
    if (inject) {
      EXPECT_EQ(got.health.degraded_steps, 1) << what;
      EXPECT_EQ(got.health.exhausted_deliveries, 1) << what;
      EXPECT_GT(got.health.corrupt_cells, 0) << what;
    }
    // The degraded step reran the rank programs: a full breakdown.
    EXPECT_EQ(got.phase.search_ms.size(), static_cast<std::size_t>(k))
        << what;
    // The degraded step still produces the full, correct answer — the
    // mid-step corruption never leaks into the authoritative state.
    expect_reports_identical(got, ref, what);
    expect_reports_identical(got, want, what);
    EXPECT_EQ(got.migration_ranks_rebuilt, want.migration_ranks_rebuilt)
        << what;
    EXPECT_EQ(faulty.ownership_map(), oracle.ownership_map()) << what;
    EXPECT_EQ(faulty.gather_contact_hits(), oracle.gather_contact_hits())
        << what;
    EXPECT_EQ(faulty.gather_contact_hits(), clean.gather_contact_hits())
        << what;
  }

  // Disarming the injector heals the sequence completely: the degraded
  // steps left the same state a clean run would have.
  faulty.exchange().set_fault_injector(nullptr);
  const DistributedStepReport ref = oracle.run_step(15);
  const DistributedStepReport healed = faulty.run_step(15);
  EXPECT_TRUE(healed.health.clean()) << healed.health.summary();
  expect_reports_identical(healed, ref, "healed s=15");
}

TEST_F(DistributedSimTest, DegradedStepConsumesOnlyTheFailedDelivery) {
  // Every cell corrupted, one attempt: the step's first delivery fails.
  // The fault-free rerun consumes no superstep of its own, so the cursor
  // moves by exactly that one delivery, and the injector stays armed for
  // the next step — on a plain step and on a migration step alike.
  ThreadPool::set_global_threads(4);
  DistributedSim faulty(*sim_, make_config(4, /*period=*/2));
  DistributedSim clean(*sim_, make_config(4, /*period=*/2));
  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.cell_fault_probability = 1.0;
  FaultInjector injector(fc);
  faulty.exchange().set_fault_injector(&injector);
  faulty.exchange().set_retry_policy({.max_attempts = 1});
  bool saw_migration = false;
  for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}, idx_t{15}}) {
    const std::string what = "s=" + std::to_string(s);
    const std::uint64_t before = faulty.exchange().next_superstep();
    const DistributedStepReport want = clean.run_step(s);
    const DistributedStepReport got = faulty.run_step(s);
    EXPECT_EQ(faulty.exchange().next_superstep(), before + 1) << what;
    EXPECT_EQ(faulty.exchange().fault_injector(), &injector) << what;
    EXPECT_EQ(got.health.degraded_steps, 1) << what;
    EXPECT_EQ(got.health.deliveries, 1) << what;
    EXPECT_EQ(got.health.exhausted_deliveries, 1) << what;
    expect_reports_identical(got, want, what);
    EXPECT_EQ(faulty.gather_contact_hits(), clean.gather_contact_hits())
        << what;
    saw_migration = saw_migration || got.migrated;
  }
  EXPECT_TRUE(saw_migration);
}

TEST_F(DistributedSimTest, RejectsMarginSmallerThanTolerance) {
  DistributedSimConfig c = make_config(4, /*period=*/0);
  c.search.search_margin = 0.01;
  EXPECT_THROW(DistributedSim(*sim_, c), InputError);
}

TEST_F(DistributedSimTest, RejectsNonPositiveTolerance) {
  // A config error must surface at construction, not as failing rank
  // programs inside the first step.
  DistributedSimConfig c = make_config(4, /*period=*/0);
  c.search.search_margin = 0.1;
  c.search.contact_tolerance = 0;
  EXPECT_THROW(DistributedSim(*sim_, c), InputError);
  c.search.search_margin = -0.05;
  c.search.contact_tolerance = -0.1;
  EXPECT_THROW(DistributedSim(*sim_, c), InputError);
}

TEST_F(DistributedSimTest, SearchMatchesSerial) {
  // The crucial end-to-end property: for any k, the union of per-rank
  // searches equals the serial search — the descriptor filter shipped every
  // face everywhere it was needed.
  ThreadPool::set_global_threads(4);
  const std::vector<ContactEvent> serial = serial_events(29);
  ASSERT_GT(serial.size(), 0u) << "scenario produced no contacts to verify";
  for (idx_t k : {idx_t{2}, idx_t{5}, idx_t{9}}) {
    DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
    const DistributedStepReport r = dsim.run_step(29);
    ASSERT_EQ(r.events.size(), serial.size()) << "k=" << k;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(r.events[i].node, serial[i].node) << "k=" << k;
      EXPECT_DOUBLE_EQ(r.events[i].distance, serial[i].distance)
          << "k=" << k;
    }
  }
}

TEST_F(DistributedSimTest, HaloTrafficMatchesElementClosure) {
  // Brute force over the immutable topology: node v is posted once to every
  // other rank that owns a node of an element incident on v.
  ThreadPool::set_global_threads(4);
  const idx_t k = 5;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
  const DistributedStepReport r = dsim.run_step(29);
  const std::vector<idx_t> owner = dsim.ownership_map();
  const Mesh& mesh = dsim.topology().mesh();
  std::set<std::pair<idx_t, idx_t>> units;  // (node, receiving rank)
  for (idx_t e = 0; e < mesh.num_elements(); ++e) {
    for (idx_t v : mesh.element(e)) {
      for (idx_t u : mesh.element(e)) {
        const idx_t q = owner[static_cast<std::size_t>(u)];
        if (q != owner[static_cast<std::size_t>(v)]) units.insert({v, q});
      }
    }
  }
  std::vector<wgt_t> sent(static_cast<std::size_t>(k), 0);
  std::vector<wgt_t> received(static_cast<std::size_t>(k), 0);
  for (const auto& [v, q] : units) {
    ++sent[static_cast<std::size_t>(owner[static_cast<std::size_t>(v)])];
    ++received[static_cast<std::size_t>(q)];
  }
  ASSERT_GT(units.size(), 0u);
  ASSERT_EQ(r.fe_exchange.num_processors(), k);
  EXPECT_EQ(r.fe_exchange.total_units(), static_cast<wgt_t>(units.size()));
  for (idx_t q = 0; q < k; ++q) {
    const ProcessorTraffic& p =
        r.fe_exchange.processors[static_cast<std::size_t>(q)];
    EXPECT_EQ(p.sent_units, sent[static_cast<std::size_t>(q)]) << "q=" << q;
    EXPECT_EQ(p.received_units, received[static_cast<std::size_t>(q)])
        << "q=" << q;
  }
  EXPECT_EQ(r.halo_payload_bytes,
            static_cast<wgt_t>(units.size()) * wire_bytes(HaloNodeMsg{}));
}

TEST_F(DistributedSimTest, ReportBookkeeping) {
  ThreadPool::set_global_threads(4);
  const idx_t k = 6;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
  // Snapshot 0: the projectile hovers above the plate beyond tolerance, but
  // the halo exchange still happens.
  const DistributedStepReport quiet = dsim.run_step(0);
  EXPECT_EQ(quiet.contact_events, 0);
  EXPECT_GT(quiet.fe_exchange.total_units(), 0);

  const DistributedStepReport r = dsim.run_step(29);
  ASSERT_GT(r.contact_events, 0);
  idx_t sum = 0;
  for (idx_t c : r.events_per_processor) sum += c;
  EXPECT_EQ(sum, r.contact_events);
  EXPECT_LE(r.penetrating_events, r.contact_events);
  // The broadcast ships one serialized tree to each of the k-1 other ranks.
  EXPECT_GT(r.descriptor_broadcast_bytes, 0);
  EXPECT_EQ(r.descriptor_broadcast_bytes % (k - 1), 0);
  EXPECT_EQ(r.fe_exchange.num_processors(), k);
  EXPECT_EQ(r.search_exchange.num_processors(), k);

  // A single rank degenerates to the serial search.
  DistributedSim single(*sim_, make_config(1, /*period=*/0));
  const DistributedStepReport one = single.run_step(29);
  const std::vector<ContactEvent> serial = serial_events(29);
  ASSERT_EQ(one.events.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(one.events[i].node, serial[i].node);
    EXPECT_DOUBLE_EQ(one.events[i].distance, serial[i].distance);
  }
}

TEST_F(DistributedSimTest, PhaseTimingsCoverEveryRank) {
  ThreadPool::set_global_threads(4);
  const idx_t k = 6;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
  const DistributedStepReport r = dsim.run_step(29);
  const RankPhaseBreakdown& p = r.phase;
  for (const std::vector<double>* v :
       {&p.descriptor_ms, &p.halo_ms, &p.ship_ms, &p.search_ms,
        &p.deliver_ms, &p.descriptor_wait_ms, &p.ship_wait_ms,
        &p.search_wait_ms}) {
    ASSERT_EQ(v->size(), static_cast<std::size_t>(k));
    for (double ms : *v) EXPECT_GE(ms, 0.0);
  }
  // Rank 0's descriptor phase is the driver's induction + encode.
  EXPECT_GT(p.descriptor_ms[0], 0.0);
  // Every rank validates at least the descriptor broadcast.
  for (double ms : p.deliver_ms) EXPECT_GT(ms, 0.0);
}

// ---------------------------------------------------------------------------
// PipelineTest: step-level contracts of the contact pipeline — its search
// configuration, its report bookkeeping, and the ML+RCB coupling count.
// SpmdTest: what the SPMD execution moves and times per rank.
// ---------------------------------------------------------------------------

class PipelineTest : public DistributedSimTest {};
class SpmdTest : public DistributedSimTest {};

TEST_F(PipelineTest, RejectsMarginSmallerThanTolerance) {
  // SearchConfig::validate on its own: a margin equal to the tolerance is
  // still conservative; a smaller one could miss remote contacts.
  SearchConfig c;
  c.contact_tolerance = 0.08;
  c.search_margin = 0.08;
  EXPECT_NO_THROW(c.validate("PipelineTest"));
  c.search_margin = 0.01;
  try {
    c.validate("PipelineTest");
    ADD_FAILURE() << "margin 0.01 < tolerance 0.08 was accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("PipelineTest"), std::string::npos)
        << e.what();
  }
}

TEST_F(PipelineTest, ReportBookkeepingConsistent) {
  ThreadPool::set_global_threads(4);
  const idx_t k = 6;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
  const DistributedStepReport r = dsim.run_step(29);
  ASSERT_GT(r.contact_events, 0);
  // Per-processor counts sum to the total.
  idx_t sum = 0;
  for (idx_t c : r.events_per_processor) sum += c;
  EXPECT_EQ(sum, r.contact_events);
  EXPECT_EQ(r.events.size(), static_cast<std::size_t>(r.contact_events));
  EXPECT_LE(r.penetrating_events, r.contact_events);
  // Traffic snapshots carry k processors each.
  EXPECT_EQ(r.fe_exchange.num_processors(), k);
  EXPECT_EQ(r.coupling_exchange.num_processors(), k);
  EXPECT_EQ(r.search_exchange.num_processors(), k);
  EXPECT_GT(r.fe_exchange.total_units(), 0);
  // The coupling exchange is a gather: rank 0 receives every unit, and each
  // unit is one contact point on the wire.
  EXPECT_GT(r.coupling_exchange.total_units(), 0);
  EXPECT_EQ(r.coupling_exchange.processors[0].received_units,
            r.coupling_exchange.total_units());
  EXPECT_EQ(r.coupling_payload_bytes, r.coupling_exchange.total_units() *
                                          wire_bytes(ContactPointMsg{}));
  EXPECT_EQ(r.halo_payload_bytes,
            r.fe_exchange.total_units() * wire_bytes(HaloNodeMsg{}));
}

TEST_F(PipelineTest, QuietSnapshotHasNoEvents) {
  // Snapshot 0: the projectile hovers above the plate beyond tolerance.
  ThreadPool::set_global_threads(4);
  const idx_t k = 4;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/0));
  const DistributedStepReport r = dsim.run_step(0);
  EXPECT_EQ(r.contact_events, 0);
  EXPECT_EQ(r.penetrating_events, 0);
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.events_per_processor,
            std::vector<idx_t>(static_cast<std::size_t>(k), 0));
  EXPECT_GT(r.fe_exchange.total_units(), 0);  // halo exchange still happens
  EXPECT_TRUE(r.health.clean()) << r.health.summary();
}

TEST_F(PipelineTest, MlRcbCouplingIsEvenUnits) {
  // ML+RCB couples its FE and RCB contact decompositions by mesh-to-mesh
  // transfer: one unit each way per mismatched point, so the total is even.
  const idx_t k = 4;
  const ImpactSim::Snapshot snap0 = sim_->snapshot(0);
  MlRcbConfig config;
  config.k = k;
  MlRcbPartitioner p(snap0.mesh, snap0.surface, config);
  for (idx_t s : {idx_t{10}, idx_t{20}}) {
    const ImpactSim::Snapshot snap = sim_->snapshot(s);
    p.update_contact_partition(snap.mesh, snap.surface);
  }
  std::vector<idx_t> fe_labels;
  for (idx_t id : p.contact_ids()) {
    fe_labels.push_back(p.node_partition()[static_cast<std::size_t>(id)]);
  }
  const M2MResult m2m = m2m_comm(fe_labels, p.contact_labels(), k);
  const StepTraffic coupling =
      m2m_traffic(fe_labels, p.contact_labels(), m2m.relabel, k);
  EXPECT_GT(coupling.total_units(), 0);
  EXPECT_EQ(coupling.total_units() % 2, 0);
  EXPECT_EQ(coupling.num_processors(), k);
}

TEST_F(SpmdTest, SingleRankMovesNoBytes) {
  // A lone rank at 8 worker threads: the transport still runs every
  // delivery, but no cell carries a byte; the events equal the reference
  // body's bit for bit and the serial search's nodes and distances.
  ThreadPool::set_global_threads(8);
  DistributedSim dsim(*sim_, make_config(1, /*period=*/0));
  ReferenceSim oracle(*sim_, make_config(1, /*period=*/0));
  const DistributedStepReport r = dsim.run_step(29);
  expect_events_identical(r.events, oracle.run_step(29).events,
                          "k=1");
  EXPECT_EQ(r.halo_payload_bytes, 0);
  EXPECT_EQ(r.face_payload_bytes, 0);
  EXPECT_EQ(r.coupling_payload_bytes, 0);
  EXPECT_EQ(r.descriptor_broadcast_bytes, 0);
  EXPECT_EQ(r.fe_exchange.total_units(), 0);
  EXPECT_EQ(r.coupling_exchange.total_units(), 0);
  EXPECT_EQ(r.search_exchange.total_units(), 0);
  EXPECT_TRUE(r.health.clean()) << r.health.summary();
  EXPECT_EQ(r.health.deliveries, 4);
  const std::vector<ContactEvent> serial = serial_events(29);
  ASSERT_EQ(r.events.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(r.events[i].node, serial[i].node) << "event " << i;
    EXPECT_DOUBLE_EQ(r.events[i].distance, serial[i].distance)
        << "event " << i;
  }
}

TEST_F(SpmdTest, PhaseTimingsCoverEveryRank) {
  // One worker thread, and migration steps in the sequence: every step's
  // breakdown still has one non-negative entry per rank and phase.
  ThreadPool::set_global_threads(1);
  const idx_t k = 5;
  DistributedSim dsim(*sim_, make_config(k, /*period=*/2));
  bool saw_migration = false;
  for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}, idx_t{15}}) {
    const DistributedStepReport r = dsim.run_step(s);
    saw_migration = saw_migration || r.migrated;
    const RankPhaseBreakdown& p = r.phase;
    for (const std::vector<double>* v :
         {&p.descriptor_ms, &p.halo_ms, &p.ship_ms, &p.search_ms,
          &p.deliver_ms, &p.descriptor_wait_ms, &p.ship_wait_ms,
          &p.search_wait_ms}) {
      ASSERT_EQ(v->size(), static_cast<std::size_t>(k)) << "s=" << s;
      for (double ms : *v) EXPECT_GE(ms, 0.0) << "s=" << s;
    }
  }
  EXPECT_TRUE(saw_migration);
}


/// Every rank's local set is its owned nodes (ascending id) followed by the
/// other nodes of its tracked elements (the element closure of the owned
/// nodes) sorted by (owner, id); the local connectivity maps back to the
/// mesh; and nothing but the one owner map, shared by every rank and the
/// driver, is sized by the mesh.
void expect_rank_states_local(const DistributedSim& dsim,
                              const std::string& what) {
  const MeshTopology& topo = dsim.topology();
  const auto nn = static_cast<std::size_t>(topo.num_nodes());
  const std::vector<idx_t> owner = dsim.ownership_map();
  for (const SubdomainState& st : dsim.states()) {
    const std::string at = what + " rank " + std::to_string(st.rank);
    std::vector<idx_t> local;
    std::set<idx_t> tracked;
    for (idx_t v = 0; v < topo.num_nodes(); ++v) {
      if (owner[static_cast<std::size_t>(v)] != st.rank) continue;
      local.push_back(v);
      for (idx_t e : topo.elements_of(v)) tracked.insert(e);
    }
    const std::size_t owned = local.size();
    std::set<std::pair<idx_t, idx_t>> ghosts;
    for (idx_t e : tracked) {
      for (idx_t u : topo.mesh().element(e)) {
        const idx_t o = owner[static_cast<std::size_t>(u)];
        if (o != st.rank) ghosts.emplace(o, u);
      }
    }
    for (const auto& [o, u] : ghosts) local.push_back(u);

    ASSERT_EQ(static_cast<std::size_t>(st.num_owned), owned) << at;
    ASSERT_EQ(st.local_nodes, local) << at;
    ASSERT_EQ(st.tracked_elements,
              std::vector<idx_t>(tracked.begin(), tracked.end()))
        << at;
    for (std::size_t i = 0; i < st.tracked_elements.size(); ++i) {
      const auto elem = topo.mesh().element(st.tracked_elements[i]);
      const auto slots = st.element_local(i);
      ASSERT_EQ(slots.size(), elem.size()) << at;
      for (std::size_t j = 0; j < elem.size(); ++j) {
        ASSERT_EQ(st.local_nodes[static_cast<std::size_t>(slots[j])], elem[j])
            << at;
      }
    }
    EXPECT_EQ(st.positions.size(), local.size()) << at;
    EXPECT_EQ(st.node_mask.size(), local.size()) << at;
    EXPECT_EQ(st.contact_hits.size(), owned) << at;
    // The one per-node array over the whole mesh, shared.
    EXPECT_EQ(st.node_owner->data(), dsim.start_owner().data()) << at;
    EXPECT_EQ(st.node_owner->size(), nn) << at;
    EXPECT_LT(local.size(), nn) << at;
    EXPECT_LT(st.halo_sends.size(), nn) << at;
    EXPECT_EQ(st.tracked_local.size(),
              st.tracked_elements.size() *
                  static_cast<std::size_t>(st.element_size))
        << at;
  }
}

TEST(DistributedSim, RankStateIsLocal) {
  ThreadPool::set_global_threads(4);
  const ImpactSim sim(small_impact_config());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpart_rank_state_local_" + std::to_string(::getpid()));
  for (idx_t k : {idx_t{4}, idx_t{25}}) {
    std::filesystem::remove_all(dir);
    DistributedSimConfig config;
    config.decomposition.k = k;
    config.search.search_margin = 0.12;
    config.search.contact_tolerance = 0.08;
    config.repartition_period = 2;
    config.repartition.epsilon = 0.02;
    config.checkpoint_dir = dir.string();
    DistributedSim dsim(sim, config);
    const std::string what = "k=" + std::to_string(k);
    expect_rank_states_local(dsim, what + " init");
    idx_t moved = 0;
    for (idx_t s = 0; s < 8; ++s) {
      const DistributedStepReport r = dsim.run_step(4 * s);
      moved += r.repart_moved_nodes;
      expect_rank_states_local(dsim, what + " step " + std::to_string(s));
    }
    // The migrations re-numbered real ownership changes.
    EXPECT_GT(moved, 0) << what;
    ASSERT_TRUE(dsim.suspend()) << what;
    ASSERT_TRUE(dsim.resume()) << what;
    expect_rank_states_local(dsim, what + " resumed");
    dsim.run_step(36);
    expect_rank_states_local(dsim, what + " after resume");
  }
  std::filesystem::remove_all(dir);
  ThreadPool::set_global_threads(0);
}

/// Every rank's numbering and views — as a migration commit left them —
/// equal a fresh SubdomainState::init from the same ownership map.
void expect_views_match_full_rebuild(const DistributedSim& dsim,
                                     const std::string& what) {
  const auto owner =
      std::make_shared<const std::vector<idx_t>>(dsim.ownership_map());
  for (const SubdomainState& st : dsim.states()) {
    const std::string at = what + " rank " + std::to_string(st.rank);
    SubdomainState fresh;
    fresh.init(dsim.topology(), st.rank, owner, dsim.k());
    ASSERT_EQ(st.local_nodes, fresh.local_nodes) << at;
    ASSERT_EQ(st.num_owned, fresh.num_owned) << at;
    ASSERT_EQ(st.tracked_elements, fresh.tracked_elements) << at;
    ASSERT_EQ(st.tracked_local, fresh.tracked_local) << at;
    ASSERT_EQ(st.owned_elements, fresh.owned_elements) << at;
    ASSERT_EQ(st.halo_sends.size(), fresh.halo_sends.size()) << at;
    for (std::size_t i = 0; i < st.halo_sends.size(); ++i) {
      ASSERT_EQ(st.halo_sends[i].local, fresh.halo_sends[i].local) << at;
      ASSERT_EQ(st.halo_sends[i].dst, fresh.halo_sends[i].dst) << at;
    }
    ASSERT_EQ(st.positions.size(), fresh.positions.size()) << at;
    ASSERT_EQ(st.contact_hits.size(), fresh.contact_hits.size()) << at;
    ASSERT_EQ(st.node_mask, fresh.node_mask) << at;
  }
}

/// Every rank's halo providers are its ghosts' owners: the distinct owners
/// of its ghost block, ascending, are exactly the ranks whose halo_sends
/// name it.
void expect_providers_are_ghost_owners(const DistributedSim& dsim,
                                       const std::string& what) {
  std::vector<std::set<idx_t>> senders(static_cast<std::size_t>(dsim.k()));
  for (const SubdomainState& st : dsim.states()) {
    for (const HaloSend& hs : st.halo_sends) {
      senders[static_cast<std::size_t>(hs.dst)].insert(st.rank);
    }
  }
  for (const SubdomainState& st : dsim.states()) {
    std::vector<idx_t> owners;
    for (std::size_t i = static_cast<std::size_t>(st.num_owned);
         i < st.local_nodes.size(); ++i) {
      owners.push_back(st.owner_of(st.local_nodes[i]));
    }
    EXPECT_TRUE(std::ranges::is_sorted(owners)) << what << " rank " << st.rank;
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    const std::set<idx_t>& want = senders[static_cast<std::size_t>(st.rank)];
    EXPECT_TRUE(std::ranges::equal(owners, want))
        << what << " rank " << st.rank;
  }
}

TEST(DistributedSim, MigrationViewsMatchFullRebuild) {
  // k = 25 on the small impact scene, repartitioning every step: each
  // migration commit updates the views of the ranks its label changes
  // touch, and leaves the others as they are (all of them, on a step that
  // changes no label). After every step each rank's views must equal a
  // full rebuild from the new labels, and the step must equal the
  // reference body — plain and under a seeded 2% fault schedule.
  ThreadPool::set_global_threads(4);
  const ImpactSim sim(small_impact_config());
  DistributedSimConfig config;
  config.decomposition.k = 25;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  config.repartition_period = 1;
  config.repartition.epsilon = 0.02;
  for (const double fault_rate : {0.0, 0.02}) {
    DistributedSim dsim(sim, config);
    ReferenceSim oracle(sim, config);
    FaultConfig fc;
    fc.seed = chaos_seed();
    fc.cell_fault_probability = fault_rate;
    FaultInjector injector(fc);
    if (fault_rate > 0) {
      dsim.exchange().set_fault_injector(&injector);
      dsim.exchange().set_retry_policy({.max_attempts = 10});
    }
    idx_t moved = 0;
    idx_t partial = 0;  // steps that moved nodes but skipped some ranks
    idx_t still = 0;    // migration steps that changed no label
    for (idx_t i = 0; i < 24; ++i) {
      // Strided snapshots: the contact mask, and with it the repartition,
      // changes more between steps.
      const idx_t s = (7 * i) % 40;
      const std::string what = "fault rate " + std::to_string(fault_rate) +
                               " s=" + std::to_string(s);
      const DistributedStepReport want = oracle.run_step(s);
      const DistributedStepReport got = dsim.run_step(s);
      expect_reports_identical(got, want, what);
      expect_views_match_full_rebuild(dsim, what);
      expect_providers_are_ghost_owners(dsim, what);
      EXPECT_EQ(got.migrated, i > 0) << what;
      EXPECT_EQ(got.health.degraded_steps, 0) << what;
      EXPECT_LE(got.migration_ranks_rebuilt, dsim.k()) << what;
      if (got.migrated && got.repart_moved_nodes == 0) {
        // No label changed: the protocol ran, but no rank's views did.
        EXPECT_EQ(got.label_broadcast_bytes, 0) << what;
        EXPECT_EQ(got.migration_ranks_rebuilt, 0) << what;
        ++still;
      } else {
        EXPECT_EQ(got.migration_ranks_rebuilt > 0, got.migrated) << what;
      }
      moved += got.repart_moved_nodes;
      if (got.repart_moved_nodes > 0 &&
          got.migration_ranks_rebuilt < dsim.k()) {
        ++partial;
      }
    }
    EXPECT_GT(moved, 0) << "fault rate " << fault_rate;
    EXPECT_GT(partial, 0) << "fault rate " << fault_rate;
    EXPECT_GT(still, 0) << "fault rate " << fault_rate;
    if (fault_rate > 0) {
      EXPECT_GT(injector.stats().faults_injected, 0) << "schedule was empty";
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(DistributedSim, StartSnapshotTracksRankState) {
  // The start-of-step snapshot the next step degrades from is not gathered
  // at step start: a successful step leaves its end state there, and every
  // load of the rank states sets it from what it loaded. After each kind of
  // step and state change it must equal a fresh gather, every rank must
  // view the very map start_owner() views, and every rank's halo providers
  // must be its ghosts' owners.
  ThreadPool::set_global_threads(4);
  const ImpactSim sim(small_impact_config());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpart_start_snapshot_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DistributedSimConfig config;
  config.decomposition.k = 8;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  config.repartition_period = 3;
  config.checkpoint_period = 2;
  config.checkpoint_dir = dir.string();
  DistributedSim dsim(sim, config);
  const auto expect_current = [&dsim](const std::string& what) {
    EXPECT_TRUE(std::ranges::equal(dsim.start_owner(), dsim.ownership_map()))
        << what;
    for (const SubdomainState& st : dsim.states()) {
      EXPECT_EQ(st.node_owner->data(), dsim.start_owner().data())
          << what << " rank " << st.rank;
    }
    EXPECT_TRUE(std::ranges::equal(dsim.start_hits(),
                                   dsim.gather_contact_hits()))
        << what;
    expect_providers_are_ghost_owners(dsim, what);
  };
  expect_current("construction");
  idx_t s = 0;
  const auto step = [&](const std::string& what) {
    const DistributedStepReport r = dsim.run_step(s);
    s += 3;
    expect_current(what + " at snapshot " + std::to_string(r.step));
    return r;
  };
  bool migrated = false;
  for (int i = 0; i < 6; ++i) migrated = step("SPMD step").migrated || migrated;
  EXPECT_TRUE(migrated);

  // A forced-degraded migration step: every cell corrupted, one attempt.
  FaultConfig corrupt_all;
  corrupt_all.cell_fault_probability = 1.0;
  FaultInjector corrupter(corrupt_all);
  dsim.exchange().set_fault_injector(&corrupter);
  dsim.exchange().set_retry_policy({.max_attempts = 1});
  const DistributedStepReport degraded = step("degraded step");
  EXPECT_EQ(degraded.health.degraded_steps, 1);
  EXPECT_TRUE(degraded.migrated);
  dsim.exchange().set_retry_policy({});

  // A restore: a rank killed at the next step restores the last checkpoint
  // and replays.
  FaultConfig kill;
  kill.kill_rank = 1;
  kill.kill_step = 7;  // steps run so far
  FaultInjector killer(kill);
  dsim.exchange().set_fault_injector(&killer);
  EXPECT_TRUE(step("restore and replay").recovered);
  dsim.exchange().set_fault_injector(nullptr);

  ASSERT_TRUE(dsim.suspend());
  ASSERT_TRUE(dsim.resume());
  expect_current("resume");
  step("step after resume");

  const std::vector<wgt_t> hits = dsim.gather_contact_hits();
  EXPECT_GT(std::accumulate(hits.begin(), hits.end(), wgt_t{0}), 0);
  std::filesystem::remove_all(dir);
  ThreadPool::set_global_threads(0);
}

TEST(DistributedSim, MigrationSharesOneDecodedMap) {
  // A migration step decodes the label broadcast once, into the updates
  // and the next ownership map, and every rank and the driver share that
  // result: after each step the k ranks and the driver hold one map object
  // and nothing else holds it. A step that changes labels starts a new
  // map, a step that changes none keeps the old one, and the map equals
  // the reference body's labels — plain and under a seeded 2% fault
  // schedule.
  ThreadPool::set_global_threads(4);
  const ImpactSim sim(small_impact_config());
  DistributedSimConfig config;
  config.decomposition.k = 8;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  config.repartition_period = 1;
  config.repartition.epsilon = 0.02;
  for (const double fault_rate : {0.0, 0.02}) {
    DistributedSim dsim(sim, config);
    ReferenceSim oracle(sim, config);
    FaultConfig fc;
    fc.seed = chaos_seed();
    fc.cell_fault_probability = fault_rate;
    FaultInjector injector(fc);
    if (fault_rate > 0) {
      dsim.exchange().set_fault_injector(&injector);
      dsim.exchange().set_retry_policy({.max_attempts = 10});
    }
    idx_t relabelled = 0;
    for (idx_t i = 0; i < 12; ++i) {
      const idx_t s = (7 * i) % 40;
      const std::string what = "fault rate " + std::to_string(fault_rate) +
                               " s=" + std::to_string(s);
      const std::vector<idx_t>* before = dsim.states()[0].node_owner.get();
      oracle.run_step(s);
      const DistributedStepReport got = dsim.run_step(s);
      ASSERT_EQ(got.health.degraded_steps, 0) << what;
      const auto& map = dsim.states()[0].node_owner;
      for (const SubdomainState& st : dsim.states()) {
        EXPECT_EQ(st.node_owner, map) << what << " rank " << st.rank;
      }
      EXPECT_EQ(map->data(), dsim.start_owner().data()) << what;
      EXPECT_EQ(map.use_count(), dsim.k() + 1) << what;
      EXPECT_EQ(map.get() != before, got.repart_moved_nodes > 0) << what;
      EXPECT_EQ(*map, oracle.ownership_map()) << what;
      relabelled += got.repart_moved_nodes > 0 ? 1 : 0;
    }
    EXPECT_GT(relabelled, 0) << "fault rate " << fault_rate;
  }
  ThreadPool::set_global_threads(0);
}

TEST(DistributedSim, SuspendedAccessorsThrow) {
  // suspend() releases the rank states: every accessor that reads them
  // throws until resume() restores them, and then returns what it returned
  // before the suspend. A step after the resume equals the one of a twin
  // that never suspended.
  ThreadPool::set_global_threads(4);
  const ImpactSim sim(small_impact_config());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cpart_suspended_accessors_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DistributedSimConfig config;
  config.decomposition.k = 8;
  config.search.search_margin = 0.12;
  config.search.contact_tolerance = 0.08;
  config.repartition_period = 2;
  DistributedSim twin(sim, config);
  config.checkpoint_dir = dir.string();
  DistributedSim dsim(sim, config);
  for (idx_t s = 0; s < 12; s += 3) {
    dsim.run_step(s);
    twin.run_step(s);
  }
  const std::vector<idx_t> owner = dsim.ownership_map();
  const std::vector<wgt_t> hits = dsim.gather_contact_hits();
  ASSERT_TRUE(dsim.suspend());
  EXPECT_THROW(dsim.ownership_map(), InputError);
  EXPECT_THROW(dsim.gather_contact_hits(), InputError);
  EXPECT_THROW(dsim.run_step(12), InputError);
  EXPECT_TRUE(dsim.start_owner().empty());
  ASSERT_TRUE(dsim.resume());
  EXPECT_EQ(dsim.ownership_map(), owner);
  EXPECT_EQ(dsim.gather_contact_hits(), hits);
  const DistributedStepReport want = twin.run_step(12);
  const DistributedStepReport got = dsim.run_step(12);
  EXPECT_EQ(got.ownership_hash, want.ownership_hash);
  EXPECT_EQ(dsim.ownership_map(), twin.ownership_map());
  std::filesystem::remove_all(dir);
  ThreadPool::set_global_threads(0);
}

TEST(DistributedSim, ResidentEstimateBoundsMeasuredBytes) {
  // The admission estimate is an upper bound on what the rank states hold
  // in the steady state (descriptor trees and per-step products grown to
  // the largest contact surface), within a factor of 2, on two impact
  // resolutions at the paper's rank counts.
  ThreadPool::set_global_threads(4);
  for (double resolution : {0.25, 1.0}) {
    ImpactSimConfig sc;
    sc.scale_resolution(resolution);
    const ImpactSim sim(sc);
    const real_t cell = sc.plate_width / static_cast<real_t>(sc.plate_cells_xy);
    for (idx_t k : {idx_t{4}, idx_t{25}, idx_t{100}}) {
      DistributedSimConfig config;
      config.decomposition.k = k;
      config.search.search_margin = 0.5 * cell;
      config.search.contact_tolerance = 0.25 * cell;
      DistributedSim dsim(sim, config);
      std::size_t measured = dsim.resident_bytes();
      for (idx_t s : {0, 25, 50, 75, 99}) {
        dsim.run_step(s);
        measured = std::max(measured, dsim.resident_bytes());
      }
      const std::size_t estimate = DistributedSim::estimate_resident_bytes(
          sim.initial_mesh().num_nodes(), sim.initial_mesh().num_elements(),
          k);
      const std::string what = "resolution " + std::to_string(resolution) +
                               " k=" + std::to_string(k);
      EXPECT_GE(estimate, measured) << what;
      EXPECT_LE(estimate, 2 * measured) << what;
    }
  }
  ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace cpart
