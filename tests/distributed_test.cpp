// DistributedSim equivalence: the rank-owned SPMD step (per-rank kinematics,
// halo exchange, local surface extraction, descriptor induction, global +
// local search, and live element migration on repartition steps) must be
// bit-identical to the centralized reference body — events, traffic
// matrices, payload bytes, ownership maps, and contact-hit accumulators — at
// 1 worker thread and at 8, including under the fault-injected transport.
// The step must also be exact against a serial search of the snapshot (no
// contact is lost to the decomposition), and its halo traffic must equal a
// brute-force count over the element closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "contact/local_search.hpp"
#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

// The fault-retry soak seed can be swept from CI via CPART_CHAOS_SEED, the
// same knob tests/chaos_test.cpp uses, to vary the corruption schedule.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("CPART_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 11;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

void expect_events_identical(const std::vector<ContactEvent>& got,
                             const std::vector<ContactEvent>& want,
                             const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " event " << i;
    EXPECT_EQ(got[i].face, want[i].face) << what << " event " << i;
    // Exact double comparison — bit-identity, not tolerance.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " event " << i;
    EXPECT_EQ(got[i].signed_distance, want[i].signed_distance)
        << what << " event " << i;
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(got[i].closest_point[c], want[i].closest_point[c])
          << what << " event " << i;
    }
  }
}

// Every report field except health (the reference path runs no transport).
void expect_reports_identical(const DistributedStepReport& got,
                              const DistributedStepReport& want,
                              const std::string& what) {
  EXPECT_EQ(got.step, want.step) << what;
  EXPECT_EQ(got.migrated, want.migrated) << what;
  EXPECT_EQ(got.fe_exchange, want.fe_exchange) << what;
  EXPECT_EQ(got.coupling_exchange, want.coupling_exchange) << what;
  EXPECT_EQ(got.search_exchange, want.search_exchange) << what;
  EXPECT_EQ(got.migration_exchange, want.migration_exchange) << what;
  EXPECT_EQ(got.descriptor_tree_nodes, want.descriptor_tree_nodes) << what;
  EXPECT_EQ(got.descriptor_broadcast_bytes, want.descriptor_broadcast_bytes)
      << what;
  EXPECT_EQ(got.label_broadcast_bytes, want.label_broadcast_bytes) << what;
  EXPECT_EQ(got.halo_payload_bytes, want.halo_payload_bytes) << what;
  EXPECT_EQ(got.coupling_payload_bytes, want.coupling_payload_bytes) << what;
  EXPECT_EQ(got.face_payload_bytes, want.face_payload_bytes) << what;
  EXPECT_EQ(got.migration_payload_bytes, want.migration_payload_bytes) << what;
  EXPECT_EQ(got.repart_moved_nodes, want.repart_moved_nodes) << what;
  EXPECT_EQ(got.repart_moved_elements, want.repart_moved_elements) << what;
  EXPECT_EQ(got.contact_events, want.contact_events) << what;
  EXPECT_EQ(got.penetrating_events, want.penetrating_events) << what;
  EXPECT_EQ(got.events_per_processor, want.events_per_processor) << what;
  EXPECT_EQ(got.ownership_hash, want.ownership_hash) << what;
  expect_events_identical(got.events, want.events, what);
}

class DistributedSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImpactSimConfig sc;
    sc.plate_cells_xy = 12;
    sc.plate_cells_z = 2;
    sc.proj_cells_diameter = 6;
    sc.proj_cells_z = 6;
    sc.num_snapshots = 40;
    sim_ = std::make_unique<ImpactSim>(sc);
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

  // Two identically-configured instances: one driven SPMD, one through the
  // centralized reference body. Every step — including the two
  // repartition+migration steps the period puts in the sequence — must
  // produce identical reports and identical end-of-step rank state.
  void check_bit_identity(idx_t k) {
    const DistributedSimConfig config = make_config(k, /*period=*/2);
    DistributedSim spmd(*sim_, config);
    DistributedSim oracle(*sim_, config);
    bool saw_migration = false;
    for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}, idx_t{15}, idx_t{20},
                    idx_t{29}}) {
      const std::string what = "k=" + std::to_string(k) +
                               " s=" + std::to_string(s);
      const DistributedStepReport ref = oracle.run_step_reference(s);
      const DistributedStepReport got = spmd.run_step(s);
      expect_reports_identical(got, ref, what);
      saw_migration = saw_migration || got.migrated;
      // End-of-step authoritative state, not just this step's products.
      EXPECT_EQ(spmd.ownership_map(), oracle.ownership_map()) << what;
      EXPECT_EQ(spmd.gather_contact_hits(), oracle.gather_contact_hits())
          << what;
      // A fault-free transport is clean: 4 deliveries per step, plus the
      // migration superstep on repartition steps. The reference path runs
      // no transport at all.
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
    std::vector<int> body;
    for (Body b : sim_->node_body()) body.push_back(static_cast<int>(b));
    LocalSearchOptions opts;
    opts.tolerance = 0.08;
    opts.body_of_node = body;
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
  DistributedSim oracle(*sim_, make_config(1, /*period=*/2));
  for (idx_t s : {idx_t{0}, idx_t{10}, idx_t{20}, idx_t{29}}) {
    const DistributedStepReport ref = oracle.run_step_reference(s);
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
  DistributedSim faulty(*sim_, make_config(4, /*period=*/2));
  DistributedSim oracle(*sim_, make_config(4, /*period=*/2));
  FaultInjector injector(
      FaultConfig{.seed = 7, .cell_fault_probability = 1.0});

  // Step 0 runs clean on both, step 1 (not yet a migration step) and step 2
  // (the first migration step) exhaust the budget on the faulty instance.
  for (idx_t s : {idx_t{0}, idx_t{5}, idx_t{10}}) {
    const bool inject = s != 0;
    faulty.exchange().set_fault_injector(inject ? &injector : nullptr);
    faulty.exchange().set_retry_policy({.max_attempts = 2});
    const DistributedStepReport ref = oracle.run_step_reference(s);
    const DistributedStepReport got = faulty.run_step(s);
    EXPECT_EQ(got.health.degraded(), inject) << "s=" << s;
    if (inject) {
      EXPECT_EQ(got.health.degraded_steps, 1) << "s=" << s;
      // The degraded step ran no per-rank execution.
      EXPECT_TRUE(got.phase.search_ms.empty()) << "s=" << s;
      EXPECT_EQ(got.health.exhausted_deliveries, 1) << "s=" << s;
      EXPECT_GT(got.health.corrupt_cells, 0) << "s=" << s;
    }
    // The degraded step still produces the full, correct answer — the
    // mid-step corruption never leaks into the authoritative state.
    expect_reports_identical(got, ref, "degraded s=" + std::to_string(s));
    EXPECT_EQ(faulty.ownership_map(), oracle.ownership_map()) << "s=" << s;
    EXPECT_EQ(faulty.gather_contact_hits(), oracle.gather_contact_hits())
        << "s=" << s;
  }

  // Disarming the injector heals the sequence completely: the degraded
  // steps left the same state a clean run would have.
  faulty.exchange().set_fault_injector(nullptr);
  const DistributedStepReport ref = oracle.run_step_reference(15);
  const DistributedStepReport healed = faulty.run_step(15);
  EXPECT_TRUE(healed.health.clean()) << healed.health.summary();
  expect_reports_identical(healed, ref, "healed s=15");
}

TEST_F(DistributedSimTest, RejectsMarginSmallerThanTolerance) {
  DistributedSimConfig c = make_config(4, /*period=*/0);
  c.search.search_margin = 0.01;
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
        &p.descriptor_wait_ms, &p.ship_wait_ms, &p.search_wait_ms}) {
    ASSERT_EQ(v->size(), static_cast<std::size_t>(k));
    for (double ms : *v) EXPECT_GE(ms, 0.0);
  }
  // Rank 0's descriptor phase is the driver's induction + encode.
  EXPECT_GT(p.descriptor_ms[0], 0.0);
  // The reference path has no per-rank execution: its breakdown is empty.
  const DistributedStepReport ref = dsim.run_step_reference(30);
  EXPECT_TRUE(ref.phase.descriptor_ms.empty());
  EXPECT_TRUE(ref.phase.search_ms.empty());
}

}  // namespace
}  // namespace cpart
