// SPMD-vs-centralized equivalence of the ML+RCB baseline: its rank/exchange
// execution must be bit-identical to the retained centralized reference —
// merged events, per-rank event counts, and per-processor traffic — at 1
// worker thread and at 8. (DistributedSim, the MCML+DT step, has the same
// oracles in distributed_test.)
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

void expect_events_identical(const std::vector<ContactEvent>& got,
                             const std::vector<ContactEvent>& want,
                             const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " event " << i;
    EXPECT_EQ(got[i].face, want[i].face) << what << " event " << i;
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not
    // tolerance.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " event " << i;
    EXPECT_EQ(got[i].signed_distance, want[i].signed_distance)
        << what << " event " << i;
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(got[i].closest_point[c], want[i].closest_point[c])
          << what << " event " << i;
    }
  }
}

class SpmdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImpactSimConfig sc;
    sc.plate_cells_xy = 16;
    sc.plate_cells_z = 2;
    sc.proj_cells_diameter = 6;
    sc.proj_cells_z = 6;
    sc.num_snapshots = 60;
    sim_ = std::make_unique<ImpactSim>(sc);
    snap0_ = sim_->snapshot(0);
    body_.resize(static_cast<std::size_t>(snap0_.mesh.num_nodes()));
    for (std::size_t i = 0; i < body_.size(); ++i) {
      body_[i] = static_cast<int>(sim_->node_body()[i]);
    }
  }

  void TearDown() override {
    // Other test binaries assume the default pool; restore it.
    ThreadPool::set_global_threads(0);
  }

  MlRcbStepConfig rcb_config(idx_t k) const {
    MlRcbStepConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  // The RCB update is stateful, so the SPMD and reference flavors each
  // drive their own identically-seeded instance through the sequence.
  void check_mlrcb_pipeline(idx_t k) {
    MlRcbPipeline spmd(snap0_.mesh, snap0_.surface, rcb_config(k));
    MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(k));
    for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
      const auto snap = sim_->snapshot(s);
      const MlRcbStepReport ref =
          oracle.run_step_reference(snap.mesh, snap.surface, body_);
      const MlRcbStepReport got = spmd.run_step(snap.mesh, snap.surface, body_);
      expect_events_identical(got.events, ref.events, "mlrcb");
      EXPECT_EQ(got.events_per_processor, ref.events_per_processor);
      EXPECT_EQ(got.contact_events, ref.contact_events);
      EXPECT_EQ(got.penetrating_events, ref.penetrating_events);
      EXPECT_EQ(got.upd_comm, ref.upd_comm) << "s=" << s;
      EXPECT_EQ(got.fe_exchange, ref.fe_exchange) << "s=" << s;
      EXPECT_EQ(got.coupling_exchange, ref.coupling_exchange) << "s=" << s;
      EXPECT_EQ(got.search_exchange, ref.search_exchange) << "s=" << s;
      EXPECT_EQ(got.coupling_payload_bytes,
                got.coupling_exchange.total_units() *
                    wire_bytes(ContactPointMsg{}));
      EXPECT_EQ(got.box_allgather_bytes, static_cast<wgt_t>(k) * (k - 1) *
                                             wire_bytes(SubdomainBoxMsg{}));
      EXPECT_TRUE(got.health.clean()) << got.health.summary();
      EXPECT_EQ(got.health.deliveries, 2);
    }
  }

  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap0_;
  std::vector<int> body_;
};

TEST_F(SpmdTest, MlRcbPipelineMatchesReferenceSingleThread) {
  ThreadPool::set_global_threads(1);
  check_mlrcb_pipeline(4);
}

TEST_F(SpmdTest, MlRcbPipelineMatchesReferenceEightThreads) {
  ThreadPool::set_global_threads(8);
  check_mlrcb_pipeline(4);
  check_mlrcb_pipeline(7);
}

TEST_F(SpmdTest, SingleRankMovesNoBytes) {
  ThreadPool::set_global_threads(8);
  MlRcbPipeline spmd(snap0_.mesh, snap0_.surface, rcb_config(1));
  MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(1));
  const auto snap = sim_->snapshot(29);
  const MlRcbStepReport r = spmd.run_step(snap.mesh, snap.surface, body_);
  EXPECT_EQ(r.halo_payload_bytes, 0);
  EXPECT_EQ(r.face_payload_bytes, 0);
  EXPECT_EQ(r.coupling_payload_bytes, 0);
  EXPECT_EQ(r.box_allgather_bytes, 0);
  EXPECT_EQ(r.fe_exchange.total_units(), 0);
  EXPECT_EQ(r.coupling_exchange.total_units(), 0);
  EXPECT_EQ(r.search_exchange.total_units(), 0);
  const MlRcbStepReport ref =
      oracle.run_step_reference(snap.mesh, snap.surface, body_);
  expect_events_identical(r.events, ref.events, "k=1");
}

TEST_F(SpmdTest, ForeignSnapshotIsRejected) {
  // Snapshots must come from the sequence the pipeline was built on: node
  // ids are the partition's frame of reference, so a mesh of a different
  // simulation (different node count) must be rejected up front instead of
  // silently mis-partitioning.
  ThreadPool::set_global_threads(4);
  ImpactSimConfig other_config;
  other_config.plate_cells_xy = 8;
  other_config.plate_cells_z = 2;
  other_config.proj_cells_diameter = 4;
  other_config.proj_cells_z = 4;
  other_config.num_snapshots = 10;
  ImpactSim other(other_config);
  const auto foreign = other.snapshot(3);
  std::vector<int> foreign_body(
      static_cast<std::size_t>(foreign.mesh.num_nodes()), 0);

  MlRcbPipeline mlrcb(snap0_.mesh, snap0_.surface, rcb_config(3));
  EXPECT_THROW(mlrcb.run_step(foreign.mesh, foreign.surface, foreign_body),
               InputError);
  EXPECT_THROW(
      mlrcb.run_step_reference(foreign.mesh, foreign.surface, foreign_body),
      InputError);
}

TEST_F(SpmdTest, GrowingElementCountIsRejected) {
  // Elements only erode across a valid sequence. A pipeline built on a
  // late (eroded) snapshot must reject an earlier snapshot with more
  // elements — that is a sequence driven backwards or a foreign mesh.
  ThreadPool::set_global_threads(4);
  const auto late = sim_->snapshot(45);
  ASSERT_LT(late.mesh.num_elements(), snap0_.mesh.num_elements());
  MlRcbPipeline mlrcb(late.mesh, late.surface, rcb_config(3));
  EXPECT_THROW(mlrcb.run_step(snap0_.mesh, snap0_.surface, body_),
               InputError);
}

TEST_F(SpmdTest, PhaseTimingsCoverEveryRank) {
  ThreadPool::set_global_threads(4);
  const idx_t k = 6;
  MlRcbPipeline spmd(snap0_.mesh, snap0_.surface, rcb_config(k));
  MlRcbPipeline oracle(snap0_.mesh, snap0_.surface, rcb_config(k));
  const auto snap = sim_->snapshot(29);
  const MlRcbStepReport r = spmd.run_step(snap.mesh, snap.surface, body_);
  const RankPhaseBreakdown& p = r.phase;
  for (const std::vector<double>* v :
       {&p.descriptor_ms, &p.halo_ms, &p.ship_ms, &p.search_ms,
        &p.descriptor_wait_ms, &p.ship_wait_ms, &p.search_wait_ms}) {
    ASSERT_EQ(v->size(), static_cast<std::size_t>(k));
    for (double ms : *v) EXPECT_GE(ms, 0.0);
  }
  // ML+RCB has no descriptor phase.
  for (idx_t q = 0; q < k; ++q) {
    EXPECT_EQ(p.descriptor_ms[static_cast<std::size_t>(q)], 0.0);
    EXPECT_EQ(p.descriptor_wait_ms[static_cast<std::size_t>(q)], 0.0);
  }
  // The reference path has no per-rank execution: its breakdown is empty.
  const MlRcbStepReport ref =
      oracle.run_step_reference(snap.mesh, snap.surface, body_);
  EXPECT_TRUE(ref.phase.search_ms.empty());
}

}  // namespace
}  // namespace cpart
