// Tests for core/pipeline: the ML+RCB baseline step end to end, including
// the exactness property — the distributed search finds exactly the events
// a serial search finds (no contact is lost to the decomposition).
// DistributedSim, the MCML+DT step, has the same checks in distributed_test.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "sim/impact_sim.hpp"

namespace cpart {
namespace {

class PipelineTest : public ::testing::Test {
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

  MlRcbStepConfig config(idx_t k) const {
    MlRcbStepConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap0_;
  std::vector<int> body_;
};

TEST_F(PipelineTest, RejectsMarginSmallerThanTolerance) {
  MlRcbStepConfig c = config(4);
  c.search.search_margin = 0.01;
  EXPECT_THROW(MlRcbPipeline(snap0_.mesh, snap0_.surface, c), InputError);
}

TEST_F(PipelineTest, ReportBookkeepingConsistent) {
  const auto snap = sim_->snapshot(29);
  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config(6));
  const MlRcbStepReport r = pipeline.run_step(snap.mesh, snap.surface, body_);
  ASSERT_GT(r.contact_events, 0);
  // Per-processor counts sum to the total.
  idx_t sum = 0;
  for (idx_t c : r.events_per_processor) sum += c;
  EXPECT_EQ(sum, r.contact_events);
  EXPECT_LE(r.penetrating_events, r.contact_events);
  // Traffic snapshots carry k processors each.
  EXPECT_EQ(r.fe_exchange.num_processors(), 6);
  EXPECT_EQ(r.coupling_exchange.num_processors(), 6);
  EXPECT_EQ(r.search_exchange.num_processors(), 6);
  EXPECT_GT(r.fe_exchange.total_units(), 0);
}

TEST_F(PipelineTest, QuietSnapshotHasNoEvents) {
  // Snapshot 0: the projectile hovers above the plate beyond tolerance.
  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config(4));
  const MlRcbStepReport r =
      pipeline.run_step(snap0_.mesh, snap0_.surface, body_);
  EXPECT_EQ(r.contact_events, 0);
  EXPECT_GT(r.fe_exchange.total_units(), 0);  // halo exchange still happens
}

TEST_F(PipelineTest, MlRcbPipelineMatchesSerialToo) {
  // The baseline's bounding-box filter is also conservative: its
  // distributed search must reproduce the serial events as well. Note the
  // ML+RCB local search runs in the *RCB* decomposition of contact nodes.
  const auto snap = sim_->snapshot(29);
  LocalSearchOptions serial_opts;
  serial_opts.tolerance = 0.08;
  serial_opts.body_of_node = body_;
  const auto serial =
      local_contact_search(snap.mesh, snap.surface, serial_opts);
  ASSERT_GT(serial.size(), 0u);

  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config(5));
  // Advance through the snapshots in order (the RCB update is stateful).
  MlRcbStepReport report;
  for (idx_t s : {idx_t{10}, idx_t{20}, idx_t{29}}) {
    const auto si = sim_->snapshot(s);
    report = pipeline.run_step(si.mesh, si.surface, body_);
  }
  ASSERT_EQ(report.events.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(report.events[i].node, serial[i].node);
    EXPECT_DOUBLE_EQ(report.events[i].distance, serial[i].distance);
  }
  // Coupling traffic exists and UpdComm was reported after the first step.
  EXPECT_GT(report.coupling_exchange.total_units(), 0);
}

TEST_F(PipelineTest, MlRcbCouplingIsEvenUnits) {
  const auto snap = sim_->snapshot(20);
  MlRcbPipeline pipeline(snap0_.mesh, snap0_.surface, config(4));
  const MlRcbStepReport r = pipeline.run_step(snap.mesh, snap.surface, body_);
  // One unit each way per mismatched point: total units are even.
  EXPECT_EQ(r.coupling_exchange.total_units() % 2, 0);
}

}  // namespace
}  // namespace cpart
