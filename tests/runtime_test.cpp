// Tests for runtime/: the virtual cluster, the cross-validation between
// executed traffic and the analytic metrics (FEComm, NRemote, M2MComm), and
// the AsyncExecutor's plain-superstep and failure semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "contact/search_metrics.hpp"
#include "core/mcml_dt.hpp"
#include "core/ml_rcb.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/health.hpp"
#include "runtime/label_codec.hpp"
#include "runtime/session_context.hpp"
#include "runtime/virtual_cluster.hpp"
#include "sim/impact_sim.hpp"
#include "tree/tree_io.hpp"
#include "util/varint.hpp"

namespace cpart {
namespace {

TEST(VirtualCluster, AccumulatesAndResets) {
  VirtualCluster cluster(3);
  cluster.send(0, 1, 5);
  cluster.send(0, 1, 2);
  cluster.send(1, 2, 1);
  cluster.send(2, 2, 100);  // self-send ignored
  StepTraffic t = cluster.finish();
  EXPECT_EQ(t.total_units(), 8);
  EXPECT_EQ(t.processors[0].sent_units, 7);
  EXPECT_EQ(t.processors[1].received_units, 7);
  EXPECT_EQ(t.processors[1].sent_units, 1);
  EXPECT_EQ(t.processors[2].received_units, 1);
  EXPECT_EQ(t.total_messages(), 2);
  // finish() resets.
  StepTraffic empty = cluster.finish();
  EXPECT_EQ(empty.total_units(), 0);
}

TEST(VirtualCluster, ImbalanceOfUniformTrafficIsOne) {
  VirtualCluster cluster(4);
  for (idx_t i = 0; i < 4; ++i) cluster.send(i, (i + 1) % 4, 10);
  const StepTraffic t = cluster.finish();
  EXPECT_DOUBLE_EQ(t.imbalance(), 1.0);
  EXPECT_EQ(t.max_received(), 10);
  EXPECT_EQ(t.max_sent(), 10);
}

TEST(VirtualCluster, RejectsBadSends) {
  VirtualCluster cluster(2);
  EXPECT_THROW(cluster.send(-1, 0, 1), InputError);
  EXPECT_THROW(cluster.send(0, 2, 1), InputError);
  EXPECT_THROW(cluster.send(0, 1, -3), InputError);
}

TEST(Traffic, FeHaloMatchesTotalCommVolume) {
  const CsrGraph g = make_grid_graph(16, 16);
  std::vector<idx_t> part(256);
  for (idx_t v = 0; v < 256; ++v) {
    part[static_cast<std::size_t>(v)] = (v % 16) / 4;  // 4 column stripes
  }
  const StepTraffic t = fe_halo_traffic(g, part, 4);
  EXPECT_EQ(t.total_units(), total_comm_volume(g, part));
  EXPECT_GT(t.total_units(), 0);
}

TEST(Traffic, StepTrafficAddition) {
  const CsrGraph g = make_path_graph(6);
  const std::vector<idx_t> part{0, 0, 1, 1, 2, 2};
  StepTraffic a = fe_halo_traffic(g, part, 3);
  const wgt_t single = a.total_units();
  a += fe_halo_traffic(g, part, 3);
  EXPECT_EQ(a.total_units(), 2 * single);
}

TEST(Traffic, ImbalanceOfSingleProcessorIsOne) {
  // k=1: nothing can be uneven, and all traffic is local (zero).
  VirtualCluster cluster(1);
  cluster.send(0, 0, 7);  // self-send: dropped
  const StepTraffic t = cluster.finish();
  ASSERT_EQ(t.num_processors(), 1);
  EXPECT_EQ(t.total_units(), 0);
  EXPECT_DOUBLE_EQ(t.imbalance(), 1.0);
}

TEST(Traffic, ImbalanceOfAllZeroTrafficIsOne) {
  // A quiet step must not divide by the zero mean.
  StepTraffic t;
  t.processors.resize(5);
  EXPECT_DOUBLE_EQ(t.imbalance(), 1.0);
  EXPECT_EQ(t.total_units(), 0);
  // And the degenerate empty snapshot too.
  EXPECT_DOUBLE_EQ(StepTraffic{}.imbalance(), 1.0);
}

TEST(Traffic, AdditionRejectsProcessorCountMismatch) {
  StepTraffic a;
  a.processors.resize(3);
  StepTraffic b;
  b.processors.resize(4);
  EXPECT_THROW(a += b, InputError);
  // The failed addition must not have mutated the target.
  EXPECT_EQ(a.num_processors(), 3);
  EXPECT_EQ(a.total_units(), 0);
}

TEST(Traffic, TotalMessagesOnEmptyClusterIsZero) {
  VirtualCluster cluster(4);
  const StepTraffic t = cluster.finish();
  EXPECT_EQ(t.total_messages(), 0);
  EXPECT_EQ(t.max_sent(), 0);
  EXPECT_EQ(t.max_received(), 0);
}

class EndToEndTraffic : public ::testing::Test {
 protected:
  void SetUp() override {
    ImpactSimConfig config;
    config.plate_cells_xy = 14;
    config.plate_cells_z = 2;
    config.proj_cells_diameter = 6;
    config.proj_cells_z = 6;
    config.num_snapshots = 4;
    sim_ = std::make_unique<ImpactSim>(config);
    snap_ = sim_->snapshot(1);
  }
  std::unique_ptr<ImpactSim> sim_;
  ImpactSim::Snapshot snap_;
  static constexpr idx_t kParts = 6;
};

TEST_F(EndToEndTraffic, GlobalSearchTrafficMatchesNRemote) {
  McmlDtConfig config;
  config.k = kParts;
  const McmlDtPartitioner p(snap_.mesh, snap_.surface, config);
  const auto desc = p.build_descriptors(snap_.mesh, snap_.surface);
  const auto owners = face_owners(snap_.surface, p.node_partition(), kParts);
  const auto analytic =
      global_search_tree(snap_.mesh, snap_.surface, owners, desc, 0.1);
  const StepTraffic executed = global_search_traffic(
      snap_.mesh, snap_.surface, owners, 0.1, kParts,
      [&desc](const BBox& box, std::vector<idx_t>& parts) {
        desc.query_box(box, parts);
      });
  EXPECT_EQ(executed.total_units(), analytic.remote_sends);
  EXPECT_GE(executed.imbalance(), 1.0);
}

TEST_F(EndToEndTraffic, M2MTrafficIsTwiceM2MComm) {
  MlRcbConfig config;
  config.k = kParts;
  const MlRcbPartitioner p(snap_.mesh, snap_.surface, config);
  std::vector<idx_t> fe_labels;
  for (idx_t id : snap_.surface.contact_nodes) {
    fe_labels.push_back(p.node_partition()[static_cast<std::size_t>(id)]);
  }
  const M2MResult m2m = m2m_comm(fe_labels, p.contact_labels(), kParts);
  const StepTraffic executed =
      m2m_traffic(fe_labels, p.contact_labels(), m2m.relabel, kParts);
  EXPECT_EQ(executed.total_units(), 2 * m2m.mismatched);
}

TEST_F(EndToEndTraffic, FeHaloTrafficMatchesExperimentMetric) {
  McmlDtConfig config;
  config.k = kParts;
  const McmlDtPartitioner p(snap_.mesh, snap_.surface, config);
  const CsrGraph g = nodal_graph(snap_.mesh);
  const StepTraffic executed = fe_halo_traffic(g, p.node_partition(), kParts);
  EXPECT_EQ(executed.total_units(), total_comm_volume(g, p.node_partition()));
}

TEST(Health, MergeSumsEveryFieldIncludingTimings) {
  PipelineHealth a;
  a.deliveries = 3;
  a.retries = 2;
  a.degraded_steps = 1;
  a.backoff_ms = 1.5;
  a.readiness_stalls = 4;
  a.readiness_stall_ns = 900;
  a.channel(ChannelId::kHalo).corrupt_cells = 2;
  PipelineHealth b;
  b.deliveries = 5;
  b.checkpoints_written = 2;
  b.backoff_ms = 0.5;
  b.readiness_stalls = 1;
  b.channel(ChannelId::kHalo).corrupt_cells = 3;

  PipelineHealth merged = a;
  // operator+= is the aggregation entry service rollups use; it must
  // include the timing fields operator== deliberately excludes.
  PipelineHealth& ret = merged += b;
  EXPECT_EQ(&ret, &merged);  // chains
  EXPECT_EQ(merged.deliveries, 8);
  EXPECT_EQ(merged.retries, 2);
  EXPECT_EQ(merged.degraded_steps, 1);
  EXPECT_EQ(merged.checkpoints_written, 2);
  EXPECT_DOUBLE_EQ(merged.backoff_ms, 2.0);
  EXPECT_EQ(merged.readiness_stalls, 5);
  EXPECT_EQ(merged.readiness_stall_ns, 900);
  EXPECT_EQ(merged.channel(ChannelId::kHalo).corrupt_cells, 5);

  // Aggregation is order-independent on the counted fields.
  PipelineHealth plus = b;
  plus += a;
  EXPECT_EQ(plus.deliveries, merged.deliveries);
  EXPECT_DOUBLE_EQ(plus.backoff_ms, merged.backoff_ms);

  // Merging a default record is the identity on the counted fields.
  PipelineHealth before = merged;
  merged += PipelineHealth{};
  EXPECT_EQ(merged.deliveries, before.deliveries);
  EXPECT_DOUBLE_EQ(merged.backoff_ms, before.backoff_ms);
}

TEST(SessionContextTest, DerivedSeedsAreStableAndDisjoint) {
  SessionContextConfig a;
  a.name = "a";
  a.service_seed = 42;
  a.session_key = 0;
  SessionContextConfig b = a;
  b.name = "b";
  b.session_key = 1;
  SessionContext ca(a), cb(b);
  // Pure function of (service seed, key): rebuilding reproduces the seeds.
  SessionContext ca2(a);
  EXPECT_EQ(ca.seeds().seed(), ca2.seeds().seed());
  EXPECT_EQ(ca.fault_seed(), ca2.fault_seed());
  // Distinct keys give uncorrelated domains.
  EXPECT_NE(ca.seeds().seed(), cb.seeds().seed());
  EXPECT_NE(ca.fault_seed(), cb.fault_seed());
  // The fault domain never aliases the session stream itself.
  EXPECT_NE(ca.fault_seed(), ca.seeds().seed());
}

TEST(SessionContextTest, CheckpointDirAndHealthAccumulation) {
  SessionContextConfig cc;
  cc.name = "tenant";
  cc.checkpoint_root = "/tmp/root";
  SessionContext ctx(cc);
  EXPECT_EQ(ctx.checkpoint_dir(), "/tmp/root/tenant");
  EXPECT_EQ(ctx.injector(), nullptr);

  PipelineHealth step;
  step.deliveries = 4;
  ctx.record_step(step);
  ctx.record_step(step);
  EXPECT_EQ(ctx.steps_recorded(), 2);
  EXPECT_EQ(ctx.health().deliveries, 8);

  SessionContextConfig bare;
  bare.name = "x";
  EXPECT_TRUE(SessionContext(bare).checkpoint_dir().empty());
}

TEST(LabelCodec, RoundTripsBatches) {
  const std::vector<std::vector<LabelUpdate>> cases = {
      {},
      {{0, 0}},
      {{7, 3}},
      {{0, 1}, {1, 2}, {2, 0}},                    // dense run: 1-byte deltas
      {{5, 2}, {900, 15}, {901, 15}, {100000, 7}}, // sparse jumps
  };
  for (const auto& updates : cases) {
    EXPECT_EQ(decode_label_updates(encode_label_updates(updates)), updates);
  }
}

TEST(LabelCodec, ClusteredBatchBeatsFixedWidthBy2x) {
  // The acceptance target for the blob: seam-clustered updates must encode
  // at least 2x denser than the 16-byte-per-update fixed-width stream.
  std::vector<LabelUpdate> updates;
  for (idx_t i = 0; i < 500; ++i) updates.emplace_back(1000 + 2 * i, i % 25);
  const std::string blob = encode_label_updates(updates);
  EXPECT_LE(blob.size() * 2, updates.size() * 16);
  EXPECT_EQ(decode_label_updates(blob), updates);
}

TEST(LabelCodec, EncodeRejectsUnsortedAndNegative) {
  EXPECT_THROW(encode_label_updates({{4, 0}, {4, 1}}), InputError);
  EXPECT_THROW(encode_label_updates({{9, 0}, {3, 1}}), InputError);
  EXPECT_THROW(encode_label_updates({{-1, 0}}), InputError);
  EXPECT_THROW(encode_label_updates({{0, -2}}), InputError);
}

TEST(LabelCodec, DecodeRejectsMalformedBlobs) {
  const std::string good =
      encode_label_updates({{10, 1}, {20, 2}, {30, 3}});
  // Every truncation of a valid blob must throw, never mis-decode.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_label_updates(good.substr(0, len)), TreeParseError)
        << "prefix length " << len;
  }
  EXPECT_THROW(decode_label_updates(good + '\0'), TreeParseError);
  // Declared count larger than the remaining bytes can carry.
  std::string overcount;
  overcount.push_back('\x7f');  // 127 updates, no payload
  EXPECT_THROW(decode_label_updates(overcount), TreeParseError);
  // A zero delta after the first update means a duplicated node id.
  std::string dup;
  dup.push_back('\x02');  // two updates
  dup.push_back('\x05');  // node 5
  dup.push_back('\x01');  // owner 1
  dup.push_back('\x00');  // delta 0 -> node 5 again
  dup.push_back('\x02');  // owner 2
  EXPECT_THROW(decode_label_updates(dup), TreeParseError);
}

TEST(LabelCodec, DecodeRejectsDeltaThatWrapsNodeId) {
  // node 5, then delta 2^64 - 3: the uint64 sum wraps to node 2, which
  // would be a descending id. The delta must be bounded before the add.
  std::string wrap;
  append_varint(wrap, 2);  // two updates
  append_varint(wrap, 5);  // node 5
  append_varint(wrap, 1);  // owner 1
  append_varint(wrap, ~std::uint64_t{0} - 2);
  append_varint(wrap, 1);  // owner 1
  EXPECT_THROW(decode_label_updates(wrap), TreeParseError);
}

// ---------------------------------------------------------------------------
// AsyncExecutor, at pool sizes 1 and 8 (more ranks than workers at both).
// ---------------------------------------------------------------------------

class AsyncExecutorTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override { ThreadPool::set_global_threads(0); }

  static constexpr idx_t kRanks = 11;
};

TEST_P(AsyncExecutorTest, PhaseWithoutReadsIsAPlainSuperstep) {
  // An armed injector that would corrupt every cell it sees: a phase that
  // reads nothing must validate nothing, move no cursor, and record no
  // health — the property DistributedSim's scatter/restore/resume rely on.
  FaultConfig fc;
  fc.cell_fault_probability = 1.0;
  FaultInjector injector(fc);
  Exchange ex(kRanks);
  ex.set_fault_injector(&injector);
  ex.set_next_superstep(41);
  ex.halo().send(1, 2, HaloNodeMsg{7, Vec3{1, 2, 3}});  // stays pending

  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(kRanks));
  const AsyncPhase phase{.body = [&](idx_t r) {
    runs[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
  }};
  AsyncExecutor(kRanks).run({&phase, 1}, ex);

  for (const std::atomic<int>& n : runs) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(ex.next_superstep(), 41u);
  const PipelineHealth h = ex.take_health();
  EXPECT_EQ(h, PipelineHealth{});
  EXPECT_EQ(h.readiness_stalls, 0);
  EXPECT_EQ(injector.stats().faults_injected, 0);
  EXPECT_TRUE(ex.halo().inbox(2).empty());

  // The pending halo cell survived: a reading phase delivers it as the
  // next superstep.
  ex.set_fault_injector(nullptr);
  const AsyncPhase read{.body = [](idx_t) {},
                        .reads = channel_bit(ChannelId::kHalo)};
  AsyncExecutor(kRanks).run({&read, 1}, ex);
  ASSERT_EQ(ex.halo().inbox(2).size(), 1u);
  EXPECT_EQ(ex.halo().inbox(2).front().node, 7);
  EXPECT_EQ(ex.next_superstep(), 42u);
}

TEST_P(AsyncExecutorTest, SingleFailingRankRethrowsOriginalException) {
  Exchange ex(kRanks);
  const AsyncPhase phase{.body = [](idx_t r) {
    if (r == 6) throw std::out_of_range("rank 6");
  }};
  try {
    AsyncExecutor(kRanks).run({&phase, 1}, ex);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "rank 6");
  }
}

TEST_P(AsyncExecutorTest, SeveralFailingRanksAggregateInRankOrder) {
  Exchange ex(kRanks);
  const AsyncPhase phase{.body = [](idx_t r) {
    if (r % 4 == 1) throw std::runtime_error("rank " + std::to_string(r));
  }};
  try {
    AsyncExecutor(kRanks).run({&phase, 1}, ex);
    FAIL() << "expected ParallelGroupError";
  } catch (const ParallelGroupError& e) {
    ASSERT_EQ(e.failures().size(), 3u);  // ranks 1, 5, 9
    for (std::size_t i = 0; i < e.failures().size(); ++i) {
      const idx_t rank = 1 + 4 * static_cast<idx_t>(i);
      EXPECT_EQ(e.failures()[i].index, rank);
      EXPECT_EQ(e.failures()[i].message, "rank " + std::to_string(rank));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, AsyncExecutorTest,
                         ::testing::Values(1u, 8u));

}  // namespace
}  // namespace cpart
