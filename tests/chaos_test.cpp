// Chaos tests for the fault-injected exchange transport: every fault kind
// must be detected by the cell framing/checksum, retries must recover from
// transient corruption with bit-identical results, exhausted budgets must
// degrade to a fault-free rerun of the step instead of crashing, and the
// health counters must match the injected schedule exactly. The soaks drive
// DistributedSim (the MCML+DT step, fixed partition); its degraded path is
// covered by distributed_test.
//
// The soak seed can be swept from CI via the CPART_CHAOS_SEED environment
// variable (default 1); the fault schedule is a pure function of the seed,
// so every failure reproduces locally with the same value.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/async_executor.hpp"
#include "runtime/exchange.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"
#include "support/expect_reports.hpp"
#include "tree/tree_io.hpp"

namespace cpart {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("CPART_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

/// A FaultConfig that fires on every cell with exactly one kind.
FaultConfig only_kind(FaultKind kind, std::uint64_t seed = 3) {
  FaultConfig fc;
  fc.seed = seed;
  fc.cell_fault_probability = 1.0;
  fc.kind_weights = {};
  fc.kind_weights[static_cast<std::size_t>(static_cast<int>(kind))] = 1.0;
  return fc;
}

std::vector<HaloNodeMsg> halo_inbox_payload(idx_t base) {
  std::vector<HaloNodeMsg> items;
  for (idx_t i = 0; i < 3; ++i) {
    items.push_back({base + i, Vec3{0.5 * static_cast<real_t>(i),
                                    1.25, -2.0 * static_cast<real_t>(base)}});
  }
  return items;
}

/// One delivery of everything posted so far: a single AsyncExecutor phase
/// reading every channel. All rows were posted before the run, so the group
/// is born closed.
void deliver_posted(Exchange& ex) {
  const AsyncPhase phase{.body = [](idx_t) {}, .reads = kAllChannels};
  AsyncExecutor(ex.num_ranks()).run({&phase, 1}, ex);
}

// ---------------------------------------------------------------------------
// Injection + detection unit tests
// ---------------------------------------------------------------------------

TEST(FaultInjector, ChannelIdsStayFixed) {
  // decision_seed hashes the channel id, so renumbering a channel would move
  // every seeded fault schedule. Ids 4 and 5 are retired: no live channel
  // uses them and no delivery mask selects them.
  EXPECT_EQ(static_cast<int>(ChannelId::kCouplingForward), 3);
  EXPECT_EQ(static_cast<int>(ChannelId::kLabels), 6);
  EXPECT_EQ(static_cast<int>(ChannelId::kMigrateNodes), 7);
  EXPECT_EQ(static_cast<int>(ChannelId::kMigrateElements), 8);
  EXPECT_EQ(kAllChannels & ((ChannelMask{1} << 4) | (ChannelMask{1} << 5)),
            ChannelMask{0});
  for (ChannelId id : kChannels) {
    EXPECT_NE(std::string(channel_name(id)), "unknown");
    EXPECT_LT(static_cast<int>(id), kNumChannels);
  }
}

TEST(FaultInjector, ScheduleIsDeterministic) {
  const FaultConfig fc{.seed = 42, .cell_fault_probability = 0.5};
  FaultInjector a(fc);
  FaultInjector b(fc);
  for (std::uint64_t step = 0; step < 32; ++step) {
    std::vector<HaloNodeMsg> wa = halo_inbox_payload(7);
    std::vector<HaloNodeMsg> wb = halo_inbox_payload(7);
    const bool fa = a.maybe_corrupt(ChannelId::kHalo, step, 0, 0, 1, wa);
    const bool fb = b.maybe_corrupt(ChannelId::kHalo, step, 0, 0, 1, wb);
    EXPECT_EQ(fa, fb) << "superstep " << step;
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wire_hash(wa[i]), wire_hash(wb[i]));
    }
  }
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_GT(a.stats().faults_injected, 0);
  EXPECT_LT(a.stats().faults_injected, 32);  // p=0.5 must also skip some
}

TEST(FaultInjector, CellDecisionQueryAgreesWithMaybeCorrupt) {
  // A channel stages a wire copy only for the cells corrupts_cell() names,
  // so the query must be exactly the decision maybe_corrupt() acts on, for
  // every key and probability.
  for (double p : {0.0, 0.02, 0.3, 0.5, 0.97, 1.0}) {
    FaultInjector injector(
        FaultConfig{.seed = chaos_seed(), .cell_fault_probability = p});
    idx_t keys = 0, fired = 0, disagreements = 0;
    for (ChannelId id : kChannels) {
      for (std::uint64_t superstep = 0; superstep < 8; ++superstep) {
        for (idx_t attempt = 0; attempt < 3; ++attempt) {
          for (idx_t from = 0; from < 3; ++from) {
            for (idx_t to = 0; to < 3; ++to) {
              if (from == to) continue;
              const bool decided =
                  injector.corrupts_cell(id, superstep, attempt, from, to);
              const wgt_t before = injector.stats().faults_injected;
              std::vector<HaloNodeMsg> wire = halo_inbox_payload(from);
              const bool applied = injector.maybe_corrupt(
                  id, superstep, attempt, from, to, wire);
              const bool recorded =
                  injector.stats().faults_injected == before + 1;
              disagreements += decided != applied || applied != recorded;
              std::vector<HaloNodeMsg> empty;
              disagreements +=
                  injector.maybe_corrupt(id, superstep, attempt, from, to,
                                         empty);
              ++keys;
              fired += decided;
            }
          }
        }
      }
    }
    EXPECT_EQ(disagreements, 0) << "p = " << p;
    EXPECT_EQ(injector.stats().faults_injected, fired) << "p = " << p;
    if (p == 0.0) {
      EXPECT_EQ(fired, 0);
    } else if (p == 1.0) {
      EXPECT_EQ(fired, keys);
    } else {
      EXPECT_GT(fired, 0) << "p = " << p;
      EXPECT_LT(fired, keys) << "p = " << p;
    }
  }
}

TEST(Exchange, EveryFaultKindIsDetectedAndClassified) {
  for (int kind = 0; kind < kNumFaultKinds; ++kind) {
    FaultInjector injector(only_kind(static_cast<FaultKind>(kind)));
    Exchange ex(3);
    ex.set_fault_injector(&injector);
    ex.set_retry_policy({.max_attempts = 1});
    for (const HaloNodeMsg& m : halo_inbox_payload(0)) ex.halo().send(0, 1, m);
    for (const HaloNodeMsg& m : halo_inbox_payload(9)) ex.halo().send(2, 1, m);
    EXPECT_THROW(deliver_posted(ex), TransportError)
        << fault_kind_name(static_cast<FaultKind>(kind));
    const PipelineHealth h = ex.take_health();
    EXPECT_EQ(h.corrupt_cells, injector.stats().faults_injected);
    EXPECT_EQ(h.corrupt_cells,
              h.checksum_failures + h.count_mismatches);
    EXPECT_EQ(h.exhausted_deliveries, 1);
    EXPECT_EQ(h.channel(ChannelId::kHalo).corrupt_cells, h.corrupt_cells);
    switch (static_cast<FaultKind>(kind)) {
      case FaultKind::kDrop:
      case FaultKind::kDuplicate:
      case FaultKind::kTruncate:
        EXPECT_EQ(h.count_mismatches, h.corrupt_cells)
            << fault_kind_name(static_cast<FaultKind>(kind));
        break;
      case FaultKind::kBitFlip:
      case FaultKind::kReorder:
        EXPECT_EQ(h.checksum_failures, h.corrupt_cells)
            << fault_kind_name(static_cast<FaultKind>(kind));
        break;
    }
    // The exhausted delivery aborted the step: inboxes are empty and the
    // next (fault-free) delivery starts clean.
    EXPECT_TRUE(ex.halo().inbox(1).empty());
    ex.set_fault_injector(nullptr);
    for (const HaloNodeMsg& m : halo_inbox_payload(0)) ex.halo().send(0, 1, m);
    deliver_posted(ex);
    EXPECT_EQ(ex.halo().inbox(1).size(), 3u);
    EXPECT_TRUE(ex.take_health().clean());
  }
}

TEST(Exchange, PayloadTruncationOnDescriptorWireIsDetected) {
  FaultInjector injector(only_kind(FaultKind::kTruncate));
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 1});
  const std::vector<Vec3> points = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}};
  const std::vector<idx_t> labels = {0, 1, 1};
  const SubdomainDescriptors descriptors(points, labels, 2);
  ex.descriptors().send(0, 1,
                        BytesMsg{tree_to_binary(descriptors.tree())});
  EXPECT_THROW(deliver_posted(ex), TransportError);
  const PipelineHealth h = ex.take_health();
  // A variable-length message truncates its own payload: same message
  // count, different bytes -> checksum failure, not framing.
  EXPECT_EQ(h.checksum_failures, 1);
  EXPECT_EQ(h.count_mismatches, 0);
  EXPECT_EQ(h.channel(ChannelId::kDescriptors).checksum_failures, 1);
}

TEST(Exchange, CorruptedBroadcastCellLeavesOtherDestinationsIntact) {
  // A broadcast posts one shared buffer to every destination, and the
  // payload fault hooks copy on write: a corrupted cell gets its own
  // buffer, never changes the bytes the other destinations read, and its
  // retry re-stages the broadcast buffer itself.
  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.cell_fault_probability = 0.3;
  fc.kind_weights = {};
  fc.kind_weights[static_cast<std::size_t>(FaultKind::kTruncate)] = 1.0;
  fc.kind_weights[static_cast<std::size_t>(FaultKind::kBitFlip)] = 1.0;
  FaultInjector injector(fc);
  constexpr idx_t k = 8;
  Exchange ex(k);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 12});  // 0.3^12 * 7 * 16 ~ 6e-5
  const std::vector<Vec3> points = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                    {0, 1, 1}, {2, 2, 2}, {3, 1, 0}};
  const std::vector<idx_t> labels = {0, 1, 1, 2, 3, 2};
  const std::string original =
      tree_to_binary(SubdomainDescriptors(points, labels, 4).tree());
  for (int step = 0; step < 16; ++step) {
    const BytesMsg msg(original);
    ex.descriptors().broadcast(0, msg);
    deliver_posted(ex);
    EXPECT_EQ(msg.view(), original) << "step " << step;
    for (idx_t r = 1; r < k; ++r) {
      const auto& in = ex.descriptors().inbox(r);
      ASSERT_EQ(in.size(), 1u) << "step " << step << " rank " << r;
      EXPECT_EQ(in.front().view(), original)
          << "step " << step << " rank " << r;
      EXPECT_EQ(in.front().bytes, msg.bytes)
          << "step " << step << " rank " << r << " got a copy";
    }
  }
  const PipelineHealth h = ex.take_health();
  EXPECT_GT(injector.stats().faults_injected, 0);
  EXPECT_EQ(h.corrupt_cells, injector.stats().faults_injected);
  EXPECT_EQ(h.channel(ChannelId::kDescriptors).corrupt_cells, h.corrupt_cells);
}

TEST(Exchange, RetryRedeliversPristinePayloadWithinBudget) {
  FaultConfig fc;
  fc.seed = chaos_seed();
  // Each retry re-decides independently, so the budget must cover the
  // geometric tail: p^attempts * supersteps must be negligible for every
  // seed (0.3^12 * 64 ~ 3e-5).
  fc.cell_fault_probability = 0.3;
  FaultInjector injector(fc);
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 12});
  const std::vector<HaloNodeMsg> payload = halo_inbox_payload(100);
  wgt_t supersteps_with_faults = 0;
  for (int step = 0; step < 64; ++step) {
    const wgt_t before = injector.stats().faults_injected;
    for (const HaloNodeMsg& m : payload) ex.halo().send(0, 1, m);
    deliver_posted(ex);  // must never throw at this budget
    if (injector.stats().faults_injected > before) ++supersteps_with_faults;
    // Whatever the schedule did, the inbox is the pristine outbox.
    const auto& in = ex.halo().inbox(1);
    ASSERT_EQ(in.size(), payload.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(wire_hash(in[i]), wire_hash(payload[i]));
    }
  }
  EXPECT_GT(supersteps_with_faults, 0) << "schedule injected nothing";
  const PipelineHealth h = ex.take_health();
  EXPECT_EQ(h.corrupt_cells, injector.stats().faults_injected);
  EXPECT_GT(h.retries, 0);
  EXPECT_GT(h.backoff_ms, 0.0);  // recorded even without sleeping
  EXPECT_EQ(h.deliveries, 64);
  EXPECT_EQ(h.exhausted_deliveries, 0);
  EXPECT_EQ(h.degraded_steps, 0);
}

/// Flips every bit of one logical field of `msg` (reached through `field`)
/// and expects each flip to change wire_hash.
template <typename M, typename Field>
void expect_every_field_bit_hashed(const M& msg, Field field,
                                   const std::string& what) {
  const std::uint64_t h0 = wire_hash(msg);
  M probe = msg;
  const std::size_t bits = sizeof(field(probe)) * 8;
  for (std::size_t b = 0; b < bits; ++b) {
    M m = msg;
    flip_bit_in(field(m), b);
    EXPECT_NE(wire_hash(m), h0) << what << " bit " << b;
  }
}

HaloNodeMsg sample_halo() { return {12, Vec3{0.25, -1.5, 3.0}}; }
ContactPointMsg sample_point() { return {40, Vec3{-2.0, 0.5, 7.75}}; }
NodeMigrateMsg sample_node() { return {8, Vec3{1.0, 2.0, -0.5}, 17}; }

FaceShipMsg sample_face() {
  FaceShipMsg m;
  m.face = 301;
  m.element = 50;
  m.num_nodes = 4;
  for (int i = 0; i < 4; ++i) {
    const auto ri = static_cast<real_t>(i);
    m.nodes[static_cast<std::size_t>(i)] = 100 + i;
    m.coords[static_cast<std::size_t>(i)] = Vec3{ri, 0.5 * ri, -ri};
  }
  return m;
}

ElementMigrateMsg sample_element() {
  ElementMigrateMsg m;
  m.element = 77;
  m.num_nodes = 8;
  for (int i = 0; i < 8; ++i) m.nodes[static_cast<std::size_t>(i)] = 3 * i;
  return m;
}

TEST(Exchange, WireHashCoversEveryBitOfEveryField) {
  // One FNV-1a round per logical field: each round is a bijection of its
  // field, so every single-field corruption must change the message hash.
  expect_every_field_bit_hashed(
      sample_halo(), [](HaloNodeMsg& m) -> auto& { return m.node; },
      "halo node");
  expect_every_field_bit_hashed(
      sample_point(), [](ContactPointMsg& m) -> auto& { return m.node; },
      "point node");
  expect_every_field_bit_hashed(
      sample_node(), [](NodeMigrateMsg& m) -> auto& { return m.node; },
      "migrate node");
  expect_every_field_bit_hashed(
      sample_node(),
      [](NodeMigrateMsg& m) -> auto& { return m.contact_hits; },
      "migrate hits");
  for (int a = 0; a < 3; ++a) {
    const std::string axis = " axis " + std::to_string(a);
    expect_every_field_bit_hashed(
        sample_halo(),
        [a](HaloNodeMsg& m) -> auto& { return m.position[a]; },
        "halo position" + axis);
    expect_every_field_bit_hashed(
        sample_point(),
        [a](ContactPointMsg& m) -> auto& { return m.position[a]; },
        "point position" + axis);
    expect_every_field_bit_hashed(
        sample_node(),
        [a](NodeMigrateMsg& m) -> auto& { return m.position[a]; },
        "migrate position" + axis);
  }

  expect_every_field_bit_hashed(
      sample_face(), [](FaceShipMsg& m) -> auto& { return m.face; }, "face");
  expect_every_field_bit_hashed(
      sample_face(), [](FaceShipMsg& m) -> auto& { return m.element; },
      "face element");
  expect_every_field_bit_hashed(
      sample_face(), [](FaceShipMsg& m) -> auto& { return m.num_nodes; },
      "face num_nodes");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string slot = " " + std::to_string(i);
    expect_every_field_bit_hashed(
        sample_face(), [i](FaceShipMsg& m) -> auto& { return m.nodes[i]; },
        "face node" + slot);
    for (int a = 0; a < 3; ++a) {
      expect_every_field_bit_hashed(
          sample_face(),
          [i, a](FaceShipMsg& m) -> auto& { return m.coords[i][a]; },
          "face coord" + slot + " axis " + std::to_string(a));
    }
  }

  expect_every_field_bit_hashed(
      sample_element(),
      [](ElementMigrateMsg& m) -> auto& { return m.element; }, "element");
  expect_every_field_bit_hashed(
      sample_element(),
      [](ElementMigrateMsg& m) -> auto& { return m.num_nodes; },
      "element num_nodes");
  for (std::size_t i = 0; i < 8; ++i) {
    expect_every_field_bit_hashed(
        sample_element(),
        [i](ElementMigrateMsg& m) -> auto& { return m.nodes[i]; },
        "element node " + std::to_string(i));
  }
}

/// Posts two distinct messages in one cell of `channel`, lets the injector
/// swap them, and expects the cell fold to fail validation.
template <typename T>
void expect_swap_detected(TypedChannel<T>& (Exchange::*channel)(), T a, T b,
                          const char* what) {
  ASSERT_NE(wire_hash(a), wire_hash(b)) << what;
  FaultInjector injector(only_kind(FaultKind::kReorder));
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 1});
  (ex.*channel)().send(0, 1, a);
  (ex.*channel)().send(0, 1, b);
  EXPECT_THROW(deliver_posted(ex), TransportError) << what;
  const PipelineHealth h = ex.take_health();
  EXPECT_EQ(injector.stats().faults_injected, 1) << what;
  EXPECT_EQ(h.checksum_failures, 1) << what;
  EXPECT_EQ(h.count_mismatches, 0) << what;
}

TEST(Exchange, SwappingTwoDistinctMessagesChangesTheCellFold) {
  HaloNodeMsg halo = sample_halo();
  halo.position.y += 1.0;
  ContactPointMsg point = sample_point();
  point.node += 1;
  NodeMigrateMsg node = sample_node();
  node.contact_hits += 1;
  FaceShipMsg face = sample_face();
  face.coords[3].z += 1.0;
  ElementMigrateMsg element = sample_element();
  element.nodes[7] += 1;
  expect_swap_detected(&Exchange::halo, sample_halo(), halo, "halo");
  expect_swap_detected(&Exchange::coupling_forward, sample_point(), point,
                       "coupling_forward");
  expect_swap_detected(&Exchange::migrate_nodes, sample_node(), node,
                       "migrate_nodes");
  expect_swap_detected(&Exchange::faces, sample_face(), face, "faces");
  expect_swap_detected(&Exchange::migrate_elements, sample_element(), element,
                       "migrate_elements");
}

TEST(Exchange, SelfSendsAreNeverFaulted) {
  FaultInjector injector(only_kind(FaultKind::kBitFlip));
  Exchange ex(2);
  ex.set_fault_injector(&injector);
  ex.set_retry_policy({.max_attempts = 1});
  ex.halo().send(0, 0, HaloNodeMsg{1, {}});  // dropped as local data
  deliver_posted(ex);
  EXPECT_EQ(injector.stats().faults_injected, 0);
  EXPECT_TRUE(ex.take_health().clean());
}

// ---------------------------------------------------------------------------
// DistributedSim under faults
// ---------------------------------------------------------------------------

class ChaosPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImpactSimConfig sc;
    sc.plate_cells_xy = 16;
    sc.plate_cells_z = 2;
    sc.proj_cells_diameter = 6;
    sc.proj_cells_z = 6;
    sc.num_snapshots = 60;
    sim_ = std::make_unique<ImpactSim>(sc);
  }

  void TearDown() override { ThreadPool::set_global_threads(0); }

  // The MCML+DT step with a fixed partition (no repartition steps).
  DistributedSimConfig dist_config(idx_t k) const {
    DistributedSimConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    return c;
  }

  std::unique_ptr<ImpactSim> sim_;
};

// ---------------------------------------------------------------------------
// Headline soak: bit-identity under a randomized-but-seeded schedule
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, SoakFiftyStepsBitIdenticalAtOneAndEightThreads) {
  constexpr idx_t kSteps = 50;
  const idx_t k = 6;

  // Fault-free baseline reports per step.
  ThreadPool::set_global_threads(8);
  std::vector<DistributedStepReport> baseline;
  {
    DistributedSim dsim(*sim_, dist_config(k));
    for (idx_t s = 0; s < kSteps; ++s) {
      DistributedStepReport r = dsim.run_step(s);
      ASSERT_TRUE(r.health.clean()) << "baseline s=" << s;
      baseline.push_back(std::move(r));
    }
  }

  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.cell_fault_probability = 0.08;
  // 0.08^8 ~ 2e-9 per cell chain: no seed can plausibly exhaust the budget.
  RetryPolicy retry{.max_attempts = 8};

  PipelineHealth health_at_1;
  FaultInjector::Stats stats_at_1;
  for (unsigned threads : {1u, 8u}) {
    ThreadPool::set_global_threads(threads);
    DistributedSim dsim(*sim_, dist_config(k));
    FaultInjector injector(fc);
    dsim.exchange().set_fault_injector(&injector);
    dsim.exchange().set_retry_policy(retry);

    PipelineHealth total;
    for (idx_t s = 0; s < kSteps; ++s) {
      const DistributedStepReport r = dsim.run_step(s);
      total += r.health;
      // The headline invariant: within the retry budget, contact events and
      // rank-owned state are bit-identical to the fault-free run.
      const DistributedStepReport& want = baseline[static_cast<std::size_t>(s)];
      expect_events_identical(r.events, want.events,
                              "threads=" + std::to_string(threads) +
                                  " s=" + std::to_string(s));
      EXPECT_EQ(r.ownership_hash, want.ownership_hash) << "s=" << s;
    }

    // Every injected fault was detected, nothing was detected that was not
    // injected, and no step needed the degraded path.
    EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected);
    EXPECT_GT(injector.stats().faults_injected, 0) << "schedule was empty";
    EXPECT_GT(total.retries, 0);
    EXPECT_EQ(total.exhausted_deliveries, 0);
    EXPECT_EQ(total.degraded_steps, 0);
    EXPECT_EQ(total.wire_parse_failures, 0);
    EXPECT_EQ(total.deliveries, wgt_t{4} * kSteps);

    if (threads == 1) {
      health_at_1 = total;
      stats_at_1 = injector.stats();
    } else {
      // Counter-based decisions: the schedule and therefore the entire
      // health history is thread-count independent.
      EXPECT_EQ(total, health_at_1);
      EXPECT_EQ(injector.stats(), stats_at_1);
    }
  }
}

// The dependency-driven executor lets ranks finish phases out of global
// order (a rank may be searching while another is still shipping). This
// soak pins down both halves of the contract across three fixed seeds:
//   * fault-free, the fully-async schedule is bit-identical to itself at 1
//     and 8 threads and to the fault-free baseline (no barrier anywhere);
//   * with an injector armed, validation gates on phase completion, so the
//     fault schedule, detection counters, and retry accounting are
//     bit-identical across thread counts — and the events still match the
//     fault-free run. Readiness-stall counters are timing-dependent by
//     nature and deliberately excluded from PipelineHealth equality.
TEST_F(ChaosPipelineTest, AsyncOutOfOrderSoakKeepsFaultScheduleAndBitIdentity) {
  constexpr idx_t kSteps = 12;
  const idx_t k = 6;

  ThreadPool::set_global_threads(8);
  std::vector<DistributedStepReport> baseline;
  {
    DistributedSim dsim(*sim_, dist_config(k));
    for (idx_t s = 0; s < kSteps; ++s) {
      DistributedStepReport r = dsim.run_step(s);
      ASSERT_TRUE(r.health.clean()) << "baseline s=" << s;
      baseline.push_back(std::move(r));
    }
  }

  for (const std::uint64_t seed :
       {chaos_seed(), std::uint64_t{20260805}, std::uint64_t{987654321}}) {
    FaultConfig fc;
    fc.seed = seed;
    fc.cell_fault_probability = 0.08;
    const RetryPolicy retry{.max_attempts = 8};

    PipelineHealth health_at_1;
    FaultInjector::Stats stats_at_1;
    for (unsigned threads : {1u, 8u}) {
      ThreadPool::set_global_threads(threads);
      DistributedSim dsim(*sim_, dist_config(k));
      FaultInjector injector(fc);
      dsim.exchange().set_fault_injector(&injector);
      dsim.exchange().set_retry_policy(retry);

      PipelineHealth total;
      for (idx_t s = 0; s < kSteps; ++s) {
        const DistributedStepReport r = dsim.run_step(s);
        total += r.health;
        const DistributedStepReport& want =
            baseline[static_cast<std::size_t>(s)];
        expect_events_identical(
            r.events, want.events,
            "seed=" + std::to_string(seed) +
                " threads=" + std::to_string(threads) +
                " s=" + std::to_string(s));
        EXPECT_EQ(r.ownership_hash, want.ownership_hash) << "s=" << s;
      }
      EXPECT_EQ(total.corrupt_cells, injector.stats().faults_injected)
          << "seed=" << seed;
      EXPECT_EQ(total.degraded_steps, 0) << "seed=" << seed;
      EXPECT_EQ(total.deliveries, wgt_t{4} * kSteps) << "seed=" << seed;
      if (threads == 1) {
        health_at_1 = total;
        stats_at_1 = injector.stats();
      } else {
        EXPECT_EQ(total, health_at_1) << "seed=" << seed;
        EXPECT_EQ(injector.stats(), stats_at_1) << "seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace cpart
