// Rank-death tolerance: the durable checkpoint format, the atomic commit
// protocol (keep-last-good under injected I/O faults), and DistributedSim's
// detect/restore/replay loop. The chaos soaks assert the recovery invariant
// end to end: a run that loses a rank mid-step — by thrown death or by a
// watchdog-declared hang — restores the last durable checkpoint, replays,
// and stays bit-identical to a fault-free twin at 1 and 8 worker threads.
// CPART_CHAOS_SEED sweeps the kill schedules from CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"
#include "support/expect_reports.hpp"
#include "support/scenes.hpp"

namespace cpart {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("CPART_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 11;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

CheckpointData sample_data(idx_t k = 3, idx_t nn = 7) {
  CheckpointData ck;
  ck.config_hash = 0x1234abcd5678ef01ULL;
  ck.step = 12;
  ck.superstep = 57;
  ck.k = k;
  for (idx_t v = 0; v < nn; ++v) {
    ck.node_owner.push_back(v % k);
    ck.positions.push_back(
        Vec3{0.5 * static_cast<real_t>(v), -1.25, 3.0 + static_cast<real_t>(v)});
    ck.contact_hits.push_back(v * 11 % 5);
  }
  return ck;
}

bool data_equal(const CheckpointData& a, const CheckpointData& b) {
  if (a.config_hash != b.config_hash || a.step != b.step ||
      a.superstep != b.superstep || a.k != b.k ||
      a.node_owner != b.node_owner || a.contact_hits != b.contact_hits ||
      a.positions.size() != b.positions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    if (a.positions[i].x != b.positions[i].x ||
        a.positions[i].y != b.positions[i].y ||
        a.positions[i].z != b.positions[i].z) {
      return false;
    }
  }
  return true;
}

TEST(CheckpointFormat, RoundTripIsBitIdentical) {
  const CheckpointData ck = sample_data();
  const std::string wire = encode_checkpoint(ck);
  const CheckpointData back = decode_checkpoint(wire);
  EXPECT_TRUE(data_equal(ck, back));
  // The encoding itself is deterministic.
  EXPECT_EQ(wire, encode_checkpoint(back));
}

TEST(CheckpointFormat, EmptyMeshAndSingleRankRoundTrip) {
  CheckpointData ck;
  ck.k = 1;
  ck.step = 0;
  EXPECT_TRUE(data_equal(ck, decode_checkpoint(encode_checkpoint(ck))));
}

TEST(CheckpointFormat, EveryTruncationIsRejected) {
  const std::string wire = encode_checkpoint(sample_data());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(decode_checkpoint(wire.substr(0, len)), InputError)
        << "prefix length " << len;
  }
}

TEST(CheckpointFormat, EveryBitFlipIsRejectedOrRoundTripsDifferently) {
  // The trailing FNV-1a seal means any single-bit flip anywhere in the blob
  // must be detected — there is no "harmless" corruption.
  const std::string wire = encode_checkpoint(sample_data());
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = wire;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      EXPECT_THROW(decode_checkpoint(bad), InputError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// Re-seals a tampered payload so the trailing checksum is valid again and
// the decoder's structural checks — not the seal — must do the rejecting.
std::string reseal(std::string payload_with_old_seal,
                   std::size_t byte_to_patch, char value) {
  std::string out = std::move(payload_with_old_seal);
  out.resize(out.size() - sizeof(std::uint64_t));  // strip the old seal
  out[byte_to_patch] = value;
  const std::uint64_t sum = fnv1a_bytes(kFnvOffsetBasis, out.data(), out.size());
  char buf[sizeof(sum)];
  std::memcpy(buf, &sum, sizeof(sum));
  out.append(buf, sizeof(sum));
  return out;
}

TEST(CheckpointFormat, BadMagicVersionAndTrailingGarbageAreRejected) {
  const std::string wire = encode_checkpoint(sample_data());
  // Valid checksum, wrong magic / wrong version: the header checks reject.
  EXPECT_THROW(decode_checkpoint(reseal(wire, 0, 'X')), InputError);
  EXPECT_THROW(decode_checkpoint(reseal(wire, 4, 9)), InputError);
  // Trailing garbage after a valid payload: a naive append breaks the seal;
  // a re-sealed append must still fail the exact-consumption check.
  EXPECT_THROW(decode_checkpoint(wire + "zz"), InputError);
  std::string grown = wire;
  grown.resize(grown.size() - sizeof(std::uint64_t));
  grown += "zz";
  const std::uint64_t sum =
      fnv1a_bytes(kFnvOffsetBasis, grown.data(), grown.size());
  char buf[sizeof(sum)];
  std::memcpy(buf, &sum, sizeof(sum));
  grown.append(buf, sizeof(sum));
  EXPECT_THROW(decode_checkpoint(grown), InputError);
}

TEST(CheckpointFormat, OutOfRangeOwnerAndHitsAreRejected) {
  CheckpointData ck = sample_data();
  ck.node_owner[2] = ck.k;  // out of range
  EXPECT_THROW(encode_checkpoint(ck), InputError);
  ck = sample_data();
  ck.contact_hits[1] = -3;
  EXPECT_THROW(encode_checkpoint(ck), InputError);
  ck = sample_data();
  ck.positions.pop_back();  // size mismatch
  EXPECT_THROW(encode_checkpoint(ck), InputError);
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cpart_ckpt_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    ThreadPool::set_global_threads(0);
  }

  std::string dir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

TEST_F(CheckpointStoreTest, WriteLoadRoundTripAndOverwrite) {
  CheckpointStore store(dir());
  EXPECT_FALSE(store.load().has_value());  // empty dir: nothing to restore

  const CheckpointData first = sample_data();
  RetryPolicy retry;
  ASSERT_TRUE(store.write(first, retry));
  auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(data_equal(first, *loaded));

  CheckpointData second = sample_data();
  second.step = 24;
  second.contact_hits[0] = 99;
  ASSERT_TRUE(store.write(second, retry));
  loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(data_equal(second, *loaded));
  // The superseded blob is garbage-collected after the manifest moves on.
  EXPECT_FALSE(std::filesystem::exists(store.checkpoint_path(first.step)));
}

TEST_F(CheckpointStoreTest, TornRenameKeepsLastGood) {
  FaultyFileShim shim{IoFaultConfig{}};
  CheckpointStore store(dir(), shim);
  const CheckpointData first = sample_data();
  RetryPolicy retry;
  ASSERT_TRUE(store.write(first, retry));

  // A crash between temp write and rename: the commit fails, the manifest
  // still points at the previous blob, and load() returns it intact.
  CheckpointData second = sample_data();
  second.step = 24;
  shim.fail_next_rename();
  RetryPolicy one_shot;
  one_shot.max_attempts = 1;
  EXPECT_FALSE(store.write(second, one_shot));
  EXPECT_EQ(shim.stats().dropped_renames, 1);
  auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(data_equal(first, *loaded));
}

TEST_F(CheckpointStoreTest, ConcurrentPerSessionStoresStayIsolated) {
  // Multi-tenant layout: every session commits into its own subdirectory
  // of one shared root (SessionContext::checkpoint_dir). Concurrent
  // writers in different subdirectories must never cross-contaminate —
  // each store's manifest ends on its own last committed data.
  constexpr int kStores = 4;
  constexpr int kWrites = 12;
  std::vector<std::thread> writers;
  for (int i = 0; i < kStores; ++i) {
    writers.emplace_back([&, i] {
      CheckpointStore store(dir() + "/s" + std::to_string(i));
      RetryPolicy retry;
      for (int w = 0; w < kWrites; ++w) {
        CheckpointData data = sample_data();
        data.step = w;
        data.contact_hits[0] = static_cast<wgt_t>(100 * i + w);
        EXPECT_TRUE(store.write(data, retry));
      }
    });
  }
  for (auto& t : writers) t.join();
  for (int i = 0; i < kStores; ++i) {
    CheckpointStore store(dir() + "/s" + std::to_string(i));
    const auto loaded = store.load();
    ASSERT_TRUE(loaded.has_value()) << "store " << i;
    EXPECT_EQ(loaded->step, kWrites - 1);
    EXPECT_EQ(loaded->contact_hits[0],
              static_cast<wgt_t>(100 * i + kWrites - 1));
  }
}

TEST_F(CheckpointStoreTest, TornRenameInOneSessionLeavesNeighborsIntact) {
  // A torn commit in one session's store is that session's problem alone:
  // the victim keeps its last good checkpoint, the neighbor's manifest
  // never even notices.
  FaultyFileShim shim{IoFaultConfig{}};
  CheckpointStore victim(dir() + "/victim", shim);
  CheckpointStore neighbor(dir() + "/neighbor");
  RetryPolicy retry;
  const CheckpointData vdata = sample_data();
  ASSERT_TRUE(victim.write(vdata, retry));
  CheckpointData ndata = sample_data();
  ndata.step = 7;
  ndata.contact_hits[0] = 42;
  ASSERT_TRUE(neighbor.write(ndata, retry));

  CheckpointData torn = sample_data();
  torn.step = 24;
  shim.fail_next_rename();
  RetryPolicy one_shot;
  one_shot.max_attempts = 1;
  EXPECT_FALSE(victim.write(torn, one_shot));

  const auto v = victim.load();
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(data_equal(vdata, *v));  // keep-last-good in the torn store
  const auto nb = neighbor.load();
  ASSERT_TRUE(nb.has_value());
  EXPECT_TRUE(data_equal(ndata, *nb));  // untouched next door
}

TEST_F(CheckpointStoreTest, WriteFaultSoakNeverLosesLastGood) {
  // Every write either commits the new checkpoint or leaves the previous
  // one loadable — under a seeded mix of short writes and ENOSPC failures,
  // with the retry budget sometimes absorbing the fault and sometimes not.
  IoFaultConfig io;
  io.seed = chaos_seed();
  io.write_fault_probability = 0.4;
  FaultyFileShim shim(io);
  CheckpointStore store(dir(), shim);
  RetryPolicy retry;
  retry.max_attempts = 2;

  CheckpointData last_good;
  bool have_good = false;
  for (idx_t step = 0; step < 30; ++step) {
    CheckpointData ck = sample_data();
    ck.step = step;
    ck.contact_hits[0] = step * 7;
    const bool committed = store.write(ck, retry);
    if (committed) {
      last_good = ck;
      have_good = true;
    }
    auto loaded = store.load();
    if (have_good) {
      ASSERT_TRUE(loaded.has_value()) << "step " << step;
      EXPECT_TRUE(data_equal(last_good, *loaded)) << "step " << step;
    } else {
      EXPECT_FALSE(loaded.has_value()) << "step " << step;
    }
  }
  // The schedule must actually have exercised both outcomes.
  EXPECT_GT(shim.stats().short_writes + shim.stats().enospc_failures, 0);
  EXPECT_TRUE(have_good);
}

TEST_F(CheckpointStoreTest, ReadBitFlipIsDetectedNotTrusted) {
  IoFaultConfig io;
  io.seed = chaos_seed();
  io.read_bitflip_probability = 1.0;  // every read comes back corrupted
  FaultyFileShim shim(io);
  CheckpointStore clean_store(dir());
  RetryPolicy retry;
  ASSERT_TRUE(clean_store.write(sample_data(), retry));
  CheckpointStore dirty_store(dir(), shim);
  // Either the manifest or the blob read is flipped; the checksums must
  // reject it — load() reports "nothing to restore", never garbage.
  EXPECT_FALSE(dirty_store.load().has_value());
  EXPECT_GT(shim.stats().read_bitflips, 0);
}

TEST(RetryPolicyTest, BackoffSaturatesInsteadOfOverflowing) {
  RetryPolicy retry;
  EXPECT_EQ(RetryPolicy::kBackoffBaseMs, 0.5);
  EXPECT_EQ(retry.backoff_for(0), 0.5);
  EXPECT_EQ(retry.backoff_for(1), 1.0);
  EXPECT_EQ(retry.backoff_for(10), 0.5 * 1024.0);
  // Saturation point: growth stops exactly at kBackoffSaturation doublings
  // — beyond it (including retry counts >= 64, which would be UB as a raw
  // shift) the backoff is flat, not wrapped.
  const double cap = retry.backoff_for(RetryPolicy::kBackoffSaturation);
  EXPECT_GT(cap, retry.backoff_for(RetryPolicy::kBackoffSaturation - 1));
  EXPECT_EQ(retry.backoff_for(RetryPolicy::kBackoffSaturation + 1), cap);
  EXPECT_EQ(retry.backoff_for(100), cap);
  EXPECT_EQ(retry.backoff_for(100000), cap);
}

// --- DistributedSim recovery ---------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<ImpactSim>(small_impact_config());
    dir_ = std::filesystem::temp_directory_path() /
           ("cpart_recovery_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    std::filesystem::remove_all(dir_);
    ThreadPool::set_global_threads(0);
  }

  DistributedSimConfig make_config(idx_t k, idx_t checkpoint_period,
                                   const std::string& subdir) const {
    DistributedSimConfig c;
    c.decomposition.k = k;
    c.search.search_margin = 0.12;
    c.search.contact_tolerance = 0.08;
    c.repartition_period = 4;
    c.repartition.epsilon = 0.02;
    c.checkpoint_period = checkpoint_period;
    c.checkpoint_dir = (dir_ / subdir).string();
    return c;
  }

  // Drives a faulty sim and a fault-free twin over `steps` snapshots and
  // asserts bit-identity of every report and of the end-of-step rank state.
  // Returns the faulty run's accumulated health.
  PipelineHealth expect_recovers_bit_identical(const DistributedSimConfig& cfg,
                                               const FaultConfig& fc,
                                               idx_t steps,
                                               const std::string& what) {
    DistributedSimConfig clean_cfg = cfg;
    clean_cfg.checkpoint_period = 0;  // the twin needs no checkpoints
    clean_cfg.checkpoint_dir.clear();
    DistributedSim clean(*sim_, clean_cfg);
    DistributedSim faulty(*sim_, cfg);
    FaultInjector injector(fc);
    faulty.exchange().set_fault_injector(&injector);
    PipelineHealth total;
    for (idx_t s = 0; s < steps; ++s) {
      const std::string at = what + " s=" + std::to_string(s);
      const DistributedStepReport want = clean.run_step(s);
      const DistributedStepReport got = faulty.run_step(s);
      expect_reports_identical(got, want, at);
      EXPECT_EQ(faulty.ownership_map(), clean.ownership_map()) << at;
      EXPECT_EQ(faulty.gather_contact_hits(), clean.gather_contact_hits())
          << at;
      total += got.health;
    }
    EXPECT_EQ(total.rank_deaths,
              injector.stats().rank_deaths + injector.stats().rank_hangs)
        << what << ": every injected rank fault is detected, none invented";
    return total;
  }

  std::unique_ptr<ImpactSim> sim_;
  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, ExplicitKillRecoversBitIdenticalAtOneAndEightThreads) {
  for (unsigned threads : {1u, 8u}) {
    ThreadPool::set_global_threads(threads);
    FaultConfig fc;
    fc.seed = chaos_seed();
    fc.kill_rank = 2;
    fc.kill_step = 7;  // two steps past the step-5 checkpoint: replay > 0
    const PipelineHealth h = expect_recovers_bit_identical(
        make_config(6, /*checkpoint_period=*/5, "kill" + std::to_string(threads)),
        fc, /*steps=*/12, "threads=" + std::to_string(threads));
    EXPECT_EQ(h.rank_deaths, 1);
    EXPECT_EQ(h.recoveries, 1);
    EXPECT_EQ(h.replay_steps, 2);  // checkpoint at 5, death at 7: replay 5, 6
    EXPECT_GT(h.checkpoints_written, 0);
    EXPECT_EQ(h.degraded_steps, 0);
  }
}

TEST_F(RecoveryTest, HangIsWatchdoggedAndRecoversBitIdentical) {
  for (unsigned threads : {1u, 8u}) {
    ThreadPool::set_global_threads(threads);
    FaultConfig fc;
    fc.seed = chaos_seed();
    fc.kill_rank = 1;
    fc.kill_step = 4;
    fc.kill_hang = true;  // silent hang: only the watchdog can detect it
    const PipelineHealth h = expect_recovers_bit_identical(
        make_config(5, /*checkpoint_period=*/3, "hang" + std::to_string(threads)),
        fc, /*steps=*/8, "hang threads=" + std::to_string(threads));
    EXPECT_EQ(h.rank_deaths, 1);
    EXPECT_EQ(h.recoveries, 1);
    EXPECT_EQ(h.replay_steps, 1);  // checkpoint at 3, hang at 4
  }
}

TEST_F(RecoveryTest, SeededDeathScheduleSoakStaysBitIdentical) {
  // Probabilistic kills across a longer soak: multiple deaths at different
  // steps, each recovered by restore+replay, at both thread counts. The
  // schedule is a pure function of (seed, step, rank), so both thread
  // counts see the same kills.
  for (unsigned threads : {1u, 8u}) {
    ThreadPool::set_global_threads(threads);
    FaultConfig fc;
    fc.seed = chaos_seed();
    fc.rank_death_probability = 0.01;
    const PipelineHealth h = expect_recovers_bit_identical(
        make_config(6, /*checkpoint_period=*/4, "soak" + std::to_string(threads)),
        fc, /*steps=*/25, "soak threads=" + std::to_string(threads));
    // One recovery per death event (a single throw can carry several ranks,
    // so recoveries <= rank_deaths); checkpoints mean nothing degrades.
    EXPECT_LE(h.recoveries, h.rank_deaths);
    if (h.rank_deaths > 0) {
      EXPECT_GT(h.recoveries, 0);
    }
    EXPECT_EQ(h.degraded_steps, 0);
    EXPECT_GT(h.checkpoints_written, 0);
  }
}

TEST_F(RecoveryTest, DeathWithoutCheckpointingDegradesAndContinues) {
  // checkpoint_period == 0: no durable state, so a death completes the
  // step by a fault-free rerun from the start-of-step snapshot — still
  // bit-identical, but counted as degraded, not recovered. A kill and a
  // hang, each on a plain step (3) and on a migration step (4, period 4).
  // A rerun that kept the hang mask would be watchdogged again and throw.
  ThreadPool::set_global_threads(4);
  for (const bool hang : {false, true}) {
    for (const idx_t kill_step : {idx_t{3}, idx_t{4}}) {
      const std::string what = std::string(hang ? "hang" : "kill") +
                               " at step " + std::to_string(kill_step);
      FaultConfig fc;
      fc.seed = chaos_seed();
      fc.kill_rank = hang ? 1 : 0;
      fc.kill_step = kill_step;
      fc.kill_hang = hang;
      const PipelineHealth h = expect_recovers_bit_identical(
          make_config(5, /*checkpoint_period=*/0, "nockpt"), fc,
          /*steps=*/7, what);
      EXPECT_EQ(h.rank_deaths, 1) << what;
      EXPECT_EQ(h.recoveries, 0) << what;
      EXPECT_EQ(h.replay_steps, 0) << what;
      EXPECT_EQ(h.degraded_steps, 1) << what;
      EXPECT_EQ(h.checkpoints_written, 0) << what;
    }
  }
}

TEST_F(RecoveryTest, CheckpointWriteFaultsNeverLoseLastGoodMidRun) {
  // I/O faults on the checkpoint path: failed commits are counted and the
  // run continues; when a death then hits, recovery restores whatever the
  // last successful commit was and still replays to bit-identity.
  ThreadPool::set_global_threads(4);
  DistributedSimConfig cfg = make_config(5, /*checkpoint_period=*/2, "iofault");
  cfg.checkpoint_retry.max_attempts = 1;  // no absorption: every fault fails
  IoFaultConfig io;
  io.seed = chaos_seed();
  io.write_fault_probability = 0.5;
  FaultyFileShim shim(io);

  DistributedSimConfig clean_cfg = cfg;
  clean_cfg.checkpoint_period = 0;
  clean_cfg.checkpoint_dir.clear();
  DistributedSim clean(*sim_, clean_cfg);
  DistributedSim faulty(*sim_, cfg);
  faulty.set_checkpoint_shim(shim);
  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.kill_rank = 3;
  fc.kill_step = 9;
  FaultInjector injector(fc);
  faulty.exchange().set_fault_injector(&injector);

  PipelineHealth total;
  for (idx_t s = 0; s < 14; ++s) {
    const std::string at = "iofault s=" + std::to_string(s);
    const DistributedStepReport want = clean.run_step(s);
    const DistributedStepReport got = faulty.run_step(s);
    expect_reports_identical(got, want, at);
    EXPECT_EQ(faulty.gather_contact_hits(), clean.gather_contact_hits()) << at;
    total += got.health;
  }
  EXPECT_EQ(total.rank_deaths, 1);
  // At 50% per-file fault probability with no retry absorption, some of the
  // eight commit attempts (baseline + 7 period boundaries) must fail.
  EXPECT_GT(total.checkpoint_write_failures, 0);
  EXPECT_GT(shim.stats().short_writes + shim.stats().enospc_failures, 0);
  // The death is survived either way: replay from whatever commit last
  // succeeded, or — if every commit before the kill failed — the degraded
  // rerun. Both keep the run bit-identical (asserted above).
  EXPECT_EQ(total.recoveries + total.degraded_steps, 1);
  if (total.checkpoints_written == 0) {
    EXPECT_EQ(total.degraded_steps, 1);
  }
}

TEST_F(RecoveryTest, StepReportExposesRecoveryAccounting) {
  ThreadPool::set_global_threads(2);
  FaultConfig fc;
  fc.seed = chaos_seed();
  fc.kill_rank = 1;
  fc.kill_step = 6;
  DistributedSim faulty(*sim_, make_config(4, /*checkpoint_period=*/5, "acct"));
  FaultInjector injector(fc);
  faulty.exchange().set_fault_injector(&injector);
  for (idx_t s = 0; s < 8; ++s) {
    const DistributedStepReport got = faulty.run_step(s);
    if (s == 6) {
      EXPECT_TRUE(got.recovered);
      EXPECT_EQ(got.replayed_steps, 1);
      EXPECT_GT(got.recovery_ms, 0.0);
    } else {
      EXPECT_FALSE(got.recovered) << "s=" << s;
      EXPECT_EQ(got.replayed_steps, 0) << "s=" << s;
    }
    // Checkpoint timing is charged on commit steps (baseline on s=0).
    if (s == 0 || (s + 1) % 5 == 0) {
      EXPECT_GT(got.checkpoint_ms, 0.0) << "s=" << s;
    }
  }
}

}  // namespace
}  // namespace cpart
