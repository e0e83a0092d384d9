#include "runtime/fault_injector.hpp"

#include <atomic>

#include "util/seed_stream.hpp"

namespace cpart {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kReorder:
      return "reorder";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig& config) : config_(config) {
  require(config.cell_fault_probability >= 0.0 &&
              config.cell_fault_probability <= 1.0,
          "FaultInjector: cell_fault_probability must be in [0, 1]");
  double total = 0;
  for (double w : config.kind_weights) {
    require(w >= 0, "FaultInjector: kind weights must be non-negative");
    total += w;
  }
  require(total > 0, "FaultInjector: at least one kind weight must be > 0");
  require(config.rank_death_probability >= 0.0 &&
              config.rank_death_probability <= 1.0,
          "FaultInjector: rank_death_probability must be in [0, 1]");
  require((config.kill_rank == kInvalidIndex) ==
              (config.kill_step == kInvalidIndex),
          "FaultInjector: kill_rank and kill_step must be set together");
}

// Decision seeds fold each coordinate of the tuple via the shared
// seed_mix (util/seed_stream.hpp), so the schedule is a pure function of
// the tuple and the formula is the same one every seeded subsystem uses.
std::uint64_t FaultInjector::decision_seed(ChannelId channel,
                                           std::uint64_t superstep,
                                           idx_t attempt, idx_t from,
                                           idx_t to) const {
  std::uint64_t h = config_.seed;
  h = seed_mix(h, superstep);
  h = seed_mix(h, static_cast<std::uint64_t>(attempt));
  h = seed_mix(h, static_cast<std::uint64_t>(static_cast<int>(channel)));
  h = seed_mix(h, static_cast<std::uint64_t>(from));
  h = seed_mix(h, static_cast<std::uint64_t>(to));
  return h;
}

bool FaultInjector::corrupts_cell(ChannelId channel, std::uint64_t superstep,
                                  idx_t attempt, idx_t from, idx_t to) const {
  if (config_.cell_fault_probability <= 0.0) return false;
  Rng rng(decision_seed(channel, superstep, attempt, from, to));
  return rng.uniform() < config_.cell_fault_probability;
}

FaultKind FaultInjector::pick_kind(Rng& rng) const {
  double total = 0;
  for (double w : config_.kind_weights) total += w;
  double r = rng.uniform() * total;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    r -= config_.kind_weights[static_cast<std::size_t>(k)];
    if (r < 0) return static_cast<FaultKind>(k);
  }
  return static_cast<FaultKind>(kNumFaultKinds - 1);
}

RankFaultKind FaultInjector::rank_fault(idx_t step, idx_t rank,
                                        idx_t incarnation) const {
  if (incarnation != 0) return RankFaultKind::kNone;
  if (config_.kill_rank != kInvalidIndex && rank == config_.kill_rank &&
      step == config_.kill_step) {
    return config_.kill_hang ? RankFaultKind::kHang : RankFaultKind::kDeath;
  }
  if (config_.rank_death_probability <= 0.0) return RankFaultKind::kNone;
  // Distinct decision domain from the cell-fault schedule: the extra
  // constant keeps a rank-fault draw from ever correlating with a
  // maybe_corrupt draw at the same coordinates.
  std::uint64_t h = config_.seed;
  h = seed_mix(h, 0x52414e4b44544831ULL);
  h = seed_mix(h, static_cast<std::uint64_t>(step));
  h = seed_mix(h, static_cast<std::uint64_t>(rank));
  Rng rng(h);
  return rng.uniform() < config_.rank_death_probability ? RankFaultKind::kDeath
                                                        : RankFaultKind::kNone;
}

void FaultInjector::record_rank_fault(RankFaultKind kind) {
  if (kind == RankFaultKind::kDeath) {
    std::atomic_ref<wgt_t>(stats_.rank_deaths)
        .fetch_add(1, std::memory_order_relaxed);
  } else if (kind == RankFaultKind::kHang) {
    std::atomic_ref<wgt_t>(stats_.rank_hangs)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

void FaultInjector::record(FaultKind kind, ChannelId channel) {
  // Concurrent rank programs validate their own inbox cells under the async
  // executor, so decisions land from several threads at once. The counters
  // are commutative sums, so atomic increments keep the totals exact (and
  // the Stats layout unchanged for single-threaded readers).
  std::atomic_ref<wgt_t>(stats_.faults_injected)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<wgt_t>(
      stats_.by_kind[static_cast<std::size_t>(static_cast<int>(kind))])
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<wgt_t>(
      stats_.by_channel[static_cast<std::size_t>(static_cast<int>(channel))])
      .fetch_add(1, std::memory_order_relaxed);
}

FaultyFileShim::FaultyFileShim(const IoFaultConfig& config, FileShim& base)
    : config_(config), base_(base) {
  require(config.write_fault_probability >= 0.0 &&
              config.write_fault_probability <= 1.0,
          "FaultyFileShim: write_fault_probability must be in [0, 1]");
  require(config.read_bitflip_probability >= 0.0 &&
              config.read_bitflip_probability <= 1.0,
          "FaultyFileShim: read_bitflip_probability must be in [0, 1]");
}

bool FaultyFileShim::write_file(const std::string& path,
                                const std::string& bytes) {
  Rng rng(seed_mix(config_.seed, 0x494f5752ULL + op_counter_++));
  if (rng.uniform() < config_.write_fault_probability) {
    if (rng.uniform() < 0.5 && !bytes.empty()) {
      // Short write: a prefix lands before the failure is reported.
      ++stats_.short_writes;
      const std::size_t cut =
          static_cast<std::size_t>(rng.uniform_int(to_idx(bytes.size())));
      base_.write_file(path, bytes.substr(0, cut));
      return false;
    }
    ++stats_.enospc_failures;  // nothing lands at all
    return false;
  }
  return base_.write_file(path, bytes);
}

bool FaultyFileShim::sync_file(const std::string& path) {
  return base_.sync_file(path);
}

bool FaultyFileShim::rename_file(const std::string& from,
                                 const std::string& to) {
  if (fail_next_rename_) {
    fail_next_rename_ = false;
    ++stats_.dropped_renames;
    return false;
  }
  return base_.rename_file(from, to);
}

bool FaultyFileShim::read_file(const std::string& path, std::string& out) {
  if (!base_.read_file(path, out)) return false;
  Rng rng(seed_mix(config_.seed, 0x494f5244ULL + op_counter_++));
  if (!out.empty() && rng.uniform() < config_.read_bitflip_probability) {
    ++stats_.read_bitflips;
    const std::size_t byte =
        static_cast<std::size_t>(rng.uniform_int(to_idx(out.size())));
    out[byte] = static_cast<char>(out[byte] ^
                                  (1u << (rng.next() & 7u)));
  }
  return true;
}

bool FaultyFileShim::remove_file(const std::string& path) {
  return base_.remove_file(path);
}

}  // namespace cpart
