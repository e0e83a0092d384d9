#include "runtime/health.hpp"

#include <sstream>

namespace cpart {

const char* channel_name(ChannelId id) {
  // Indexed by ChannelId; retired ids have no name.
  static constexpr std::array<const char*, kNumChannels> kNames = {
      "descriptors", "halo", "faces", "coupling_forward", nullptr, nullptr,
      "labels", "migrate_nodes", "migrate_elements"};
  const auto i = static_cast<std::size_t>(static_cast<int>(id));
  return i < kNames.size() && kNames[i] != nullptr ? kNames[i] : "unknown";
}

ChannelHealth& ChannelHealth::operator+=(const ChannelHealth& other) {
  corrupt_cells += other.corrupt_cells;
  checksum_failures += other.checksum_failures;
  count_mismatches += other.count_mismatches;
  redelivered_bytes += other.redelivered_bytes;
  return *this;
}

bool PipelineHealth::clean() const {
  return corrupt_cells == 0 && retries == 0 && exhausted_deliveries == 0 &&
         degraded_steps == 0 && wire_parse_failures == 0 &&
         failed_ranks == 0 && rank_deaths == 0 &&
         checkpoint_write_failures == 0;
}

PipelineHealth& PipelineHealth::operator+=(const PipelineHealth& other) {
  deliveries += other.deliveries;
  delivery_attempts += other.delivery_attempts;
  retries += other.retries;
  corrupt_cells += other.corrupt_cells;
  checksum_failures += other.checksum_failures;
  count_mismatches += other.count_mismatches;
  redelivered_bytes += other.redelivered_bytes;
  exhausted_deliveries += other.exhausted_deliveries;
  degraded_steps += other.degraded_steps;
  wire_parse_failures += other.wire_parse_failures;
  failed_ranks += other.failed_ranks;
  rank_deaths += other.rank_deaths;
  recoveries += other.recoveries;
  replay_steps += other.replay_steps;
  checkpoints_written += other.checkpoints_written;
  checkpoint_write_failures += other.checkpoint_write_failures;
  backoff_ms += other.backoff_ms;
  readiness_stalls += other.readiness_stalls;
  readiness_stall_ns += other.readiness_stall_ns;
  for (ChannelId id : kChannels) channel(id) += other.channel(id);
  return *this;
}

bool PipelineHealth::operator==(const PipelineHealth& other) const {
  if (!(deliveries == other.deliveries &&
        delivery_attempts == other.delivery_attempts &&
        retries == other.retries && corrupt_cells == other.corrupt_cells &&
        checksum_failures == other.checksum_failures &&
        count_mismatches == other.count_mismatches &&
        redelivered_bytes == other.redelivered_bytes &&
        exhausted_deliveries == other.exhausted_deliveries &&
        degraded_steps == other.degraded_steps &&
        wire_parse_failures == other.wire_parse_failures &&
        failed_ranks == other.failed_ranks &&
        rank_deaths == other.rank_deaths && recoveries == other.recoveries &&
        replay_steps == other.replay_steps &&
        checkpoints_written == other.checkpoints_written &&
        checkpoint_write_failures == other.checkpoint_write_failures &&
        backoff_ms == other.backoff_ms)) {
    return false;
  }
  for (ChannelId id : kChannels) {
    if (!(channel(id) == other.channel(id))) return false;
  }
  return true;
}

std::string PipelineHealth::summary() const {
  std::ostringstream os;
  os << deliveries << " deliveries, " << retries << " retries, "
     << corrupt_cells << " corrupt cells (" << checksum_failures
     << " checksum, " << count_mismatches << " framing), " << degraded_steps
     << " degraded steps, " << readiness_stalls << " readiness stalls ("
     << readiness_stall_ns / 1000000 << " ms blocked)";
  if (rank_deaths > 0 || recoveries > 0 || checkpoints_written > 0 ||
      checkpoint_write_failures > 0) {
    os << ", " << rank_deaths << " rank deaths, " << recoveries
       << " recoveries (" << replay_steps << " replayed steps), "
       << checkpoints_written << " checkpoints ("
       << checkpoint_write_failures << " failed writes)";
  }
  return os.str();
}

}  // namespace cpart
