#include "runtime/session_context.hpp"

namespace cpart {

namespace {

/// Keyed sub-domains of one session's seed stream. New domains are
/// appended with fresh keys so existing derived schedules stay stable.
constexpr std::uint64_t kFaultDomainKey = 0x4641554c54ULL;  // "FAULT"

}  // namespace

SessionContext::SessionContext(SessionContextConfig config)
    : config_(std::move(config)),
      seeds_(SeedStream(config_.service_seed).split(config_.session_key)) {
  if (!config_.checkpoint_root.empty()) {
    require(!config_.name.empty(),
            "SessionContext: a checkpoint root requires a session name");
    checkpoint_dir_ = config_.checkpoint_root + "/" + config_.name;
  }
}

std::uint64_t SessionContext::fault_seed() const {
  return seeds_.derive(kFaultDomainKey);
}

FaultInjector& SessionContext::arm_faults(FaultConfig base) {
  base.seed = fault_seed();
  injector_ = std::make_unique<FaultInjector>(base);
  return *injector_;
}

void SessionContext::record_step(const PipelineHealth& step_health) {
  health_ += step_health;
  ++steps_recorded_;
}

}  // namespace cpart
