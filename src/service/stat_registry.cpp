#include "service/stat_registry.hpp"

#include <algorithm>
#include <cmath>

namespace cpart {

void StatRegistry::record_step(const std::string& session,
                               double latency_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  latencies_ms_.push_back(latency_ms);
  by_session_[session].push_back(latency_ms);
}

std::vector<double> StatRegistry::session_latencies(
    const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_session_.find(session);
  return it == by_session_.end() ? std::vector<double>{} : it->second;
}

idx_t StatRegistry::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return to_idx(latencies_ms_.size());
}

double StatRegistry::percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

ServiceStats StatRegistry::aggregate(
    std::span<const SessionContext* const> contexts) const {
  ServiceStats s;
  for (const SessionContext* ctx : contexts) {
    if (ctx == nullptr) continue;
    ++s.sessions;
    s.steps += ctx->steps_recorded();
    s.health += ctx->health();
  }
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = latencies_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  s.latency_samples = to_idx(sorted.size());
  if (!sorted.empty()) {
    double sum = 0;
    for (double v : sorted) sum += v;
    s.mean_ms = sum / static_cast<double>(sorted.size());
    s.p50_ms = percentile(sorted, 0.50);
    s.p95_ms = percentile(sorted, 0.95);
    s.p99_ms = percentile(sorted, 0.99);
    s.max_ms = sorted.back();
  }
  return s;
}

}  // namespace cpart
