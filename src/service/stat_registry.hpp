// Service-level statistics: per-session health rolled up, step latencies
// kept as samples for percentile reporting.
//
// Each session accumulates its own PipelineHealth in its SessionContext;
// the registry's job is the service view — one merged health record (via
// PipelineHealth::operator+=), service-wide step counts, and latency
// percentiles over every recorded step. Latencies are also retained per
// session so a caller can compute class-level percentiles (e.g. "p99 of
// the small sessions while a large one is co-resident" — the isolation
// metric bench_service reports).
#pragma once

#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/health.hpp"
#include "runtime/session_context.hpp"

namespace cpart {

struct ServiceStats {
  idx_t sessions = 0;          // contexts folded into this snapshot
  wgt_t steps = 0;             // steps those contexts recorded
  PipelineHealth health;       // += over every session's accumulator
  idx_t latency_samples = 0;   // recorded step latencies
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

class StatRegistry {
 public:
  /// Records one completed step's wall latency. Thread-safe — called from
  /// session jobs on pool workers.
  void record_step(const std::string& session, double latency_ms);

  /// Copy of one session's recorded latencies (empty if none).
  std::vector<double> session_latencies(const std::string& session) const;

  idx_t samples() const;

  /// The service view: every context's health merged, plus percentiles
  /// over all recorded latencies.
  ServiceStats aggregate(
      std::span<const SessionContext* const> contexts) const;

  /// Nearest-rank percentile of an ascending-sorted sample set; q in
  /// [0, 1]. 0 on an empty set.
  static double percentile(const std::vector<double>& sorted, double q);

 private:
  mutable std::mutex mutex_;
  std::vector<double> latencies_ms_;
  std::map<std::string, std::vector<double>> by_session_;
};

}  // namespace cpart
