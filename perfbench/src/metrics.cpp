#include "metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr Better kLo = Better::kLower;
constexpr Better kHi = Better::kHigher;
constexpr Scope kE2e = Scope::kEndToEnd;
constexpr Scope kLay = Scope::kLayer;
constexpr Scope kDet = Scope::kDetail;

// End-to-end metrics apply to every workload (each workload defines its
// unit of work, "op"); detail metrics only to the workloads named in the
// README; layer metrics are reported by traced runs, with 0 where the
// workload gives the layer no work.
constexpr std::array kMetrics = {
    MetricSpec{"setup_s", "s", kLo, kE2e},
    MetricSpec{"op_ms_p50", "ms", kLo, kE2e},
    MetricSpec{"ops_per_s", "1/s", kHi, kE2e},
    MetricSpec{"edgecut", "edges", kLo, kE2e},
    MetricSpec{"balance", "ratio", kLo, kE2e},
    MetricSpec{"peak_rss_mb", "MiB", kLo, kE2e},

    MetricSpec{"step_ms_p50", "ms", kLo, kDet},
    MetricSpec{"step_ms_p90", "ms", kLo, kDet},
    MetricSpec{"migrate_step_ms_p50", "ms", kLo, kDet},
    MetricSpec{"step_ms_p99", "ms", kLo, kDet},
    MetricSpec{"steps_per_s", "1/s", kHi, kDet},
    MetricSpec{"admit_ms_p50", "ms", kLo, kDet},
    MetricSpec{"partition_s", "s", kLo, kDet},
    MetricSpec{"comm_bytes_per_step", "B", kLo, kDet},
    MetricSpec{"failed_frac", "ratio", kLo, kDet},

    MetricSpec{"mesh.graph_build_ms", "ms", kLo, kLay},
    MetricSpec{"mesh.window_peak_bytes", "B", kLo, kLay},
    MetricSpec{"partition.mcml_ms", "ms", kLo, kLay},
    MetricSpec{"partition.group_ms", "ms", kLo, kLay},
    MetricSpec{"partition.local_ms", "ms", kLo, kLay},
    MetricSpec{"partition.coarsen_ms", "ms", kLo, kLay},
    MetricSpec{"partition.initial_ms", "ms", kLo, kLay},
    MetricSpec{"partition.fm_ms", "ms", kLo, kLay},
    MetricSpec{"partition.fm_moves", "count", kLo, kLay},
    MetricSpec{"partition.kway_ms", "ms", kLo, kLay},
    MetricSpec{"partition.repartition_ms", "ms", kLo, kLay},
    MetricSpec{"partition.moved_nodes", "count", kLo, kLay},
    MetricSpec{"tree.induce_ms", "ms", kLo, kLay},
    MetricSpec{"tree.nodes", "count", kLo, kLay},
    MetricSpec{"tree.codec_ms", "ms", kLo, kLay},
    MetricSpec{"tree.wire_bytes", "B", kLo, kLay},
    MetricSpec{"contact.global_ms", "ms", kLo, kLay},
    MetricSpec{"contact.nremote", "count", kLo, kLay},
    MetricSpec{"contact.local_ms", "ms", kLo, kLay},
    MetricSpec{"contact.events", "count", kLo, kLay},
    MetricSpec{"runtime.bytes.halo", "B", kLo, kLay},
    MetricSpec{"runtime.bytes.coupling", "B", kLo, kLay},
    MetricSpec{"runtime.bytes.faces", "B", kLo, kLay},
    MetricSpec{"runtime.bytes.descriptor", "B", kLo, kLay},
    MetricSpec{"runtime.bytes.labels", "B", kLo, kLay},
    MetricSpec{"runtime.bytes.migration", "B", kLo, kLay},
    MetricSpec{"runtime.retry_frac", "ratio", kLo, kLay},
    MetricSpec{"runtime.backoff_ms", "ms", kLo, kLay},
    MetricSpec{"runtime.degraded_steps", "count", kLo, kLay},
    MetricSpec{"runtime.stall_ms", "ms", kLo, kLay},
    MetricSpec{"runtime.checkpoint_ms", "ms", kLo, kLay},
    MetricSpec{"runtime.checkpoints", "count", kLo, kLay},
    MetricSpec{"core.step_ms", "ms", kLo, kLay},
    MetricSpec{"core.trace_overhead_ms", "ms", kLo, kLay},
    MetricSpec{"parallel.busy_frac", "ratio", kHi, kLay},
    MetricSpec{"parallel.items_executed", "count", kHi, kLay},
    MetricSpec{"parallel.gang_slots_executed", "count", kHi, kLay},
    MetricSpec{"service.fairness_ratio", "ratio", kLo, kLay},
    MetricSpec{"service.pending_peak", "count", kLo, kLay},
    MetricSpec{"service.leaked_bytes", "B", kLo, kLay},
};

bool name_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool unit_char(char c) { return name_char(c) || c == '/' || c == '%'; }

}  // namespace

std::span<const MetricSpec> all_metrics() { return kMetrics; }

const MetricSpec* find_metric(std::string_view name) {
  for (const MetricSpec& m : kMetrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (name[0] == '_' || name[0] == '.' || name[0] == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), unit_char);
}

const char* better_name(Better better) {
  return better == Better::kLower ? "lower" : "higher";
}

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::optional<Stat> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) return std::nullopt;
  const std::size_t n = samples.size();
  const std::size_t rank = nearest_rank(n, q);
  if (q > 0.5 && n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Stat{samples[rank - 1], n};
}

std::optional<Stat> median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

void Report::set(std::string_view name, double value, std::size_t samples) {
  const MetricSpec* spec = find_metric(name);
  if (spec == nullptr) {
    throw std::logic_error("unregistered metric: " + std::string(name));
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("non-finite value for metric " + std::string(name));
  }
  values_[std::string(name)] = {value, std::string(spec->unit), samples};
}

bool Report::has(std::string_view name) const {
  return values_.count(std::string(name)) != 0;
}

std::vector<std::string> Report::missing(Scope scope) const {
  std::vector<std::string> out;
  for (const MetricSpec& m : kMetrics) {
    if (m.scope == scope && !has(m.name)) out.emplace_back(m.name);
  }
  return out;
}

}  // namespace perfbench
