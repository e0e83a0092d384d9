// Metric vocabulary of the benchmark: every metric it can report, with its
// unit and the direction that counts as better, plus the sample statistics
// the timings are reported with.
//
// Timings are reported as a median plus a tail percentile. The percentile
// helper uses the nearest-rank definition (the value at 1-based rank
// ceil(q * n) of the sorted samples) and refuses a tail percentile that
// has fewer than ten samples beyond it, so a "p99" is never a single
// outlier in disguise. The median is always reportable: a workload whose
// unit of work is one multi-second call still has a median of its calls.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Better { kLower, kHigher };

/// Whether a metric is an end-to-end figure every workload reports
/// (untraced runs; bounded against regressions), an end-to-end figure of
/// only some workloads (untraced runs; printed, not bounded), or a single
/// layer's figure (traced runs; unbounded).
enum class Scope { kEndToEnd, kDetail, kLayer };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Better better;
  Scope scope;
};

/// Every metric the benchmark reports, in output order.
std::span<const MetricSpec> all_metrics();

/// The spec of `name`, or nullptr when the benchmark does not define it.
const MetricSpec* find_metric(std::string_view name);

/// Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

/// Units: 1 to 16 characters of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

const char* better_name(Better better);

/// A statistic together with the number of samples behind it.
struct Stat {
  double value = 0;
  std::size_t samples = 0;
};

/// Samples a tail percentile needs beyond its rank.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q in (0, 1] over n samples.
std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank quantile q of `samples` (any order). Quantiles above the
/// median are refused (nullopt) unless at least kMinSamplesBeyond samples
/// lie beyond the rank; the median and below need one sample.
std::optional<Stat> percentile(std::vector<double> samples, double q);

/// The nearest-rank median; nullopt only for an empty sample set.
std::optional<Stat> median(std::vector<double> samples);

/// One measured value, its unit (copied from the spec), and the sample
/// count behind it (1 for a single measurement or a count).
struct MetricValue {
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// The metrics of one run. set() accepts only metrics the vocabulary
/// defines, so a typo or an unregistered metric fails the run instead of
/// printing an unbounded figure.
class Report {
 public:
  void set(std::string_view name, double value, std::size_t samples = 1);
  void set(std::string_view name, const Stat& stat) {
    set(name, stat.value, stat.samples);
  }
  bool has(std::string_view name) const;
  const std::map<std::string, MetricValue>& values() const { return values_; }

  /// Names of the `scope` metrics this report lacks.
  std::vector<std::string> missing(Scope scope) const;

 private:
  std::map<std::string, MetricValue> values_;
};

}  // namespace perfbench
