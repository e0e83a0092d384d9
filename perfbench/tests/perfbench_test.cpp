// Unit tests of the benchmark's metric helpers and span recorder. Plain
// checks, no framework: prints each failure and exits nonzero on any.
#include <cmath>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAILED: " << what << "\n";
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n..1, unsorted on purpose
}

void test_names_and_units() {
  check(valid_metric_name("step_ms_p50"), "plain name");
  check(valid_metric_name("runtime.bytes.halo"), "dotted name");
  check(valid_metric_name("9lives-x"), "digit first, dash inside");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name(".hidden"), "dot first");
  check(!valid_metric_name("a b"), "space");
  check(!valid_metric_name("a/b"), "slash");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");
  check(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"), "units");
  check(!valid_unit("") && !valid_unit("m s") && !valid_unit(std::string(17, 'u')),
        "bad units");
}

void test_vocabulary() {
  std::set<std::string> seen;
  std::size_t end_to_end = 0;
  for (const MetricSpec& m : all_metrics()) {
    const std::string name(m.name);
    check(valid_metric_name(m.name), "metric name " + name);
    check(valid_unit(m.unit), "unit of " + name);
    check(seen.insert(name).second, "duplicate metric " + name);
    check(find_metric(m.name) == &m, "lookup of " + name);
    if (m.scope == Scope::kEndToEnd) ++end_to_end;
  }
  check(end_to_end >= 1 && end_to_end <= 16, "1..16 end-to-end metrics");
  check(find_metric("setup_s") != nullptr &&
            find_metric("setup_s")->better == Better::kLower &&
            find_metric("setup_s")->unit == "s",
        "setup_s is seconds, lower is better");
  check(find_metric("no_such_metric") == nullptr, "unknown metric");
}

void test_percentiles() {
  check(nearest_rank(100, 0.9) == 90, "rank of p90 over 100");
  check(nearest_rank(1, 0.5) == 1, "rank of the median of 1");
  check(nearest_rank(10, 0.01) == 1, "rank never below 1");

  const auto p90 = percentile(iota(100), 0.9);
  check(p90 && p90->value == 90 && p90->samples == 100,
        "p90 of 1..100 is 90, 100 samples");
  check(!percentile(iota(99), 0.9), "p90 over 99 leaves 9 beyond: refused");
  check(!percentile(iota(100), 0.99), "p99 over 100 leaves 1 beyond: refused");
  const auto p99 = percentile(iota(1000), 0.99);
  check(p99 && p99->value == 990, "p99 of 1..1000 is 990");

  const auto m1 = median({7.5});
  check(m1 && m1->value == 7.5 && m1->samples == 1, "median of one sample");
  const auto m4 = median(iota(4));
  check(m4 && m4->value == 2, "nearest-rank median of 1..4 is 2");
  check(!median({}), "median of nothing");
  check(!percentile(iota(10), 0.0) && !percentile(iota(10), 1.5),
        "quantile outside (0, 1]");
}

void test_report() {
  Report r;
  r.set("setup_s", 1.25, 3);
  check(r.has("setup_s") && r.values().at("setup_s").unit == "s" &&
            r.values().at("setup_s").samples == 3,
        "set copies the unit and keeps the sample count");
  bool threw = false;
  try {
    r.set("not_a_metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "unregistered metric refused");
  threw = false;
  try {
    r.set("setup_s", std::nan(""));
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "NaN refused");
  const auto missing = r.missing(Scope::kEndToEnd);
  check(!missing.empty() && missing.front() != "setup_s",
        "missing lists the unset end-to-end metrics only");
}

void test_tracer() {
  Tracer off(false, "w");
  {
    auto s = off.span("a");
    check(s.close() == 0, "disabled span has no duration");
  }
  check(off.spans().empty(), "disabled recorder records nothing");

  Tracer t(true, "w");
  {
    auto outer = t.span("core.outer", 7);
    {
      auto inner = t.span("tree.inner");
    }
    auto second = t.span("tree.inner");
  }
  check(t.spans().size() == 3, "three spans");
  check(t.spans()[0].parent == -1 && t.spans()[1].parent == 0 &&
            t.spans()[2].parent == 0,
        "parents follow nesting");
  check(t.spans()[0].step == 7, "step recorded");
  const auto summary = t.summary();
  check(summary.at("tree.inner").count == 2, "summary counts by name");
  const auto& outer = summary.at("core.outer");
  check(outer.self_ms <= outer.total_ms && outer.self_ms >= 0,
        "self time excludes children");
}

}  // namespace

int main() {
  test_names_and_units();
  test_vocabulary();
  test_percentiles();
  test_report();
  test_tracer();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_test: all checks passed\n";
  return 0;
}
