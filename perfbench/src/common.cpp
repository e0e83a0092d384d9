#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include <sys/resource.h>

#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "partition/initial_partition.hpp"
#include "partition/refine_bisection.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cpart;

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (gate_failures.size() < 20) gate_failures.push_back(what);
}

std::span<const WorkloadEntry> all_workloads() {
  static constexpr WorkloadEntry kAll[] = {
      {"impact_steady", run_impact_steady},
      {"impact_migrate", run_impact_migrate},
      {"partition_large", run_partition_large},
      {"service_fleet", run_service_fleet},
  };
  return kAll;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Stat median_of(const std::vector<double>& samples, const char* what) {
  const std::optional<Stat> m = median(samples);
  if (!m) throw std::runtime_error(std::string("no samples for ") + what);
  return *m;
}

Stat mean_of(const std::vector<double>& samples, const char* what) {
  if (samples.empty()) {
    throw std::runtime_error(std::string("no samples for ") + what);
  }
  double sum = 0;
  for (double v : samples) sum += v;
  return Stat{sum / static_cast<double>(samples.size()), samples.size()};
}

void set_percentile(RunResult& out, const char* name,
                    const std::vector<double>& samples, double q) {
  if (const std::optional<Stat> p = percentile(samples, q)) {
    out.report.set(name, *p);
  } else {
    out.info[std::string(name) + ".refused"] =
        std::to_string(samples.size()) + " samples leave fewer than " +
        std::to_string(kMinSamplesBeyond) + " beyond the rank";
  }
}

void set_common_metrics(RunResult& out, const Stat& setup_s, const Stat& op_ms,
                        double ops_per_s, const Stat& edgecut,
                        const Stat& balance) {
  out.report.set("setup_s", setup_s);
  out.report.set("op_ms_p50", op_ms);
  out.report.set("ops_per_s", ops_per_s, op_ms.samples);
  out.report.set("edgecut", edgecut);
  out.report.set("balance", balance);
  out.report.set("peak_rss_mb", peak_rss_mb());
}

void StepTotals::add(const DistributedStepReport& r) {
  ++steps;
  health += r.health;
  halo += r.halo_payload_bytes;
  coupling += r.coupling_payload_bytes;
  faces += r.face_payload_bytes;
  descriptor += r.descriptor_broadcast_bytes;
  labels += r.label_broadcast_bytes;
  migration += r.migration_payload_bytes;
}

void StepTotals::set_metrics(RunResult& out, bool layers) const {
  const auto per_step = [&](double v) {
    return v / static_cast<double>(std::max<std::size_t>(steps, 1));
  };
  out.report.set("comm_bytes_per_step",
                 per_step(static_cast<double>(payload_bytes())), steps);
  if (!layers) return;
  out.report.set("runtime.bytes.halo", per_step(halo), steps);
  out.report.set("runtime.bytes.coupling", per_step(coupling), steps);
  out.report.set("runtime.bytes.faces", per_step(faces), steps);
  out.report.set("runtime.bytes.descriptor", per_step(descriptor), steps);
  out.report.set("runtime.bytes.labels", per_step(labels), steps);
  out.report.set("runtime.bytes.migration", per_step(migration), steps);
  out.report.set("runtime.retry_frac",
                 health.delivery_attempts > 0
                     ? static_cast<double>(health.retries) /
                           static_cast<double>(health.delivery_attempts)
                     : 0.0,
                 static_cast<std::size_t>(health.delivery_attempts));
  out.report.set("runtime.backoff_ms", health.backoff_ms);
  out.report.set("runtime.degraded_steps",
                 static_cast<double>(health.degraded_steps));
  out.report.set("runtime.stall_ms",
                 per_step(static_cast<double>(health.readiness_stall_ns) / 1e6),
                 steps);
}

void zero_layer_metrics(RunResult& out) {
  for (const MetricSpec& m : all_metrics()) {
    if (m.scope == Scope::kLayer) out.report.set(m.name, 0.0, 0);
  }
}

PartitionReplay replay_partition_layers(const CsrGraph& g,
                                        std::span<const idx_t> labels,
                                        const PartitionOptions& options,
                                        Tracer& tracer) {
  // Mirrors the top level of partition_graph: the per-level imbalance
  // budget, then multilevel_bisect's coarsen / initial / refine sequence.
  const idx_t k = options.k;
  const int levels = std::max(
      1, static_cast<int>(std::ceil(std::log2(static_cast<double>(k)))));
  const double eps_level =
      std::clamp(options.epsilon / std::sqrt(static_cast<double>(levels)),
                 0.02, options.epsilon);
  const double fraction =
      static_cast<double>((k + 1) / 2) / static_cast<double>(k);
  Rng rng(options.seed);
  PartitionReplay r;

  Timer timer;
  CoarsenOptions copts;
  copts.parallel_threshold = options.coarsen_parallel_threshold;
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  {
    auto span = tracer.span("partition.coarsen_once");
    while (cur->num_vertices() > options.coarsen_target) {
      Coarsening c = coarsen_once(*cur, rng, copts);
      if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
      chain.push_back(std::move(c));
      cur = &chain.back().coarse;
    }
  }
  r.coarsen_ms = timer.milliseconds();

  timer.reset();
  std::vector<idx_t> part;
  {
    auto span = tracer.span("partition.initial_bisection");
    part = initial_bisection(*cur, fraction, eps_level, options.initial_tries,
                             options.refine_passes, rng);
  }
  r.initial_ms = timer.milliseconds();

  timer.reset();
  {
    auto span = tracer.span("partition.fm_refine_bisection");
    for (std::size_t i = chain.size(); i-- > 0;) {
      const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
      const std::vector<idx_t>& map = chain[i].coarse_of_fine;
      std::vector<idx_t> fine_part(map.size());
      for (std::size_t v = 0; v < map.size(); ++v) {
        fine_part[v] = part[static_cast<std::size_t>(map[v])];
      }
      r.fm_moves += fm_refine_bisection(fine, fine_part, fraction, eps_level,
                                        options.refine_passes, rng);
      part = std::move(fine_part);
    }
  }
  r.fm_ms = timer.milliseconds();

  std::vector<idx_t> polished(labels.begin(), labels.end());
  KwayRefineOptions kro;
  kro.k = k;
  kro.epsilon = options.epsilon;
  kro.passes = options.kway_passes;
  timer.reset();
  {
    auto span = tracer.span("partition.kway_refine");
    merge_partition_fragments(g, polished, k);
    kway_refine(g, polished, kro, rng);
  }
  r.kway_ms = timer.milliseconds();
  return r;
}

void set_replay_metrics(RunResult& out, const PartitionReplay& r) {
  out.report.set("partition.coarsen_ms", r.coarsen_ms);
  out.report.set("partition.initial_ms", r.initial_ms);
  out.report.set("partition.fm_ms", r.fm_ms);
  out.report.set("partition.fm_moves", static_cast<double>(r.fm_moves));
  out.report.set("partition.kway_ms", r.kway_ms);
}

PoolSampler::PoolSampler(WorkerPool& pool, bool enabled) : pool_(pool) {
  start_ = pool_.stats();
  if (!enabled) return;
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const SchedulerStats s = pool_.stats();
      if (s.total_workers > 0) {
        busy_sum_ += static_cast<double>(s.active_workers) /
                     static_cast<double>(s.total_workers);
        ++samples_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

PoolSampler::~PoolSampler() { join(); }

void PoolSampler::join() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void PoolSampler::stop(RunResult& out) {
  join();
  const SchedulerStats end = pool_.stats();
  out.report.set("parallel.busy_frac",
                 samples_ > 0 ? busy_sum_ / static_cast<double>(samples_) : 0,
                 samples_);
  out.report.set("parallel.items_executed",
                 static_cast<double>(end.items_executed - start_.items_executed));
  out.report.set(
      "parallel.gang_slots_executed",
      static_cast<double>(end.gang_slots_executed - start_.gang_slots_executed));
}

}  // namespace perfbench
