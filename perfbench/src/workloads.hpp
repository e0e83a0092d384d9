// The benchmark's workloads and what they share.
//
// Each workload builds its inputs from the seed, sets up (several times,
// so set-up time has a median), repeats its unit of work ("op") until the
// measuring window is used, and checks its outputs outside every timed
// region. Every call it times is a public library entry point; traced runs
// additionally record spans around those calls and replay single layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed_sim.hpp"
#include "graph/csr_graph.hpp"
#include "metrics.hpp"
#include "parallel/worker_pool.hpp"
#include "partition/partition.hpp"
#include "trace.hpp"

namespace perfbench {

using cpart::idx_t;
using cpart::wgt_t;

/// Set-ups per run: set-up time is the median over them, and the impact
/// workloads' partition quality the median over their decompositions.
inline constexpr int kSetups = 5;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;     // measuring window
  std::string work_dir;    // inside the checkout, removed afterwards
};

struct RunResult {
  Report report;
  /// Operations attempted and failed: steps, partitions, session steps,
  /// and every correctness check.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> gate_failures;  // first few failure messages
  /// Workload facts for the report (input sizes, op counts, ...).
  std::map<std::string, std::string> info;

  /// Counts one checked operation; a failed one is recorded with `what`.
  void check(bool ok, const std::string& what);
};

using WorkloadFn = void (*)(const RunOptions&, Tracer&, RunResult&);

void run_impact_steady(const RunOptions& opts, Tracer& tracer, RunResult& out);
void run_impact_migrate(const RunOptions& opts, Tracer& tracer,
                        RunResult& out);
void run_partition_large(const RunOptions& opts, Tracer& tracer,
                         RunResult& out);
void run_service_fleet(const RunOptions& opts, Tracer& tracer, RunResult& out);

/// Workload names in run order, with their entry points.
struct WorkloadEntry {
  const char* name;
  WorkloadFn run;
};
std::span<const WorkloadEntry> all_workloads();

// ----- Shared helpers ------------------------------------------------------

/// Process peak resident set size in MiB.
double peak_rss_mb();

/// Median of `samples` as a Stat; throws when empty (a workload that
/// measured nothing is a benchmark bug).
Stat median_of(const std::vector<double>& samples, const char* what);

/// Arithmetic mean of `samples` as a Stat; throws when empty.
Stat mean_of(const std::vector<double>& samples, const char* what);

/// Sets `name` to the nearest-rank quantile q of `samples` when the
/// ten-beyond rule allows it; otherwise records why in out.info.
void set_percentile(RunResult& out, const char* name,
                    const std::vector<double>& samples, double q);

/// The end-to-end metrics every workload reports from its own numbers;
/// edgecut and balance summarize the partitions the workload made.
void set_common_metrics(RunResult& out, const Stat& setup_s,
                        const Stat& op_ms, double ops_per_s,
                        const Stat& edgecut, const Stat& balance);

/// Payload bytes and transport health summed over a run's step reports.
struct StepTotals {
  std::size_t steps = 0;
  cpart::PipelineHealth health;
  wgt_t halo = 0, coupling = 0, faces = 0, descriptor = 0, labels = 0,
        migration = 0;

  void add(const cpart::DistributedStepReport& r);
  wgt_t payload_bytes() const {
    return halo + coupling + faces + descriptor + labels + migration;
  }
  /// Sets comm_bytes_per_step and the runtime.bytes.* / retry_frac /
  /// backoff_ms / degraded_steps / stall_ms metrics.
  void set_metrics(RunResult& out, bool layers) const;
};

/// Timings of one replayed top-level multilevel bisection (coarsening
/// chain, initial bisection, FM refinement while uncoarsening) and one
/// k-way polish of `labels`, through the partitioner's public layer
/// entry points — the same calls partition_graph makes.
struct PartitionReplay {
  double coarsen_ms = 0;
  double initial_ms = 0;
  double fm_ms = 0;
  double kway_ms = 0;
  idx_t fm_moves = 0;
};
PartitionReplay replay_partition_layers(const cpart::CsrGraph& g,
                                        std::span<const idx_t> labels,
                                        const cpart::PartitionOptions& options,
                                        Tracer& tracer);

/// Sets the partition.{coarsen,initial,fm,kway}_ms / fm_moves metrics.
void set_replay_metrics(RunResult& out, const PartitionReplay& r);

/// Samples a WorkerPool's scheduler counters from a background thread
/// (traced runs only): the mean busy fraction of its workers, and the
/// items / gang slots it executed between start and stop().
class PoolSampler {
 public:
  PoolSampler(cpart::WorkerPool& pool, bool enabled);
  ~PoolSampler();
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  /// Stops sampling and sets the parallel.* metrics on `out`.
  void stop(RunResult& out);

 private:
  void join();

  cpart::WorkerPool& pool_;
  cpart::SchedulerStats start_{};
  std::atomic<bool> stop_{false};
  double busy_sum_ = 0;  // written by the thread, read after join
  std::size_t samples_ = 0;
  std::thread thread_;
};

/// Every layer metric set to 0, so a traced run reports the full set even
/// where its workload gives a layer no work.
void zero_layer_metrics(RunResult& out);

}  // namespace perfbench
