// Benchmark of the distributed MCML+DT contact step (DistributedSim)
// against the centralized reference of tests/support (ReferenceSim).
//
// For each thread count, two identically configured runs drive the same
// snapshot sequence, repartitioning and migrating live state every
// --repart_period steps:
//   * reference — ReferenceSim::run_step, the centralized step (serial;
//     traffic is accounted from a byte model);
//   * spmd — DistributedSim::run_step, k rank programs executing the step
//     concurrently on the thread pool, moving real payloads through the
//     exchange.
// Every step cross-checks the two flavors — merged events (including each
// closest point), per-rank event counts, traffic, descriptor, payload and
// migration bytes, and the ownership hash must be bit-identical — and the
// binary exits nonzero on any divergence, so a speedup can never come from
// computing something different.
//
//   ./bench_spmd [--resolution 1.0] [--snapshots 20] [--k 25]
//                [--threads 1,2,4,8] [--stride 1] [--out BENCH_spmd.json]
//                [--fault_rate 0.0] [--fault_seed 1] [--max_attempts 4]
//                [--repart_period 8] [--checkpoint_period 10]
//                [--checkpoint_dir bench_spmd_ckpt] [--kill_rank -1]
//                [--kill_step -1]
//
// JSON output: {"env": {...}, "wire": {...}, "induction": {...},
// "results": [{threads, ..., distributed: {reference_mean_ms, spmd_mean_ms,
// speedup, plain_step_ms_median, migration_step_ms_median, health: {...},
// steps: [{..., events, descriptor_tree_nodes (NTNodes), migrated,
// repartition_ms, migration_ranks_rebuilt, ownership_hash (hex string),
// bytes: {descriptor, halo, faces}, phase_ms:
// {descriptor: [per rank], halo, ship, search, migrate, deliver}, wait:
// {descriptor, ship, search}}]}}], "scaling": {...}, "recovery": {...}},
// steady state = steps >= 1; the two medians are of the SPMD steady steps
// without and with migration (0 when there are none). The per-rank arrays
// follow RankPhaseBreakdown's superstep mapping.
//
// The "induction" block times descriptor induction of one snapshot's contact
// points cold and warm (after the previous snapshot in one
// TreeInduceWorkspace), and the binary exits nonzero unless the two trees
// match node for node.
//
// --fault_rate > 0 arms the seeded FaultInjector on the exchange, which
// exercises the checksummed retry path; events must STILL be bit-identical
// to the reference as long as the schedule stays within --max_attempts.
//
// --checkpoint_period > 0 (the default) appends a "recovery" block: the
// zero-fault checkpoint overhead (the median and inter-quartile range over
// kOverheadPairs alternating plain and checkpointed distributed runs of the
// same snapshots) and an MTTR probe that kills --kill_rank at --kill_step
// (counted in steps run) and requires the restored+replayed run to stay
// bit-identical to the fault-free baseline at every step.
//
// The exit status names each failed check on stderr: SPMD vs reference,
// warm vs cold induction, recovered or checkpointed runs vs the baseline,
// and a seeded kill that never fired.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "bench_env.hpp"
#include "core/distributed_sim.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"
#include "support/reference_sim.hpp"
#include "support/report_compare.hpp"
#include "tree/decision_tree.hpp"
#include "tree/tree_io.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

/// Structural equality of two descriptor trees: same node array, split
/// geometry, labels and counts.
bool trees_identical(const DecisionTree& a, const DecisionTree& b) {
  if (a.num_nodes() != b.num_nodes() || a.root() != b.root()) return false;
  for (idx_t i = 0; i < a.num_nodes(); ++i) {
    const TreeNode& x = a.node(i);
    const TreeNode& y = b.node(i);
    if (x.axis != y.axis || x.cut != y.cut || x.left != y.left ||
        x.right != y.right || x.label != y.label || x.pure != y.pure ||
        x.count != y.count) {
      return false;
    }
  }
  return true;
}

// A 64-bit hash as a fixed-width hex string: JSON numbers past 2^53 lose
// bits in most readers.
std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The p-quantile of `v`, linearly interpolated between order statistics
/// (0 when empty); sorts `v`.
double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Alternating plain/checkpointed run pairs behind the checkpoint-overhead
/// median: a single A/B swings by more than the overhead on a shared host.
constexpr int kOverheadPairs = 5;

void json_array(std::ostream& os, const std::vector<double>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  os << "]";
}

void health_json(std::ostream& os, const PipelineHealth& h) {
  os << "{\"deliveries\": " << h.deliveries
     << ", \"attempts\": " << h.delivery_attempts
     << ", \"retries\": " << h.retries
     << ", \"corrupt_cells\": " << h.corrupt_cells
     << ", \"checksum_failures\": " << h.checksum_failures
     << ", \"count_mismatches\": " << h.count_mismatches
     << ", \"redelivered_bytes\": " << h.redelivered_bytes
     << ", \"exhausted_deliveries\": " << h.exhausted_deliveries
     << ", \"degraded_steps\": " << h.degraded_steps
     << ", \"wire_parse_failures\": " << h.wire_parse_failures
     << ", \"failed_ranks\": " << h.failed_ranks
     << ", \"rank_deaths\": " << h.rank_deaths
     << ", \"recoveries\": " << h.recoveries
     << ", \"replay_steps\": " << h.replay_steps
     << ", \"checkpoints_written\": " << h.checkpoints_written
     << ", \"checkpoint_write_failures\": " << h.checkpoint_write_failures
     << ", \"backoff_ms\": " << h.backoff_ms
     << ", \"readiness_stalls\": " << h.readiness_stalls
     << ", \"readiness_stall_ns\": " << h.readiness_stall_ns
     << ", \"channels\": {";
  for (ChannelId id : kChannels) {
    const ChannelHealth& ch = h.channel(id);
    if (id != kChannels.front()) os << ", ";
    os << "\"" << channel_name(id)
       << "\": {\"corrupt_cells\": " << ch.corrupt_cells
       << ", \"checksum_failures\": " << ch.checksum_failures
       << ", \"count_mismatches\": " << ch.count_mismatches
       << ", \"redelivered_bytes\": " << ch.redelivered_bytes << "}";
  }
  os << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("resolution", "1.0", "mesh resolution scale factor");
  flags.define("snapshots", "20", "snapshots to process");
  flags.define("k", "25", "number of ranks/partitions");
  flags.define("threads", "1,2,4,8", "comma-separated thread counts");
  flags.define("stride", "1", "process every stride-th snapshot");
  flags.define("out", "BENCH_spmd.json", "JSON output path");
  flags.define("fault_rate", "0.0",
               "per-cell fault probability for the seeded injector (0 = off)");
  flags.define("fault_seed", "1", "fault schedule seed");
  flags.define("max_attempts", "4", "delivery attempts per superstep");
  flags.define("repart_period", "8",
               "distributed run: repartition + migrate every N steps (0 = off)");
  flags.define("checkpoint_period", "10",
               "recovery probe: durable checkpoint every N steps (0 = skip "
               "the probe)");
  flags.define("checkpoint_dir", "bench_spmd_ckpt",
               "recovery probe: checkpoint directory (removed afterwards)");
  flags.define("kill_rank", "-1",
               "recovery probe: rank to kill (-1 = k / 2)");
  flags.define("kill_step", "-1",
               "recovery probe: step (counted in steps run) to kill it at "
               "(-1 = mid-run, placed mid-way through a checkpoint period so "
               "replay is nonempty)");
  try {
    flags.parse(argc, argv);
    const double resolution = flags.get_double("resolution");
    const idx_t snapshots = static_cast<idx_t>(flags.get_int("snapshots"));
    const idx_t stride = static_cast<idx_t>(flags.get_int("stride"));
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    const double fault_rate = flags.get_double("fault_rate");
    const std::uint64_t fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault_seed"));
    RetryPolicy retry;
    retry.max_attempts = static_cast<idx_t>(flags.get_int("max_attempts"));
    const idx_t repart_period =
        static_cast<idx_t>(flags.get_int("repart_period"));
    const idx_t checkpoint_period =
        static_cast<idx_t>(flags.get_int("checkpoint_period"));
    const std::string checkpoint_dir = flags.get_string("checkpoint_dir");
    const idx_t kill_rank_flag = static_cast<idx_t>(flags.get_int("kill_rank"));
    const idx_t kill_step_flag = static_cast<idx_t>(flags.get_int("kill_step"));
    std::vector<unsigned> thread_counts;
    {
      std::stringstream ss(flags.get_string("threads"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      require(!thread_counts.empty(), "empty --threads");
    }

    ImpactSimConfig sim_config;
    sim_config.scale_resolution(resolution);
    sim_config.num_snapshots = std::max<idx_t>(snapshots, 2);
    const ImpactSim sim(sim_config);
    const real_t cell = sim_config.plate_width /
                        static_cast<real_t>(sim_config.plate_cells_xy);

    DistributedSimConfig dconfig;
    dconfig.decomposition.k = k;
    dconfig.search.search_margin = 0.5 * cell;
    dconfig.search.contact_tolerance = 0.25 * cell;
    dconfig.repartition_period = repart_period;

    std::cout << "Distributed contact step: "
              << sim.initial_mesh().num_nodes() << " nodes, "
              << sim.num_snapshots() << " snapshots, k=" << k << "\n\n";

    // Wire-codec microbenchmark on snapshot 0's descriptor tree: encode and
    // decode cost per tree of the binary codec the broadcast ships, and its
    // bytes.
    const ImpactSim::Snapshot snap0 = sim.snapshot(0);
    const McmlDtPartitioner part0(snap0.mesh, snap0.surface,
                                  dconfig.decomposition);
    std::ostringstream wire_json;
    {
      const SubdomainDescriptors wire_desc =
          part0.build_descriptors(snap0.mesh, snap0.surface);
      const std::string binary_wire = tree_to_binary(wire_desc.tree());
      constexpr int kCodecIters = 50;
      const auto per_tree_ns = [](Timer& timer) {
        return timer.milliseconds() * 1e6 / kCodecIters;
      };
      std::size_t sink = 0;
      Timer timer;
      for (int i = 0; i < kCodecIters; ++i) {
        sink += tree_to_binary(wire_desc.tree()).size();
      }
      const double binary_encode_ns = per_tree_ns(timer);
      timer.reset();
      for (int i = 0; i < kCodecIters; ++i) {
        sink += static_cast<std::size_t>(
            tree_from_binary(binary_wire).num_nodes());
      }
      const double binary_decode_ns = per_tree_ns(timer);
      require(sink > 0, "codec microbenchmark produced nothing");
      wire_json << "{\"tree_nodes\": " << wire_desc.num_tree_nodes()
                << ", \"binary_bytes\": " << binary_wire.size()
                << ",\n  \"binary_encode_ns\": " << binary_encode_ns
                << ", \"binary_decode_ns\": " << binary_decode_ns << "}";
      std::cout << "wire codec: " << wire_desc.num_tree_nodes() << " nodes, "
                << binary_wire.size() << " B binary\n\n";
    }

    // Descriptor induction, cold vs warm, under the snapshot-0 partition:
    // snapshot s's contact points induced from scratch, and again in a
    // TreeInduceWorkspace that induced snapshot s-1 first (the warm start
    // the step's driver keeps across steps). The saved orders seed only an
    // induction over as many points as the last one, so s is the first
    // snapshot whose contact-point count equals its predecessor's (the last
    // one if none does; warm_start then reads false). Warm must reproduce
    // the cold tree node for node.
    std::ostringstream induction_json;
    bool induction_equal = true;
    {
      const std::vector<idx_t>& part = part0.node_partition();
      const auto gather = [&](const ImpactSim::Snapshot& snap,
                              std::vector<Vec3>& points,
                              std::vector<idx_t>& labels) {
        points.clear();
        labels.clear();
        for (idx_t id : snap.surface.contact_nodes) {
          points.push_back(snap.mesh.node(id));
          labels.push_back(part[static_cast<std::size_t>(id)]);
        }
      };
      std::vector<Vec3> points_prev, points;
      std::vector<idx_t> labels_prev, labels;
      gather(snap0, points_prev, labels_prev);
      idx_t s = 1;
      for (;; ++s) {
        gather(sim.snapshot(s), points, labels);
        if (points.size() == points_prev.size() ||
            s + 1 == sim.num_snapshots()) {
          break;
        }
        points_prev.swap(points);
        labels_prev.swap(labels);
      }
      DescriptorOptions dopts = dconfig.decomposition.descriptor;
      dopts.dim = snap0.mesh.dim();
      constexpr int kInductionIters = 10;
      double cold_ms = 0, warm_ms = 0;
      bool warm_start = false;
      for (int i = 0; i < kInductionIters; ++i) {
        Timer timer;
        const SubdomainDescriptors cold(points, labels, k, dopts);
        cold_ms += timer.milliseconds();
        TreeInduceWorkspace ws;
        SubdomainDescriptors previous(points_prev, labels_prev, k, dopts, &ws);
        ws.recycle(previous.release_tree());
        warm_start = ws.warm(points.size());
        timer.reset();
        const SubdomainDescriptors warm(points, labels, k, dopts, &ws);
        warm_ms += timer.milliseconds();
        induction_equal =
            induction_equal && trees_identical(cold.tree(), warm.tree());
      }
      cold_ms /= kInductionIters;
      warm_ms /= kInductionIters;
      induction_json << "{\"snapshot\": " << s << ", \"pool_threads\": "
                     << ThreadPool::global().num_threads()
                     << ", \"contact_points\": " << points.size()
                     << ", \"warm_start\": " << (warm_start ? "true" : "false")
                     << ",\n  \"cold_ms\": " << cold_ms
                     << ", \"warm_ms\": " << warm_ms
                     << ", \"trees_identical\": "
                     << (induction_equal ? "true" : "false") << "}";
      std::cout << "induction (snapshot " << s << ", " << points.size()
                << " points): cold " << cold_ms << " ms, warm " << warm_ms
                << " ms\n\n";
    }

    Table table({"threads", "reference_ms/step", "spmd_ms/step", "speedup"});
    std::ostringstream json;
    json << "{\"env\": " << cpart::bench::env_json() << ",\n \"wire\": "
         << wire_json.str() << ",\n \"induction\": " << induction_json.str()
         << ",\n \"results\": [\n";
    bool first_record = true;
    bool all_equal = true;       // SPMD vs reference, every row
    bool recovery_equal = true;  // checkpointed and recovered runs
    bool kill_fired = true;
    // (threads, mean spmd ms) per row, for the scaling-slope summary.
    std::vector<std::pair<unsigned, double>> dist_rows;

    for (unsigned t : thread_counts) {
      ThreadPool::set_global_threads(t);
      DistributedSim dist(sim, dconfig);
      ReferenceSim oracle(sim, dconfig);
      dist.exchange().set_retry_policy(retry);
      std::optional<FaultInjector> injector;
      if (fault_rate > 0) {
        FaultConfig fc;
        fc.seed = fault_seed;
        fc.cell_fault_probability = fault_rate;
        injector.emplace(fc);
        dist.exchange().set_fault_injector(&*injector);
      }
      PipelineHealth dist_health;
      std::ostringstream dsteps_json;
      double dref_sum = 0, dspmd_sum = 0;  // steady state: steps >= 1
      std::vector<double> plain_ms, migration_ms;  // SPMD, steady state
      idx_t dist_steady = 0;
      idx_t migration_steps = 0;
      wgt_t moved_nodes = 0, moved_elements = 0;
      wgt_t migration_bytes = 0, label_bytes = 0;
      bool row_equal = true;

      for (idx_t s = 0; s < sim.num_snapshots(); s += stride) {
        Timer timer;
        const DistributedStepReport ref = oracle.run_step(s);
        const double ref_ms = timer.milliseconds();

        timer.reset();
        const DistributedStepReport got = dist.run_step(s);
        const double spmd_ms = timer.milliseconds();

        dist_health += got.health;
        if (!reports_identical(got, ref)) {
          std::cerr << "DISTRIBUTED EQUIVALENCE FAILURE at step " << s
                    << ", threads " << t << "\n";
          row_equal = false;
        }
        if (s > 0) {
          dref_sum += ref_ms;
          dspmd_sum += spmd_ms;
          ++dist_steady;
          (got.migrated ? migration_ms : plain_ms).push_back(spmd_ms);
        }
        migration_steps += got.migrated ? 1 : 0;
        moved_nodes += got.repart_moved_nodes;
        moved_elements += got.repart_moved_elements;
        migration_bytes += got.migration_payload_bytes;
        label_bytes += got.label_broadcast_bytes;

        if (s > 0) dsteps_json << ",\n";
        const RankPhaseBreakdown& phase = got.phase;
        dsteps_json << "    {\"step\": " << s
                    << ", \"reference_ms\": " << ref_ms
                    << ", \"spmd_ms\": " << spmd_ms
                    << ", \"events\": " << got.contact_events
                    << ", \"descriptor_tree_nodes\": "
                    << got.descriptor_tree_nodes
                    << ", \"migrated\": " << (got.migrated ? "true" : "false")
                    << ", \"repartition_ms\": " << got.repartition_ms
                    << ", \"migration_ranks_rebuilt\": "
                    << got.migration_ranks_rebuilt
                    << ", \"ownership_hash\": \""
                    << hex_u64(got.ownership_hash) << "\""
                    << ", \"repart_moved_nodes\": " << got.repart_moved_nodes
                    << ", \"repart_moved_elements\": "
                    << got.repart_moved_elements
                    << ", \"migration_bytes\": " << got.migration_payload_bytes
                    << ", \"label_bytes\": " << got.label_broadcast_bytes
                    << ",\n     \"bytes\": {\"descriptor\": "
                    << got.descriptor_broadcast_bytes
                    << ", \"halo\": " << got.halo_payload_bytes
                    << ", \"faces\": " << got.face_payload_bytes
                    << "},\n     \"phase_ms\": {\"descriptor\": ";
        json_array(dsteps_json, phase.descriptor_ms);
        dsteps_json << ", \"halo\": ";
        json_array(dsteps_json, phase.halo_ms);
        dsteps_json << ", \"ship\": ";
        json_array(dsteps_json, phase.ship_ms);
        dsteps_json << ", \"search\": ";
        json_array(dsteps_json, phase.search_ms);
        dsteps_json << ", \"migrate\": ";
        json_array(dsteps_json, phase.migrate_ms);
        dsteps_json << ", \"deliver\": ";
        json_array(dsteps_json, phase.deliver_ms);
        // Per-rank readiness-wait time preceding each consuming phase.
        dsteps_json << "},\n     \"wait\": {\"descriptor\": ";
        json_array(dsteps_json, phase.descriptor_wait_ms);
        dsteps_json << ", \"ship\": ";
        json_array(dsteps_json, phase.ship_wait_ms);
        dsteps_json << ", \"search\": ";
        json_array(dsteps_json, phase.search_wait_ms);
        dsteps_json << "}}";
      }
      all_equal = all_equal && row_equal;

      const double dns = static_cast<double>(std::max<idx_t>(dist_steady, 1));
      const double dist_ref_mean = dref_sum / dns;
      const double dist_spmd_mean = dspmd_sum / dns;
      const double dist_speedup =
          dist_ref_mean / std::max(dist_spmd_mean, 1e-9);

      table.begin_row();
      table.add_cell(static_cast<long long>(t));
      table.add_cell(dist_ref_mean, 2);
      table.add_cell(dist_spmd_mean, 2);
      table.add_cell(dist_speedup, 2);

      if (!first_record) json << ",\n";
      first_record = false;
      json << "  {\"threads\": " << t
           << ", \"pool_threads\": " << ThreadPool::global().num_threads()
           << ", \"nodes\": " << sim.initial_mesh().num_nodes()
           << ", \"k\": " << k
           << ", \"equivalent\": " << (row_equal ? "true" : "false")
           << ",\n   \"distributed\": {\"repart_period\": " << repart_period
           << ", \"steady_steps\": " << dist_steady
           << ",\n    \"reference_mean_ms\": " << dist_ref_mean
           << ", \"spmd_mean_ms\": " << dist_spmd_mean
           << ", \"speedup\": " << dist_speedup
           << ",\n    \"plain_step_ms_median\": " << quantile(plain_ms, 0.5)
           << ", \"migration_step_ms_median\": "
           << quantile(migration_ms, 0.5)
           << ",\n    \"migration_steps\": " << migration_steps
           << ", \"repart_moved_nodes\": " << moved_nodes
           << ", \"repart_moved_elements\": " << moved_elements
           << ", \"migration_payload_bytes\": " << migration_bytes
           << ", \"label_broadcast_bytes\": " << label_bytes
           << ",\n    \"health\": ";
      health_json(json, dist_health);
      json << ",\n    \"steps\": [\n" << dsteps_json.str() << "\n    ]}}";
      if (fault_rate > 0 || !dist_health.clean()) {
        std::cout << "threads " << t
                  << " distributed health: " << dist_health.summary() << "\n";
      }
      dist_rows.emplace_back(t, dist_spmd_mean);
    }

    // Scaling slope: mean speedup per thread-doubling between the smallest
    // and largest thread rows (1.0 = perfect scaling, 0 = flat).
    std::ostringstream scaling_json;
    {
      const auto& lo = dist_rows.front();
      const auto& hi = dist_rows.back();
      const double ratio = lo.second / std::max(hi.second, 1e-9);
      const double doublings =
          std::log2(std::max<double>(hi.first, 1) /
                    std::max<double>(lo.first, 1));
      const double slope =
          doublings > 0 ? std::log2(std::max(ratio, 1e-9)) / doublings : 0;
      // Efficiency normalizes the ratio by the cores the top row could use.
      // resolved_hardware_threads (not raw hardware_threads) keeps the
      // denominator nonzero when the platform reports 0 ("unknown") — it
      // falls back to the row's own thread count.
      const double usable = std::max<double>(
          1.0, std::min<double>(
                   hi.first, cpart::bench::resolved_hardware_threads(
                                 static_cast<unsigned>(hi.first))));
      scaling_json << "{\"threads_lo\": " << lo.first
                   << ", \"threads_hi\": " << hi.first
                   << ", \"usable_threads\": " << usable
                   << ", \"distributed_ratio\": " << ratio
                   << ", \"distributed_slope\": " << slope
                   << ", \"distributed_efficiency\": " << ratio / usable
                   << "}";
      std::cout << "scaling " << lo.first << "t -> " << hi.first
                << "t: distributed " << ratio << "x (slope " << slope
                << "/doubling)\n";
    }
    // Rank-death recovery probe at the largest thread count: (1) zero-fault
    // checkpoint overhead, alternating plain and checkpointed runs of the
    // same snapshots, and (2) MTTR for a seeded one-shot kill — the
    // recovered run must stay bit-identical to the fault-free baseline at
    // every step.
    std::ostringstream recovery_json;
    if (checkpoint_period > 0) {
      ThreadPool::set_global_threads(thread_counts.back());

      // One pass over the snapshots; returns its steady-state mean ms.
      const auto run_all = [&](DistributedSim& dsim,
                               std::vector<DistributedStepReport>& out) {
        double sum = 0;
        idx_t steady = 0;
        for (idx_t s = 0; s < sim.num_snapshots(); s += stride) {
          Timer timer;
          DistributedStepReport got = dsim.run_step(s);
          const double ms = timer.milliseconds();
          if (s > 0) {
            sum += ms;
            ++steady;
          }
          out.push_back(std::move(got));
        }
        return sum / static_cast<double>(std::max<idx_t>(steady, 1));
      };
      // Every report of `got` must equal the baseline's.
      std::vector<DistributedStepReport> baseline;
      const auto matches_baseline =
          [&](const std::vector<DistributedStepReport>& got) {
            bool equal = got.size() == baseline.size();
            for (std::size_t i = 0; equal && i < got.size(); ++i) {
              equal = reports_identical(got[i], baseline[i]);
            }
            return equal;
          };

      // Zero faults, checkpointing off (plain) and on, alternating. The
      // first plain run is the baseline every other run must equal.
      std::vector<double> plain_means, ckpt_means, overheads, ckpt_ms;
      PipelineHealth overhead_health;
      bool overhead_equal = true;
      for (int pair = 0; pair < kOverheadPairs; ++pair) {
        std::vector<DistributedStepReport> plain;
        {
          DistributedSim base(sim, dconfig);
          base.exchange().set_retry_policy(retry);
          plain_means.push_back(run_all(base, plain));
        }
        if (pair == 0) baseline = plain;
        overhead_equal = overhead_equal && matches_baseline(plain);

        DistributedSimConfig oconfig = dconfig;
        oconfig.checkpoint_period = checkpoint_period;
        oconfig.checkpoint_dir = checkpoint_dir + "/overhead";
        std::error_code ec;
        std::filesystem::remove_all(oconfig.checkpoint_dir, ec);
        std::vector<DistributedStepReport> got;
        {
          DistributedSim withckpt(sim, oconfig);
          withckpt.exchange().set_retry_policy(retry);
          ckpt_means.push_back(run_all(withckpt, got));
        }
        overhead_equal = overhead_equal && matches_baseline(got);
        overheads.push_back(ckpt_means.back() /
                                std::max(plain_means.back(), 1e-9) -
                            1.0);
        double commit_ms = 0;
        for (const DistributedStepReport& r : got) {
          commit_ms += r.checkpoint_ms;
          if (pair == 0) overhead_health += r.health;
        }
        ckpt_ms.push_back(commit_ms);
      }
      const double overhead = quantile(overheads, 0.5);
      const double overhead_iqr =
          quantile(overheads, 0.75) - quantile(overheads, 0.25);

      // MTTR: the same run with a seeded one-shot kill. Recovery restores
      // the last checkpoint and replays; every report — including the kill
      // step's — must match the baseline bit-for-bit.
      const idx_t kill_rank = kill_rank_flag >= 0 ? kill_rank_flag : k / 2;
      // Default kill point, in steps run (what the injector counts): half
      // a period past the commit boundary nearest mid-run, so the MTTR
      // number includes replayed steps (a kill landing exactly on a
      // boundary replays nothing).
      const idx_t steps = to_idx(baseline.size());
      const idx_t mid_boundary =
          steps / 2 / checkpoint_period * checkpoint_period;
      const idx_t kill_step =
          kill_step_flag >= 0
              ? kill_step_flag
              : std::min<idx_t>(
                    steps - 1,
                    mid_boundary + std::max<idx_t>(1, checkpoint_period / 2));
      double mttr_recovery_ms = 0;
      double mttr_checkpoint_ms = 0;
      PipelineHealth mttr_health;
      bool mttr_equal = true;
      idx_t mttr_replayed = 0;
      {
        DistributedSimConfig mconfig = dconfig;
        mconfig.checkpoint_period = checkpoint_period;
        mconfig.checkpoint_dir = checkpoint_dir + "/mttr";
        DistributedSim victim(sim, mconfig);
        victim.exchange().set_retry_policy(retry);
        FaultConfig fc;
        fc.seed = fault_seed;
        fc.kill_rank = kill_rank;
        fc.kill_step = kill_step;
        FaultInjector kill_injector(fc);
        victim.exchange().set_fault_injector(&kill_injector);
        std::vector<DistributedStepReport> got;
        run_all(victim, got);
        for (const DistributedStepReport& r : got) {
          mttr_health += r.health;
          mttr_replayed += r.replayed_steps;
          mttr_checkpoint_ms += r.checkpoint_ms;
          mttr_recovery_ms += r.recovery_ms;
        }
        mttr_equal = matches_baseline(got);
        kill_fired = mttr_health.rank_deaths > 0;
      }
      recovery_equal = overhead_equal && mttr_equal;
      std::error_code ec;
      std::filesystem::remove_all(checkpoint_dir, ec);

      recovery_json << "{\"threads\": " << thread_counts.back()
                    << ", \"checkpoint_period\": " << checkpoint_period
                    << ", \"overhead_pairs\": " << kOverheadPairs
                    << ", \"baseline_mean_ms\": " << quantile(plain_means, 0.5)
                    << ", \"checkpointed_mean_ms\": "
                    << quantile(ckpt_means, 0.5)
                    << ",\n  \"checkpoint_overhead\": " << overhead
                    << ", \"checkpoint_overhead_iqr\": " << overhead_iqr
                    << ", \"checkpoint_ms\": " << quantile(ckpt_ms, 0.5)
                    << ", \"checkpoints_written\": "
                    << overhead_health.checkpoints_written
                    << ", \"overhead_equivalent\": "
                    << (overhead_equal ? "true" : "false")
                    << ",\n  \"mttr\": {\"kill_rank\": " << kill_rank
                    << ", \"kill_step\": " << kill_step
                    << ", \"recovery_ms\": " << mttr_recovery_ms
                    << ", \"checkpoint_ms\": " << mttr_checkpoint_ms
                    << ", \"replayed_steps\": " << mttr_replayed
                    << ", \"rank_deaths\": " << mttr_health.rank_deaths
                    << ", \"recoveries\": " << mttr_health.recoveries
                    << ", \"checkpoints_written\": "
                    << mttr_health.checkpoints_written
                    << ", \"recovered_equivalent\": "
                    << (mttr_equal ? "true" : "false") << "}}";
      std::cout << "recovery: checkpoint overhead " << overhead * 100
                << "% (IQR " << overhead_iqr * 100 << "%, " << kOverheadPairs
                << " pairs) at period " << checkpoint_period << ", MTTR "
                << mttr_recovery_ms << " ms (" << mttr_replayed
                << " replayed steps)\n";
    }

    json << "\n],\n \"scaling\": " << scaling_json.str();
    if (checkpoint_period > 0) {
      json << ",\n \"recovery\": " << recovery_json.str();
    }
    json << "}\n";
    ThreadPool::set_global_threads(0);

    table.print(std::cout);
    const std::string out_path = flags.get_string("out");
    require(atomic_write_file(out_path, json.str()),
            "cannot write --out (atomic commit failed)");
    std::cout << "\nWrote " << out_path << ".\n";
    bool ok = true;
    if (!induction_equal) {
      std::cerr << "warm and cold descriptor trees differ — failing.\n";
      ok = false;
    }
    if (!all_equal) {
      std::cerr << "SPMD and reference reports differ — failing.\n";
      ok = false;
    }
    if (!recovery_equal) {
      std::cerr << "checkpointed or recovered reports differ from the "
                   "fault-free baseline — failing.\n";
      ok = false;
    }
    if (!kill_fired) {
      std::cerr << "recovery probe: the seeded kill never fired — failing.\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "SPMD and reference reports are bit-identical at every step.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("bench_spmd");
    return 1;
  }
}
