// impact_steady and impact_migrate: the plate+impactor ImpactSim at
// scale_resolution(2.0) under a k=25 DistributedSim, one client stepping a
// closed loop over the 100-snapshot sequence (cycled until the window is
// used). impact_migrate adds repartition + live migration every 5 steps,
// seeded transport faults and a durable checkpoint every 10 steps.
//
// op = one DistributedSim::run_step. Every step's events are checked
// against an independent serial local_contact_search of the same snapshot,
// computed before the window.
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "contact/global_search.hpp"
#include "contact/local_search.hpp"
#include "core/distributed_sim.hpp"
#include "core/mcml_dt.hpp"
#include "graph/graph_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault_injector.hpp"
#include "sim/impact_sim.hpp"
#include "tree/tree_io.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cpart;

namespace {

constexpr double kResolution = 2.0;
constexpr idx_t kParts = 25;
constexpr idx_t kSnapshots = 100;
constexpr idx_t kRepartitionPeriod = 5;
constexpr idx_t kCheckpointPeriod = 10;
constexpr double kFaultRate = 0.02;
// Snapshots replayed layer by layer in traced runs.
constexpr idx_t kReplayStride = 10;

ImpactSimConfig sim_config() {
  ImpactSimConfig c;
  c.scale_resolution(kResolution);
  c.num_snapshots = kSnapshots;
  return c;
}

DistributedSimConfig dist_config(const ImpactSimConfig& sc, std::uint64_t seed,
                                 bool migrate, const std::string& ckpt_dir) {
  DistributedSimConfig d;
  d.decomposition.k = kParts;
  const real_t cell = sc.plate_width / static_cast<real_t>(sc.plate_cells_xy);
  d.search.search_margin = 0.5 * cell;
  d.search.contact_tolerance = 0.25 * cell;
  if (migrate) {
    d.repartition_period = kRepartitionPeriod;
    d.repartition.seed = seed;
    d.checkpoint_period = kCheckpointPeriod;
    d.checkpoint_dir = ckpt_dir;
  }
  return d;
}

/// (node, distance) of each event: what the SPMD step must reproduce.
using EventKeys = std::vector<std::pair<idx_t, real_t>>;

EventKeys event_keys(const std::vector<ContactEvent>& events) {
  EventKeys keys;
  keys.reserve(events.size());
  for (const ContactEvent& e : events) keys.emplace_back(e.node, e.distance);
  return keys;
}

bool events_match(const std::vector<ContactEvent>& got, const EventKeys& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].node != want[i].first) return false;
    const real_t a = got[i].distance, b = want[i].second;
    if (std::abs(a - b) > 1e-12 * std::max<real_t>(1.0, std::abs(b))) {
      return false;
    }
  }
  return true;
}

void run_impact(const RunOptions& opts, Tracer& tracer, RunResult& out,
                bool migrate) {
  ThreadPool& pool = ThreadPool::global();
  const ImpactSimConfig sc = sim_config();
  const std::string ckpt_dir = opts.work_dir + "/checkpoints";
  DistributedSimConfig dc = dist_config(sc, opts.seed, migrate, ckpt_dir);

  // ----- Set-up: ImpactSim + DistributedSim (MCML+DT inside) ------------
  // Each set-up decomposes with its own partitioner seed, so the reported
  // partition quality is a median over kSetups decompositions rather than
  // one seed's luck; the last one runs the window.
  std::vector<double> setup_s;
  std::vector<std::vector<idx_t>> decompositions;
  std::unique_ptr<ImpactSim> sim;
  std::unique_ptr<DistributedSim> dist;
  for (int i = 0; i < kSetups; ++i) {
    dist.reset();
    sim.reset();
    dc.decomposition.partitioner.seed =
        opts.seed * kSetups + static_cast<std::uint64_t>(i);
    {
      auto span = tracer.span("core.setup");
      Timer timer;
      sim = std::make_unique<ImpactSim>(sc);
      dist = std::make_unique<DistributedSim>(*sim, dc);
      setup_s.push_back(timer.seconds());
    }
    decompositions.push_back(dist->ownership_map());
  }
  out.info["nodes"] = std::to_string(sim->initial_mesh().num_nodes());
  out.info["elements"] = std::to_string(sim->initial_mesh().num_elements());
  out.info["k"] = std::to_string(kParts);
  out.info["snapshots"] = std::to_string(kSnapshots);

  std::optional<FaultInjector> injector;
  if (migrate) {
    FaultConfig fc;
    fc.seed = opts.seed;
    fc.cell_fault_probability = kFaultRate;
    injector.emplace(fc);
    dist->exchange().set_fault_injector(&*injector);
    // A budget the 2% schedule practically never exhausts: a degraded
    // step counts as failed.
    RetryPolicy retry;
    retry.max_attempts = 8;
    dist->exchange().set_retry_policy(retry);
    out.info["fault_rate"] = std::to_string(kFaultRate);
  }

  // ----- Oracle: serial local search of every snapshot (untimed) --------
  std::vector<int> body(sim->node_body().size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<int>(sim->node_body()[i]);
  }
  const LocalSearchOptions local = dc.search.local_options(body);
  std::vector<EventKeys> oracle(static_cast<std::size_t>(kSnapshots));
  std::vector<double> local_ms;
  std::size_t oracle_events = 0;
  {
    ImpactSim::SnapshotWorkspace ws;
    ImpactSim::Snapshot snap;
    for (idx_t s = 0; s < kSnapshots; ++s) {
      sim->snapshot_into(s, ws, snap);
      auto span = tracer.span("contact.local_contact_search", s);
      Timer timer;
      const auto events = local_contact_search(snap.mesh, snap.surface, local);
      local_ms.push_back(timer.milliseconds());
      span.close();
      oracle_events += events.size();
      oracle[static_cast<std::size_t>(s)] = event_keys(events);
    }
  }

  // ----- Window: closed loop of steps -----------------------------------
  // traced_ms / untraced_ms hold plain steps only. Migration steps (every
  // 5th) and checkpoint steps (every 10th) fall on fixed step indices, so
  // keeping them would load one parity with their extra work.
  std::vector<double> step_ms, plain_ms, migrate_ms, traced_ms, untraced_ms;
  StepTotals totals;
  wgt_t moved_nodes = 0;
  double checkpoint_ms = 0;
  std::size_t steps = 0;
  PoolSampler sampler(pool.workers(), tracer.enabled());
  Timer window;
  do {
    for (idx_t s = 0; s < kSnapshots; ++s) {
      // Traced runs record every other step, so the same run measures the
      // recorder's overhead (traced minus untraced median).
      const bool traced = tracer.enabled() && steps % 2 == 0;
      Timer timer;
      DistributedStepReport r;
      {
        Tracer::Scope span = traced
                                 ? tracer.span("core.run_step",
                                               static_cast<std::int64_t>(steps))
                                 : Tracer::Scope(nullptr, -1);
        r = dist->run_step(s);
      }
      const double ms = timer.milliseconds();
      ++steps;
      step_ms.push_back(ms);
      (r.migrated ? migrate_ms : plain_ms).push_back(ms);
      if (!r.migrated && r.checkpoint_ms == 0) {
        (traced ? traced_ms : untraced_ms).push_back(ms);
      }
      const bool ok = r.health.degraded_steps == 0 &&
                      r.health.exhausted_deliveries == 0 &&
                      events_match(r.events, oracle[static_cast<std::size_t>(s)]);
      out.check(ok, ok ? std::string()
                       : "step " + std::to_string(steps - 1) + " (snapshot " +
                             std::to_string(s) +
                             "): events differ from the serial search or "
                             "the step degraded");
      totals.add(r);
      moved_nodes += r.repart_moved_nodes;
      checkpoint_ms += r.checkpoint_ms;
    }
  } while (window.seconds() < opts.seconds);
  const double window_s = window.seconds();
  if (tracer.enabled()) {
    zero_layer_metrics(out);
    sampler.stop(out);
  }

  // ----- End-to-end metrics ---------------------------------------------
  const ImpactSim::Snapshot snap0 = sim->snapshot(0);
  Timer graph_timer;
  const CsrGraph g0 = build_two_phase_graph(
      snap0.mesh, snap0.surface.is_contact_node,
      dc.decomposition.contact_edge_weight);
  const double graph_ms = graph_timer.milliseconds();
  const std::vector<idx_t> owner = dist->ownership_map();
  out.check(is_valid_partition(owner, kParts), "ownership map out of range");
  std::vector<double> cuts, balances;
  for (const std::vector<idx_t>& d : decompositions) {
    cuts.push_back(static_cast<double>(edge_cut(g0, d)));
    balances.push_back(max_load_imbalance(g0, d, kParts));
  }
  set_common_metrics(out, median_of(setup_s, "setup"),
                     median_of(step_ms, "steps"),
                     static_cast<double>(steps) / window_s,
                     median_of(cuts, "decompositions"),
                     median_of(balances, "decompositions"));
  set_percentile(out, "step_ms_p50", plain_ms, 0.5);
  set_percentile(out, "step_ms_p90", plain_ms, 0.9);
  if (migrate) set_percentile(out, "migrate_step_ms_p50", migrate_ms, 0.5);
  out.report.set("steps_per_s", static_cast<double>(steps) / window_s, steps);
  totals.set_metrics(out, tracer.enabled());
  out.info["steps"] = std::to_string(steps);
  out.info["migration_steps"] = std::to_string(migrate_ms.size());
  out.info["oracle_events"] = std::to_string(oracle_events);

  if (!tracer.enabled()) return;

  // ----- Layer metrics (traced run) -------------------------------------
  out.report.set("core.step_ms", median_of(traced_ms, "traced steps"));
  out.report.set("core.trace_overhead_ms",
                 median_of(traced_ms, "traced steps").value -
                     median_of(untraced_ms, "untraced steps").value,
                 traced_ms.size());
  out.report.set("mesh.graph_build_ms", graph_ms);
  const PipelineHealth& health = totals.health;
  out.report.set("runtime.checkpoints",
                 static_cast<double>(health.checkpoints_written));
  out.report.set("runtime.checkpoint_ms",
                 health.checkpoints_written > 0
                     ? checkpoint_ms /
                           static_cast<double>(health.checkpoints_written)
                     : 0.0,
                 static_cast<std::size_t>(health.checkpoints_written));
  if (!migrate_ms.empty()) {
    out.report.set("partition.moved_nodes",
                   static_cast<double>(moved_nodes) /
                       static_cast<double>(migrate_ms.size()),
                   migrate_ms.size());
  }
  out.report.set("contact.local_ms", median_of(local_ms, "local search"));
  out.report.set("contact.events",
                 static_cast<double>(oracle_events) /
                     static_cast<double>(kSnapshots),
                 static_cast<std::size_t>(kSnapshots));

  // MCML+DT on snapshot 0, then its descriptors, codec and global search
  // replayed on sampled snapshots under the end-of-window ownership map.
  std::optional<McmlDtPartitioner> mcml;
  {
    auto span = tracer.span("partition.mcml_dt");
    Timer timer;
    mcml.emplace(snap0.mesh, snap0.surface, dc.decomposition);
    out.report.set("partition.mcml_ms", timer.milliseconds());
  }
  mcml->set_node_partition(owner);
  std::vector<double> induce_ms, tree_nodes, codec_ms, wire_bytes, global_ms,
      nremote;
  for (idx_t s = 0; s < kSnapshots; s += kReplayStride) {
    const ImpactSim::Snapshot snap = sim->snapshot(s);
    Timer timer;
    std::optional<SubdomainDescriptors> desc;
    {
      auto span = tracer.span("tree.build_descriptors", s);
      desc.emplace(mcml->build_descriptors(snap.mesh, snap.surface));
    }
    induce_ms.push_back(timer.milliseconds());
    tree_nodes.push_back(static_cast<double>(desc->num_tree_nodes()));
    timer.reset();
    std::string wire;
    {
      auto span = tracer.span("tree.encode_decode", s);
      wire = encode_tree(desc->tree(), TreeWireFormat::kBinary);
      out.check(decode_tree(wire).num_nodes() == desc->num_tree_nodes(),
                "descriptor tree did not round-trip the binary codec");
    }
    codec_ms.push_back(timer.milliseconds());
    wire_bytes.push_back(static_cast<double>(wire.size()));
    const std::vector<idx_t> face_owner =
        face_owners(snap.surface, owner, kParts);
    timer.reset();
    GlobalSearchStats gs;
    {
      auto span = tracer.span("contact.global_search_tree", s);
      gs = global_search_tree(snap.mesh, snap.surface, face_owner, *desc,
                              dc.search.search_margin);
    }
    global_ms.push_back(timer.milliseconds());
    nremote.push_back(static_cast<double>(gs.remote_sends));
  }
  out.report.set("tree.induce_ms", median_of(induce_ms, "induction"));
  out.report.set("tree.nodes", median_of(tree_nodes, "induction"));
  out.report.set("tree.codec_ms", median_of(codec_ms, "codec"));
  out.report.set("tree.wire_bytes", median_of(wire_bytes, "codec"));
  out.report.set("contact.global_ms", median_of(global_ms, "global search"));
  out.report.set("contact.nremote", median_of(nremote, "global search"));

  PartitionOptions popts = dc.decomposition.partitioner;
  popts.k = kParts;
  popts.epsilon = dc.decomposition.epsilon;
  set_replay_metrics(out, replay_partition_layers(g0, owner, popts, tracer));

  if (migrate) {
    // The repartition a migration step computes: the two-phase graph over
    // the initial mesh with the snapshot's contact mask.
    PartitionerConfig pc;
    pc.options = popts;
    const Partitioner partitioner(pc);
    RepartitionOptions ro = dc.repartition;
    ro.k = kParts;
    std::vector<double> repart_ms;
    for (idx_t s = kRepartitionPeriod; s < kSnapshots; s += 4 * kReplayStride) {
      const ImpactSim::Snapshot snap = sim->snapshot(s);
      const CsrGraph g = build_two_phase_graph(
          sim->initial_mesh(), snap.surface.is_contact_node,
          dc.decomposition.contact_edge_weight);
      ro.seed = dc.repartition.seed + static_cast<std::uint64_t>(s);
      auto span = tracer.span("partition.repartition", s);
      Timer timer;
      const std::vector<idx_t> next = partitioner.repartition(g, owner, ro);
      repart_ms.push_back(timer.milliseconds());
      out.check(is_valid_partition(next, kParts),
                "repartition produced labels out of range");
    }
    out.report.set("partition.repartition_ms",
                   median_of(repart_ms, "repartition"));
  }
}

}  // namespace

void run_impact_steady(const RunOptions& opts, Tracer& tracer, RunResult& out) {
  run_impact(opts, tracer, out, /*migrate=*/false);
}

void run_impact_migrate(const RunOptions& opts, Tracer& tracer,
                        RunResult& out) {
  run_impact(opts, tracer, out, /*migrate=*/true);
}

}  // namespace perfbench
