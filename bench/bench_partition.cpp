// Thread-scaling benchmark for the multilevel partitioner hot path.
//
// Runs the direct k-way pipeline phase by phase (coarsening chain, initial
// partition of the coarsest graph, refinement during uncoarsening plus the
// final polish) at each requested thread count, and reports per-phase wall
// time, edge-cut and worst-constraint balance. Because the parallel matching
// resolves conflicts by permutation rank, the partition — and therefore the
// cut — is identical at every thread count; only the timings change.
//
//   ./bench_partition [--nx 60] [--k 16] [--threads 1,2,4,8] [--seed 1]
//                     [--reps 3] [--out BENCH_partition.json]
//
// Each thread count is measured --reps times after a warm-up pass and the
// fastest repetition is reported; repetitions are interleaved across thread
// counts so host-speed drift over the run cannot bias one row. Both measures
// suppress scheduler/frequency noise, whose run-to-run spread on a busy host
// exceeds the effect being measured.
//
// The JSON output is {"env": {...provenance...}, "results": [records]},
// each record:
//   {mesh, n, k, threads, phase_ms: {coarsen, initial, refine},
//    total_ms, edgecut, balance}
//
// Every run also times the recursive-bisection path the MCML+DT set-up runs:
// partition_graph at k = 25 on the two-phase graph (all-ones and contact
// weights, contact-weighted edges) of the impact scene's first snapshot at
// resolution 2 (48,604 vertices), at each thread count. Its "rb" JSON block
// holds one {threads, total_ms, edgecut, balance} row per thread count and
// whether the labels were identical across them.
//
// --hierarchical additionally streams a large impact scene (--elements
// hex8 cells, default 1e6) to the chunked on-disk format, builds the nodal
// graph through the reader's bounded window, and sweeps the two-level
// hierarchical partitioner over the same thread counts. Its output lands in
// a "hierarchy" JSON block: per-level cut/balance/time per thread count,
// the window accounting (peak resident bytes vs the configured limit — the
// bounded-memory claim, asserted by CI), process peak RSS, and whether the
// labels were bit-identical across all thread counts.
//
// Exit status is 2 when the flat, the recursive-bisection or the
// hierarchical labels differ between thread counts (the JSON is still
// written), 1 on bad flags.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_env.hpp"
#include "core/mcml_dt.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_metrics.hpp"
#include "mesh/chunked_mesh.hpp"
#include "mesh/mesh_graphs.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/coarsen.hpp"
#include "partition/connectivity.hpp"
#include "partition/hierarchical.hpp"
#include "sim/impact_sim.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace cpart;

namespace {

struct PhaseTimes {
  double coarsen_ms = 0;
  double initial_ms = 0;
  double refine_ms = 0;
  double total_ms() const { return coarsen_ms + initial_ms + refine_ms; }
};

/// The direct k-way pipeline of partition_graph_kway, instrumented per phase.
/// Must stay behaviourally identical to kway_multilevel.cpp so the reported
/// cut matches what the library produces.
std::vector<idx_t> timed_kway(const CsrGraph& g, const PartitionOptions& options,
                              PhaseTimes& times) {
  const idx_t k = options.k;
  Rng rng(options.seed ^ 0x517cc1b727220a95ULL);

  Timer timer;
  CoarsenOptions copts;
  copts.parallel_threshold = options.coarsen_parallel_threshold;
  const idx_t coarsest_size =
      std::max<idx_t>(options.coarsen_target / 4, 15) * k;
  std::vector<Coarsening> chain;
  const CsrGraph* cur = &g;
  while (cur->num_vertices() > coarsest_size) {
    Coarsening c = coarsen_once(*cur, rng, copts);
    if (c.coarse.num_vertices() > cur->num_vertices() * 19 / 20) break;
    chain.push_back(std::move(c));
    cur = &chain.back().coarse;
  }
  times.coarsen_ms = timer.milliseconds();

  timer.reset();
  PartitionOptions init = options;
  init.epsilon = std::max(0.02, options.epsilon * 0.8);
  init.kway_passes = 0;
  std::vector<idx_t> part = partition_graph(*cur, init);
  times.initial_ms = timer.milliseconds();

  timer.reset();
  KwayRefineOptions refine;
  refine.k = k;
  refine.epsilon = options.epsilon;
  refine.passes = std::max(4, options.kway_passes / 2);
  kway_refine(*cur, part, refine, rng);
  for (std::size_t i = chain.size(); i-- > 0;) {
    const CsrGraph& fine = (i == 0) ? g : chain[i - 1].coarse;
    std::vector<idx_t> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    const std::vector<idx_t>& map = chain[i].coarse_of_fine;
    ThreadPool::global().parallel_for(fine.num_vertices(), [&](idx_t v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    });
    kway_refine(fine, fine_part, refine, rng);
    part = std::move(fine_part);
  }
  if (options.kway_passes > 0) {
    KwayRefineOptions polish = refine;
    polish.passes = options.kway_passes;
    for (int round = 0; round < 2; ++round) {
      merge_partition_fragments(g, part, k);
      kway_refine(g, part, polish, rng);
    }
  }
  times.refine_ms = timer.milliseconds();
  return part;
}

/// Process peak RSS in bytes (0 when the platform cannot report it).
std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// The recursive-bisection section: partition_graph at k = 25 on the
/// impact scene's two-phase graph, fastest of `reps` per thread count
/// (interleaved like the flat rows). Returns the "rb" JSON object;
/// `labels_identical` reports whether every thread count gave the same labels.
std::string run_recursive_bisection(const std::vector<unsigned>& thread_counts,
                                    std::uint64_t seed, int reps, Table& table,
                                    bool& labels_identical) {
  constexpr idx_t kParts = 25;
  ImpactSimConfig sc;
  sc.scale_resolution(2.0);
  const ImpactSim sim(sc);
  const ImpactSim::Snapshot snap = sim.snapshot(0);
  const CsrGraph g =
      build_two_phase_graph(snap.mesh, snap.surface.is_contact_node,
                            McmlDtConfig{}.contact_edge_weight);
  std::cout << "\nRecursive bisection: impact two-phase graph (n="
            << g.num_vertices() << ", ncon=" << g.ncon() << ", k=" << kParts
            << ")\n\n";

  PartitionOptions opts;
  opts.k = kParts;
  opts.seed = seed;
  std::vector<double> best_ms(thread_counts.size(), 0);
  std::vector<std::vector<idx_t>> parts(thread_counts.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      ThreadPool::set_global_threads(thread_counts[ti]);
      if (rep == 0) partition_graph(g, opts);  // warm-up
      Timer timer;
      std::vector<idx_t> part = partition_graph(g, opts);
      const double ms = timer.milliseconds();
      if (rep == 0 || ms < best_ms[ti]) {
        best_ms[ti] = ms;
        parts[ti] = std::move(part);
      }
    }
  }
  labels_identical = true;
  std::ostringstream json;
  json << "{\"graph\": \"impact_two_phase_r2_s0\", \"n\": "
       << g.num_vertices() << ", \"ncon\": " << g.ncon() << ", \"k\": " << kParts
       << ",\n  \"rows\": [\n";
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    if (parts[ti] != parts[0]) labels_identical = false;
    const wgt_t cut = edge_cut(g, parts[ti]);
    const double balance = max_load_imbalance(g, parts[ti], kParts);
    table.begin_row();
    table.add_cell(static_cast<long long>(thread_counts[ti]));
    table.add_cell(best_ms[ti], 1);
    table.add_cell(best_ms[0] / std::max(best_ms[ti], 1e-9), 2);
    table.add_cell(static_cast<long long>(cut));
    table.add_cell(balance, 3);
    if (ti != 0) json << ",\n";
    json << "   {\"threads\": " << thread_counts[ti]
         << ", \"total_ms\": " << best_ms[ti] << ", \"edgecut\": " << cut
         << ", \"balance\": " << balance << "}";
  }
  json << "\n  ],\n  \"labels_identical\": "
       << (labels_identical ? "true" : "false") << "}";
  return json.str();
}

/// The --hierarchical section: streamed large mesh -> bounded-window graph
/// build -> two-level partition sweep. Returns the "hierarchy" JSON object;
/// `labels_identical` reports whether every thread count gave the same labels.
std::string run_hierarchical(const std::vector<unsigned>& thread_counts,
                             idx_t elements, idx_t k, idx_t groups,
                             std::uint64_t seed, int reps, Table& table,
                             bool& labels_identical) {
  const LargeImpactSpec spec = LargeImpactSpec::for_elements(elements);
  const std::string mesh_path =
      "bench_large_impact_" + std::to_string(elements) + ".cpmk";
  Timer timer;
  const ChunkedMeshInfo info = make_large_impact(mesh_path, spec);
  const double generate_ms = timer.milliseconds();

  ChunkedMeshReader reader(mesh_path);
  timer.reset();
  const CsrGraph g = nodal_graph(reader);
  const double graph_build_ms = timer.milliseconds();
  const bool bounded =
      reader.peak_resident_bytes() <= reader.window_limit_bytes();

  std::ostringstream mesh_name;
  mesh_name << "large_impact_" << spec.nx << "x" << spec.ny << "x" << spec.nz;
  std::cout << "\nHierarchical partition: " << mesh_name.str() << " ("
            << info.num_elements << " elements, " << info.num_nodes
            << " nodes, k=" << k << ", groups=" << groups << ")\n"
            << "  streamed generate " << generate_ms / 1000 << " s, graph "
            << graph_build_ms / 1000 << " s; window peak "
            << reader.peak_resident_bytes() << " / "
            << reader.window_limit_bytes() << " bytes ("
            << (bounded ? "bounded" : "EXCEEDED") << ")\n\n";

  PartitionOptions base;
  base.k = k;
  base.seed = seed;
  HierarchyOptions hierarchy;
  hierarchy.groups = groups;

  std::vector<HierarchyStats> best(thread_counts.size());
  std::vector<std::vector<idx_t>> parts(thread_counts.size());
  std::vector<double> best_ms(thread_counts.size(), 0);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      ThreadPool::set_global_threads(thread_counts[ti]);
      Timer rep_timer;
      HierarchicalResult result = hierarchical_partition(g, base, hierarchy);
      const double ms = rep_timer.milliseconds();
      if (rep == 0 || ms < best_ms[ti]) {
        best_ms[ti] = ms;
        best[ti] = result.stats;
        parts[ti] = std::move(result.part);
      }
    }
  }
  labels_identical = true;
  for (std::size_t ti = 1; ti < parts.size(); ++ti) {
    if (parts[ti] != parts[0]) labels_identical = false;
  }

  std::ostringstream json;
  json << "{\"mesh\": \"" << mesh_name.str() << "\", \"elements\": "
       << info.num_elements << ", \"nodes\": " << info.num_nodes
       << ", \"k\": " << k << ", \"groups\": " << groups
       << ",\n  \"generate_ms\": " << generate_ms
       << ", \"graph_build_ms\": " << graph_build_ms
       << ",\n  \"window\": {\"peak_resident_bytes\": "
       << reader.peak_resident_bytes()
       << ", \"window_limit_bytes\": " << reader.window_limit_bytes()
       << ", \"bounded\": " << (bounded ? "true" : "false")
       << "},\n  \"peak_rss_bytes\": " << peak_rss_bytes()
       << ",\n  \"labels_identical\": " << (labels_identical ? "true" : "false")
       << ",\n  \"rows\": [\n";
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const HierarchyStats& hs = best[ti];
    table.begin_row();
    table.add_cell(static_cast<long long>(thread_counts[ti]));
    table.add_cell(hs.group_ms, 1);
    table.add_cell(hs.local_ms, 1);
    table.add_cell(best_ms[ti], 1);
    table.add_cell(best_ms[0] / std::max(best_ms[ti], 1e-9), 2);
    table.add_cell(static_cast<long long>(hs.final_cut));
    table.add_cell(hs.final_balance, 3);

    if (ti != 0) json << ",\n";
    json << "   {\"threads\": " << thread_counts[ti]
         << ", \"proxy_vertices\": " << hs.proxy_vertices
         << ", \"group_ms\": " << hs.group_ms
         << ", \"local_ms\": " << hs.local_ms
         << ", \"total_ms\": " << best_ms[ti]
         << ",\n    \"group_cut\": " << hs.group_cut
         << ", \"group_balance\": " << hs.group_balance
         << ", \"final_cut\": " << hs.final_cut
         << ", \"final_balance\": " << hs.final_balance << "}";
  }
  json << "\n  ]}";
  std::remove(mesh_path.c_str());
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("nx", "60", "grid side; mesh is an nx^3 3D grid graph");
  flags.define("k", "16", "number of partitions");
  flags.define("threads", "1,2,4,8", "comma-separated thread counts");
  flags.define("seed", "1", "partitioner seed");
  flags.define("reps", "3", "measured repetitions; fastest is reported");
  flags.define("hierarchical", "0",
               "also run the two-level hierarchical sweep over a streamed "
               "large impact mesh (adds the \"hierarchy\" JSON block)");
  flags.define("elements", "1000000",
               "element count of the streamed mesh (--hierarchical)");
  flags.define("groups", "8", "rank groups of the hierarchy (--hierarchical)");
  flags.define("out", "BENCH_partition.json", "JSON output path");
  try {
    flags.parse(argc, argv);
    const idx_t nx = static_cast<idx_t>(flags.get_int("nx"));
    const idx_t k = static_cast<idx_t>(flags.get_int("k"));
    std::vector<unsigned> thread_counts;
    {
      std::stringstream ss(flags.get_string("threads"));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        thread_counts.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      require(!thread_counts.empty(), "empty --threads");
    }

    const CsrGraph g = make_grid_graph_3d(nx, nx, nx);
    std::ostringstream mesh_name;
    mesh_name << "grid3d_" << nx << "x" << nx << "x" << nx;
    std::cout << "Partitioner thread scaling: " << mesh_name.str()
              << " (n=" << g.num_vertices() << ", k=" << k << ")\n\n";

    PartitionOptions opts;
    opts.k = k;
    opts.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

    Table table({"threads", "coarsen_ms", "initial_ms", "refine_ms",
                 "total_ms", "speedup", "edgecut", "balance"});
    std::ostringstream json;
    json << "{\"env\": " << cpart::bench::env_json() << ",\n \"results\": [\n";
    // Repetitions are interleaved across thread counts (the rep loop is
    // outermost) so slow host phases hit every thread count equally instead
    // of biasing whichever row happened to run during them; the fastest
    // repetition per thread count is reported.
    const int reps = std::max(1, static_cast<int>(flags.get_int("reps")));
    std::vector<PhaseTimes> best(thread_counts.size());
    std::vector<std::vector<idx_t>> best_part(thread_counts.size());
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        ThreadPool::set_global_threads(thread_counts[ti]);
        if (rep == 0) {
          // Warm-up pass so thread start-up and page faults don't pollute
          // the measured runs.
          PhaseTimes warm;
          timed_kway(g, opts, warm);
        }
        PhaseTimes rep_times;
        std::vector<idx_t> rep_part = timed_kway(g, opts, rep_times);
        if (rep == 0 || rep_times.total_ms() < best[ti].total_ms()) {
          best[ti] = rep_times;
          best_part[ti] = std::move(rep_part);
        }
      }
    }

    bool labels_identical = true;
    double base_total = 0;
    bool first = true;
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const unsigned t = thread_counts[ti];
      const PhaseTimes& times = best[ti];
      const std::vector<idx_t>& part = best_part[ti];
      const wgt_t cut = edge_cut(g, part);
      const double balance = max_load_imbalance(g, part, k);
      if (first) base_total = times.total_ms();
      if (part != best_part[0]) labels_identical = false;

      table.begin_row();
      table.add_cell(static_cast<long long>(t));
      table.add_cell(times.coarsen_ms, 1);
      table.add_cell(times.initial_ms, 1);
      table.add_cell(times.refine_ms, 1);
      table.add_cell(times.total_ms(), 1);
      table.add_cell(base_total / std::max(times.total_ms(), 1e-9), 2);
      table.add_cell(static_cast<long long>(cut));
      table.add_cell(balance, 3);

      if (!first) json << ",\n";
      first = false;
      json << "  {\"mesh\": \"" << mesh_name.str() << "\", \"n\": "
           << g.num_vertices() << ", \"k\": " << k << ", \"threads\": " << t
           << ",\n   \"phase_ms\": {\"coarsen\": " << times.coarsen_ms
           << ", \"initial\": " << times.initial_ms
           << ", \"refine\": " << times.refine_ms << "},\n   \"total_ms\": "
           << times.total_ms() << ", \"edgecut\": " << cut
           << ", \"balance\": " << balance << "}";
    }
    json << "\n]";
    table.print(std::cout);

    {
      Table rtable({"threads", "total_ms", "speedup", "edgecut", "balance"});
      bool rb_identical = true;
      const std::string rb_json = run_recursive_bisection(
          thread_counts, opts.seed, reps, rtable, rb_identical);
      rtable.print(std::cout);
      if (!rb_identical) {
        std::cerr << "FAIL: recursive-bisection labels differ across thread "
                     "counts\n";
        labels_identical = false;
      }
      json << ",\n \"rb\": " << rb_json;
    }

    if (flags.get_int("hierarchical") != 0) {
      Table htable({"threads", "group_ms", "local_ms", "total_ms", "speedup",
                    "final_cut", "final_balance"});
      bool hierarchy_identical = true;
      const std::string hierarchy_json = run_hierarchical(
          thread_counts, static_cast<idx_t>(flags.get_int("elements")), k,
          static_cast<idx_t>(flags.get_int("groups")), opts.seed, reps,
          htable, hierarchy_identical);
      htable.print(std::cout);
      if (!hierarchy_identical) {
        std::cerr << "FAIL: hierarchical labels differ across thread counts\n";
        labels_identical = false;
      }
      json << ",\n \"hierarchy\": " << hierarchy_json;
    }
    json << "}\n";
    ThreadPool::set_global_threads(0);
    const std::string out_path = flags.get_string("out");
    require(atomic_write_file(out_path, json.str()),
            "cannot write --out (atomic commit failed)");
    std::cout << "\nWrote " << out_path << ".";
    if (!labels_identical) {
      std::cout << " Labels differ across thread counts.\n";
      return 2;
    }
    std::cout << " The cut is identical at every thread count: the parallel "
                 "matching is schedule-independent.\n";
    return 0;
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << flags.usage("bench_partition");
    return 1;
  }
}
