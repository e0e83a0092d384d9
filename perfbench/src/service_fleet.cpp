// service_fleet: a SessionManager on the process WorkerPool running 96
// small sessions (resolution 0.05, k=4, 20 steps each, 2% seeded faults)
// with 48 resident at a time, next to one large co-resident session
// (resolution 0.8). Closed loop: every resident session keeps one step in
// flight; a finished session is destroyed, which admits the next pending
// one. The fleet repeats until the window is used (at least twice).
//
// Each small session decomposes with its own partitioner seed, and
// edgecut / balance are means over their decompositions (a median would
// jump between the few distinct cuts a 2k-node mesh takes).
//
// op = one executed small-session step. Admission is timed apart from
// stepping: admit_ms_p50 times the create()/destroy() calls that admit a
// session, and throughput excludes them. Checked: a sample of sessions is
// fingerprint-equal to solo runs, no step degrades, and no resident bytes
// or sessions leak.
#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>

#include "core/distributed_sim.hpp"
#include "graph/graph_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session_context.hpp"
#include "service/session_manager.hpp"
#include "sim/impact_sim.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cpart;

namespace {

constexpr idx_t kSmallSessions = 96;
constexpr idx_t kResidentSmall = 48;
constexpr idx_t kSmallSteps = 20;
constexpr idx_t kSessionParts = 4;
constexpr double kSmallResolution = 0.05;
constexpr double kBigResolution = 0.8;
// The large session steps for as long as the fleet runs.
constexpr idx_t kBigSnapshots = 100000;
constexpr double kFaultRate = 0.02;
// Sessions whose every step is compared with a solo run (creation index).
constexpr idx_t kSoloSample[] = {0, 31, 63, 95};
const char* const kBig = "big";

struct StepFingerprint {
  std::uint64_t ownership_hash = 0;
  idx_t contact_events = 0;
  idx_t penetrating_events = 0;
  bool migrated = false;
  bool operator==(const StepFingerprint&) const = default;
};

StepFingerprint fingerprint(const DistributedStepReport& r) {
  return {r.ownership_hash, r.contact_events, r.penetrating_events,
          r.migrated};
}

std::string small_name(idx_t i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

/// Partitioner seed of small session i: every tenant decomposes with its
/// own seed, so fleet-wide partition quality is a median over many seeds.
std::uint64_t small_seed(std::uint64_t seed, idx_t i) {
  return seed * 1000 + static_cast<std::uint64_t>(i);
}

RetryPolicy retry_policy() {
  // A budget the 2% schedule practically never exhausts: a degraded step
  // counts as failed.
  RetryPolicy r;
  r.max_attempts = 8;
  return r;
}

SessionConfig session_config(const std::string& name, double resolution,
                             idx_t snapshots, std::uint64_t seed) {
  SessionConfig sc;
  sc.name = name;
  sc.sim.scale_resolution(resolution);
  sc.sim.num_snapshots = snapshots;
  const real_t cell =
      sc.sim.plate_width / static_cast<real_t>(sc.sim.plate_cells_xy);
  sc.dist.decomposition.k = kSessionParts;
  sc.dist.decomposition.partitioner.seed = seed;
  sc.dist.search.search_margin = 0.5 * cell;
  sc.dist.search.contact_tolerance = 0.25 * cell;
  sc.inject_faults = true;
  sc.faults.cell_fault_probability = kFaultRate;
  return sc;
}

/// The fingerprints of a session run alone: its own DistributedSim, armed
/// with the fault schedule the service derives for session key `key`.
std::vector<StepFingerprint> solo_run(const SessionConfig& sc,
                                      std::uint64_t service_seed,
                                      std::uint64_t key) {
  SessionContextConfig cc;
  cc.name = sc.name;
  cc.service_seed = service_seed;
  cc.session_key = key;
  SessionContext ctx(cc);
  const ImpactSim sim(sc.sim);
  DistributedSim dist(sim, sc.dist);
  dist.exchange().set_fault_injector(&ctx.arm_faults(sc.faults));
  dist.exchange().set_retry_policy(retry_policy());
  std::vector<StepFingerprint> fps;
  for (idx_t s = 0; s < kSmallSteps; ++s) {
    fps.push_back(fingerprint(dist.run_step(s)));
  }
  return fps;
}

}  // namespace

void run_service_fleet(const RunOptions& opts, Tracer& tracer,
                       RunResult& out) {
  ThreadPool& pool = ThreadPool::global();
  ServiceConfig svc;
  svc.seed = opts.seed;
  svc.max_resident_sessions = kResidentSmall + 1;  // + the large session
  const SessionConfig big =
      session_config(kBig, kBigResolution, kBigSnapshots, opts.seed);

  // ----- Set-up: manager + admission of the large resident session ------
  std::vector<double> setup_s;
  std::optional<SessionManager> mgr;
  for (int i = 0; i < kSetups; ++i) {
    mgr.reset();
    auto span = tracer.span("service.setup");
    Timer timer;
    mgr.emplace(pool.workers(), svc);
    mgr->create(big);
    setup_s.push_back(timer.seconds());
  }
  mgr->sim(kBig)->exchange().set_retry_policy(retry_policy());
  out.info["sessions"] = std::to_string(kSmallSessions);
  out.info["resident_small"] = std::to_string(kResidentSmall);
  // Every small session runs the same mesh: its two-phase graph scores
  // each session's decomposition.
  const SessionConfig probe =
      session_config("probe", kSmallResolution, kSmallSteps, opts.seed);
  const ImpactSim small_sim(probe.sim);
  const ImpactSim::Snapshot small0 = small_sim.snapshot(0);
  const CsrGraph small_graph = build_two_phase_graph(
      small0.mesh, small0.surface.is_contact_node,
      probe.dist.decomposition.contact_edge_weight);
  out.info["small_nodes"] = std::to_string(small_graph.num_vertices());
  out.info["big_nodes"] =
      std::to_string(mgr->sim(kBig)->topology().num_nodes());

  // ----- Solo baselines (untimed) ---------------------------------------
  std::map<idx_t, std::vector<StepFingerprint>> solo;
  for (idx_t i : kSoloSample) {
    auto span = tracer.span("service.solo_run");
    // Key 0 is the large session's; small session i is created i-th after.
    solo[i] = solo_run(
        session_config(small_name(i), kSmallResolution, kSmallSteps,
                       small_seed(opts.seed, i)),
        opts.seed, static_cast<std::uint64_t>(i) + 1);
  }

  // ----- Window: fleets in a closed loop --------------------------------
  std::vector<double> admit_ms;
  std::vector<double> cuts, balances;
  std::vector<std::string> finished;  // small sessions, for their latencies
  double admit_in_window_ms = 0;
  std::size_t small_steps = 0, big_steps = 0;
  idx_t pending_peak = 0;
  StepTotals totals;
  std::size_t fleets = 0;
  const auto account = [&](const DistributedStepReport& r,
                           const std::string& name) {
    const bool ok = r.health.degraded_steps == 0 &&
                    r.health.exhausted_deliveries == 0;
    out.check(ok, ok ? std::string()
                     : "session " + name + " step " + std::to_string(r.step) +
                           " degraded");
    totals.add(r);
  };

  PoolSampler sampler(pool.workers(), tracer.enabled());
  Timer window;
  do {
    auto fleet_span = tracer.span("service.fleet");
    const std::string prefix = std::string("f") + std::to_string(fleets) + ".";
    const auto name_of = [&](idx_t i) { return prefix + small_name(i); };
    struct Active {
      idx_t id;
      std::string name;
      idx_t done = 0;
      bool identical = true;
    };
    std::vector<Active> active;
    std::deque<idx_t> pending;
    const auto activate = [&](idx_t i) {
      const std::string name = name_of(i);
      mgr->sim(name)->exchange().set_retry_policy(retry_policy());
      mgr->step(name, 1);
      active.push_back({i, name});
    };
    for (idx_t i = 0; i < kSmallSessions; ++i) {
      SessionConfig sc = session_config(name_of(i), kSmallResolution,
                                        kSmallSteps, small_seed(opts.seed, i));
      auto span = tracer.span("service.create");
      Timer timer;
      out.check(mgr->create(sc), "create rejected for " + sc.name);
      const double ms = timer.milliseconds();
      if (mgr->state(sc.name) == SessionState::kResident) {
        admit_ms.push_back(ms);
        if (fleets > 0) admit_in_window_ms += ms;
      } else {
        pending.push_back(i);
      }
    }
    if (fleets == 0) {
      // The window starts after the first admissions.
      window.reset();
      mgr->step(kBig, 1);
    }
    pending_peak = std::max(pending_peak, mgr->pending_sessions());
    for (idx_t i = 0; i < kSmallSessions; ++i) {
      if (mgr->state(name_of(i)) == SessionState::kResident) activate(i);
    }

    while (!active.empty()) {
      bool progressed = false;
      for (std::size_t a = 0; a < active.size();) {
        Active& s = active[a];
        const std::string name = s.name;
        const std::vector<DistributedStepReport> reports =
            mgr->take_reports(name);
        if (reports.empty()) {
          ++a;
          continue;
        }
        progressed = true;
        // Session keys continue across fleets; the solo runs use the
        // first fleet's keys.
        const auto it = fleets == 0 ? solo.find(s.id) : solo.end();
        for (const DistributedStepReport& r : reports) {
          account(r, name);
          if (it != solo.end()) {
            s.identical = s.identical &&
                          fingerprint(r) ==
                              it->second[static_cast<std::size_t>(s.done)];
          }
          ++s.done;
          ++small_steps;
        }
        if (s.done < kSmallSteps) {
          mgr->step(name, 1);
          ++a;
          continue;
        }
        if (it != solo.end()) {
          out.check(s.identical,
                    "session " + name + " differs from its solo run");
        }
        const std::vector<idx_t> owner = mgr->sim(name)->ownership_map();
        cuts.push_back(static_cast<double>(edge_cut(small_graph, owner)));
        balances.push_back(
            max_load_imbalance(small_graph, owner, kSessionParts));
        finished.push_back(name);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));
        auto span = tracer.span("service.destroy");
        Timer timer;
        mgr->destroy(name);
        const double ms = timer.milliseconds();
        span.close();
        if (!pending.empty() &&
            mgr->state(name_of(pending.front())) == SessionState::kResident) {
          admit_ms.push_back(ms);
          admit_in_window_ms += ms;
          activate(pending.front());
          pending.pop_front();
        }
      }
      for (const DistributedStepReport& r : mgr->take_reports(kBig)) {
        account(r, kBig);
        ++big_steps;
        mgr->step(kBig, 1);
        progressed = true;
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    out.check(pending.empty(), "sessions left pending after the fleet");
    ++fleets;
    // At least two fleets, so the first fleet's admissions (half outside
    // the window) never make up a whole run.
  } while (window.seconds() < opts.seconds || fleets < 2);
  const double window_s = window.seconds();
  mgr->wait(kBig);
  for (const DistributedStepReport& r : mgr->take_reports(kBig)) {
    account(r, kBig);
    ++big_steps;
  }
  if (tracer.enabled()) {
    zero_layer_metrics(out);
    sampler.stop(out);
  }

  // ----- End-to-end metrics ---------------------------------------------
  mgr->destroy(kBig);
  out.check(mgr->resident_bytes() == 0 && mgr->resident_sessions() == 0 &&
                mgr->pending_sessions() == 0,
            "admission accounting leaked: " +
                std::to_string(mgr->resident_bytes()) + " bytes, " +
                std::to_string(mgr->resident_sessions()) + " sessions");

  std::vector<double> small_latency;
  std::vector<double> session_mean;
  for (const std::string& name : finished) {
    const std::vector<double> lat = mgr->stats().session_latencies(name);
    small_latency.insert(small_latency.end(), lat.begin(), lat.end());
    if (!lat.empty()) session_mean.push_back(mean_of(lat, "session").value);
  }
  const double stepping_s = window_s - admit_in_window_ms / 1e3;
  const double steps_per_s =
      static_cast<double>(small_steps + big_steps) / stepping_s;
  set_common_metrics(out, median_of(setup_s, "setup"),
                     median_of(small_latency, "small steps"), steps_per_s,
                     mean_of(cuts, "sessions"), mean_of(balances, "sessions"));
  set_percentile(out, "step_ms_p50", small_latency, 0.5);
  set_percentile(out, "step_ms_p99", small_latency, 0.99);
  out.report.set("steps_per_s", steps_per_s, small_steps + big_steps);
  out.report.set("admit_ms_p50", median_of(admit_ms, "admissions"));
  totals.set_metrics(out, tracer.enabled());
  out.info["fleets"] = std::to_string(fleets);
  out.info["small_steps"] = std::to_string(small_steps);
  out.info["big_steps"] = std::to_string(big_steps);

  if (!tracer.enabled()) return;

  out.report.set("core.step_ms", median_of(small_latency, "small steps"));
  const auto [lo, hi] =
      std::minmax_element(session_mean.begin(), session_mean.end());
  out.report.set("service.fairness_ratio",
                 session_mean.empty() || *lo <= 0 ? 0.0 : *hi / *lo,
                 session_mean.size());
  out.report.set("service.pending_peak", static_cast<double>(pending_peak));
  out.report.set("service.leaked_bytes",
                 static_cast<double>(mgr->resident_bytes()));
}

}  // namespace perfbench
