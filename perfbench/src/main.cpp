// perfbench: runs one workload and writes its JSON report: provenance, the
// correctness tally, every metric with its unit and sample count, and — for
// traced runs — the span summary, with the spans themselves in a Chrome
// trace-event file. The worker pool has one thread per CPU the process may
// run on.
//
//   perfbench --workload impact_steady|impact_migrate|partition_large|
//                        service_fleet
//             --seed N --seconds S --trace 0|1 --out_dir DIR
//
// Exit status: 0 when every check passed, 3 when a correctness check
// failed (the report is still written), 1 on an error.
#include <sched.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string json_string(const std::string& s) {
  std::ostringstream out;
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
          << static_cast<int>(c) << std::dec;
    } else {
      out << c;
    }
  }
  out << '"';
  return out.str();
}

const char* scope_name(Scope s) {
  switch (s) {
    case Scope::kEndToEnd: return "end_to_end";
    case Scope::kDetail: return "detail";
    case Scope::kLayer: return "layer";
  }
  return "?";
}

/// CPUs in the process's affinity mask (what `nproc` prints), or the
/// hardware concurrency when the mask cannot be read.
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string compiler() {
  std::ostringstream out;
#if defined(__clang__)
  out << "clang " << __clang_major__ << "." << __clang_minor__ << "."
      << __clang_patchlevel__;
#elif defined(__GNUC__)
  out << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
      << __GNUC_PATCHLEVEL__;
#else
  out << "unknown";
#endif
  return out.str();
}

void write_report(const std::string& path, const RunOptions& opts, bool trace,
                  unsigned threads, const RunResult& r, const Tracer& tracer,
                  const std::string& trace_path) {
  std::ofstream out(path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"workload\": " << json_string(opts.workload)
      << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
      << ", \"trace\": " << (trace ? 1 : 0) << ",\n \"provenance\": {"
      << "\"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"nproc\": " << affinity_cpus()
      << ", \"pool_threads\": " << threads
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(compiler()) << "},\n \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  out << "},\n \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(r.gate_failures[i]);
  }
  out << "],\n \"metrics\": {";
  first = true;
  for (const MetricSpec& spec : all_metrics()) {
    const auto it = r.report.values().find(std::string(spec.name));
    if (it == r.report.values().end()) continue;
    out << (first ? "\n  " : ",\n  ") << json_string(std::string(spec.name))
        << ": {\"value\": " << it->second.value
        << ", \"unit\": " << json_string(it->second.unit)
        << ", \"samples\": " << it->second.samples
        << ", \"better\": " << json_string(better_name(spec.better))
        << ", \"scope\": " << json_string(scope_name(spec.scope)) << "}";
    first = false;
  }
  out << "}";
  if (tracer.enabled()) {
    out << ",\n \"trace_file\": " << json_string(trace_path)
        << ",\n \"spans\": {";
    first = true;
    for (const auto& [name, s] : tracer.summary()) {
      out << (first ? "\n  " : ",\n  ") << json_string(name)
          << ": {\"count\": " << s.count << ", \"total_ms\": " << s.total_ms
          << ", \"self_ms\": " << s.self_ms << "}";
      first = false;
    }
    out << "}";
  }
  out << "}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// Removes the workload's working directory however the run ends.
struct WorkDir {
  std::filesystem::path path;
  explicit WorkDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

}  // namespace

int main(int argc, char** argv) {
  cpart::Flags flags;
  flags.define("workload", "", "workload name");
  flags.define("seed", "1", "input seed");
  flags.define("seconds", "10", "measuring window");
  flags.define("trace", "0", "1 = traced run (layer metrics + spans)");
  flags.define("out_dir", ".bench_build/results",
               "report and trace directory");
  const WorkloadEntry* workload = nullptr;
  RunOptions opts;
  bool trace = false;
  std::filesystem::path out_dir;
  try {
    flags.parse(argc, argv);
    opts.workload = flags.get_string("workload");
    for (const WorkloadEntry& w : all_workloads()) {
      if (opts.workload == w.name) workload = &w;
    }
    cpart::require(workload != nullptr, "unknown --workload " + opts.workload);
    const long seed = flags.get_int("seed");
    cpart::require(seed >= 0, "--seed must be >= 0");
    opts.seed = static_cast<std::uint64_t>(seed);
    opts.seconds = flags.get_double("seconds");
    cpart::require(opts.seconds > 0, "--seconds must be > 0");
    const long t = flags.get_int("trace");
    cpart::require(t == 0 || t == 1, "--trace must be 0 or 1");
    trace = t == 1;
    out_dir = flags.get_string("out_dir");
  } catch (const cpart::InputError& e) {
    std::cerr << "error: " << e.what() << "\n" << flags.usage("perfbench");
    return 1;
  }
  const unsigned threads = affinity_cpus();

  int status = 0;
  try {
    std::filesystem::create_directories(out_dir);
    cpart::ThreadPool::set_global_threads(threads);
    const WorkDir work_dir(out_dir / ("work-" + opts.workload + "-" +
                                      std::to_string(::getpid())));
    opts.work_dir = work_dir.path.string();
    std::cerr << "perfbench: " << opts.workload << " seed " << opts.seed
              << ", window " << opts.seconds << " s, "
              << (trace ? "traced" : "untraced") << ", " << threads
              << " threads\n";
    Tracer tracer(trace, opts.workload);
    RunResult result;
    workload->run(opts, tracer, result);
    result.report.set("failed_frac",
                      result.attempted > 0
                          ? static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted)
                          : 0.0,
                      result.attempted);
    const std::vector<std::string> missing =
        result.report.missing(trace ? Scope::kLayer : Scope::kEndToEnd);
    if (!missing.empty()) {
      throw std::logic_error(opts.workload + " did not report " +
                             missing.front());
    }
    const std::string trace_path =
        (out_dir / (opts.workload + ".trace.json")).string();
    if (trace && !tracer.write_chrome(trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    write_report((out_dir / (opts.workload + ".json")).string(), opts, trace,
                 threads, result, tracer, trace_path);
    for (const std::string& f : result.gate_failures) {
      std::cerr << "CHECK FAILED (" << opts.workload << "): " << f << "\n";
    }
    if (result.failed > 0 || result.attempted == 0) status = 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    status = 1;
  }
  return status;
}
