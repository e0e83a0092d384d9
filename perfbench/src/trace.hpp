// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer, on the benchmark's main thread only: a span's parent is
// the span open when it started. Everything stays in memory until the run
// ends; write_chrome() then emits Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto), and summary() gives per-name totals and
// self time (a span's duration minus the part its children cover).
//
// A disabled recorder records nothing; Scope objects still nest, so the
// workloads are written once for both runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since the recorder was created
    std::int64_t end_ns = -1;   // -1 while open
    int parent = -1;            // index into spans(), -1 for a root
    std::int64_t step = -1;     // simulation step, -1 when not a step
  };

  struct NameSummary {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now (idempotent); returns its duration in ms, or 0
    /// when the recorder is disabled.
    double close();

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer(bool enabled, std::string workload);

  bool enabled() const { return enabled_; }

  /// Opens a span named `name` (a layer-qualified call, e.g.
  /// "partition.partition") under the currently open span.
  [[nodiscard]] Scope span(const std::string& name, std::int64_t step = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name count, total and self time over the closed spans.
  std::map<std::string, NameSummary> summary() const;

  /// Writes the closed spans as Chrome trace-event JSON ("X" events, one
  /// process, the workload as the thread name). False on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
