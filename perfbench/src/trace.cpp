#include "trace.hpp"

#include <fstream>
#include <iomanip>

namespace perfbench {

double Tracer::Scope::close() {
  if (tracer_ == nullptr) return 0;
  Tracer& t = *tracer_;
  tracer_ = nullptr;
  Span& s = t.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = t.now_ns();
  // Spans close in LIFO order on the recording thread; pop back to this one.
  while (!t.open_.empty()) {
    const int top = t.open_.back();
    t.open_.pop_back();
    if (top == index_) break;
  }
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled),
      workload_(std::move(workload)),
      origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope Tracer::span(const std::string& name, std::int64_t step) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.step = step;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

std::map<std::string, Tracer::NameSummary> Tracer::summary() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || s.parent < 0) continue;
    child_ms[static_cast<std::size_t>(s.parent)] +=
        static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, NameSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    NameSummary& n = out[s.name];
    ++n.count;
    n.total_ms += ms;
    n.self_ms += ms - child_ms[i];
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \""
      << workload_ << "\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \""
        << s.name.substr(0, s.name.find('.')) << "\", \"ph\": \"X\", "
        << "\"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"workload\": \"" << workload_ << "\", \"step\": " << s.step
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
