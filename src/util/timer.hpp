// Wall-clock timing helpers for benches and progress reporting.
#pragma once

#include <chrono>
#include <string>

namespace cpart {

/// Monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Formats a duration like "1.23 s" / "45.6 ms" for human-readable logs.
std::string format_duration(double seconds);

}  // namespace cpart
