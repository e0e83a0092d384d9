// Common fixed-width index types and small helpers shared by every module.
//
// The library follows the METIS convention of 32-bit vertex/element ids by
// default; all containers are indexed with `idx_t`. Weights are 64-bit so
// that partition-weight sums over multi-million-vertex graphs cannot
// overflow.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cpart {

using idx_t = std::int32_t;     // vertex / element / node index
using wgt_t = std::int64_t;     // vertex & edge weight (sums fit 64 bits)
using real_t = double;          // geometric coordinate

inline constexpr idx_t kInvalidIndex = -1;

/// Thrown on malformed user input (bad mesh file, inconsistent sizes, ...).
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws InputError with `msg` when `cond` is false. Used to validate
/// user-facing API inputs; internal invariants use assert(). The message
/// is copied into a std::string only on the throw, so a passing check
/// allocates nothing (hot loops such as GraphBuilder::add_edge call it).
inline void require(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] throw InputError(std::string(msg));
}

/// Integer ceiling division for non-negative operands.
template <typename T>
constexpr T ceil_div(T a, T b) {
  assert(b > 0 && a >= 0);
  return (a + b - 1) / b;
}

/// Checked narrowing from size_t-like values to idx_t.
template <typename T>
idx_t to_idx(T v) {
  assert(v >= 0);
  assert(static_cast<std::uint64_t>(v) <=
         static_cast<std::uint64_t>(std::numeric_limits<idx_t>::max()));
  return static_cast<idx_t>(v);
}

}  // namespace cpart
