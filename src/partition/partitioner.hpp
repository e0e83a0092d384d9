// The library's single partitioning entry point.
//
// Every client (McmlDtPartitioner, MlRcbPartitioner, the a-priori analysis,
// DistributedSim's repartitioner, the CLI tools) used to call the
// kway_multilevel layer directly, each with slightly different option
// plumbing. Partitioner unifies that call surface: one config selects the
// flat scheme (recursive bisection or direct k-way) and, when
// hierarchy.groups >= 2, the two-level hierarchical path of
// partition/hierarchical.hpp. Repartitioning goes through the same facade
// and inherits the hierarchy: moves stay inside each rank group unless a
// group's load breaches the cross-group threshold.
#pragma once

#include <span>
#include <vector>

#include "partition/hierarchical.hpp"
#include "partition/partition.hpp"

namespace cpart {

enum class PartitionScheme {
  /// Multilevel recursive bisection (partition_graph) — the default and
  /// the paper's configuration.
  kRecursiveBisection,
  /// Direct multilevel k-way (partition_graph_kway).
  kDirectKway,
};

struct PartitionerConfig {
  PartitionScheme scheme = PartitionScheme::kRecursiveBisection;
  /// k, epsilon, seed and multilevel knobs, shared by every path.
  PartitionOptions options{};
  /// groups >= 2 switches partition()/repartition() to the two-level path.
  HierarchyOptions hierarchy{};
};

class Partitioner {
 public:
  explicit Partitioner(PartitionerConfig config);

  const PartitionerConfig& config() const { return config_; }
  idx_t k() const { return config_.options.k; }
  /// Effective group count: hierarchy.groups clamped to [1, k].
  idx_t groups() const;
  bool hierarchical() const { return groups() > 1; }

  /// Group id of each part under the contiguous part->group assignment
  /// (all parts in group 0 when the hierarchy is disabled). With rank ==
  /// part id this is the rank-group map of the runtime layer.
  std::vector<idx_t> group_of_parts() const;

  /// Partitions g into k parts. `stats`, when non-null, receives the
  /// per-level diagnostics (flat runs fill the final level only).
  std::vector<idx_t> partition(const CsrGraph& g,
                               HierarchyStats* stats = nullptr) const;

  /// Adapts `old_part` to the (possibly changed) graph, trading cut for
  /// migration volume. Hierarchical instances repartition each group's
  /// induced subgraph independently — migration traffic stays group-local —
  /// unless some group's weight exceeds kCrossGroupThreshold times its
  /// proportional target, in which case one global repartition may move
  /// vertices across groups. `moved_cross_group`, when non-null, reports
  /// whether that escalation fired.
  std::vector<idx_t> repartition(const CsrGraph& g,
                                 std::span<const idx_t> old_part,
                                 const RepartitionOptions& options,
                                 bool* moved_cross_group = nullptr) const;

 private:
  PartitionerConfig config_;
};

}  // namespace cpart
