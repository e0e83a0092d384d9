#include "runtime/exchange.hpp"

namespace cpart {

Exchange::Exchange(idx_t k) : k_(k), clusters_(4, VirtualCluster(k)) {
  const auto bind = [&](ChannelId id, auto& cells, VirtualCluster* cluster) {
    cells.resize(k);
    channels_[slot(id)] = &cells;
    cluster_of_[slot(id)] = cluster;
  };
  bind(ChannelId::kDescriptors, descriptors_, nullptr);
  bind(ChannelId::kHalo, halo_, &clusters_[0]);
  bind(ChannelId::kFaces, faces_, &clusters_[1]);
  bind(ChannelId::kCouplingForward, coupling_forward_, &clusters_[2]);
  bind(ChannelId::kLabels, labels_, nullptr);
  // Node and element migrations share one cluster finished once per step:
  // the redistribution matrix counts every record a rank pair exchanged.
  bind(ChannelId::kMigrateNodes, migrate_nodes_, &clusters_[3]);
  bind(ChannelId::kMigrateElements, migrate_elements_, &clusters_[3]);
}

void Exchange::set_retry_policy(const RetryPolicy& policy) {
  require(policy.max_attempts >= 1,
          "Exchange: retry policy needs at least one attempt");
  retry_ = policy;
}

void Exchange::async_fold_group(const AsyncGroupAccounting& acc) {
  ++superstep_;
  ++health_.deliveries;
  health_.delivery_attempts += acc.passes;
  for (idx_t pass = 0; pass + 1 < acc.passes; ++pass) {
    ++health_.retries;
    health_.backoff_ms += retry_.backoff_for(pass);
  }
  if (acc.exhausted) ++health_.exhausted_deliveries;
  for (const PipelineHealth& scratch : acc.dst_health) health_ += scratch;
  for (const auto& per_channel : acc.dst_bytes) {
    for (std::size_t i = 0; i < bytes_.size(); ++i) bytes_[i] += per_channel[i];
  }
}

StepTraffic Exchange::take_traffic(ChannelId id) {
  VirtualCluster* cluster = cluster_of_[slot(id)];
  require(cluster != nullptr,
          "Exchange::take_traffic: channel charges no cluster");
  return cluster->finish();
}

void Exchange::abort_step() {
  for (ChannelId id : kChannels) channel(id).abort();
  for (VirtualCluster& cluster : clusters_) cluster.finish();
  bytes_.fill(0);
}

}  // namespace cpart
