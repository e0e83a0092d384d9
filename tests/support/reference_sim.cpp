#include "reference_sim.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "contact/local_search.hpp"
#include "core/mcml_dt.hpp"
#include "runtime/exchange.hpp"
#include "runtime/label_codec.hpp"
#include "runtime/subdomain_state.hpp"
#include "runtime/virtual_cluster.hpp"
#include "tree/tree_io.hpp"
#include "util/timer.hpp"

namespace cpart {

namespace {

/// The repartitioner DistributedSim runs: the decomposition's partitioner
/// options and hierarchy, with k the rank count.
PartitionerConfig repartitioner_config(const DistributedSimConfig& config) {
  PartitionerConfig pc;
  pc.options = config.decomposition.partitioner;
  pc.options.k = config.decomposition.k;
  pc.options.epsilon = config.decomposition.epsilon;
  pc.hierarchy = config.decomposition.hierarchy;
  return pc;
}

/// Bytes of a broadcast of `wire` from rank 0 to the other k - 1 ranks.
wgt_t broadcast_bytes(const std::string& wire, idx_t k) {
  return static_cast<wgt_t>(wire.size()) * std::max<wgt_t>(0, k - 1);
}

}  // namespace

ReferenceSim::ReferenceSim(const ImpactSim& sim,
                           const DistributedSimConfig& config)
    : sim_(&sim),
      config_(config),
      partitioner_(repartitioner_config(config)) {
  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  owner_ = McmlDtPartitioner(snap0.mesh, snap0.surface, config_.decomposition)
               .node_partition();
  hits_.assign(owner_.size(), 0);
}

DistributedStepReport ReferenceSim::run_step(idx_t s) {
  const MeshTopology& topo = sim_->topology();
  const idx_t np = config_.decomposition.k;
  const idx_t nn = topo.num_nodes();
  const idx_t ne = topo.num_elements();
  const real_t nose = sim_->nose_z(s);
  const bool migrate = config_.repartition_period > 0 && steps_run_ > 0 &&
                       steps_run_ % config_.repartition_period == 0;
  DistributedStepReport report;
  report.step = s;
  report.migrated = migrate;

  std::vector<Vec3> positions(static_cast<std::size_t>(nn));
  for (idx_t v = 0; v < nn; ++v) {
    positions[static_cast<std::size_t>(v)] = sim_->displaced(v, nose);
  }

  // Halo: one message per (owned node, tracker rank) pair.
  {
    VirtualCluster fe(np);
    std::vector<char> seen(static_cast<std::size_t>(np), 0);
    std::vector<idx_t> trackers;
    for (idx_t v = 0; v < nn; ++v) {
      collect_tracker_ranks(topo, owner_, v, seen, trackers);
      for (idx_t q : trackers) {
        fe.send(owner_[static_cast<std::size_t>(v)], q, 1);
        report.halo_payload_bytes += wire_bytes(HaloNodeMsg{});
      }
    }
    report.fe_exchange = fe.finish();
  }

  // Surface scan over every element, each face homed at its majority owner.
  struct HomedRecord {
    FaceRecord rec;
    idx_t home = kInvalidIndex;
  };
  std::vector<HomedRecord> records;
  std::vector<char> is_contact(static_cast<std::size_t>(nn), 0);
  for (idx_t e = 0; e < ne; ++e) {
    sim_->for_each_contact_face(
        e, nose, topo.mesh().element(e), positions,
        [&](int lf, const std::array<idx_t, 4>& ids,
            const std::array<idx_t, 4>&, int nf) {
          HomedRecord hr;
          hr.home = majority_owner(
              {ids.data(), static_cast<std::size_t>(nf)}, owner_);
          hr.rec.key = topo.face_key(e, lf);
          hr.rec.num_nodes = nf;
          for (int i = 0; i < nf; ++i) {
            const auto v = static_cast<std::size_t>(ids[i]);
            is_contact[v] = 1;
            hr.rec.nodes[i] = ids[i];
            hr.rec.coords[i] = positions[v];
          }
          records.push_back(hr);
        });
  }

  // Contact-point gather to rank 0, in ascending node id, labelled with the
  // pre-migration owners; the descriptors are induced from it.
  std::vector<idx_t> contact_ids;
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  {
    VirtualCluster coupling(np);
    for (idx_t v = 0; v < nn; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (!is_contact[sv]) continue;
      contact_ids.push_back(v);
      points.push_back(positions[sv]);
      labels.push_back(owner_[sv]);
      if (owner_[sv] == 0) continue;
      coupling.send(owner_[sv], 0, 1);
      report.coupling_payload_bytes += wire_bytes(ContactPointMsg{});
    }
    report.coupling_exchange = coupling.finish();
  }
  DescriptorOptions options = config_.decomposition.descriptor;
  options.dim = topo.mesh().dim();
  const SubdomainDescriptors descriptors(points, labels, np, options);
  report.descriptor_tree_nodes = descriptors.num_tree_nodes();
  report.descriptor_broadcast_bytes =
      broadcast_bytes(tree_to_binary(descriptors.tree()), np);

  // The repartition, from the labels and contact mask this step starts
  // with; it applies only after the search.
  std::vector<idx_t> new_part;
  std::vector<LabelUpdate> changed;
  if (migrate) {
    Timer timer;
    const CsrGraph graph =
        build_two_phase_graph(sim_->initial_mesh(), is_contact,
                              config_.decomposition.contact_edge_weight);
    RepartitionOptions ro = config_.repartition;
    ro.seed = config_.repartition.seed + static_cast<std::uint64_t>(s);
    new_part = partitioner_.repartition(graph, owner_, ro,
                                        &report.repart_cross_group);
    report.repartition_ms = timer.milliseconds();
    for (std::size_t v = 0; v < owner_.size(); ++v) {
      if (new_part[v] != owner_[v]) changed.emplace_back(to_idx(v), new_part[v]);
    }
    if (!changed.empty()) {
      report.label_broadcast_bytes =
          broadcast_bytes(encode_label_updates(changed), np);
    }
  }

  // Face shipping: every face goes to its home and to every other rank
  // whose descriptor its inflated box touches.
  std::vector<std::vector<FaceRecord>> faces_on(static_cast<std::size_t>(np));
  {
    VirtualCluster search(np);
    std::vector<idx_t> parts;
    std::vector<char> mask;
    std::vector<idx_t> touched;
    for (const HomedRecord& hr : records) {
      faces_on[static_cast<std::size_t>(hr.home)].push_back(hr.rec);
      BBox box;
      for (int i = 0; i < hr.rec.num_nodes; ++i) box.expand(hr.rec.coords[i]);
      box.inflate(config_.search.search_margin);
      parts.clear();
      descriptors.query_box(box, parts, mask, touched);
      FaceShipMsg probe;
      probe.num_nodes = hr.rec.num_nodes;
      for (idx_t q : parts) {
        if (q == hr.home) continue;
        search.send(hr.home, q, 1);
        report.face_payload_bytes += wire_bytes(probe);
        faces_on[static_cast<std::size_t>(q)].push_back(hr.rec);
      }
    }
    report.search_exchange = search.finish();
  }

  // Each rank's local search: its contact nodes against its faces.
  std::vector<std::vector<idx_t>> nodes_on(static_cast<std::size_t>(np));
  for (idx_t v : contact_ids) {
    nodes_on[static_cast<std::size_t>(owner_[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  const LocalSearchOptions local =
      config_.search.local_options(sim_->node_body());
  report.events_per_processor.assign(static_cast<std::size_t>(np), 0);
  SubsetSearchScratch scratch;
  std::vector<ContactEvent> rank_events;
  std::vector<Vec3> node_positions;
  for (idx_t q = 0; q < np; ++q) {
    const auto sq = static_cast<std::size_t>(q);
    rank_events.clear();
    if (!nodes_on[sq].empty() && !faces_on[sq].empty()) {
      node_positions.clear();
      for (idx_t v : nodes_on[sq]) {
        node_positions.push_back(positions[static_cast<std::size_t>(v)]);
      }
      local_contact_search_records_into(nodes_on[sq], node_positions,
                                        faces_on[sq], local, scratch,
                                        rank_events);
    }
    report.events_per_processor[sq] = to_idx(rank_events.size());
    report.events.insert(report.events.end(), rank_events.begin(),
                         rank_events.end());
    for (const ContactEvent& ev : rank_events) {
      ++hits_[static_cast<std::size_t>(ev.node)];
    }
  }
  std::sort(report.events.begin(), report.events.end(), event_order);
  report.contact_events = to_idx(report.events.size());
  for (const ContactEvent& ev : report.events) {
    if (ev.signed_distance < 0) ++report.penetrating_events;
  }

  // Migration: each relabelled node's state moves to its new owner, and
  // each element whose majority owner changes moves to its new home.
  if (migrate) {
    VirtualCluster migration(np);
    for (const auto& [v, o] : changed) {
      migration.send(owner_[static_cast<std::size_t>(v)], o, 1);
      report.migration_payload_bytes += wire_bytes(NodeMigrateMsg{});
    }
    report.repart_moved_nodes = to_idx(changed.size());
    for (idx_t e = 0; e < ne; ++e) {
      const auto elem = topo.mesh().element(e);
      const idx_t old_home = majority_owner(elem, owner_);
      const idx_t new_home = majority_owner(elem, new_part);
      if (old_home == new_home) continue;
      migration.send(old_home, new_home, 1);
      ElementMigrateMsg probe;
      probe.num_nodes = static_cast<std::int32_t>(elem.size());
      report.migration_payload_bytes += wire_bytes(probe);
      ++report.repart_moved_elements;
    }
    report.migration_exchange = migration.finish();
    owner_ = std::move(new_part);
  }

  const std::uint64_t h = fnv1a_bytes(kFnvOffsetBasis, owner_.data(),
                                      owner_.size() * sizeof(idx_t));
  report.ownership_hash =
      fnv1a_bytes(h, hits_.data(), hits_.size() * sizeof(wgt_t));
  ++steps_run_;
  return report;
}

}  // namespace cpart
