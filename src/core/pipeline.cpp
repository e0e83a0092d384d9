#include "core/pipeline.hpp"

#include <algorithm>
#include <array>

#include "contact/global_search.hpp"
#include "contact/search_metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "tree/tree_io.hpp"
#include "util/timer.hpp"

namespace cpart {

void SearchConfig::validate(const char* who) const {
  require(search_margin >= contact_tolerance,
          std::string(who) +
              ": search_margin must cover contact_tolerance, or remote "
              "contacts could be missed");
}

LocalSearchOptions SearchConfig::local_options(
    std::span<const int> body_of_node) const {
  LocalSearchOptions local;
  local.tolerance = contact_tolerance;
  local.body_of_node = body_of_node;
  local.closest_only = closest_only;
  return local;
}

void finalize_events(StepEvents& out) {
  std::sort(out.events.begin(), out.events.end(),
            [](const ContactEvent& a, const ContactEvent& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.distance < b.distance;
            });
  out.contact_events = to_idx(out.events.size());
  out.penetrating_events = 0;
  for (const ContactEvent& e : out.events) {
    if (e.signed_distance < 0) ++out.penetrating_events;
  }
}

void induce_and_broadcast_descriptors(std::span<const Vec3> points,
                                      std::span<const idx_t> labels, idx_t k,
                                      const DescriptorOptions& options,
                                      TreeInduceWorkspace& workspace,
                                      std::optional<SubdomainDescriptors>& out,
                                      Exchange& exchange) {
  if (out.has_value()) workspace.recycle(out->release_tree());
  out.emplace(points, labels, k, options, &workspace);
  exchange.descriptors().broadcast(
      0, DescriptorTreeMsg{tree_to_binary(out->tree())});
}

void receive_descriptors(Exchange& exchange, idx_t r, idx_t k,
                         std::optional<SubdomainDescriptors>& out) {
  if (r == 0) return;
  const auto& in = exchange.descriptors().inbox(r);
  require(in.size() == 1, "descriptor broadcast lost");
  out.emplace(tree_from_binary(in.front().wire), k);
}

wgt_t descriptor_broadcast_bytes(const SubdomainDescriptors& descriptors,
                                 idx_t k) {
  return static_cast<wgt_t>(tree_to_binary(descriptors.tree()).size()) *
         std::max<wgt_t>(0, k - 1);
}

namespace {

/// The face shipment payload: ids plus the coordinates the receiver's
/// search needs.
FaceShipMsg make_face_msg(const Mesh& mesh, const SurfaceFace& face, idx_t f) {
  FaceShipMsg m;
  m.face = f;
  m.element = face.element;
  m.num_nodes = static_cast<std::int32_t>(face.nodes.size());
  for (std::size_t i = 0; i < face.nodes.size() && i < m.nodes.size(); ++i) {
    m.nodes[i] = face.nodes[i];
    m.coords[i] = mesh.node(face.nodes[i]);
  }
  return m;
}

void init_phase(RankPhaseBreakdown& phase, idx_t k) {
  phase.descriptor_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.halo_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.ship_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.search_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.descriptor_wait_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.ship_wait_ms.assign(static_cast<std::size_t>(k), 0.0);
  phase.search_wait_ms.assign(static_cast<std::size_t>(k), 0.0);
}

/// The rank-phase bodies both snapshot-driven pipelines run, over one
/// step's snapshot, ownership views and rank states.
struct SnapshotPhases {
  const Mesh& mesh;
  const Surface& surface;
  const std::vector<SubdomainView>& views;
  std::vector<Rank>& ranks;
  Exchange& exchange;

  const SubdomainView& view(idx_t r) const {
    return views[static_cast<std::size_t>(r)];
  }
  Rank& rank(idx_t r) const { return ranks[static_cast<std::size_t>(r)]; }

  /// Halo post: rank r sends each boundary node of its halo send list.
  void post_halo(idx_t r) const {
    for (const HaloSend& hs : view(r).halo_sends) {
      exchange.halo().send(r, hs.dst,
                           HaloNodeMsg{hs.node, mesh.node(hs.node)});
    }
  }

  /// Ghost intake + element shipping: rank r takes its ghost layer off the
  /// halo inbox, then ships each owned face to every other rank `filter`
  /// names for the face's margin-inflated box.
  template <typename Filter>
  void ship_faces(idx_t r, real_t margin, const Filter& filter) const {
    Rank& rk = rank(r);
    const auto& ghosts_in = exchange.halo().inbox(r);
    rk.ghosts.assign(ghosts_in.begin(), ghosts_in.end());
    for (idx_t f : view(r).owned_faces) {
      const SurfaceFace& face = surface.faces[static_cast<std::size_t>(f)];
      rk.query_parts.clear();
      filter.query_box(face_bbox(mesh, face, margin), rk.query_parts);
      for (idx_t q : rk.query_parts) {
        if (q == r) continue;
        exchange.faces().send(r, q, make_face_msg(mesh, face, f));
      }
    }
  }

  /// Local search: rank r's contact nodes against its owned + received
  /// faces.
  void search_local(idx_t r, const LocalSearchOptions& local) const {
    Rank& rk = rank(r);
    const SubdomainView& v = view(r);
    rk.merge_faces(v.owned_faces, exchange.faces().inbox(r));
    if (v.contact_nodes.empty() || rk.local_faces.empty()) return;
    local_contact_search_subset_into(mesh, surface, v.contact_nodes,
                                     rk.local_faces, local, rk.search_scratch,
                                     rk.events);
  }
};

/// The reference flavors' global + local search. Every face ships from its
/// owner to each other processor `filter` names (one unit each, charged to
/// the returned traffic); processor q then searches its own nodes (the
/// node_ids labelled q) against the faces it holds, in processor order.
template <typename Filter>
StepTraffic reference_search(const Mesh& mesh, const Surface& surface,
                             std::span<const idx_t> face_owner,
                             std::span<const idx_t> node_ids,
                             std::span<const idx_t> node_labels, idx_t k,
                             real_t margin, const LocalSearchOptions& local,
                             const Filter& filter, StepEvents& out) {
  VirtualCluster cluster(k);
  // faces_on[q]: the faces processor q holds after the exchange (its own
  // plus every face shipped to it).
  std::vector<std::vector<idx_t>> faces_on(static_cast<std::size_t>(k));
  std::vector<idx_t> parts;
  for (idx_t f = 0; f < surface.num_faces(); ++f) {
    const idx_t home = face_owner[static_cast<std::size_t>(f)];
    faces_on[static_cast<std::size_t>(home)].push_back(f);
    parts.clear();
    filter.query_box(
        face_bbox(mesh, surface.faces[static_cast<std::size_t>(f)], margin),
        parts);
    for (idx_t q : parts) {
      if (q == home) continue;
      cluster.send(home, q, 1);
      faces_on[static_cast<std::size_t>(q)].push_back(f);
    }
  }
  std::vector<std::vector<idx_t>> nodes_on(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    nodes_on[static_cast<std::size_t>(node_labels[i])].push_back(node_ids[i]);
  }
  out.events.clear();
  out.events_per_processor.assign(static_cast<std::size_t>(k), 0);
  for (std::size_t q = 0; q < nodes_on.size(); ++q) {
    if (nodes_on[q].empty() || faces_on[q].empty()) continue;
    const std::vector<ContactEvent> events = local_contact_search_subset(
        mesh, surface, nodes_on[q], faces_on[q], local);
    out.events_per_processor[q] = to_idx(events.size());
    out.events.insert(out.events.end(), events.begin(), events.end());
  }
  finalize_events(out);
  return cluster.finish();
}

/// Validates that (mesh, surface) plausibly continues the snapshot sequence
/// a pipeline was constructed on: identical node count (node ids are stable
/// across a simulation sequence), same element type, element count no larger
/// than at construction (elements only erode, never appear), and contact
/// arrays indexed by this mesh's nodes. Throws InputError naming `who` on
/// any mismatch — a snapshot from a different simulation must be rejected,
/// not silently re-balanced against.
void validate_snapshot_identity(const Mesh& mesh, const Surface& surface,
                                ElementType type0, idx_t num_nodes0,
                                idx_t max_elements, const char* who) {
  const std::string w(who);
  require(mesh.element_type() == type0,
          w + ": snapshot element type differs from the construction mesh");
  require(mesh.num_nodes() == num_nodes0,
          w + ": snapshot node count differs from the construction mesh "
              "(node ids must be stable across the sequence)");
  require(mesh.num_elements() <= max_elements,
          w + ": snapshot has more elements than the construction mesh "
              "(elements can only erode within one sequence)");
  require(to_idx(surface.is_contact_node.size()) == mesh.num_nodes(),
          w + ": surface contact arrays are not indexed by this mesh's "
              "nodes");
}

}  // namespace

ContactPipeline::ContactPipeline(const Mesh& mesh0, const Surface& surface0,
                                 const PipelineConfig& config)
    : config_(config),
      partitioner_(mesh0, surface0, config.decomposition),
      element_type0_(mesh0.element_type()),
      num_nodes0_(mesh0.num_nodes()),
      num_elements0_(mesh0.num_elements()),
      exchange_(config.decomposition.k),
      executor_(config.decomposition.k) {
  config_.search.validate("ContactPipeline");
  ranks_.resize(static_cast<std::size_t>(k()));
  for (idx_t r = 0; r < k(); ++r) {
    ranks_[static_cast<std::size_t>(r)].id = r;
  }
}

PipelineStepReport ContactPipeline::run_step(const Mesh& mesh,
                                             const Surface& surface,
                                             std::span<const int> body_of_node) {
  validate_snapshot_identity(mesh, surface, element_type0_, num_nodes0_,
                             num_elements0_, "ContactPipeline");
  PipelineStepReport report;
  PipelineHealth health;
  const bool ok = try_spmd_step(exchange_, health, [&] {
    report = run_step_spmd(mesh, surface, body_of_node);
  });
  if (ok) {
    report.health = exchange_.take_health();
    return report;
  }
  report = run_step_reference(mesh, surface, body_of_node);
  report.health = health;
  return report;
}

PipelineStepReport ContactPipeline::run_step_spmd(
    const Mesh& mesh, const Surface& surface,
    std::span<const int> body_of_node) {
  const idx_t num_parts = k();
  PipelineStepReport report;
  init_phase(report.phase, num_parts);

  // Per-step ownership views. The nodal graph is cached across snapshots
  // (rebuilt only when erosion changed the topology) and the halo send
  // lists follow its version.
  const CsrGraph& graph = graph_cache_.get(mesh);
  const std::vector<idx_t>& part = partitioner_.node_partition();
  contact_labels_.clear();
  contact_labels_.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    contact_labels_.push_back(part[static_cast<std::size_t>(id)]);
  }
  face_owners_into(surface, part, num_parts, face_owner_);
  build_subdomain_views(surface.contact_nodes, contact_labels_, face_owner_,
                        num_parts, views_);
  if (halo_version_ != graph_cache_.version()) {
    build_halo_sends(graph, part, num_parts, views_);
    build_halo_providers(views_, halo_providers_);
    halo_version_ = graph_cache_.version();
  }

  // --- Driver section: rank 0's descriptor update, charged to
  // descriptor_ms[0]. The broadcast group is born closed (its rows are
  // posted here, before the run), so the k per-destination wire
  // validations spread across the async workers while the halo phase
  // proceeds underneath them. ------------------------------------------------
  {
    Timer timer;
    for (Rank& rank : ranks_) rank.begin_step();
    std::vector<Vec3> points;
    points.reserve(surface.contact_nodes.size());
    for (idx_t id : surface.contact_nodes) points.push_back(mesh.node(id));
    DescriptorOptions options = partitioner_.config().descriptor;
    options.dim = mesh.dim();
    induce_and_broadcast_descriptors(points, contact_labels_, num_parts,
                                     options, induce_ws_,
                                     ranks_[0].descriptors, exchange_);
    report.phase.descriptor_ms[0] += timer.milliseconds();
  }
  report.descriptor_tree_nodes = ranks_[0].descriptors->num_tree_nodes();

  // --- Phases 1-4 in one dependency-driven run: parse (reads the born-
  // closed broadcast — delivery #1), halo post, ghost intake + element
  // shipping (reads halo from just this rank's neighbors — delivery #2),
  // local search (reads faces — delivery #3). A rank enters each phase the
  // moment its own inbox cells commit; there is no global barrier. ----------
  const SnapshotPhases step{mesh, surface, views_, ranks_, exchange_};
  const real_t margin = config_.search.search_margin;
  const LocalSearchOptions local = config_.search.local_options(body_of_node);
  const std::array<AsyncPhase, 4> phases = {
      AsyncPhase{.body =
                     [&](idx_t r) {
                       receive_descriptors(exchange_, r, num_parts,
                                           step.rank(r).descriptors);
                     },
                 .reads = channel_bit(ChannelId::kDescriptors),
                 .ms_accum = report.phase.descriptor_ms,
                 .wait_ms_accum = report.phase.descriptor_wait_ms},
      AsyncPhase{.body = [&](idx_t r) { step.post_halo(r); },
                 .writes = channel_bit(ChannelId::kHalo),
                 .ms_accum = report.phase.halo_ms},
      AsyncPhase{.body =
                     [&](idx_t r) {
                       step.ship_faces(r, margin, *step.rank(r).descriptors);
                     },
                 .reads = channel_bit(ChannelId::kHalo),
                 .writes = channel_bit(ChannelId::kFaces),
                 .ms_accum = report.phase.ship_ms,
                 .wait_ms_accum = report.phase.ship_wait_ms,
                 .providers = &halo_providers_},
      AsyncPhase{.body = [&](idx_t r) { step.search_local(r, local); },
                 .reads = channel_bit(ChannelId::kFaces),
                 .ms_accum = report.phase.search_ms,
                 .wait_ms_accum = report.phase.search_wait_ms},
  };
  executor_.run(phases, exchange_);
  report.descriptor_broadcast_bytes = exchange_.take_descriptor_bytes();
  report.fe_exchange = exchange_.take_fe_traffic();
  report.halo_payload_bytes = exchange_.take_halo_bytes();
  report.search_exchange = exchange_.take_search_traffic();
  report.face_payload_bytes = exchange_.take_face_bytes();

  merge_rank_events(ranks_, report);
  return report;
}

PipelineStepReport ContactPipeline::run_step_reference(
    const Mesh& mesh, const Surface& surface,
    std::span<const int> body_of_node) const {
  validate_snapshot_identity(mesh, surface, element_type0_, num_nodes0_,
                             num_elements0_, "ContactPipeline");
  const idx_t num_parts = k();
  const std::vector<idx_t>& part = partitioner_.node_partition();
  PipelineStepReport report;

  // --- Phase 1: descriptor update + broadcast, induced with the exact
  // options the SPMD driver uses, so the modeled broadcast bytes match. -----
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  points.reserve(surface.contact_nodes.size());
  labels.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    points.push_back(mesh.node(id));
    labels.push_back(part[static_cast<std::size_t>(id)]);
  }
  DescriptorOptions options = partitioner_.config().descriptor;
  options.dim = mesh.dim();
  const SubdomainDescriptors descriptors(points, labels, num_parts, options);
  report.descriptor_tree_nodes = descriptors.num_tree_nodes();
  report.descriptor_broadcast_bytes =
      descriptor_broadcast_bytes(descriptors, num_parts);

  // --- Phase 2: FE halo exchange. ------------------------------------------
  report.fe_exchange = fe_halo_traffic(nodal_graph(mesh), part, num_parts);

  // --- Phases 3-4: global search & element shipping, then per-processor
  // local search. -----------------------------------------------------------
  report.search_exchange = reference_search(
      mesh, surface, face_owners(surface, part, num_parts),
      surface.contact_nodes, labels, num_parts, config_.search.search_margin,
      config_.search.local_options(body_of_node), descriptors, report);
  return report;
}

// ---------------------------------------------------------------------------
// ML+RCB baseline pipeline
// ---------------------------------------------------------------------------

MlRcbPipeline::MlRcbPipeline(const Mesh& mesh0, const Surface& surface0,
                             const MlRcbPipelineConfig& config)
    : config_(config),
      partitioner_(mesh0, surface0, config.decomposition),
      element_type0_(mesh0.element_type()),
      num_nodes0_(mesh0.num_nodes()),
      num_elements0_(mesh0.num_elements()),
      exchange_(config.decomposition.k),
      executor_(config.decomposition.k) {
  config_.search.validate("MlRcbPipeline");
  ranks_.resize(static_cast<std::size_t>(k()));
  for (idx_t r = 0; r < k(); ++r) {
    ranks_[static_cast<std::size_t>(r)].id = r;
  }
}

void MlRcbPipeline::advance_partition(const Mesh& mesh, const Surface& surface,
                                      MlRcbStepReport& report) {
  // A snapshot from a different simulation would silently re-balance the
  // incremental RCB against foreign geometry — reject it up front instead.
  validate_snapshot_identity(mesh, surface, element_type0_, num_nodes0_,
                             num_elements0_, "MlRcbPipeline");
  // Advance the incremental RCB (UpdComm). The first step may legitimately
  // be a later snapshot of the same sequence than the construction one, so
  // its movement is a catch-up, not charged as UpdComm.
  const wgt_t moved = partitioner_.update_contact_partition(mesh, surface);
  if (first_step_) {
    first_step_ = false;
  } else {
    report.upd_comm = moved;
  }
}

MlRcbStepReport MlRcbPipeline::run_step(const Mesh& mesh,
                                        const Surface& surface,
                                        std::span<const int> body_of_node) {
  MlRcbStepReport report;
  init_phase(report.phase, k());
  // The stateful RCB advance runs exactly once per step, before the part
  // that can fail — the degraded path below must not re-run it.
  advance_partition(mesh, surface, report);

  PipelineHealth health;
  const bool ok = try_spmd_step(exchange_, health, [&] {
    run_step_spmd(mesh, surface, body_of_node, report);
  });
  if (ok) {
    report.health = exchange_.take_health();
    return report;
  }
  MlRcbStepReport degraded;
  degraded.upd_comm = report.upd_comm;
  run_reference_phases(mesh, surface, body_of_node, degraded);
  degraded.health = health;
  return degraded;
}

void MlRcbPipeline::run_step_spmd(const Mesh& mesh, const Surface& surface,
                                  std::span<const int> body_of_node,
                                  MlRcbStepReport& report) {
  const idx_t num_parts = k();
  const CsrGraph& graph = graph_cache_.get(mesh);
  const std::vector<idx_t>& fe_part = partitioner_.node_partition();

  // FE labels of the current contact nodes (index-aligned with
  // partitioner_.contact_ids()/contact_labels()).
  fe_labels_.clear();
  fe_labels_.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    fe_labels_.push_back(fe_part[static_cast<std::size_t>(id)]);
  }
  const std::vector<idx_t>& cids = partitioner_.contact_ids();
  const std::vector<idx_t>& clabels = partitioner_.contact_labels();
  const M2MResult m2m = m2m_comm(fe_labels_, clabels, num_parts);

  // Ownership in the RCB decomposition: per-node labels -> face owners.
  rcb_node_labels_.assign(static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (std::size_t i = 0; i < cids.size(); ++i) {
    rcb_node_labels_[static_cast<std::size_t>(cids[i])] = clabels[i];
  }
  face_owners_into(surface, rcb_node_labels_, num_parts, face_owner_);
  build_subdomain_views(cids, clabels, face_owner_, num_parts, views_);
  if (halo_version_ != graph_cache_.version()) {
    build_halo_sends(graph, fe_part, num_parts, views_);
    halo_version_ = graph_cache_.version();
  }

  // One shared filter: BBoxFilter queries are pure (no mutable scratch), so
  // unlike the descriptor copies all ranks can read the same instance.
  const BBoxFilter filter = partitioner_.make_bbox_filter(mesh);

  // --- Phases 1-3 in one dependency-driven run. Phase 1 posts halo nodes,
  // forward coupling, and the subdomain-box allgather; phase 2 consumes all
  // three (delivery #1), returns the coupling points and ships elements;
  // phase 3 consumes the return coupling and shipped faces (delivery #2).
  // A rank enters each phase once its own inbox cells commit. ---------------
  const SnapshotPhases step{mesh, surface, views_, ranks_, exchange_};
  const auto post_phase = [&](idx_t r) {
    step.rank(r).begin_step();
    step.post_halo(r);
    // Forward coupling: this FE rank ships each of its contact points
    // whose (relabelled) RCB owner is elsewhere.
    for (std::size_t i = 0; i < fe_labels_.size(); ++i) {
      if (fe_labels_[i] != r) continue;
      const idx_t contact_as_fe =
          m2m.relabel[static_cast<std::size_t>(clabels[i])];
      if (contact_as_fe == r) continue;
      exchange_.coupling_forward().send(
          r, contact_as_fe, ContactPointMsg{cids[i], mesh.node(cids[i])});
    }
    // RCB subdomain-box allgather (bytes only — the centralized step
    // reports no traffic for it either).
    exchange_.boxes().broadcast(r, SubdomainBoxMsg{r, filter.box(r)});
  };
  const auto ship_phase = [&](idx_t r) {
    // Return trip: each received contact point goes back to its source
    // after the search (the "twice the M2MComm value" of Section 5.2).
    const auto& coupling_in = exchange_.coupling_forward().inbox(r);
    for (const SourceRange& sr :
         exchange_.coupling_forward().inbox_sources(r)) {
      for (idx_t i = sr.begin; i < sr.end; ++i) {
        exchange_.coupling_return().send(
            r, sr.from, coupling_in[static_cast<std::size_t>(i)]);
      }
    }
    step.ship_faces(r, config_.search.search_margin, filter);
  };
  const LocalSearchOptions local = config_.search.local_options(body_of_node);
  const ChannelMask post_mask = channel_bit(ChannelId::kHalo) |
                                channel_bit(ChannelId::kCouplingForward) |
                                channel_bit(ChannelId::kBoxes);
  const ChannelMask ship_mask = channel_bit(ChannelId::kCouplingReturn) |
                                channel_bit(ChannelId::kFaces);
  const std::array<AsyncPhase, 3> phases = {
      AsyncPhase{.body = post_phase,
                 .writes = post_mask,
                 .ms_accum = report.phase.halo_ms},
      AsyncPhase{.body = ship_phase,
                 .reads = post_mask,
                 .writes = ship_mask,
                 .ms_accum = report.phase.ship_ms,
                 .wait_ms_accum = report.phase.ship_wait_ms},
      AsyncPhase{.body = [&](idx_t r) { step.search_local(r, local); },
                 .reads = ship_mask,
                 .ms_accum = report.phase.search_ms,
                 .wait_ms_accum = report.phase.search_wait_ms},
  };
  executor_.run(phases, exchange_);
  report.fe_exchange = exchange_.take_fe_traffic();
  report.halo_payload_bytes = exchange_.take_halo_bytes();
  report.search_exchange = exchange_.take_search_traffic();
  report.coupling_exchange = exchange_.take_coupling_traffic();
  report.face_payload_bytes = exchange_.take_face_bytes();
  report.coupling_payload_bytes = exchange_.take_coupling_bytes();
  report.box_allgather_bytes = exchange_.take_box_bytes();

  merge_rank_events(ranks_, report);
}

MlRcbStepReport MlRcbPipeline::run_step_reference(
    const Mesh& mesh, const Surface& surface,
    std::span<const int> body_of_node) {
  MlRcbStepReport report;
  advance_partition(mesh, surface, report);
  run_reference_phases(mesh, surface, body_of_node, report);
  return report;
}

void MlRcbPipeline::run_reference_phases(const Mesh& mesh,
                                         const Surface& surface,
                                         std::span<const int> body_of_node,
                                         MlRcbStepReport& report) const {
  const idx_t num_parts = k();
  const std::vector<idx_t>& fe_part = partitioner_.node_partition();
  const std::vector<idx_t>& cids = partitioner_.contact_ids();
  const std::vector<idx_t>& clabels = partitioner_.contact_labels();

  // FE halo exchange in the graph decomposition.
  report.fe_exchange = fe_halo_traffic(nodal_graph(mesh), fe_part, num_parts);

  // Coupling: surface-node data to the contact decomposition and back.
  std::vector<idx_t> fe_labels;
  fe_labels.reserve(surface.contact_nodes.size());
  for (idx_t id : surface.contact_nodes) {
    fe_labels.push_back(fe_part[static_cast<std::size_t>(id)]);
  }
  const M2MResult m2m = m2m_comm(fe_labels, clabels, num_parts);
  report.coupling_exchange =
      m2m_traffic(fe_labels, clabels, m2m.relabel, num_parts);

  // Global + local search in the RCB decomposition, filtered by the
  // subdomain bounding boxes.
  std::vector<idx_t> rcb_node_labels(
      static_cast<std::size_t>(mesh.num_nodes()), 0);
  for (std::size_t i = 0; i < cids.size(); ++i) {
    rcb_node_labels[static_cast<std::size_t>(cids[i])] = clabels[i];
  }
  report.search_exchange = reference_search(
      mesh, surface, face_owners(surface, rcb_node_labels, num_parts), cids,
      clabels, num_parts, config_.search.search_margin,
      config_.search.local_options(body_of_node),
      partitioner_.make_bbox_filter(mesh), report);
}

}  // namespace cpart
