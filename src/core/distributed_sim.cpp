#include "core/distributed_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "parallel/worker_pool.hpp"
#include "runtime/label_codec.hpp"
#include "tree/tree_io.hpp"
#include "util/timer.hpp"

namespace cpart {

namespace {

/// Watchdog deadline handed to the async runs whenever a hang is injected
/// this step; see AsyncRunOptions::watchdog_deadline_ms.
constexpr double kWatchdogDeadlineMs = 250.0;

/// Repartitioning runs through the same facade the initial decomposition
/// uses, with the same hierarchy — k is the rank count and the groups are
/// contiguous rank ranges.
PartitionerConfig repartitioner_config(const DistributedSimConfig& config) {
  PartitionerConfig pc;
  pc.options = config.decomposition.partitioner;
  pc.options.k = config.decomposition.k;
  pc.options.epsilon = config.decomposition.epsilon;
  pc.hierarchy = config.decomposition.hierarchy;
  return pc;
}

/// Rank 0's descriptor update: induces this step's descriptors into
/// `induced` — warm-started from last step's tree, whose storage is
/// recycled once no rank shares it any more — and broadcasts the binary
/// wire to the other k-1 ranks as one shared buffer. Runs on the driver
/// thread: parallel induction dispatches pool work, which a rank program
/// must never do.
void induce_and_broadcast_descriptors(
    std::span<const Vec3> points, std::span<const idx_t> labels, idx_t k,
    const DescriptorOptions& options, TreeInduceWorkspace& workspace,
    std::shared_ptr<SubdomainDescriptors>& induced, Exchange& exchange) {
  if (induced != nullptr && induced.use_count() == 1) {
    workspace.recycle(induced->release_tree());
  }
  induced = std::make_shared<SubdomainDescriptors>(points, labels, k, options,
                                                   &workspace);
  exchange.descriptors().broadcast(0,
                                   BytesMsg(tree_to_binary(induced->tree())));
}

/// The per-node `field` of the owned nodes in node order: each owner's
/// block holds its nodes in ascending id, so one cursor per rank.
template <typename T>
std::vector<T> gather_owned(std::span<const idx_t> owner,
                            const std::vector<SubdomainState>& states,
                            std::vector<T> SubdomainState::*field) {
  std::vector<T> out(owner.size());
  std::vector<std::size_t> next(states.size(), 0);
  for (std::size_t v = 0; v < owner.size(); ++v) {
    const auto q = static_cast<std::size_t>(owner[v]);
    out[v] = (states[q].*field)[next[q]++];
  }
  return out;
}

/// The labels `next` changes from `owner`, in ascending node id: what a
/// migration step's label broadcast carries.
std::vector<LabelUpdate> label_changes(std::span<const idx_t> next,
                                       std::span<const idx_t> owner) {
  std::vector<LabelUpdate> updates;
  for (std::size_t v = 0; v < owner.size(); ++v) {
    if (next[v] != owner[v]) updates.emplace_back(to_idx(v), next[v]);
  }
  return updates;
}

/// A decoded label broadcast: the updates, and the next label epoch's
/// ownership map (the current one with the updates applied).
struct LabelEpoch {
  std::vector<LabelUpdate> updates;
  std::shared_ptr<const std::vector<idx_t>> owner;
};

/// Phase D's decode of both broadcasts, shared by the ranks: the first rank
/// to hold a validated wire buffer decodes it, and every rank whose inbox
/// holds the same buffer shares that immutable result — the descriptor
/// tree, or the label updates with the next ownership map. A retried cell
/// is re-staged from the outbox, which holds the broadcast buffer, so a
/// step decodes each broadcast once, faults or not. The decoders stay the
/// trust boundary: a rejected wire throws TreeParseError in the rank that
/// decoded it, and the other ranks holding that buffer get null — the run
/// already fails with that one error.
class SharedBroadcastDecode {
 public:
  /// `owner` is the current ownership map, which label updates apply to.
  SharedBroadcastDecode(idx_t k,
                        std::shared_ptr<const std::vector<idx_t>> owner)
      : k_(k), owner_(std::move(owner)) {}

  std::shared_ptr<const SubdomainDescriptors> descriptors(
      const BytesMsg& wire) {
    return decode(wire, &Entry::descriptors, [&] {
      return std::make_shared<const SubdomainDescriptors>(
          tree_from_binary(wire.view()), k_);
    });
  }

  std::shared_ptr<const LabelEpoch> labels(const BytesMsg& wire) {
    return decode(wire, &Entry::labels, [&] {
      auto epoch = std::make_shared<LabelEpoch>();
      epoch->updates = decode_label_updates(wire.view());
      auto next = std::make_shared<std::vector<idx_t>>(*owner_);
      for (const auto& [v, o] : epoch->updates) {
        require(v < to_idx(next->size()) && o < k_, "label out of range");
        (*next)[static_cast<std::size_t>(v)] = o;
      }
      epoch->owner = std::move(next);
      return epoch;
    });
  }

 private:
  struct Entry {  // a decoded buffer and what it decoded to
    std::shared_ptr<const std::string> wire;
    std::shared_ptr<const SubdomainDescriptors> descriptors;
    std::shared_ptr<const LabelEpoch> labels;
  };

  template <typename T, typename Decoder>
  std::shared_ptr<const T> decode(const BytesMsg& wire,
                                  std::shared_ptr<const T> Entry::*slot,
                                  Decoder decoder) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : decoded_) {
      if (e.wire == wire.bytes) return e.*slot;
    }
    Entry& e = decoded_.emplace_back(Entry{wire.bytes, nullptr, nullptr});
    try {
      e.*slot = decoder();
    } catch (const TreeParseError&) {
      throw;
    } catch (const InputError& err) {
      // Structural damage a clean scan still uncovers (a malformed tree, a
      // label out of range) rejects the wire just the same.
      throw TreeParseError(err.what(), wire.view().size());
    }
    return e.*slot;
  }

  const idx_t k_;
  const std::shared_ptr<const std::vector<idx_t>> owner_;
  std::mutex mu_;
  std::vector<Entry> decoded_;  // guarded by mu_
};

/// Deterministic merge of per-rank events: concatenated in rank order (with
/// the per-rank counts), then sorted into event_order, whatever order the
/// ranks' events come in, with contact and penetrating events recounted.
void merge_rank_events(const std::vector<SubdomainState>& ranks,
                       StepEvents& out) {
  out.events_per_processor.assign(ranks.size(), 0);
  out.events.clear();
  for (std::size_t q = 0; q < ranks.size(); ++q) {
    out.events_per_processor[q] = to_idx(ranks[q].events.size());
    out.events.insert(out.events.end(), ranks[q].events.begin(),
                      ranks[q].events.end());
  }
  std::sort(out.events.begin(), out.events.end(), event_order);
  out.contact_events = to_idx(out.events.size());
  out.penetrating_events = 0;
  for (const ContactEvent& e : out.events) {
    if (e.signed_distance < 0) ++out.penetrating_events;
  }
}

/// Rank 0's contact-point gather: its own contact points and its inbox
/// placed by node id into `points`, ascending, with each point's owner in
/// `labels`. slot[v] - 1 is the position of node v's point (own points,
/// then the inbox), and one ascending scan over the node ids emits them:
/// O(nodes + points) whatever the runs' interleaving. Ids are unique (each
/// node has one owner), so the order is the sort's. Allocation-free once
/// the buffers have grown.
void place_contact_points(const SubdomainState& st,
                          std::span<const ContactPointMsg> in,
                          std::vector<idx_t>& slot, std::vector<Vec3>& points,
                          std::vector<idx_t>& labels) {
  const std::size_t own = st.contact_nodes.size();
  const std::size_t nn = st.node_owner->size();
  slot.assign(nn, 0);
  for (std::size_t i = 0; i < own; ++i) {
    slot[static_cast<std::size_t>(st.contact_nodes[i])] = to_idx(i + 1);
  }
  for (std::size_t j = 0; j < in.size(); ++j) {
    const idx_t v = in[j].node;
    require(v >= 0 && static_cast<std::size_t>(v) < nn,
            "DistributedSim: gathered contact point out of range");
    slot[static_cast<std::size_t>(v)] = to_idx(own + j + 1);
  }
  points.clear();
  labels.clear();
  for (std::size_t v = 0; v < nn; ++v) {
    if (slot[v] == 0) continue;
    const auto i = static_cast<std::size_t>(slot[v] - 1);
    points.push_back(i < own ? st.contact_points[i] : in[i - own].position);
    labels.push_back(st.owner_of(to_idx(v)));
  }
}

}  // namespace

void SearchConfig::validate(const char* who) const {
  require(contact_tolerance > 0,
          std::string(who) + ": contact_tolerance must be > 0");
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

void RankPhaseBreakdown::reset(idx_t k) {
  const auto n = static_cast<std::size_t>(k);
  for (std::vector<double>* v :
       {&descriptor_ms, &halo_ms, &ship_ms, &search_ms, &migrate_ms,
        &deliver_ms, &descriptor_wait_ms, &ship_wait_ms, &search_wait_ms}) {
    v->assign(n, 0.0);
  }
}

DistributedSim::DistributedSim(const ImpactSim& sim,
                               const DistributedSimConfig& config)
    : sim_(&sim),
      config_(config),
      partitioner_(repartitioner_config(config)),
      exchange_(config.decomposition.k),
      async_(config.decomposition.k) {
  config_.search.validate("DistributedSim");
  require(config_.repartition_period >= 0,
          "DistributedSim: repartition_period must be >= 0");

  // Initial decomposition: the paper's MCML+DT partition of the snapshot-0
  // mesh becomes the initial ownership map. The partitioner is not kept —
  // afterwards the labels live in (and only in) the shared map. Positions
  // stay zero until the first step computes them (the baseline checkpoint
  // stores them as they are).
  const ImpactSim::Snapshot snap0 = sim.snapshot(0);
  McmlDtPartitioner partitioner(snap0.mesh, snap0.surface,
                                config_.decomposition);
  load_states(partitioner.node_partition(),
              std::vector<wgt_t>(partitioner.node_partition().size(), 0),
              [](idx_t) { return Vec3{}; });
}

std::vector<idx_t> DistributedSim::compute_repartition(
    idx_t s, std::span<const idx_t> owner, std::span<const char> is_contact,
    DistributedStepReport& report) {
  Timer timer;
  // The repartition graph is built over the immutable topology (eroded
  // elements included) — the same substrate the ownership machinery runs
  // on, so the protocol never needs a compacted central mesh. Only the
  // contact mask changes between migration steps, and it enters the graph
  // only through its weights.
  const wgt_t contact_edge_weight = config_.decomposition.contact_edge_weight;
  if (two_phase_graph_.has_value()) {
    reweight_two_phase_graph(*two_phase_graph_, is_contact,
                             contact_edge_weight);
  } else {
    two_phase_graph_ = build_two_phase_graph(sim_->initial_mesh(),
                                             is_contact, contact_edge_weight);
  }
  RepartitionOptions ro = config_.repartition;
  ro.seed = config_.repartition.seed + static_cast<std::uint64_t>(s);
  std::vector<idx_t> part = partitioner_.repartition(
      *two_phase_graph_, owner, ro, &report.repart_cross_group);
  report.repartition_ms = timer.milliseconds();
  return part;
}

DistributedStepReport DistributedSim::run_step(idx_t s) {
  require(!suspended_, "DistributedSim::run_step: sim is suspended");
  PipelineHealth recovery_health;
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  idx_t replayed = 0;
  bool recovered = false;

  // A baseline checkpoint before the first step, so a restore is always
  // possible — a death before the first period boundary replays from the
  // initial decomposition.
  if (config_.checkpoint_period > 0 && store_ == nullptr) {
    commit_checkpoint(recovery_health, checkpoint_ms);
  }

  step_history_.push_back(s);

  DistributedStepReport report;
  for (;;) {
    try {
      // Run every uncompleted history entry. On the fault-free path that is
      // exactly the one step just pushed; after a restore the cursor is
      // rewound and all but the last entry are replays — re-executions of
      // steps lost to the rollback, bit-identical to their first run, whose
      // reports are discarded (the caller already has them; replay exists
      // to rebuild state).
      while (replay_pos_ < step_history_.size()) {
        const bool is_replay = replay_pos_ + 1 < step_history_.size();
        Timer attempt_timer;
        report = DistributedStepReport{};
        run_step_attempt(step_history_[replay_pos_], report);
        ++steps_run_;
        ++replay_pos_;
        if (is_replay) {
          ++replayed;
          ++recovery_health.replay_steps;
          recovery_health += report.health;
          recovery_ms += attempt_timer.milliseconds();
        }
      }
      break;
    } catch (const RankDeathError& death) {
      Timer restore_timer;
      exchange_.abort_step();
      // Drain the dead attempt's transport counters so they do not leak
      // into the next attempt's report; they stay in the recovery tally —
      // those deliveries did happen.
      recovery_health += exchange_.take_health();
      recovery_health.rank_deaths += static_cast<wgt_t>(death.ranks().size());
      recovery_health.failed_ranks += static_cast<wgt_t>(death.ranks().size());
      recovered = true;
      if (restore_from_checkpoint()) {
        ++recovery_health.recoveries;
      } else {
        // No durable checkpoint (checkpointing disabled, or the store is
        // unreadable): complete this step degraded from the start-of-step
        // snapshot and continue unprotected — the same fallback the
        // transport-exhaustion path uses.
        rerun_step_degraded(step_history_[replay_pos_], report);
        ++recovery_health.degraded_steps;
        ++steps_run_;
        ++replay_pos_;
      }
      recovery_ms += restore_timer.milliseconds();
    }
  }

  // Period boundary: commit a fresh checkpoint. A failed commit never
  // destroys the previous one (keep-last-good) — the history keeps
  // accumulating so a later death still replays from the last durable
  // state.
  if (store_ != nullptr && config_.checkpoint_period > 0 &&
      steps_run_ % config_.checkpoint_period == 0 &&
      commit_checkpoint(recovery_health, checkpoint_ms)) {
    step_history_.clear();
    replay_pos_ = 0;
  }

  report.recovered = recovered;
  report.replayed_steps = replayed;
  report.checkpoint_ms = checkpoint_ms;
  report.recovery_ms = recovery_ms;
  report.health += recovery_health;
  return report;
}

void DistributedSim::run_step_attempt(idx_t s, DistributedStepReport& report) {
  const bool migrate = is_migration_step();

  // This execution's injected rank faults, decided up front as a pure
  // function of (seed, logical step, rank, incarnation). The incarnation is
  // the execution count of the logical step, so a replayed step draws kNone
  // and recovery always makes progress.
  any_death_ = false;
  any_hang_ = false;
  FaultInjector* injector = exchange_.fault_injector();
  if (injector != nullptr) {
    const auto step_id = static_cast<std::size_t>(steps_run_);
    if (step_attempts_.size() <= step_id) {
      step_attempts_.resize(step_id + 1, 0);
    }
    const idx_t incarnation = step_attempts_[step_id]++;
    death_mask_.assign(static_cast<std::size_t>(k()), 0);
    hang_mask_.assign(static_cast<std::size_t>(k()), 0);
    for (idx_t r = 0; r < k(); ++r) {
      const RankFaultKind kind =
          injector->rank_fault(steps_run_, r, incarnation);
      if (kind == RankFaultKind::kNone) continue;
      injector->record_rank_fault(kind);
      if (kind == RankFaultKind::kDeath) {
        death_mask_[static_cast<std::size_t>(r)] = 1;
        any_death_ = true;
      } else {
        hang_mask_[static_cast<std::size_t>(r)] = 1;
        any_hang_ = true;
      }
    }
  }

  // If the transport gives up mid-step the step reruns whole from the
  // start-of-step snapshot; the report keeps the failed attempt's health.
  PipelineHealth health;
  if (try_spmd_step(s, migrate, report, health)) {
    report.health = exchange_.take_health();
  } else {
    rerun_step_degraded(s, report);
    report.health = health;
  }
}

void DistributedSim::rerun_step_degraded(idx_t s,
                                         DistributedStepReport& report) {
  // The failed attempt left the rank states mid-step. Phase A and the halo
  // rewrite every local position, so the reload needs none.
  load_states(*owner_, start_hits_, [](idx_t) { return Vec3{}; });
  death_mask_.clear();
  hang_mask_.clear();
  any_death_ = false;
  any_hang_ = false;
  // The rerun draws no fault decisions, and the superstep cursor goes back
  // to where the failed attempt left it, so later steps key the same
  // transport fault schedule as if the step had not been rerun.
  FaultInjector* injector = exchange_.fault_injector();
  const std::uint64_t superstep = exchange_.next_superstep();
  const auto rearm = [&] {
    exchange_.take_health();  // the rerun's deliveries are not reported
    exchange_.set_fault_injector(injector);
    exchange_.set_next_superstep(superstep);
  };
  exchange_.set_fault_injector(nullptr);
  report = DistributedStepReport{};
  try {
    run_step_spmd(s, is_migration_step(), report);
  } catch (...) {
    rearm();
    throw;
  }
  rearm();
}

bool DistributedSim::try_spmd_step(idx_t s, bool migrate,
                                   DistributedStepReport& report,
                                   PipelineHealth& health) {
  wgt_t parse_failures = 0;
  wgt_t failed_ranks = 0;
  try {
    run_step_spmd(s, migrate, report);
    return true;
  } catch (const TransportError&) {
    // Retry/exhaustion counters were recorded by the exchange itself.
  } catch (const TreeParseError&) {
    // One rank program rejected a descriptor wire off the transport.
    parse_failures = 1;
    failed_ranks = 1;
  } catch (const ParallelGroupError& e) {
    failed_ranks = to_idx(e.failures().size());
  }
  health = exchange_.take_health();
  health.wire_parse_failures += parse_failures;
  health.failed_ranks += failed_ranks;
  ++health.degraded_steps;
  exchange_.abort_step();
  return false;
}

void DistributedSim::run_step_spmd(idx_t s, bool migrate,
                                   DistributedStepReport& report) {
  const idx_t np = k();
  const idx_t nn = topology().num_nodes();
  const real_t nose = sim_->nose_z(s);
  report.step = s;
  report.migrated = migrate;
  RankPhaseBreakdown& phase = report.phase;
  phase.reset(np);

  // --- Supersteps A+B in one dependency-driven run: owned kinematics +
  // halo post, then — per rank, as soon as its own halo neighbors' rows
  // commit (delivery #1) — ghost intake, local surface extraction, and the
  // contact-point gather to rank 0, which rank 0 collects in a third phase
  // (delivery #2): the gathered points in ascending contact-id order. -------
  const auto phase_a = [&](idx_t r) {
    if (any_death_ && death_mask_[static_cast<std::size_t>(r)]) {
      // The injected death: the rank vanishes at step entry, before any of
      // its sends. RankDeathError is not degradable — it unwinds through
      // try_spmd_step into the recovery loop of run_step.
      throw RankDeathError({r});
    }
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.begin_step();
    for (std::size_t i = 0; i < st.owned_nodes().size(); ++i) {
      st.positions[i] = sim_->displaced(st.local_nodes[i], nose);
    }
    for (const HaloSend& hs : st.halo_sends) {
      const auto i = static_cast<std::size_t>(hs.local);
      exchange_.halo().send(r, hs.dst,
                            HaloNodeMsg{st.local_nodes[i], st.positions[i]});
    }
  };
  const auto phase_b = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    // The inbox arrives in local ghost order (see SubdomainState), so each
    // message lands at the next ghost slot; its id is checked, not looked up.
    const auto& in = exchange_.halo().inbox(r);
    const auto first_ghost = static_cast<std::size_t>(st.num_owned);
    require(in.size() == st.local_nodes.size() - first_ghost,
            "DistributedSim: halo inbox does not cover the ghost layer");
    for (std::size_t i = 0; i < in.size(); ++i) {
      require(in[i].node == st.local_nodes[first_ghost + i],
              "DistributedSim: halo message out of ghost order");
      st.positions[first_ghost + i] = in[i].position;
    }
    for (std::size_t t = 0; t < st.tracked_elements.size(); ++t) {
      const idx_t e = st.tracked_elements[t];
      sim_->for_each_contact_face(
          e, nose, st.element_local(t), st.positions,
          [&](int lf, const std::array<idx_t, 4>& ids,
              const std::array<idx_t, 4>& at, int nf) {
            for (int i = 0; i < nf; ++i) {
              const auto li = static_cast<std::size_t>(at[i]);
              if (at[i] < st.num_owned && !st.node_mask[li]) {
                st.node_mask[li] = 1;
                st.contact_local.push_back(at[i]);
              }
            }
            const idx_t home = majority_owner(
                {ids.data(), static_cast<std::size_t>(nf)}, *st.node_owner);
            if (home != r) return;
            FaceRecord rec;
            rec.key = topology().face_key(e, lf);
            rec.num_nodes = nf;
            for (int i = 0; i < nf; ++i) {
              rec.nodes[i] = ids[i];
              rec.coords[i] = st.positions[static_cast<std::size_t>(at[i])];
            }
            st.owned_records.push_back(rec);
          });
    }
    // Owned local ids ascend with the global id.
    std::sort(st.contact_local.begin(), st.contact_local.end());
    for (idx_t li : st.contact_local) {
      const auto i = static_cast<std::size_t>(li);
      st.node_mask[i] = 0;
      st.contact_nodes.push_back(st.local_nodes[i]);
      st.contact_points.push_back(st.positions[i]);
      exchange_.coupling_forward().send(
          r, 0, ContactPointMsg{st.local_nodes[i], st.positions[i]});
    }
  };
  const auto gather_phase = [&](idx_t r) {
    if (r != 0) return;
    // Each contact node has exactly one owner: placing the points by id
    // yields the global ascending contact-id order.
    place_contact_points(states_[0], exchange_.coupling_forward().inbox(0),
                         gather_slot_, gather_points_, gather_labels_);
  };
  const std::array<AsyncPhase, 3> kinematics_phases = {
      AsyncPhase{.body = phase_a,
                 .writes = channel_bit(ChannelId::kHalo),
                 .ms_accum = phase.halo_ms},
      AsyncPhase{.body = phase_b,
                 .reads = channel_bit(ChannelId::kHalo),
                 .writes = channel_bit(ChannelId::kCouplingForward),
                 .ms_accum = phase.halo_ms,
                 .wait_ms_accum = phase.ship_wait_ms,
                 .deliver_ms_accum = phase.deliver_ms,
                 .providers = &halo_providers_},
      AsyncPhase{.body = gather_phase,
                 .reads = channel_bit(ChannelId::kCouplingForward),
                 .ms_accum = phase.halo_ms,
                 .wait_ms_accum = phase.descriptor_wait_ms,
                 .deliver_ms_accum = phase.deliver_ms},
  };
  // Injected hangs arm the executor's watchdog so a rank that never
  // publishes is declared dead instead of deadlocking the run.
  AsyncRunOptions fault_options;
  if (any_hang_) {
    fault_options.watchdog_deadline_ms = kWatchdogDeadlineMs;
    fault_options.hung = hang_mask_;
  }
  async_.run(kinematics_phases, exchange_, fault_options);  // deliveries #1-2
  report.fe_exchange = exchange_.take_traffic(ChannelId::kHalo);
  report.halo_payload_bytes = exchange_.take_bytes(ChannelId::kHalo);
  report.coupling_exchange =
      exchange_.take_traffic(ChannelId::kCouplingForward);
  report.coupling_payload_bytes =
      exchange_.take_bytes(ChannelId::kCouplingForward);

  // On migration steps the driver computes the new labels here, between the
  // contact gather and the descriptor superstep: kway refinement dispatches
  // ThreadPool work, which a rank program must never do (nested dispatch
  // deadlocks the pool). The wire protocol stays rank-level — rank 0
  // broadcasts the changed labels, each rank computes its own outgoing set.
  std::vector<idx_t> new_part;
  if (migrate) {
    contact_mask_.assign(static_cast<std::size_t>(nn), 0);
    for (const SubdomainState& st : states_) {
      for (idx_t v : st.contact_nodes) {
        contact_mask_[static_cast<std::size_t>(v)] = 1;
      }
    }
    new_part = compute_repartition(s, *owner_, contact_mask_, report);
  }

  // --- Driver section (was superstep C): rank 0's descriptor update runs
  // on the calling thread (see induce_and_broadcast_descriptors), plus on
  // migration steps one delta-coded blob of the changed labels. Charged to
  // descriptor_ms[0]. --------------------------------------------------------
  BytesMsg label_wire;  // stays null when no label changes
  {
    Timer timer;
    SubdomainState& st = states_[0];
    DescriptorOptions options = config_.decomposition.descriptor;
    options.dim = topology().mesh().dim();
    st.descriptors.reset();
    induce_and_broadcast_descriptors(gather_points_, gather_labels_, np,
                                     options, induce_ws_, induced_descriptors_,
                                     exchange_);
    st.descriptors = induced_descriptors_;
    const std::vector<LabelUpdate> updates =
        migrate ? label_changes(new_part, *owner_) : std::vector<LabelUpdate>{};
    if (!updates.empty()) {
      label_wire = BytesMsg(encode_label_updates(updates));
      exchange_.labels().broadcast(0, label_wire);
    }
    phase.descriptor_ms[0] += timer.milliseconds();
  }
  report.descriptor_tree_nodes = states_[0].descriptors->num_tree_nodes();

  // --- Supersteps D+E(+F) in one dependency-driven run. The broadcast
  // group (descriptors + labels, delivery #3) is born closed — posted by
  // the driver above — so each rank's wire validation and decode start
  // immediately and the former serial section spreads across the workers.
  // E follows per rank as its faces cells commit (delivery #4); on
  // migration steps F consumes the migration channels (delivery #5) and
  // commits the handover. ---------------------------------------------------
  const LocalSearchOptions local =
      config_.search.local_options(sim_->node_body());
  SharedBroadcastDecode decodes(np, owner_);
  // epochs[r]: rank r's decode of the label broadcast, null when no label
  // changes. Rank 0 has no inbox: it looks up the buffer it broadcast.
  std::vector<std::shared_ptr<const LabelEpoch>> epochs(
      static_cast<std::size_t>(np));
  const auto phase_d = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    // A null decode: another rank rejected this rank's buffer, and the run
    // already fails with that error. Rank 0 keeps the tree it induced.
    if (r != 0) {
      const auto& in = exchange_.descriptors().inbox(r);
      require(in.size() == 1, "descriptor broadcast lost");
      st.descriptors = decodes.descriptors(in.front());
      if (st.descriptors == nullptr) return;
    }
    const auto& lin = exchange_.labels().inbox(r);
    require(lin.size() <= 1, "DistributedSim: label broadcast lost");
    if (r == 0 ? label_wire.bytes != nullptr : !lin.empty()) {
      auto& epoch = epochs[static_cast<std::size_t>(r)];
      epoch = decodes.labels(r == 0 ? label_wire : lin.front());
      if (epoch == nullptr) return;
    }
    for (const FaceRecord& rec : st.owned_records) {
      BBox box;
      for (int i = 0; i < rec.num_nodes; ++i) box.expand(rec.coords[i]);
      box.inflate(config_.search.search_margin);
      st.query_parts.clear();
      st.descriptors->query_box(box, st.query_parts, st.rank_seen, st.touched);
      for (idx_t q : st.query_parts) {
        if (q == r) continue;
        FaceShipMsg m;
        m.face = rec.key;
        m.element =
            rec.key / static_cast<idx_t>(topology().faces_per_element());
        m.num_nodes = rec.num_nodes;
        m.nodes = rec.nodes;
        m.coords = rec.coords;
        exchange_.faces().send(r, q, m);
      }
    }
  };
  const auto phase_e = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    // Each record is copied once, in arrival order: the kernel's events do
    // not depend on the order of its faces (see event_order).
    st.local_records.assign(st.owned_records.begin(), st.owned_records.end());
    for (const FaceShipMsg& m : exchange_.faces().inbox(r)) {
      st.local_records.push_back({m.face, m.num_nodes, m.nodes, m.coords});
    }
    if (!st.contact_nodes.empty() && !st.local_records.empty()) {
      local_contact_search_records_into(st.contact_nodes, st.contact_points,
                                        st.local_records, local,
                                        st.search_scratch, st.events);
    }
    // Events ascend by node, like contact_nodes: walk both.
    std::size_t c = 0;
    for (const ContactEvent& ev : st.events) {
      while (st.contact_nodes[c] != ev.node) ++c;
      ++st.contact_hits[static_cast<std::size_t>(st.contact_local[c])];
    }
    // The end-of-step hits in node order (migration carries them
    // unchanged): the owned sets are disjoint, so the ranks write in
    // parallel.
    for (std::size_t i = 0; i < st.owned_nodes().size(); ++i) {
      end_hits_[static_cast<std::size_t>(st.local_nodes[i])] =
          st.contact_hits[i];
    }
    const LabelEpoch* epoch = epochs[static_cast<std::size_t>(r)].get();
    if (epoch == nullptr) return;  // not a migration step, or no change
    // Which label changes touch this rank is decided under the old labels.
    // With none, the views outlive the commit and nothing moves in or out.
    const bool touched = st.note_relabels(epoch->updates);
    // Node migration: this rank ships the authoritative state of every
    // owned node the new labels take away — including this step's hits.
    for (const Relabel& c : st.relabels) {
      if (c.old_owner != r) continue;
      const auto i = static_cast<std::size_t>(c.old_local);
      exchange_.migrate_nodes().send(
          r, c.new_owner,
          NodeMigrateMsg{c.node, st.positions[i], st.contact_hits[i]});
      ++st.moved_nodes_out;
    }
    // The label commit: the rank switches to the next epoch's map, shared by
    // every rank and written by none. The views stay those of the old
    // labels until phase F updates them.
    st.node_owner = epoch->owner;
    if (!touched) return;
    // Element migration: owned elements whose majority owner changes under
    // the new labels are re-homed with their connectivity record. Only an
    // element with a relabelled node can change home; they are visited in
    // ascending id, the order of owned_elements.
    std::vector<idx_t> rehome;
    for (const Relabel& c : st.relabels) {
      if (c.old_local == kInvalidIndex) continue;
      for (idx_t e : topology().elements_of(c.node)) {
        if (std::binary_search(st.owned_elements.begin(),
                               st.owned_elements.end(), e)) {
          rehome.push_back(e);
        }
      }
    }
    std::sort(rehome.begin(), rehome.end());
    rehome.erase(std::unique(rehome.begin(), rehome.end()), rehome.end());
    for (idx_t e : rehome) {
      const auto elem = topology().mesh().element(e);
      const idx_t new_home = majority_owner(elem, *st.node_owner);
      if (new_home == r) continue;
      ElementMigrateMsg m;
      m.element = e;
      m.num_nodes = static_cast<std::int32_t>(elem.size());
      for (std::size_t i = 0; i < elem.size(); ++i) m.nodes[i] = elem[i];
      exchange_.migrate_elements().send(r, new_home, m);
      ++st.moved_elements_out;
    }
  };
  // --- Phase F (migration steps only): migration commit — validate the
  // element records, update the local numbering and views to the new
  // labels, and splice in the arrived node state. ---------------------------
  const auto phase_f = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    const auto& node_in = exchange_.migrate_nodes().inbox(r);
    const auto& elem_in = exchange_.migrate_elements().inbox(r);
    if (st.relabels.empty()) {
      // Nothing arrives at a rank no label change touches.
      require(node_in.empty() && elem_in.empty(),
              "DistributedSim: state migrated to an untouched rank");
      return;
    }
    for (const ElementMigrateMsg& m : elem_in) {
      require(m.element >= 0 && m.element < topology().num_elements(),
              "DistributedSim: migrated element id out of range");
      const auto elem = topology().mesh().element(m.element);
      require(static_cast<std::size_t>(m.num_nodes) == elem.size(),
              "DistributedSim: migrated element arity mismatch");
      for (std::size_t i = 0; i < elem.size(); ++i) {
        require(m.nodes[i] == elem[i],
                "DistributedSim: migrated element connectivity mismatch");
      }
      require(majority_owner(elem, *st.node_owner) == r,
              "DistributedSim: element re-homed to the wrong rank");
    }
    st.apply_relabels(topology());
    // The arrivals' state: exactly one message per node the new labels
    // give this rank, in any order.
    std::vector<NodeMigrateMsg> arrived(node_in.begin(), node_in.end());
    std::sort(arrived.begin(), arrived.end(),
              [](const NodeMigrateMsg& a, const NodeMigrateMsg& b) {
                return a.node < b.node;
              });
    std::size_t a = 0;
    for (const Relabel& c : st.relabels) {
      if (c.new_owner != r) continue;
      require(a < arrived.size() && arrived[a].node == c.node,
              "DistributedSim: migrated node state does not cover the "
              "arrivals");
      const auto i = static_cast<std::size_t>(st.owned_local(c.node));
      st.positions[i] = arrived[a].position;
      st.contact_hits[i] = arrived[a].contact_hits;
      ++a;
    }
    require(a == arrived.size(),
            "DistributedSim: node migrated to a rank that does not own it");
    // The new ghost owners are this rank's new halo providers; no phase of
    // this run reads them.
    st.ghost_owners(halo_providers_[static_cast<std::size_t>(r)]);
  };

  const ChannelMask broadcast_mask = channel_bit(ChannelId::kDescriptors) |
                                     channel_bit(ChannelId::kLabels);
  const ChannelMask migrate_mask = channel_bit(ChannelId::kMigrateNodes) |
                                   channel_bit(ChannelId::kMigrateElements);
  std::vector<AsyncPhase> search_phases;
  search_phases.push_back(AsyncPhase{.body = phase_d,
                                     .reads = broadcast_mask,
                                     .writes = channel_bit(ChannelId::kFaces),
                                     .ms_accum = phase.ship_ms,
                                     .wait_ms_accum = phase.descriptor_wait_ms,
                                     .deliver_ms_accum = phase.deliver_ms});
  search_phases.push_back(
      AsyncPhase{.body = phase_e,
                 .reads = channel_bit(ChannelId::kFaces),
                 .writes = migrate ? migrate_mask : ChannelMask{0},
                 .ms_accum = phase.search_ms,
                 .wait_ms_accum = phase.search_wait_ms,
                 .deliver_ms_accum = phase.deliver_ms});
  if (migrate) {
    search_phases.push_back(AsyncPhase{.body = phase_f,
                                       .reads = migrate_mask,
                                       .ms_accum = phase.migrate_ms,
                                       .wait_ms_accum = phase.search_wait_ms,
                                       .deliver_ms_accum = phase.deliver_ms});
  }
  end_hits_.resize(static_cast<std::size_t>(nn));
  // deliveries #3, #4 (+ #5) inside (unreachable with a hang armed — the
  // first run already unwound — but the options are step-scoped)
  async_.run(search_phases, exchange_, fault_options);
  report.descriptor_broadcast_bytes =
      exchange_.take_bytes(ChannelId::kDescriptors);
  report.label_broadcast_bytes = exchange_.take_bytes(ChannelId::kLabels);
  report.search_exchange = exchange_.take_traffic(ChannelId::kFaces);
  report.face_payload_bytes = exchange_.take_bytes(ChannelId::kFaces);

  if (migrate) {
    // One take returns the shared migration cluster of both migrate ids.
    report.migration_exchange =
        exchange_.take_traffic(ChannelId::kMigrateNodes);
    report.migration_payload_bytes =
        exchange_.take_bytes(ChannelId::kMigrateNodes) +
        exchange_.take_bytes(ChannelId::kMigrateElements);
    for (const SubdomainState& st : states_) {
      report.repart_moved_nodes += st.moved_nodes_out;
      report.repart_moved_elements += st.moved_elements_out;
      report.migration_ranks_rebuilt += st.relabels.empty() ? 0 : 1;
    }
  }

  merge_rank_events(states_, report);

  // The step succeeded: its end state is the next step's start snapshot,
  // and the driver adopts the next epoch's map with the ranks.
  if (epochs[0] != nullptr) owner_ = epochs[0]->owner;
  start_hits_.swap(end_hits_);
  report.ownership_hash = ownership_hash(*owner_, start_hits_);
}

void DistributedSim::load_states(
    std::vector<idx_t> owner, std::vector<wgt_t> hits,
    const std::function<Vec3(idx_t)>& position_of) {
  // One phase without channels: a plain superstep that consumes no
  // exchange superstep, so the fault-schedule cursor stays where it is.
  owner_ = std::make_shared<const std::vector<idx_t>>(std::move(owner));
  states_.resize(static_cast<std::size_t>(k()));
  halo_providers_.resize(static_cast<std::size_t>(k()));
  const AsyncPhase load{.body = [&](idx_t r) {
    SubdomainState& st = states_[static_cast<std::size_t>(r)];
    st.init(topology(), r, owner_, k());
    for (std::size_t i = 0; i < st.local_nodes.size(); ++i) {
      st.positions[i] = position_of(st.local_nodes[i]);
    }
    for (std::size_t i = 0; i < st.owned_nodes().size(); ++i) {
      st.contact_hits[i] = hits[static_cast<std::size_t>(st.local_nodes[i])];
    }
    st.ghost_owners(halo_providers_[static_cast<std::size_t>(r)]);
  }};
  async_.run({&load, 1}, exchange_);
  start_hits_ = std::move(hits);
}

std::uint64_t DistributedSim::config_hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_value(h, k());
  h = fnv1a_value(h, config_.repartition_period);
  h = fnv1a_value(h, config_.repartition.seed);
  h = fnv1a_value(h, topology().num_nodes());
  h = fnv1a_value(h, topology().num_elements());
  return h;
}

CheckpointData DistributedSim::make_checkpoint_data() const {
  CheckpointData ck;
  ck.config_hash = config_hash();
  ck.step = steps_run_;
  ck.superstep = exchange_.next_superstep();
  ck.k = k();
  ck.node_owner = *owner_;
  ck.positions = gather_owned(*owner_, states_, &SubdomainState::positions);
  ck.contact_hits = start_hits_;
  return ck;
}

bool DistributedSim::commit_checkpoint(PipelineHealth& health,
                                       double& checkpoint_ms) {
  require(!config_.checkpoint_dir.empty(),
          "DistributedSim: checkpointing requires checkpoint_dir");
  Timer timer;
  if (store_ == nullptr) {
    store_ = std::make_unique<CheckpointStore>(config_.checkpoint_dir,
                                               *checkpoint_shim_);
  }
  const bool committed = store_->write(
      make_checkpoint_data(), config_.checkpoint_retry, &health.backoff_ms);
  ++(committed ? health.checkpoints_written : health.checkpoint_write_failures);
  checkpoint_ms += timer.milliseconds();
  return committed;
}

bool DistributedSim::restore_from_checkpoint() {
  if (store_ == nullptr) return false;
  std::optional<CheckpointData> ck = store_->load();
  // A decodable checkpoint from some other run (another configuration,
  // rank count or mesh size) shares the directory — unusable for this
  // instance; treat as no checkpoint at all.
  if (!ck.has_value() || ck->config_hash != config_hash() || ck->k != k() ||
      to_idx(ck->node_owner.size()) != topology().num_nodes()) {
    return false;
  }
  // Reload every rank state (suspend released them; after a rank death
  // they hold a dead attempt's data) from the checkpointed state.
  load_states(std::move(ck->node_owner), std::move(ck->contact_hits),
              [&](idx_t v) {
                return ck->positions[static_cast<std::size_t>(v)];
              });
  // Roll the cursors back: the step counter drives the migration cadence
  // and the rank-fault schedule; the exchange superstep cursor keys the
  // transport fault schedule, so the replayed deliveries re-draw exactly
  // the decisions of the original run.
  steps_run_ = ck->step;
  exchange_.set_next_superstep(ck->superstep);
  replay_pos_ = 0;
  return true;
}

bool DistributedSim::suspend(double* backoff_ms_accum) {
  if (suspended_) return true;
  PipelineHealth health;
  double checkpoint_ms = 0;
  const bool committed = commit_checkpoint(health, checkpoint_ms);
  if (backoff_ms_accum != nullptr) *backoff_ms_accum += health.backoff_ms;
  if (!committed) {
    // Keep-last-good: the previous checkpoint (if any) survives and the
    // rank states stay resident, so the sim remains runnable as if the
    // suspend was never asked for.
    return false;
  }
  // The checkpoint now IS the session. Drop the per-rank states — the
  // dominant resident cost — and the replay history: the commit above is
  // a zero-replay restore point, so resume never re-executes a step the
  // caller already saw.
  states_.clear();
  states_.shrink_to_fit();
  induced_descriptors_.reset();
  owner_ = std::make_shared<const std::vector<idx_t>>();
  start_hits_ = {};
  end_hits_ = {};
  gather_slot_ = {};
  gather_points_ = {};
  gather_labels_ = {};
  two_phase_graph_.reset();
  step_history_.clear();
  replay_pos_ = 0;
  suspended_ = true;
  return true;
}

bool DistributedSim::resume() {
  if (!suspended_) return true;
  // The rank-death recovery path, minus replay: the suspend commit was
  // taken at the current step. An unusable blob leaves the sim suspended,
  // its state intact on disk.
  if (!restore_from_checkpoint()) return false;
  suspended_ = false;
  return true;
}

std::size_t DistributedSim::resident_bytes() const {
  // Between steps every rank views owner_: the shared map counts once.
  std::size_t total = owner_->capacity() * sizeof(idx_t);
  std::vector<const SubdomainDescriptors*> trees;  // each shared tree once
  for (const SubdomainState& st : states_) {
    total += st.heap_bytes();
    const SubdomainDescriptors* tree = st.descriptors.get();
    if (tree != nullptr &&
        std::find(trees.begin(), trees.end(), tree) == trees.end()) {
      trees.push_back(tree);
      total += tree->heap_bytes();
    }
  }
  return total;
}

std::size_t DistributedSim::estimate_resident_bytes(idx_t num_nodes,
                                                    idx_t num_elements,
                                                    idx_t k) {
  // Shared: the one ownership map. Local sets: every node is owned
  // once and every element tracked at least once; the ghost layer (one
  // halo post per ghost) grows with the subdomains' total boundary,
  // fitted as 1.6 k^0.9 n^0.6 ghosts on the impact scenes (k = 4..100, 8k
  // to 49k nodes), and the elements tracked twice as half that. Per local
  // node: global id, position and mask; per owned node its hit counter;
  // per tracked element its id, its local connectivity (at most 8 ids)
  // and its owned-element entry; x1.5 for push_back growth slack. The
  // per-step products (face records, contact lists, search scratch with
  // its candidate grids) scale with the contact surface, modelled per
  // node, plus a fixed share per rank. The descriptors are two trees of
  // ~2 k n^0.25 nodes each: the one rank 0 induced and the one the other
  // ranks share, decoded from the broadcast.
  const double n = num_nodes;
  const double kk = static_cast<double>(k);
  const double ghosts =
      std::min((kk - 1) * n, 1.6 * std::pow(kk, 0.9) * std::pow(n, 0.6));
  const double owner_map = n * sizeof(idx_t);
  const double local_set =
      1.5 * ((n + ghosts) * (sizeof(idx_t) + sizeof(Vec3) + 1) +
             ghosts * sizeof(HaloSend) + n * sizeof(wgt_t) +
             (static_cast<double>(num_elements) + 0.5 * ghosts) * 10 *
                 sizeof(idx_t));
  const double per_step = 200.0 * n + 25e3 * kk;
  const double trees = 2 * sizeof(TreeNode) * 2 * kk * std::pow(n, 0.25);
  return static_cast<std::size_t>(owner_map + local_set + per_step + trees);
}

std::uint64_t DistributedSim::ownership_hash(
    std::span<const idx_t> owner, std::span<const wgt_t> hits) const {
  const std::uint64_t h = fnv1a_bytes(kFnvOffsetBasis, owner.data(),
                                      owner.size_bytes());
  return fnv1a_bytes(h, hits.data(), hits.size_bytes());
}

std::vector<idx_t> DistributedSim::ownership_map() const {
  require(!suspended_, "DistributedSim::ownership_map: sim is suspended");
  return *owner_;
}

std::vector<wgt_t> DistributedSim::gather_contact_hits() const {
  require(!suspended_, "DistributedSim::gather_contact_hits: sim is suspended");
  return gather_owned(*owner_, states_, &SubdomainState::contact_hits);
}

}  // namespace cpart
