// Deterministic, seeded fault injection for the exchange transport.
//
// The injector sits between a channel's outbox and its delivery validation:
// for every non-empty cell of every delivery attempt it makes a counter-based
// decision — a hash of (seed, superstep, attempt, channel, from, to), never
// of call order or wall clock — whether to corrupt the staged wire copy, and
// with which fault kind. The same seed therefore produces the identical
// fault schedule at any thread count and on every rerun, which is what lets
// the chaos tests assert bit-identical recovery and exact health counters.
//
// Faults mutate only the wire copy the channel stages for delivery; the
// sender's outbox is retained untouched until the cell validates, so a
// retried delivery re-stages pristine data (a fresh decision is made per
// attempt — persistent schedules can exhaust the retry budget on purpose).
//
// All five kinds are detectable by the cell framing (message count) plus the
// FNV-1a payload checksum:
//   drop, duplicate, truncate(tail) -> count mismatch
//   bit-flip, reorder, truncate(payload) -> checksum mismatch
//
// corrupts_cell() exposes that decision as a const query, so a channel
// stages a wire copy only for the cells it will corrupt. maybe_corrupt()
// is thread-safe: the decision itself is a pure function of the tuple (no
// shared state), and the stats counters are commutative sums
// recorded with atomic increments — under the async executor concurrent
// rank programs validate their own inbox cells, so decisions land from
// several threads at once. Totals are exact and schedule-independent.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "runtime/health.hpp"
#include "util/atomic_file.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace cpart {

enum class FaultKind : int {
  kDrop = 0,      // remove one message from the cell
  kDuplicate,     // deliver one message twice
  kTruncate,      // short read: cut the cell tail (or a message's payload)
  kBitFlip,       // flip one bit inside one message
  kReorder,       // swap two messages (delivery-order corruption)
};

inline constexpr int kNumFaultKinds = 5;

const char* fault_kind_name(FaultKind kind);

/// Whole-rank faults: a rank program that dies mid-step (throws before
/// producing its sends) or hangs (never runs, never closes its rows — the
/// watchdog's job to detect). Decided per (step, rank, incarnation), where
/// the incarnation counts recovery restarts: a replayed step is a new
/// incarnation, so the same schedule does not re-kill the rank forever.
enum class RankFaultKind : int {
  kNone = 0,
  kDeath,
  kHang,
};

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Probability that a given non-empty cell is corrupted on a given
  /// delivery attempt. 0 disables injection entirely.
  double cell_fault_probability = 0.0;
  /// Relative weights of the fault kinds (need not sum to 1).
  std::array<double, kNumFaultKinds> kind_weights{1, 1, 1, 1, 1};
  /// Per-(step, rank) probability that the rank dies this step (throws out
  /// of its phase body). Applies to incarnation 0 only — replays survive.
  double rank_death_probability = 0.0;
  /// Explicit one-shot kill: rank `kill_rank` fails at step `kill_step`
  /// (incarnation 0 only). kInvalidIndex disables. Combines with the
  /// probabilistic schedule above.
  idx_t kill_rank = kInvalidIndex;
  idx_t kill_step = kInvalidIndex;
  /// When true the explicit kill hangs instead of dying: the rank never
  /// publishes, and only the executor watchdog can unblock the run.
  bool kill_hang = false;
};

class FaultInjector {
 public:
  /// What the injector actually did (decisions that hit an eligible cell).
  /// The chaos tests assert these match the detection counters in
  /// PipelineHealth exactly: every injected fault is detected, and nothing
  /// is detected that was not injected.
  struct Stats {
    wgt_t faults_injected = 0;
    std::array<wgt_t, kNumFaultKinds> by_kind{};
    std::array<wgt_t, kNumChannels> by_channel{};
    wgt_t rank_deaths = 0;
    wgt_t rank_hangs = 0;

    bool operator==(const Stats&) const = default;
  };

  explicit FaultInjector(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// Whole-rank fault decision for (step, rank, incarnation) — a pure
  /// function of the tuple and the seed, independent of thread count and of
  /// everything the cell-fault schedule draws. The explicit kill_rank /
  /// kill_step pair fires at incarnation 0 only, as does the probabilistic
  /// schedule: a replayed step must be survivable or recovery could never
  /// make progress.
  RankFaultKind rank_fault(idx_t step, idx_t rank, idx_t incarnation) const;

  /// Counts an armed whole-rank fault into the stats (the step driver calls
  /// this once per rank it actually sabotages).
  void record_rank_fault(RankFaultKind kind);

  /// The cell-fault decision for (channel, superstep, attempt, from, to): a
  /// pure function of the tuple and the seed. maybe_corrupt() applies a
  /// fault to a non-empty wire exactly when this is true.
  bool corrupts_cell(ChannelId channel, std::uint64_t superstep, idx_t attempt,
                     idx_t from, idx_t to) const;

  /// Decides deterministically whether to corrupt `wire` (the staged copy of
  /// one cell) and applies at most one fault. Returns true when a fault was
  /// applied: when `wire` is non-empty and corrupts_cell() holds.
  template <typename T>
  bool maybe_corrupt(ChannelId channel, std::uint64_t superstep, idx_t attempt,
                     idx_t from, idx_t to, std::vector<T>& wire) {
    if (wire.empty() || !corrupts_cell(channel, superstep, attempt, from, to)) {
      return false;
    }
    Rng rng(decision_seed(channel, superstep, attempt, from, to));
    rng.uniform();  // the draw corrupts_cell() decided on
    FaultKind kind = pick_kind(rng);
    // A reorder needs two messages to be observable; demote to a drop so
    // every injected fault is guaranteed detectable (stats record what was
    // actually applied).
    if (kind == FaultKind::kReorder && wire.size() < 2) {
      kind = FaultKind::kDrop;
    }
    apply(kind, rng, wire);
    record(kind, channel);
    return true;
  }

 private:
  std::uint64_t decision_seed(ChannelId channel, std::uint64_t superstep,
                              idx_t attempt, idx_t from, idx_t to) const;
  FaultKind pick_kind(Rng& rng) const;
  void record(FaultKind kind, ChannelId channel);

  template <typename T>
  static void apply(FaultKind kind, Rng& rng, std::vector<T>& wire) {
    const idx_t n = to_idx(wire.size());
    switch (kind) {
      case FaultKind::kDrop:
        wire.erase(wire.begin() + rng.uniform_int(n));
        return;
      case FaultKind::kDuplicate: {
        const idx_t i = rng.uniform_int(n);
        wire.insert(wire.begin() + i, wire[static_cast<std::size_t>(i)]);
        return;
      }
      case FaultKind::kTruncate: {
        // Prefer truncating one message's own payload (variable-length
        // messages define fault_truncate_payload via ADL); otherwise model a
        // short read by cutting the cell tail.
        const idx_t i = rng.uniform_int(n);
        if (fault_truncate_payload(wire[static_cast<std::size_t>(i)],
                                   rng.next())) {
          return;
        }
        wire.resize(static_cast<std::size_t>(rng.uniform_int(n)));
        return;
      }
      case FaultKind::kBitFlip:
        fault_bitflip(wire[static_cast<std::size_t>(rng.uniform_int(n))],
                      rng.next());
        return;
      case FaultKind::kReorder: {
        const idx_t i = rng.uniform_int(n);
        idx_t j = rng.uniform_int(n - 1);
        if (j >= i) ++j;
        std::swap(wire[static_cast<std::size_t>(i)],
                  wire[static_cast<std::size_t>(j)]);
        return;
      }
    }
  }

  FaultConfig config_;
  Stats stats_;
};

/// Seeded I/O fault schedule for FaultyFileShim. Decisions are counter-based
/// (a hash of the seed and the per-shim operation index), so a fixed
/// sequence of file operations draws a reproducible fault schedule.
struct IoFaultConfig {
  std::uint64_t seed = 1;
  /// Probability that a write_file() fails — split evenly between a short
  /// write (a prefix lands on disk before the failure is reported) and an
  /// ENOSPC-style failure (nothing lands).
  double write_fault_probability = 0.0;
  /// Probability that a read_file() returns the payload with one bit
  /// flipped (silent media corruption; checksums must catch it).
  double read_bitflip_probability = 0.0;
};

/// A FileShim that injects I/O faults in front of a base shim. Used by the
/// checkpoint tests to prove the durable-commit protocol never loses the
/// last-good checkpoint: failed and torn writes surface as write_file /
/// rename_file returning false (or leaving a prefix under the temp name),
/// and flipped reads surface as checksum rejections at load.
class FaultyFileShim : public FileShim {
 public:
  struct Stats {
    wgt_t short_writes = 0;
    wgt_t enospc_failures = 0;
    wgt_t read_bitflips = 0;
    wgt_t dropped_renames = 0;

    bool operator==(const Stats&) const = default;
  };

  explicit FaultyFileShim(const IoFaultConfig& config,
                          FileShim& base = FileShim::real());

  const Stats& stats() const { return stats_; }

  /// Arms a one-shot torn commit: the next rename_file() is skipped (the
  /// temp file stays, the final name keeps its old content) — the exact
  /// state a crash between temp write and rename leaves behind.
  void fail_next_rename() { fail_next_rename_ = true; }

  bool write_file(const std::string& path, const std::string& bytes) override;
  bool sync_file(const std::string& path) override;
  bool rename_file(const std::string& from, const std::string& to) override;
  bool read_file(const std::string& path, std::string& out) override;
  bool remove_file(const std::string& path) override;

 private:
  IoFaultConfig config_;
  FileShim& base_;
  std::uint64_t op_counter_ = 0;
  bool fail_next_rename_ = false;
  Stats stats_;
};

}  // namespace cpart
