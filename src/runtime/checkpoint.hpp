// Durable checkpoint/restore for the rank-owned distributed simulation.
//
// A checkpoint captures everything DistributedSim needs to deterministically
// replay from a step boundary: the shared ownership map, the
// owner-authoritative per-node state (positions, contact-hit accumulators),
// the step index, the exchange's superstep cursor (the fault-schedule key —
// restoring it makes a replayed step draw the exact transport faults of the
// original run), and a hash of the configuration that produced the state.
// Ghost positions and all per-step products are derived state: the replay's
// first halo superstep rebuilds them, so they are not serialized.
//
// Format (version 1, little-endian; varints are the shared LEB128 codec of
// util/varint.hpp, checksums the FNV-1a of the exchange wire framing):
//   magic "cpck" (4 bytes) | version u8
//   varint config_hash | varint step | varint superstep
//   varint k | varint num_nodes
//   owner section: num_nodes varints, each < k
//   per-rank sections, rank 0..k-1:
//     varint owned_count (must equal the owner section's count for the rank)
//     per owned node, ascending id: 3 raw f64 (x, y, z) | varint hits
//   u64 checksum: FNV-1a over every preceding byte
// Decoding never trusts the input: bad magic/version, truncation, overlong
// varints, out-of-range owners/counts/hits, checksum mismatches and
// trailing garbage all throw InputError.
//
// CheckpointStore makes commits durable and atomic: the blob goes to a temp
// name, is fsynced and renamed into place, and only then does a manifest
// (same temp+fsync+rename protocol) start pointing at it — so a crash or an
// injected I/O fault anywhere in the sequence always leaves the previous
// manifest/checkpoint pair intact and loadable.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/exchange.hpp"
#include "util/atomic_file.hpp"
#include "util/common.hpp"

namespace cpart {

struct CheckpointData {
  /// Hash of the configuration that produced the state; load-time guard
  /// against restoring into a differently-configured run.
  std::uint64_t config_hash = 0;
  /// Steps completed when the checkpoint was taken (the next step to run).
  idx_t step = 0;
  /// Exchange superstep cursor at the step boundary.
  std::uint64_t superstep = 0;
  idx_t k = 0;
  std::vector<idx_t> node_owner;    // size num_nodes, values in [0, k)
  std::vector<Vec3> positions;      // authoritative entry per node
  std::vector<wgt_t> contact_hits;  // authoritative entry per node
};

/// Serializes `data` to the version-1 wire format (validates invariants
/// with require()).
std::string encode_checkpoint(const CheckpointData& data);

/// Parses a version-1 checkpoint blob; throws InputError on any hostile or
/// damaged input.
CheckpointData decode_checkpoint(std::string_view bytes);

/// Durable checkpoint directory: at most one live checkpoint, addressed by
/// a checksummed manifest. All file I/O goes through the injected FileShim
/// so tests can fault every primitive.
class CheckpointStore {
 public:
  /// `dir` is created if missing. The shim must outlive the store.
  explicit CheckpointStore(std::string dir,
                           FileShim& shim = FileShim::real());

  /// Commits `data` durably, retrying failed writes up to
  /// `retry.max_attempts` with saturating exponential backoff (recorded
  /// into *backoff_ms when non-null, never slept).
  /// Returns false when the budget is exhausted — the previous checkpoint
  /// is then still the one load() returns (keep-last-good).
  bool write(const CheckpointData& data, const RetryPolicy& retry,
             double* backoff_ms = nullptr);

  /// Loads the manifest's checkpoint. Returns nullopt when there is no
  /// durable checkpoint or anything on the read path fails validation —
  /// recovery treats both as "nothing to restore".
  std::optional<CheckpointData> load() const;

  const std::string& dir() const { return dir_; }
  std::string manifest_path() const;
  std::string checkpoint_path(idx_t step) const;

 private:
  bool commit_with_retry(const std::string& path, const std::string& bytes,
                         const RetryPolicy& retry, double* backoff_ms);

  std::string dir_;
  FileShim* shim_;
};

}  // namespace cpart
