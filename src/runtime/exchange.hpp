// Typed message exchange between SPMD ranks — the transport layer of the
// per-rank contact pipeline.
//
// The pre-refactor pipelines computed every phase globally and *accounted*
// traffic through VirtualCluster as a parallel bookkeeping path. Here the
// ranks actually move typed payloads (halo node coordinates, serialized
// descriptor trees, shipped surface faces, gathered contact points, label
// broadcasts, migrated node and element state) through channels, and
// VirtualCluster sits underneath as the transport: the per-processor
// traffic matrices fall out of carrying the messages.
//
// Execution model: a rank phase writes only its own outbox row of each
// channel (rank-private cells — no locks). One delivery is one async group
// of the AsyncExecutor (runtime/async_executor.hpp): each destination rank
// validates its own column of the group's cells and commits them into its
// inbox in ascending source order (the deterministic delivery order),
// charging the phase clusters.
//
// The transport does not trust the wire. Every cell is framed (message
// count) and checksummed (FNV-1a, one round per logical wire field) at
// send time and validated per cell before anything reaches an inbox. Corrupt
// cells — whether injected by a seeded FaultInjector or caused by genuine
// memory corruption — are re-staged from the retained outbox and
// re-validated with bounded retries and exponential backoff; only when the
// budget is exhausted does the run throw TransportError, which
// DistributedSim catches to degrade the step (a fault-free rerun from the
// start-of-step snapshot).
// All detection and recovery activity is counted in PipelineHealth.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "geom/bbox.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/health.hpp"
#include "runtime/virtual_cluster.hpp"

namespace cpart {

// ---------------------------------------------------------------------------
// Message types. wire_bytes() is the size an MPI encoding of the message
// would put on the wire; it feeds the measured payload-byte reports.
// wire_hash() covers the same logical fields, one fnv1a_field round per
// field, and feeds the per-cell delivery checksum. The fault_* overloads
// are the FaultInjector's customization points (found by ADL) for
// message-level corruption.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a trivially copyable value's bytes, chained onto `h`.
template <typename S>
std::uint64_t fnv1a_value(std::uint64_t h, const S& value) {
  static_assert(std::is_trivially_copyable_v<S>);
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (std::size_t i = 0; i < sizeof(S); ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

/// FNV-1a mixing over a byte buffer, eight bytes per round (tail bytes
/// individually). Bulk payloads (the descriptor-tree broadcast is tens of
/// KB, checksummed at send AND at delivery validation) make the canonical
/// byte-at-a-time loop a measurable per-step cost; word mixing is ~8x
/// cheaper and detects every corruption class the transport injects: any
/// bit flip changes its word (xor then multiply-by-odd-prime is injective
/// mod 2^64), and truncation changes the size, which every caller hashes
/// ahead of the buffer.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof(word));
    h = (h ^ word) * kFnvPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

/// One FNV-1a round over a field of at most eight bytes, zero-extended
/// into one word as fnv1a_bytes mixes each full word. Message checksums
/// use it per logical field: a round is a bijection of its field (xor, then
/// multiply by an odd prime mod 2^64), so any corruption of one field
/// changes the hash, in one round where byte-wise mixing takes four to
/// eight. Not byte-compatible with fnv1a_value: the persisted hashes
/// (config hash, checkpoint checksum, ownership hash) keep fnv1a_value and
/// fnv1a_bytes.
template <typename S>
std::uint64_t fnv1a_field(std::uint64_t h, const S& field) {
  static_assert(std::is_trivially_copyable_v<S> &&
                sizeof(S) <= sizeof(std::uint64_t));
  std::uint64_t word = 0;
  std::memcpy(&word, &field, sizeof(S));
  return (h ^ word) * kFnvPrime;
}

inline std::uint64_t fnv1a_vec3(std::uint64_t h, const Vec3& v) {
  h = fnv1a_field(h, v.x);
  h = fnv1a_field(h, v.y);
  return fnv1a_field(h, v.z);
}

/// Flips one bit of a trivially copyable field, chosen by `r`.
template <typename S>
void flip_bit_in(S& value, std::uint64_t r) {
  static_assert(std::is_trivially_copyable_v<S>);
  auto* bytes = reinterpret_cast<unsigned char*>(&value);
  const std::uint64_t bit = r % (sizeof(S) * 8);
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
}

/// FE halo exchange: one boundary node's current position.
struct HaloNodeMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
};

inline wgt_t wire_bytes(const HaloNodeMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const HaloNodeMsg& m) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, m.node);
  return fnv1a_vec3(h, m.position);
}

inline void fault_bitflip(HaloNodeMsg& m, std::uint64_t r) {
  switch (r % 4) {
    case 0: flip_bit_in(m.node, r / 4); break;
    case 1: flip_bit_in(m.position.x, r / 4); break;
    case 2: flip_bit_in(m.position.y, r / 4); break;
    default: flip_bit_in(m.position.z, r / 4); break;
  }
}

inline bool fault_truncate_payload(HaloNodeMsg&, std::uint64_t) {
  return false;  // fixed-layout message: truncation cuts the cell tail
}

/// An encoded payload the transport treats as opaque bytes; the per-cell
/// frame and the byte-level fault hooks below never parse it. Two channels
/// carry it:
///   * descriptors: the serialized descriptor tree (tree_io binary codec,
///     exact double round-trip);
///   * labels: the repartition label broadcast, the changed entries of the
///     new labeling as one delta-varint blob (runtime/label_codec.hpp).
///     Rank 0 broadcasts a single batch; the ranks share one decode of it
///     (the updates and the next epoch's ownership map), whose map each
///     rank switches to at the commit superstep.
/// The bytes are one shared immutable buffer: a broadcast posts the same
/// buffer to all k - 1 destinations without copying it, and the fault hooks
/// copy on write, so a corrupted cell gets its own buffer and never changes
/// the bytes another destination reads.
struct BytesMsg {
  BytesMsg() = default;
  explicit BytesMsg(std::string payload)
      : bytes(std::make_shared<const std::string>(std::move(payload))) {}

  /// The payload (empty when `bytes` is null).
  std::string_view view() const {
    return bytes != nullptr ? std::string_view(*bytes) : std::string_view();
  }

  std::shared_ptr<const std::string> bytes;
};

inline wgt_t wire_bytes(const BytesMsg& m) {
  return static_cast<wgt_t>(m.view().size());
}

inline std::uint64_t wire_hash(const BytesMsg& m) {
  const std::string_view b = m.view();
  const std::uint64_t h = fnv1a_field(kFnvOffsetBasis, b.size());
  return fnv1a_bytes(h, b.data(), b.size());
}

inline void fault_bitflip(BytesMsg& m, std::uint64_t r) {
  if (m.view().empty()) return;
  std::string copy(m.view());
  const std::size_t i = static_cast<std::size_t>(r % copy.size());
  copy[i] = static_cast<char>(copy[i] ^ static_cast<char>(1 << ((r / 7) % 8)));
  m = BytesMsg(std::move(copy));
}

inline bool fault_truncate_payload(BytesMsg& m, std::uint64_t r) {
  const std::string_view b = m.view();
  if (b.empty()) return false;
  m = BytesMsg(
      std::string(b.substr(0, static_cast<std::size_t>(r % b.size()))));
  return true;
}

/// Hashes of the shared BytesMsg buffers one delivery has validated, so a
/// validation pass (one attempt) hashes each buffer once instead of once
/// per cell: the k - 1 cells of a broadcast carry the same buffer. An entry
/// holds its buffer, so no address is reused while it is a key; a new
/// superstep starts a new delivery and drops the old entries. Safe to call
/// concurrently (destinations validate their columns in parallel).
class SharedPayloadHashes {
 public:
  std::uint64_t hash(const BytesMsg& m, std::uint64_t superstep,
                     idx_t attempt) {
    std::lock_guard<std::mutex> lock(mu_);
    if (superstep != superstep_) {
      entries_.clear();
      superstep_ = superstep;
    }
    for (const Entry& e : entries_) {
      if (e.attempt == attempt && e.buffer == m.bytes) return e.hash;
    }
    const std::uint64_t h = wire_hash(m);
    entries_.push_back({m.bytes, attempt, h});
    return h;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  struct Entry {
    std::shared_ptr<const std::string> buffer;
    idx_t attempt = 0;
    std::uint64_t hash = 0;
  };
  std::mutex mu_;
  std::uint64_t superstep_ = 0;  // guarded by mu_
  std::vector<Entry> entries_;   // guarded by mu_
};

/// Element shipping: one surface face with its node ids and coordinates.
struct FaceShipMsg {
  idx_t face = kInvalidIndex;     // global surface-face index
  idx_t element = kInvalidIndex;  // owning mesh element
  std::int32_t num_nodes = 0;
  std::array<idx_t, 4> nodes{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex};
  std::array<Vec3, 4> coords{};
};

inline wgt_t wire_bytes(const FaceShipMsg& m) {
  return static_cast<wgt_t>(2 * sizeof(idx_t) + sizeof(std::int32_t)) +
         static_cast<wgt_t>(m.num_nodes) *
             static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const FaceShipMsg& m) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, m.face);
  h = fnv1a_field(h, m.element);
  h = fnv1a_field(h, m.num_nodes);
  for (idx_t id : m.nodes) h = fnv1a_field(h, id);
  for (const Vec3& c : m.coords) h = fnv1a_vec3(h, c);
  return h;
}

inline void fault_bitflip(FaceShipMsg& m, std::uint64_t r) {
  switch (r % 4) {
    case 0: flip_bit_in(m.face, r / 4); break;
    case 1: flip_bit_in(m.element, r / 4); break;
    case 2: flip_bit_in(m.nodes[(r / 4) % 4], r / 16); break;
    default: flip_bit_in(m.coords[(r / 4) % 4].x, r / 16); break;
  }
}

inline bool fault_truncate_payload(FaceShipMsg&, std::uint64_t) {
  return false;
}

/// Contact-point gather: one owned contact node's position, posted to the
/// rank that induces the step's descriptors.
struct ContactPointMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
};

inline wgt_t wire_bytes(const ContactPointMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const ContactPointMsg& m) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, m.node);
  return fnv1a_vec3(h, m.position);
}

inline void fault_bitflip(ContactPointMsg& m, std::uint64_t r) {
  if (r % 4 == 0) {
    flip_bit_in(m.node, r / 4);
  } else {
    flip_bit_in(m.position[static_cast<int>(r % 3)], r / 4);
  }
}

inline bool fault_truncate_payload(ContactPointMsg&, std::uint64_t) {
  return false;
}

/// Node-state migration: the authoritative per-node state a rank ships to
/// the node's new owner after a repartition (position plus the accumulated
/// contact-hit counter — the receiver must splice both, or the ownership
/// oracle diverges).
struct NodeMigrateMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
  wgt_t contact_hits = 0;
};

inline wgt_t wire_bytes(const NodeMigrateMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t) +
                            sizeof(wgt_t));
}

inline std::uint64_t wire_hash(const NodeMigrateMsg& m) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, m.node);
  h = fnv1a_vec3(h, m.position);
  return fnv1a_field(h, m.contact_hits);
}

inline void fault_bitflip(NodeMigrateMsg& m, std::uint64_t r) {
  switch (r % 5) {
    case 0: flip_bit_in(m.node, r / 5); break;
    case 1: flip_bit_in(m.position.x, r / 5); break;
    case 2: flip_bit_in(m.position.y, r / 5); break;
    case 3: flip_bit_in(m.position.z, r / 5); break;
    default: flip_bit_in(m.contact_hits, r / 5); break;
  }
}

inline bool fault_truncate_payload(NodeMigrateMsg&, std::uint64_t) {
  return false;
}

/// Element-record migration: one element's connectivity record re-homed to
/// the new majority owner of its nodes. The receiver validates the record
/// against its immutable topology before splicing.
struct ElementMigrateMsg {
  idx_t element = kInvalidIndex;
  std::int32_t num_nodes = 0;
  std::array<idx_t, 8> nodes{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex, kInvalidIndex};
};

inline wgt_t wire_bytes(const ElementMigrateMsg& m) {
  return static_cast<wgt_t>(sizeof(idx_t) + sizeof(std::int32_t)) +
         static_cast<wgt_t>(m.num_nodes) * static_cast<wgt_t>(sizeof(idx_t));
}

inline std::uint64_t wire_hash(const ElementMigrateMsg& m) {
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, m.element);
  h = fnv1a_field(h, m.num_nodes);
  for (idx_t id : m.nodes) h = fnv1a_field(h, id);
  return h;
}

inline void fault_bitflip(ElementMigrateMsg& m, std::uint64_t r) {
  switch (r % 3) {
    case 0: flip_bit_in(m.element, r / 3); break;
    case 1: flip_bit_in(m.num_nodes, r / 3); break;
    default: flip_bit_in(m.nodes[(r / 3) % 8], r / 24); break;
  }
}

inline bool fault_truncate_payload(ElementMigrateMsg&, std::uint64_t) {
  return false;
}

// ---------------------------------------------------------------------------
// Errors and retry policy
// ---------------------------------------------------------------------------

/// Thrown by AsyncExecutor::run when a delivery still has corrupt cells
/// after the full retry budget. DistributedSim catches it and completes the
/// step degraded, by a fault-free rerun.
class TransportError : public std::runtime_error {
 public:
  TransportError(const std::string& msg, std::uint64_t superstep,
                 idx_t attempts, idx_t corrupt_cells)
      : std::runtime_error(msg),
        superstep_(superstep),
        attempts_(attempts),
        corrupt_cells_(corrupt_cells) {}

  std::uint64_t superstep() const { return superstep_; }
  idx_t attempts() const { return attempts_; }
  idx_t corrupt_cells() const { return corrupt_cells_; }

 private:
  std::uint64_t superstep_;
  idx_t attempts_;
  idx_t corrupt_cells_;
};

struct RetryPolicy {
  /// Total delivery attempts per superstep (first try + retries).
  idx_t max_attempts = 4;
  /// Exponential backoff base applied between attempts. Accounted in
  /// PipelineHealth::backoff_ms (and the checkpoint store's backoff total),
  /// never slept: neither the in-process transport nor a local checkpoint
  /// directory has congestion to wait out.
  static constexpr double kBackoffBaseMs = 0.5;

  /// Doublings after which the backoff stops growing. 2^62 stays exactly
  /// representable as a double and inside std::uint64_t, so the shift is
  /// well-defined for every retry count instead of overflowing (shifting a
  /// 64-bit one by >= 64 is UB, and callers like the checkpoint store retry
  /// far past 64 attempts).
  static constexpr idx_t kBackoffSaturation = 62;

  /// Backoff before retry `retry` (0-based): base * 2^min(retry,
  /// saturation). Total so far grows linearly once saturated.
  double backoff_for(idx_t retry) const {
    const idx_t capped = retry < kBackoffSaturation ? retry : kBackoffSaturation;
    return kBackoffBaseMs * static_cast<double>(std::uint64_t{1} << capped);
  }
};

// ---------------------------------------------------------------------------
// TypedChannel
// ---------------------------------------------------------------------------

/// The type-free face of a TypedChannel: the three delivery operations
/// (documented there) that the Exchange's channel table drives.
class ChannelCells {
 public:
  virtual bool attempt_deliver_cell(FaultInjector* injector, ChannelId id,
                                    std::uint64_t superstep, idx_t attempt,
                                    idx_t from, idx_t to,
                                    PipelineHealth& health) = 0;
  virtual wgt_t commit_dst(idx_t to, VirtualCluster* transport) = 0;
  virtual void abort() = 0;

 protected:
  ~ChannelCells() = default;  // never deleted through the interface
};

/// A k-rank point-to-point channel for messages of type T.
///
/// send() may be called concurrently by different source ranks: the outbox
/// cells are indexed (from, to), and rank r only ever writes row r. Each
/// cell carries a frame (message count + running FNV-1a checksum) built at
/// send time. Delivery is two-phase and per destination:
/// attempt_deliver_cell() validates one pending cell against the frame —
/// the outbox itself, or a copy a FaultInjector corrupted, so the outbox
/// stays pristine and a corrupt cell can be re-staged; commit_dst() then
/// moves the validated outboxes into one inbox in ascending source order
/// and charges the transport.
template <typename T>
class TypedChannel final : public ChannelCells {
 public:
  void resize(idx_t k) {
    require(k >= 1, "TypedChannel: k must be >= 1");
    k_ = k;
    cells_.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                  Cell{});
    inboxes_.assign(static_cast<std::size_t>(k), {});
  }

  /// Posts `item` from rank `from` to rank `to`. Self-sends are local data
  /// and are dropped, matching VirtualCluster::send.
  void send(idx_t from, idx_t to, T item) {
    require(from >= 0 && from < k_ && to >= 0 && to < k_,
            "TypedChannel::send: rank out of range");
    if (from == to) return;
    const std::uint64_t item_hash = wire_hash(item);
    post(from, to, std::move(item), item_hash);
  }

  /// Posts `item` from `from` to every other rank. The frame checksum of
  /// the (identical) copies is computed once, not per destination. A
  /// BytesMsg copy shares its buffer, so a bulk payload like the descriptor
  /// tree is neither copied per destination nor, at delivery, hashed per
  /// cell (see SharedPayloadHashes).
  void broadcast(idx_t from, const T& item) {
    require(from >= 0 && from < k_, "TypedChannel::broadcast: rank out of range");
    const std::uint64_t item_hash = wire_hash(item);
    for (idx_t to = 0; to < k_; ++to) {
      if (to != from) post(from, to, item, item_hash);
    }
  }

  /// One validation attempt of the single (from, to) cell: recomputes
  /// count + checksum over the wire — the outbox, or a corrupted copy when
  /// `injector` is non-null and decides to corrupt it (the outbox stays
  /// pristine) — keying the injector decision on (channel, superstep,
  /// attempt, from, to). Returns true when the cell is staged OK (empty
  /// cells validate trivially); detection counters accumulate into
  /// `health`, whatever scratch the caller owns. Safe to call concurrently
  /// for distinct cells.
  bool attempt_deliver_cell(FaultInjector* injector, ChannelId id,
                            std::uint64_t superstep, idx_t attempt, idx_t from,
                            idx_t to, PipelineHealth& health) override {
    Cell& cell = cells_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(k_) +
                        static_cast<std::size_t>(to)];
    if (cell.staged_ok) return true;
    if (cell.count == 0) {
      cell.staged_ok = true;
      return true;
    }
    // The wire is the outbox itself: nothing between us and the inbox can
    // corrupt it except genuine in-process memory corruption, which the
    // checksum below still detects (and which no retry could fix). Only a
    // cell the injector decides to corrupt goes through a copy, which the
    // injector corrupts while the outbox stays pristine for the retry.
    const bool corrupt =
        injector != nullptr &&
        injector->corrupts_cell(id, superstep, attempt, from, to);
    if (corrupt) {
      cell.corrupted.assign(cell.items.begin(), cell.items.end());
      injector->maybe_corrupt(id, superstep, attempt, from, to,
                              cell.corrupted);
    }
    const std::vector<T>& wire = corrupt ? cell.corrupted : cell.items;
    std::uint64_t h = kFnvOffsetBasis;
    for (const T& item : wire) {
      h = (h ^ validation_hash(item, superstep, attempt)) * kFnvPrime;
    }
    const bool count_ok = to_idx(wire.size()) == cell.count;
    const bool hash_ok = h == cell.hash;
    if (count_ok && hash_ok) {
      // commit_dst() moves the validated wire out of the outbox: a
      // corrupted copy that still validates is delivered as it is.
      if (corrupt) cell.items.swap(cell.corrupted);
      cell.staged_ok = true;
      return true;
    }
    ChannelHealth& ch = health.channel(id);
    ++ch.corrupt_cells;
    ++health.corrupt_cells;
    if (!count_ok) {
      ++ch.count_mismatches;
      ++health.count_mismatches;
    } else {
      ++ch.checksum_failures;
      ++health.checksum_failures;
    }
    ch.redelivered_bytes += cell.bytes;
    health.redelivered_bytes += cell.bytes;
    return false;
  }

  /// Per-destination commit: assembles rank `to`'s inbox from its validated
  /// cells' outboxes in ascending source order, charges `transport`, resets
  /// the column's cells, and returns the payload bytes moved. The caller
  /// guarantees every non-empty cell of the column is staged_ok. Concurrent
  /// calls for different `to` are safe: they touch disjoint cells, inboxes,
  /// and transport matrix entries (VirtualCluster::send writes only
  /// matrix[from * k + to]).
  wgt_t commit_dst(idx_t to, VirtualCluster* transport) override {
    wgt_t bytes = 0;
    auto& inbox = inboxes_[static_cast<std::size_t>(to)];
    inbox.clear();
    for (idx_t from = 0; from < k_; ++from) {
      Cell& cell = cells_[static_cast<std::size_t>(from) *
                              static_cast<std::size_t>(k_) +
                          static_cast<std::size_t>(to)];
      if (cell.count > 0) {
        inbox.insert(inbox.end(),
                     std::make_move_iterator(cell.items.begin()),
                     std::make_move_iterator(cell.items.end()));
        if (transport != nullptr) transport->send(from, to, cell.count);
        bytes += cell.bytes;
      }
      cell.reset();
    }
    return bytes;
  }

  /// Drops all pending outboxes, corrupted copies, and inboxes (degraded-mode
  /// cleanup after an exhausted delivery).
  void abort() override {
    for (Cell& cell : cells_) cell.reset();
    for (auto& inbox : inboxes_) inbox.clear();
    shared_hashes_.clear();
  }

  /// Messages delivered to `rank` last superstep, ascending source order.
  const std::vector<T>& inbox(idx_t rank) const {
    return inboxes_[static_cast<std::size_t>(rank)];
  }

 private:
  /// One message's term of the delivery-side cell fold: wire_hash, through
  /// the per-pass memo for shared BytesMsg buffers.
  std::uint64_t validation_hash(const T& item, std::uint64_t superstep,
                                idx_t attempt) {
    if constexpr (std::is_same_v<T, BytesMsg>) {
      return shared_hashes_.hash(item, superstep, attempt);
    } else {
      return wire_hash(item);
    }
  }

  /// Shared body of send()/broadcast(): folds a precomputed item hash into
  /// the cell's send-side frame and appends the item to the outbox.
  void post(idx_t from, idx_t to, T item, std::uint64_t item_hash) {
    Cell& cell = cells_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(k_) +
                        static_cast<std::size_t>(to)];
    cell.bytes += wire_bytes(item);
    cell.hash = (cell.hash ^ item_hash) * kFnvPrime;
    ++cell.count;
    cell.items.push_back(std::move(item));
  }

  // Both buffers keep their capacity across steps (reset() clears them).
  struct Cell {
    std::vector<T> items;      // outbox, retained until committed
    std::vector<T> corrupted;  // the injector's copy, for cells it corrupts
    wgt_t bytes = 0;
    std::uint64_t hash = kFnvOffsetBasis;  // send-side frame checksum
    idx_t count = 0;                       // send-side frame message count
    bool staged_ok = false;

    void reset() {
      items.clear();
      corrupted.clear();
      bytes = 0;
      hash = kFnvOffsetBasis;
      count = 0;
      staged_ok = false;
    }
  };

  idx_t k_ = 0;
  std::vector<Cell> cells_;  // k*k, row = source rank
  std::vector<std::vector<T>> inboxes_;
  SharedPayloadHashes shared_hashes_;  // used by BytesMsg channels only
};

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

/// The channel bundle one step runs over, with the VirtualCluster
/// transports underneath. Every per-channel concern is one table indexed by
/// ChannelId: the channel's cells, the cluster its commits charge, and its
/// payload-byte accumulator. The constructor fills the table; four traffic
/// groups fill the traffic fields of the step report:
///   * halo             -> fe cluster       (units == fe_halo_traffic)
///   * faces            -> search cluster   (units == NRemote shipping)
///   * coupling_forward -> coupling cluster (the contact-point gather);
///   * migrate_nodes + migrate_elements -> one shared migration cluster
///     (units == migrated records, the repartition redistribution volume);
/// descriptor and label broadcasts move bytes but are charged to no
/// cluster — the report carries them as byte counts, not
/// StepTraffic. Retired ids have no entry.
class Exchange {
 public:
  explicit Exchange(idx_t k);
  // The table points into this object's own members.
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  idx_t num_ranks() const { return k_; }

  TypedChannel<BytesMsg>& descriptors() { return descriptors_; }
  TypedChannel<HaloNodeMsg>& halo() { return halo_; }
  TypedChannel<FaceShipMsg>& faces() { return faces_; }
  TypedChannel<ContactPointMsg>& coupling_forward() { return coupling_forward_; }
  TypedChannel<BytesMsg>& labels() { return labels_; }
  TypedChannel<NodeMigrateMsg>& migrate_nodes() { return migrate_nodes_; }
  TypedChannel<ElementMigrateMsg>& migrate_elements() {
    return migrate_elements_;
  }

  /// Arms (or disarms, with nullptr) fault injection on every channel.
  /// Non-owning; the injector must outlive the exchange's use of it.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Clears every channel, the phase clusters, and the byte accumulators —
  /// but not the health counters. Used by the degraded path so the next
  /// step starts from a clean transport.
  void abort_step();

  // -------------------------------------------------------------------------
  // Channel-granular delivery (AsyncExecutor). A "group" is one ChannelMask
  // a consuming phase reads: one delivery. The executor validates and
  // commits each destination's cells independently, then folds the group's
  // accounting here. Channels outside the group are untouched — pending
  // outboxes stay pending, last-committed inboxes stay readable.
  // -------------------------------------------------------------------------

  /// Superstep id the next delivery will key its fault decisions on. The
  /// groups of one run are numbered consecutively from this value in group
  /// order.
  std::uint64_t next_superstep() const { return superstep_; }

  /// Rewinds (or advances) the superstep cursor. Checkpoint recovery
  /// restores the cursor recorded at checkpoint time so a replayed step
  /// keys the exact fault schedule of the original run — the determinism
  /// that makes replay bit-identical under an armed injector.
  void set_next_superstep(std::uint64_t superstep) { superstep_ = superstep; }

  /// One validation attempt of the (from, to) cell of channel `id` at
  /// (superstep, attempt), which with (from, to) is the injector decision
  /// key. Detection counters accumulate into `health`, a caller-private scratch
  /// folded later by async_fold_group. Returns true when the cell staged OK.
  /// Thread-safe for distinct cells.
  bool async_validate_cell(ChannelId id, std::uint64_t superstep,
                           idx_t attempt, idx_t from, idx_t to,
                           PipelineHealth& health) {
    return channel(id).attempt_deliver_cell(injector_, id, superstep, attempt,
                                            from, to, health);
  }

  /// Commits every staged cell addressed to `to` on channel `id` (ascending
  /// source order), charging the channel's phase cluster, and adds the
  /// payload bytes to `bytes` (caller-private scratch; async_fold_group
  /// moves them into the per-channel accumulators for counted groups only).
  /// Thread-safe for distinct `to`.
  void async_commit_dst(ChannelId id, idx_t to, wgt_t& bytes) {
    bytes += channel(id).commit_dst(to, cluster_of_[slot(id)]);
  }

  /// Accounting of one completed (or exhausted) async group, folded into
  /// the exchange: one delivery; `passes` validation passes (min(1 + max
  /// per-cell failures, max_attempts)); passes-1 retries with
  /// exponential-backoff accounting; the per-destination detection
  /// scratches merged in ascending rank order; and the per-destination
  /// payload bytes added to the per-channel accumulators. Advances the
  /// superstep counter by one. When `exhausted`, also counts the exhausted
  /// delivery — the caller then abort_step()s and throws TransportError.
  struct AsyncGroupAccounting {
    std::span<const PipelineHealth> dst_health;
    std::span<const std::array<wgt_t, kNumChannels>> dst_bytes;
    idx_t passes = 1;
    bool exhausted = false;
  };
  void async_fold_group(const AsyncGroupAccounting& acc);

  /// Health counters since the last take (reads reset them).
  PipelineHealth take_health() { return std::exchange(health_, {}); }

  /// Traffic of the cluster channel `id` charges, since the last take
  /// (finishing resets the cluster). The two migrate ids share a cluster,
  /// so one take returns both. Requires a charged channel.
  StepTraffic take_traffic(ChannelId id);

  /// Payload bytes channel `id` delivered since the last take (reads reset
  /// to 0).
  wgt_t take_bytes(ChannelId id) { return std::exchange(bytes_[slot(id)], 0); }

 private:
  static std::size_t slot(ChannelId id) {
    return static_cast<std::size_t>(static_cast<int>(id));
  }
  ChannelCells& channel(ChannelId id) {
    const std::size_t i = slot(id);
    require(i < channels_.size() && channels_[i] != nullptr,
            "Exchange: unknown or retired channel id");
    return *channels_[i];
  }

  idx_t k_;
  TypedChannel<BytesMsg> descriptors_;
  TypedChannel<HaloNodeMsg> halo_;
  TypedChannel<FaceShipMsg> faces_;
  TypedChannel<ContactPointMsg> coupling_forward_;
  TypedChannel<BytesMsg> labels_;
  TypedChannel<NodeMigrateMsg> migrate_nodes_;
  TypedChannel<ElementMigrateMsg> migrate_elements_;
  std::vector<VirtualCluster> clusters_;  // one per traffic group
  // The channel table, indexed by ChannelId; retired ids stay null / zero.
  std::array<ChannelCells*, kNumChannels> channels_{};
  std::array<VirtualCluster*, kNumChannels> cluster_of_{};  // null: uncharged
  std::array<wgt_t, kNumChannels> bytes_{};
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_{};
  PipelineHealth health_{};
  std::uint64_t superstep_ = 0;  // deliveries since construction
};

}  // namespace cpart
