// Wire codec for the repartition label broadcast (the labels channel's
// BytesMsg).
//
// A repartition changes the owner of a (usually small, spatially clustered)
// subset of nodes. The old transport shipped one 16-byte LabelUpdateMsg per
// changed node; this codec packs the whole batch into one blob:
//
//   varint update_count
//   update_count x { varint node_delta, varint owner }
//
// Updates are sorted by node id and delta-encoded (delta_0 = node_0,
// delta_i = node_i - node_{i-1}, so every delta after the first is >= 1).
// Changed nodes cluster along partition seams, so deltas are small and most
// updates cost 2-3 bytes — better than 5x under the fixed-width stream.
//
// decode_label_updates is the untrusted half: it bounds the declared count
// against the remaining bytes, rejects unsorted/duplicate node ids and
// trailing garbage, and throws TreeParseError (the step's "payload
// failed validation after transport accepted the frame" error, which the
// SPMD step catches to degrade the step).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace cpart {

/// One ownership change: node `first` now belongs to partition `second`.
/// What SubdomainState::note_relabels reads.
using LabelUpdate = std::pair<idx_t, idx_t>;

/// Encodes `updates` into a blob. Requires node ids strictly ascending and
/// both fields non-negative (the repartitioner emits them that way).
std::string encode_label_updates(const std::vector<LabelUpdate>& updates);

/// Decodes a blob produced by encode_label_updates. Throws TreeParseError
/// on truncation, overlong varints, non-ascending node ids, out-of-range
/// values, or trailing bytes.
std::vector<LabelUpdate> decode_label_updates(std::string_view blob);

}  // namespace cpart
