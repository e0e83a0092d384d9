#include "runtime/label_codec.hpp"

#include <limits>
#include <sstream>

#include "tree/tree_io.hpp"
#include "util/varint.hpp"

namespace cpart {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw TreeParseError("label blob: " + what, pos);
}

}  // namespace

std::string encode_label_updates(const std::vector<LabelUpdate>& updates) {
  std::string blob;
  // 1 count byte + typically 1 delta byte + 1-2 owner bytes per update.
  blob.reserve(1 + 3 * updates.size());
  append_varint(blob, static_cast<std::uint64_t>(updates.size()));
  idx_t prev = 0;
  bool first = true;
  for (const auto& [node, owner] : updates) {
    require(node >= 0 && owner >= 0,
            "encode_label_updates: negative node or owner");
    require(first || node > prev,
            "encode_label_updates: node ids must be strictly ascending");
    const idx_t delta = first ? node : node - prev;
    append_varint(blob, static_cast<std::uint64_t>(delta));
    append_varint(blob, static_cast<std::uint64_t>(owner));
    prev = node;
    first = false;
  }
  return blob;
}

std::vector<LabelUpdate> decode_label_updates(std::string_view blob) {
  constexpr auto kMaxIdx =
      static_cast<std::uint64_t>(std::numeric_limits<idx_t>::max());

  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!read_varint(blob, pos, count)) fail("bad update count", pos);
  // Each update is at least two bytes (delta + owner), so a count the
  // remaining bytes cannot carry is rejected before any allocation.
  if (count > (blob.size() - pos) / 2) {
    fail("declared count exceeds payload", pos);
  }

  std::vector<LabelUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  std::uint64_t node = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    std::uint64_t owner = 0;
    if (!read_varint(blob, pos, delta)) fail("bad node delta", pos);
    if (!read_varint(blob, pos, owner)) fail("bad owner", pos);
    if (i > 0 && delta == 0) fail("duplicate node id", pos);
    // Bound the delta before adding: node + delta can wrap in uint64 and
    // land below node, which would accept a descending id.
    if (delta > kMaxIdx - node || owner > kMaxIdx) {
      fail("value out of range", pos);
    }
    node += delta;
    updates.emplace_back(static_cast<idx_t>(node), static_cast<idx_t>(owner));
  }
  if (pos != blob.size()) fail("trailing bytes", pos);
  return updates;
}

}  // namespace cpart
