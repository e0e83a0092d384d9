// Decision-tree serialization.
//
// In the parallel algorithm the descriptor tree is built once and
// "communicated to all the processors" (paper Section 4.1.1) — NTNodes
// measures exactly this cost. This module provides the wire format: a
// compact line-oriented text encoding with a round-trip guarantee, plus a
// structural-equality helper used by the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "tree/decision_tree.hpp"
#include "util/common.hpp"

namespace cpart {

/// Structured scan-level parse failure: truncated stream, non-numeric
/// token, trailing garbage, implausible counts. Carries the byte offset
/// into the wire text where scanning failed so a corrupt broadcast can be
/// localized. Structural failures after a clean scan (bad child indices,
/// cycles) still raise plain InputError from assemble_tree.
class TreeParseError : public InputError {
 public:
  TreeParseError(const std::string& msg, std::size_t byte_offset)
      : InputError(msg + " (at byte " + std::to_string(byte_offset) + ")"),
        byte_offset_(byte_offset) {}

  std::size_t byte_offset() const { return byte_offset_; }

 private:
  std::size_t byte_offset_;
};

void write_tree(std::ostream& os, const DecisionTree& tree);
std::string tree_to_string(const DecisionTree& tree);

/// Wire encodings of a descriptor tree. kText is the line-oriented decimal
/// format above (debuggable, ~1.6x larger, ~14x slower to encode); kBinary
/// is the versioned little-endian codec below (the only one the SPMD
/// broadcast ships). Both round-trip exactly; decode_tree() tells them
/// apart by magic.
enum class TreeWireFormat { kText, kBinary };

/// Version byte of the binary codec. Bump on ANY layout change (field
/// widths, record order, varint placement); decoders reject every version
/// they do not know, so mixed-version ranks fail loudly at parse time
/// instead of mis-reading records.
inline constexpr std::uint8_t kTreeBinaryVersion = 1;

/// Binary wire layout (all integers little-endian):
///   magic "cptb" (4 bytes) | version u8 | varint node_count |
///   varint root+1 | node_count fixed 74-byte records
///     (axis i8, pure u8, cut f64, left i32, right i32, label i32,
///      count i32, bounds lo/hi 6 x f64) |
///   node_count minority lists (varint count, then that many varint labels)
/// No trailing bytes. Counts are bounded by the remaining input before any
/// allocation; truncation, bad magic/version, overlong varints and trailing
/// garbage raise TreeParseError with the byte offset, exactly like the text
/// parser. Structural damage that survives a clean scan is still caught by
/// assemble_tree (InputError).
std::string tree_to_binary(const DecisionTree& tree);
DecisionTree tree_from_binary(std::string_view bytes);

/// Encodes in the requested format.
std::string encode_tree(const DecisionTree& tree, TreeWireFormat format);

/// Decodes either wire format, dispatching on the magic bytes.
DecisionTree decode_tree(const std::string& wire);

/// Parses the format produced by write_tree. Never trusts the wire: every
/// token conversion is checked, node/minority counts are bounded by the
/// remaining input, and trailing garbage is rejected. Throws TreeParseError
/// (with byte offset) on malformed text and InputError on structurally
/// inconsistent trees (bad child indices, cycles); never asserts and never
/// returns a partial tree.
DecisionTree read_tree(std::istream& is);
DecisionTree tree_from_string(const std::string& text);

/// Deep structural equality (topology, cuts, labels, bounds).
bool trees_equal(const DecisionTree& a, const DecisionTree& b);

/// Assembles a tree from raw node records (also used by read_tree).
/// Validates: root in range, children in range and acyclic, exactly the
/// leaf nodes have axis < 0, minority CSR sizes consistent.
DecisionTree assemble_tree(std::vector<TreeNode> nodes, idx_t root,
                           std::vector<idx_t> minority_offsets,
                           std::vector<idx_t> minority_labels);

}  // namespace cpart
