// Negative/fuzz tests for the descriptor-tree wire format: every corrupted
// wire — truncated, bit-flipped, garbage-extended, count-tampered — must
// raise the structured TreeParseError (or InputError for structural damage
// a clean scan still uncovers), never assert, crash, or return a partial
// tree. These are the wires the SPMD descriptor broadcast ships every step,
// so the parser is a trust boundary of the transport.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "tree/descriptor_tree.hpp"
#include "tree/tree_io.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace cpart {
namespace {

/// A small but real descriptor tree (several internal nodes, minority
/// lists), serialized through the production writer.
std::string real_wire() {
  std::vector<Vec3> points;
  std::vector<idx_t> labels;
  Rng rng(7);
  for (idx_t i = 0; i < 80; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    labels.push_back(i % 4);
  }
  DescriptorOptions options;
  options.dim = 3;
  const SubdomainDescriptors descriptors(points, labels, 4, options);
  return tree_to_binary(descriptors.tree());
}

class TreeIoBinaryFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { wire_ = real_wire(); }
  std::string wire_;
};

TEST_F(TreeIoBinaryFuzzTest, RoundTripSanity) {
  const DecisionTree parsed = tree_from_binary(wire_);
  EXPECT_GT(parsed.num_nodes(), 1);
  EXPECT_EQ(tree_to_binary(parsed), wire_);
  EXPECT_TRUE(trees_equal(parsed, tree_from_binary(tree_to_binary(parsed))));
  // The encode_tree / decode_tree forwards are the same codec.
  EXPECT_TRUE(trees_equal(decode_tree(wire_), parsed));
  EXPECT_EQ(encode_tree(parsed, TreeWireFormat::kBinary), wire_);
}

TEST_F(TreeIoBinaryFuzzTest, RandomizedRoundTripProperty) {
  // Property: encode/decode is the identity on every inducible tree —
  // randomized point clouds, label counts, dimensions, including trees
  // with impure leaves (minority lists) and the empty tree.
  Rng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    const idx_t n = 1 + rng.uniform_int(400);
    const idx_t num_labels = 1 + rng.uniform_int(7);
    std::vector<Vec3> pts;
    std::vector<idx_t> labels;
    for (idx_t i = 0; i < n; ++i) {
      // Coarse grid coordinates force coincident points, which makes
      // impure leaves (and so minority lists) likely.
      pts.push_back({std::floor(rng.uniform(0, 6)),
                     std::floor(rng.uniform(0, 6)),
                     std::floor(rng.uniform(0, 6))});
      labels.push_back(rng.uniform_int(num_labels));
    }
    TreeInduceOptions opts;
    opts.want_point_leaf = false;
    const InducedTree t = induce_tree(pts, labels, num_labels, opts);
    const std::string bin = tree_to_binary(t.tree);
    const DecisionTree back = tree_from_binary(bin);
    ASSERT_TRUE(trees_equal(t.tree, back)) << "iter=" << iter;
    ASSERT_EQ(tree_to_binary(back), bin) << "iter=" << iter;
  }
  // Empty tree.
  const InducedTree empty = induce_tree({}, {}, 1);
  EXPECT_TRUE(trees_equal(empty.tree,
                          tree_from_binary(tree_to_binary(empty.tree))));
}

TEST_F(TreeIoBinaryFuzzTest, GoldenBytesPinWireVersion) {
  // Byte-for-byte pin of version 1 of the cptb layout. If this test breaks,
  // the wire changed: bump kTreeBinaryVersion and re-pin — never ship a
  // layout change under the same version byte.
  std::vector<TreeNode> nodes(3);
  nodes[0].axis = 0;
  nodes[0].cut = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].label = 1;
  nodes[0].count = 3;
  nodes[0].bounds.lo = {0, 0, 0};
  nodes[0].bounds.hi = {1, 1, 1};
  nodes[1].axis = -1;
  nodes[1].label = 0;
  nodes[1].pure = true;
  nodes[1].count = 1;
  nodes[1].bounds.lo = {0, 0, 0};
  nodes[1].bounds.hi = {0.25, 1, 1};
  nodes[2].axis = -1;
  nodes[2].label = 1;
  nodes[2].pure = false;
  nodes[2].count = 2;
  nodes[2].bounds.lo = {0.5, 0, 0};
  nodes[2].bounds.hi = {1, 1, 1};
  const DecisionTree tree = assemble_tree(nodes, 0, {0, 0, 0, 1}, {0});
  const std::string bin = tree_to_binary(tree);
  std::string hex;
  for (unsigned char c : bin) {
    static const char digits[] = "0123456789abcdef";
    hex.push_back(digits[c >> 4]);
    hex.push_back(digits[c & 0xF]);
  }
  EXPECT_EQ(
      hex,
      "637074620103010000000000000000e03f0100000002000000010000000300000000"
      "0000000000000000000000000000000000000000000000000000000000f03f000000"
      "000000f03f000000000000f03fff010000000000000000ffffffffffffffff000000"
      "00010000000000000000000000000000000000000000000000000000000000000000"
      "00d03f000000000000f03f000000000000f03fff000000000000000000ffffffffff"
      "ffffff0100000002000000000000000000e03f000000000000000000000000000000"
      "00000000000000f03f000000000000f03f000000000000f03f00000100");
  EXPECT_TRUE(trees_equal(tree, tree_from_binary(bin)));
}

TEST_F(TreeIoBinaryFuzzTest, EmptyAndJunkInputs) {
  EXPECT_THROW(tree_from_binary(""), TreeParseError);
  EXPECT_THROW(tree_from_binary("cpt"), TreeParseError);
  EXPECT_THROW(tree_from_binary("cptx\x01"), TreeParseError);
  EXPECT_THROW(tree_from_binary("not a tree at all"), TreeParseError);
  EXPECT_THROW(tree_from_binary("cptb"), TreeParseError);  // no version
  std::string v2 = wire_;
  v2[4] = 2;  // unknown version byte
  EXPECT_THROW(tree_from_binary(v2), TreeParseError);
}

TEST_F(TreeIoBinaryFuzzTest, TruncationAtEveryRegionFails) {
  for (double frac : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const std::size_t cut =
        static_cast<std::size_t>(frac * static_cast<double>(wire_.size()));
    const std::string t = wire_.substr(0, cut);
    try {
      tree_from_binary(t);
      FAIL() << "truncation at " << cut << " parsed";
    } catch (const TreeParseError& e) {
      EXPECT_LE(e.byte_offset(), t.size()) << "cut=" << cut;
    } catch (const InputError&) {
      // Structurally invalid after a clean scan — equally acceptable.
    }
  }
  // Truncating whole trailing minority sections can scan cleanly only if
  // the node count still covers the records; dropping any record suffix
  // must fail. Chop exactly one byte:
  EXPECT_THROW(tree_from_binary(wire_.substr(0, wire_.size() - 1)),
               InputError);
}

TEST_F(TreeIoBinaryFuzzTest, TrailingBytesRejected) {
  EXPECT_THROW(tree_from_binary(wire_ + std::string(1, '\0')),
               TreeParseError);
  EXPECT_THROW(tree_from_binary(wire_ + "extra"), TreeParseError);
}

TEST_F(TreeIoBinaryFuzzTest, WrongNodeCountsFail) {
  // Re-frame the header with a tampered node count. Layout: magic(4) +
  // version(1) + varint count + varint root+1 + payload.
  std::size_t pos = 5;
  std::uint64_t true_count = 0;
  ASSERT_TRUE(read_varint(wire_, pos, true_count));
  const std::string head = wire_.substr(0, 5);
  const std::string tail = wire_.substr(pos);  // root varint onward
  const auto with_count = [&](std::uint64_t c) {
    std::string w = head;
    append_varint(w, c);
    w += tail;
    return w;
  };
  // Claiming more nodes than encoded: scanner runs out of input.
  EXPECT_THROW(tree_from_binary(with_count(true_count + 3)), TreeParseError);
  // An absurd count is rejected up front, bounded by the remaining bytes.
  EXPECT_THROW(tree_from_binary(with_count(999999999)), TreeParseError);
  EXPECT_THROW(tree_from_binary(with_count(std::uint64_t{1} << 40)),
               TreeParseError);
  // Claiming fewer nodes: surplus records become minority garbage or
  // trailing bytes; either structured rejection is fine.
  EXPECT_THROW(tree_from_binary(with_count(true_count - 1)), InputError);
}

TEST_F(TreeIoBinaryFuzzTest, SeededMutationSoakNeverCrashes) {
  // 400 random single-edit mutations (overwrite, delete, insert) of the
  // real binary wire: each must either parse to a tree or raise
  // InputError / TreeParseError — nothing else. Many overwrites land in
  // f64 payload bytes (cuts, bounds) and legitimately still scan;
  // transport-level detection of those is the checksum frame's job
  // (chaos_test), not the parser's.
  Rng rng(4321);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string t = wire_;
    const int edit = static_cast<int>(rng.uniform_int(3));
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_int(to_idx(t.size())));
    if (edit == 0) {
      t[i] = static_cast<char>(rng.uniform_int(256));
    } else if (edit == 1) {
      t.erase(i, 1 + static_cast<std::size_t>(rng.uniform_int(8)));
    } else {
      t.insert(i, std::string(1 + static_cast<std::size_t>(rng.uniform_int(4)),
                              static_cast<char>(rng.uniform_int(256))));
    }
    try {
      const DecisionTree tree = tree_from_binary(t);
      EXPECT_GE(tree.num_nodes(), 0);
      ++parsed;
    } catch (const InputError&) {  // includes TreeParseError
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 400);
  // Length edits always break the fixed-width framing; only same-length
  // payload overwrites can survive. The reject rate must reflect that.
  EXPECT_GT(rejected, 200);
}

}  // namespace
}  // namespace cpart
