// Tests for util/: RNG determinism and distribution, tables, flags, timers.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/seed_stream.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace cpart {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const idx_t v = rng.uniform_int(17);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 17);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  // The split stream must not replay the parent stream.
  Rng a2(5);
  EXPECT_NE(b.next(), a2.next());
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(11);
  const auto perm = random_permutation(50, rng);
  std::set<idx_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, PermutationNotIdentity) {
  Rng rng(13);
  const auto perm = random_permutation(100, rng);
  int fixed = 0;
  for (idx_t i = 0; i < 100; ++i) fixed += (perm[static_cast<size_t>(i)] == i);
  EXPECT_LT(fixed, 20);  // expected ~1 fixed point
}

TEST(SeedStream, DerivationIsPureAndKeyed) {
  constexpr SeedStream root(42);
  // Pure function of (seed, key): compile-time and runtime agree, repeated
  // calls agree.
  static_assert(SeedStream(42).derive(7) == seed_mix(42, 7));
  EXPECT_EQ(root.derive(7), root.derive(7));
  // Distinct keys open distinct domains; a split's stream is rooted at the
  // derived seed.
  EXPECT_NE(root.derive(7), root.derive(8));
  EXPECT_EQ(root.split(7).seed(), root.derive(7));
  // Hierarchy: the same key under different parents never collides.
  EXPECT_NE(root.split(1).derive(5), root.split(2).derive(5));
}

TEST(SeedStream, MixSpreadsNearbyKeys) {
  // SplitMix64 finalization: consecutive keys must land far apart — the
  // property per-session chaos schedules rely on (session keys are small
  // consecutive ordinals).
  std::set<std::uint64_t> seen;
  const SeedStream root(0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    seen.insert(root.derive(key));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions
  // Every derived seed differs from its neighbor in many bits.
  for (std::uint64_t key = 0; key + 1 < 100; ++key) {
    const std::uint64_t diff = root.derive(key) ^ root.derive(key + 1);
    int bits = 0;
    for (std::uint64_t d = diff; d != 0; d >>= 1) bits += d & 1;
    EXPECT_GT(bits, 10) << "keys " << key << "," << key + 1;
  }
}

TEST(Table, AlignedPrint) {
  Table t({"name", "value"});
  t.begin_row();
  t.add_cell("alpha");
  t.add_cell(static_cast<long long>(42));
  t.begin_row();
  t.add_cell("beta");
  t.add_cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.begin_row();
  t.add_cell(static_cast<long long>(1));
  t.add_cell(static_cast<long long>(2));
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CellAccessAndBounds) {
  Table t({"x"});
  t.begin_row();
  t.add_cell("v");
  EXPECT_EQ(t.cell(0, 0), "v");
  EXPECT_THROW(t.cell(1, 0), InputError);
  EXPECT_THROW(t.cell(0, 1), InputError);
}

TEST(Table, AddCellBeforeRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.add_cell("v"), InputError);
}

TEST(Flags, ParseFormsAndDefaults) {
  Flags f;
  f.define("k", "25", "partitions");
  f.define("eps", "0.1", "imbalance");
  f.define_bool("verbose", false, "chatty");
  const char* argv[] = {"prog", "--k", "100", "--eps=0.05", "--verbose"};
  const auto rest = f.parse(5, argv);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(f.get_int("k"), 100);
  EXPECT_DOUBLE_EQ(f.get_double("eps"), 0.05);
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, UnknownFlagThrows) {
  Flags f;
  f.define("k", "1", "");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_THROW(f.parse(3, argv), InputError);
}

TEST(Flags, MissingValueThrows) {
  Flags f;
  f.define("k", "1", "");
  const char* argv[] = {"prog", "--k"};
  EXPECT_THROW(f.parse(2, argv), InputError);
}

TEST(Flags, BadIntThrows) {
  Flags f;
  f.define("k", "1", "");
  const char* argv[] = {"prog", "--k", "abc"};
  f.parse(3, argv);
  EXPECT_THROW(f.get_int("k"), InputError);
}

TEST(Flags, PositionalArgsReturned) {
  Flags f;
  f.define("k", "1", "");
  const char* argv[] = {"prog", "input.mesh", "--k", "2", "out.svg"};
  const auto rest = f.parse(5, argv);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], "input.mesh");
  EXPECT_EQ(rest[1], "out.svg");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(1.5), "1.50 s");
  EXPECT_EQ(format_duration(0.0123), "12.30 ms");
  EXPECT_EQ(format_duration(0.0000051), "5.10 us");
}

TEST(Common, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

TEST(Common, RequireThrowsWithMessage) {
  try {
    require(false, "boom");
    FAIL() << "require did not throw";
  } catch (const InputError& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Common, RequireMessageFromLiteralBuiltStringAndView) {
  EXPECT_NO_THROW(require(true, "never thrown"));
  const auto message_of = [](auto&& msg) -> std::string {
    try {
      require(false, msg);
    } catch (const InputError& e) {
      return e.what();
    }
    return "<no throw>";
  };
  EXPECT_EQ(message_of("a literal message"), "a literal message");
  const std::string built = "built for vertex " + std::to_string(42);
  EXPECT_EQ(message_of(built), "built for vertex 42");
  EXPECT_EQ(message_of("temporary " + std::to_string(7)), "temporary 7");
  // A view that is not NUL-terminated keeps exactly its own characters.
  const std::string_view head =
      std::string_view("prefix-and-tail").substr(0, 6);
  EXPECT_EQ(message_of(head), "prefix");
}

}  // namespace
}  // namespace cpart
