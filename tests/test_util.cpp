// Unit tests for the util module: checks, stats, tables, strings, PRNG,
// cache-line helpers.
#include <gtest/gtest.h>

#include <sstream>
#include <cstring>
#include <vector>

#include "util/cacheline.h"
#include "util/check.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/table.h"

namespace xhc::util {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    XHC_CHECK(1 == 2, "value was ", 42);
    FAIL() << "did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(XHC_CHECK(2 + 2 == 4, "fine"));
  EXPECT_NO_THROW(XHC_REQUIRE(true));
}

TEST(Stats, EmptyIsZero) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MeanMinMax) {
  Stats s;
  for (const double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, VarianceMatchesDefinition) {
  Stats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev() * s.stddev(), s.variance(), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.9), 5.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Stats, PercentileEmptyThrowsForEveryQ) {
  EXPECT_THROW(percentile({}, 0.0), Error);
  EXPECT_THROW(percentile({}, 1.0), Error);
}

TEST(Stats, PercentileRejectsNegativeQ) {
  EXPECT_THROW(percentile({1.0, 2.0}, -0.1), Error);
}

TEST(Stats, PercentileSingleSampleIsConstant) {
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 1.0), 7.5);
}

TEST(Stats, PercentileSortsUnorderedInput) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 1.0), 9.0);
}

TEST(Stats, VarianceUndefinedBelowTwoSamples) {
  Stats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.variance(), 0.0);  // n-1 denominator would divide by zero
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  s.add(42.0);  // two identical samples: defined, and exactly zero
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Table, AlignsAndCounts) {
  Table t({"A", "Bee"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("longer"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"A", "B"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "A,B\n1,2\n");
}

TEST(Table, FormatsBytes) {
  EXPECT_EQ(Table::fmt_bytes(4), "4");
  EXPECT_EQ(Table::fmt_bytes(2048), "2K");
  EXPECT_EQ(Table::fmt_bytes(3 << 20), "3M");
  EXPECT_EQ(Table::fmt_bytes(1500), "1500");  // not a whole K
}

TEST(Str, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Str, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(join({}, "+"), "");
}

TEST(Str, ParseSizeSuffixes) {
  EXPECT_EQ(parse_size("4"), 4u);
  EXPECT_EQ(parse_size("2K"), 2048u);
  EXPECT_EQ(parse_size("1m"), 1048576u);
  EXPECT_EQ(parse_size("1G"), 1073741824u);
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("K").has_value());
  EXPECT_FALSE(parse_size("12x").has_value());
}

TEST(Str, ArgsParsing) {
  const char* argv[] = {"prog", "--quick", "--n=42", "--rate=1.5"};
  Args args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("slow"));
  EXPECT_EQ(args.get_long("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1.5);
  EXPECT_EQ(args.get("missing", "def"), "def");
}

TEST(Prng, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, FillPatternSeedSensitive) {
  std::vector<std::byte> a(100);
  std::vector<std::byte> b(100);
  fill_pattern(a.data(), a.size(), 1);
  fill_pattern(b.data(), b.size(), 2);
  EXPECT_NE(std::memcmp(a.data(), b.data(), a.size()), 0);
  fill_pattern(b.data(), b.size(), 1);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

TEST(Prng, FillPatternOddLengths) {
  // Exercise the sub-word tail path.
  for (const std::size_t len : {1u, 3u, 7u, 9u, 15u}) {
    std::vector<std::byte> buf(len + 1, std::byte{0xEE});
    fill_pattern(buf.data(), len, 5);
    EXPECT_EQ(buf[len], std::byte{0xEE}) << "overwrote past end, len=" << len;
  }
}

/// The byte loop fill_pattern ran before it stored whole words: the oracle
/// its output must match byte for byte.
void fill_pattern_oracle(unsigned char* p, std::size_t bytes,
                         std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::size_t i = 0;
  while (i + 8 <= bytes) {
    const std::uint64_t v = rng.next();
    for (int b = 0; b < 8; ++b) {
      p[i + static_cast<std::size_t>(b)] =
          static_cast<unsigned char>(v >> (8 * b));
    }
    i += 8;
  }
  if (i < bytes) {
    const std::uint64_t v = rng.next();
    for (int b = 0; i < bytes; ++i, ++b) {
      p[i] = static_cast<unsigned char>(v >> (8 * b));
    }
  }
}

constexpr std::uint64_t kOracleSeeds[] = {0, 1, ~std::uint64_t{0}, 0x9000};

TEST(Prng, FillPatternMatchesByteLoopOracle) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t d = 1; d <= 7; ++d) {
    lengths.push_back(4096 - d);
    lengths.push_back(4096 + d);
  }
  // Around the vector kernel's threshold, and every tail length past
  // whole 64-byte blocks.
  static_assert(kVectorFillMin == std::size_t{16} << 10);
  for (std::size_t n = kVectorFillMin - 1; n <= kVectorFillMin + 71; ++n) {
    lengths.push_back(n);
  }
  for (std::size_t t = 0; t < 64; ++t) {
    lengths.push_back((std::size_t{64} << 10) + t);
  }
  lengths.push_back((std::size_t{1} << 20) + 3);
  std::vector<unsigned char> got;
  std::vector<unsigned char> want;
  std::vector<unsigned char> scalar;
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      for (const std::uint64_t seed : kOracleSeeds) {
        // Room for the offset plus at least 8 guard bytes past the end,
        // which every fill must leave untouched.
        got.assign(n + 15, 0xEE);
        want.assign(n + 15, 0xEE);
        scalar.assign(n + 15, 0xEE);
        fill_pattern(got.data() + off, n, seed);
        fill_pattern_oracle(want.data() + off, n, seed);
        fill_pattern_scalar(scalar.data() + off, n, seed);
        ASSERT_TRUE(got == want)
            << "len " << n << " offset " << off << " seed " << seed;
        ASSERT_TRUE(scalar == want)
            << "scalar: len " << n << " offset " << off << " seed " << seed;
      }
    }
  }
}

TEST(Prng, SplitmixWordIsTheStreamWord) {
  for (const std::uint64_t seed : kOracleSeeds) {
    SplitMix64 rng(seed);
    for (std::uint64_t k = 0; k < 1024; ++k) {
      ASSERT_EQ(splitmix_word(seed, k), rng.next())
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(Prng, FillOperandsMatchesScalarFormula) {
  // Short counts, then around the vector kernel's threshold (16 KiB of
  // floats), every tail length past whole 16-operand blocks, and a long
  // fill; each at an aligned and a 4-byte-misaligned destination.
  std::vector<std::size_t> counts;
  for (std::size_t c = 0; c <= 67; ++c) counts.push_back(c);
  for (std::size_t c = 4095; c <= 4104; ++c) counts.push_back(c);
  for (std::size_t k = 0; k < 8; ++k) counts.push_back(4099 + 8 * k);
  counts.push_back((std::size_t{1} << 18) + 3);
  std::vector<float> got;
  std::vector<float> scalar;
  for (const std::size_t count : counts) {
    for (std::size_t off = 0; off < 2; ++off) {
      for (const std::uint64_t seed : kOracleSeeds) {
        got.assign(count + 2, 7.0f);  // a sentinel past the end
        scalar.assign(count + 2, 7.0f);
        fill_operands(got.data() + off, count, seed);
        fill_operands_scalar(scalar.data() + off, count, seed);
        SplitMix64 rng(seed);
        for (std::size_t i = 0; i < count; ++i) {
          const float want =
              static_cast<float>(static_cast<int>(rng.next() & 511u) - 256) *
              (1.0f / 256.0f);
          ASSERT_EQ(got[off + i], want) << "count " << count << " offset "
                                        << off << " seed " << seed << " i "
                                        << i;
        }
        ASSERT_TRUE(got == scalar)
            << "scalar: count " << count << " offset " << off << " seed "
            << seed;
        EXPECT_EQ(got[off + count], 7.0f) << "count " << count;
      }
    }
  }
}

TEST(Cacheline, PaddedSizeIsLineMultiple) {
  EXPECT_EQ(sizeof(CachePadded<std::uint64_t>) % kCacheLine, 0u);
  EXPECT_EQ(sizeof(CachePadded<char>), kCacheLine);
  struct Big {
    char data[100];
  };
  EXPECT_EQ(sizeof(CachePadded<Big>) % kCacheLine, 0u);
}

TEST(Cacheline, LineOfGroupsNeighbours) {
  alignas(64) char buf[128];
  EXPECT_EQ(line_of(&buf[0]), line_of(&buf[63]));
  EXPECT_NE(line_of(&buf[0]), line_of(&buf[64]));
}

}  // namespace
}  // namespace xhc::util
