// Unit tests for src/support.
#include <gtest/gtest.h>

#include <cmath>

#include "support/buildinfo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace fgpar {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    FGPAR_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Stats, MeanAndGeoMean) {
  const double values[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 7.0 / 3.0);
  EXPECT_NEAR(GeoMean(values), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(Min(values), 1.0);
  EXPECT_DOUBLE_EQ(Max(values), 4.0);
}

TEST(Stats, EmptyMeansAreZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(Stats, GeoMeanRejectsNonPositive) {
  const double values[] = {1.0, 0.0};
  EXPECT_THROW(GeoMean(values), Error);
}

TEST(Stats, RunningStatsTracksExtremes) {
  RunningStats s;
  s.Add(3.0);
  s.Add(-1.0);
  s.Add(10.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Stats, FractionalRanksAverageTies) {
  // 10 is the smallest (rank 1); the two 20s span ranks 2-3 and each get
  // 2.5; 30 takes rank 4.
  const double values[] = {20.0, 10.0, 30.0, 20.0};
  const std::vector<double> ranks = FractionalRanks(values);
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 4.0);
  EXPECT_DOUBLE_EQ(ranks[3], 2.5);
}

TEST(Stats, SpearmanIsRankOnlyAndTieSafe) {
  // A strictly monotone (but wildly nonlinear) relation is a perfect rank
  // correlation; reversing one side negates it.
  const double x[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const double y[] = {1.0, 8.0, 27.0, 1e6, 1e9};
  const double rev[] = {1e9, 1e6, 27.0, 8.0, 1.0};
  EXPECT_DOUBLE_EQ(SpearmanCorrelation(x, y), 1.0);
  EXPECT_DOUBLE_EQ(SpearmanCorrelation(x, rev), -1.0);
  // Ties on one side must not blow up or bias the sign.
  const double tied[] = {1.0, 2.0, 2.0, 3.0, 4.0};
  const double spearman = SpearmanCorrelation(tied, y);
  EXPECT_GT(spearman, 0.9);
  EXPECT_LE(spearman, 1.0);
  // Zero variance (all ranks equal) is defined as 0, not NaN.
  const double flat[] = {7.0, 7.0, 7.0, 7.0, 7.0};
  EXPECT_DOUBLE_EQ(SpearmanCorrelation(flat, y), 0.0);
}

TEST(Str, FormatFixed) {
  EXPECT_EQ(FormatFixed(1.32, 2), "1.32");
  EXPECT_EQ(FormatFixed(2.0, 2), "2.00");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
}

TEST(Str, FormatChange) {
  EXPECT_EQ(FormatChange(2.07, 2.02), "+2.5%");
  EXPECT_EQ(FormatChange(1.0, 1.0), "+0.0%");
  EXPECT_EQ(FormatChange(0.98, 1.0), "-2.0%");
}

TEST(Str, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

TEST(Str, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Kernel", "Speedup"});
  t.AddRow({"lammps-1", "1.94"});
  t.AddSeparator();
  t.AddRow({"average", "2.05"});
  const std::string out = t.Render("Figure 12");
  EXPECT_NE(out.find("Figure 12"), std::string::npos);
  EXPECT_NE(out.find("lammps-1"), std::string::npos);
  EXPECT_NE(out.find("average"), std::string::npos);
  // every data line has the same width
  std::size_t width = 0;
  std::size_t pos = out.find('\n') + 1;  // skip title
  for (std::size_t next; (next = out.find('\n', pos)) != std::string::npos; pos = next + 1) {
    const std::size_t len = next - pos;
    if (width == 0) {
      width = len;
    }
    EXPECT_EQ(len, width);
  }
}

TEST(Table, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), Error);
}

TEST(BuildInfo, IdentityIsWellFormedAndSelfConsistent) {
  const std::string& version = BuildVersion();
  EXPECT_FALSE(version.empty());
  // "fgpar <version> (<compiler>, <build-type>, c++NN)"
  const std::string& line = BuildVersionString();
  EXPECT_EQ(line.rfind("fgpar " + version + " (", 0), 0u);
  EXPECT_EQ(line.back(), ')');
  // The hash is a pure function of the same fields: stable within a
  // build, 16 lowercase hex digits in text form.
  EXPECT_EQ(BuildConfigHash(), BuildConfigHash());
  const std::string hex = BuildConfigHashHex();
  ASSERT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

}  // namespace
}  // namespace fgpar
