#include "bist/lfsr.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace scandiag {
namespace {

TEST(PrimitivePolys, TableBounds) {
  EXPECT_THROW(primitiveTaps(2), std::invalid_argument);
  EXPECT_THROW(primitiveTaps(33), std::invalid_argument);
  for (unsigned d = 3; d <= 32; ++d) {
    const auto& taps = primitiveTaps(d);
    ASSERT_FALSE(taps.empty());
    EXPECT_EQ(taps.front(), d);  // leading exponent == degree
    EXPECT_NE(primitiveTapMask(d) & (1ull << (d - 1)), 0u);
  }
}

/// Checks fill(n) against n calls of step() on a twin register: the bits,
/// the cleared tail of the last word, and the state both end in.
void expectFillMatchesStep(const LfsrConfig& config, std::uint64_t seed, std::size_t n) {
  Lfsr block(config, seed), bitwise(config, seed);
  std::vector<std::uint64_t> words((n + 63) / 64, ~std::uint64_t{0});
  block.fill(words.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ((words[i / 64] >> (i % 64)) & 1u, bitwise.step() ? 1u : 0u)
        << "degree " << config.degree << " n " << n << " bit " << i;
  if (n % 64 != 0) {
    EXPECT_EQ(words.back() >> (n % 64), 0u) << "degree " << config.degree;
  }
  EXPECT_EQ(block.state(), bitwise.state()) << "degree " << config.degree << " n " << n;
}

TEST(BlockLfsr, FillMatchesStepForEveryTableDegree) {
  // m (the smallest tap) ranges from 1 (degrees 12, 13, 14, 19, 26, 27, 30,
  // 32: the bit-by-bit loop) to 28 (degree 31); the counts straddle word and
  // block boundaries.
  for (unsigned degree = 3; degree <= 32; ++degree) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{63},
                                std::size_t{64}, std::size_t{65}, std::size_t{1000},
                                std::size_t{4099}})
      expectFillMatchesStep(LfsrConfig{degree, 0}, 0xACE1 ^ (std::uint64_t{degree} << 8), n);
  }
}

TEST(BlockLfsr, FillContinuesTheStreamAcrossCalls) {
  // Consecutive fills (as one pattern column after another) and wide custom
  // taps: degree 63 with taps {63, 62} advances 62 bits per step.
  const LfsrConfig wide{63, (std::uint64_t{1} << 62) | (std::uint64_t{1} << 61)};
  for (const LfsrConfig& config : {LfsrConfig{24, 0}, LfsrConfig{31, 0}, wide}) {
    Lfsr block(config, 0xACE1), bitwise(config, 0xACE1);
    for (const std::size_t n : {std::size_t{100}, std::size_t{3}, std::size_t{128},
                                std::size_t{777}}) {
      std::vector<std::uint64_t> words((n + 63) / 64);
      block.fill(words.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ((words[i / 64] >> (i % 64)) & 1u, bitwise.step() ? 1u : 0u)
            << "degree " << config.degree << " bit " << i;
    }
    EXPECT_EQ(block.state(), bitwise.state());
    expectFillMatchesStep(config, 0xF00D, 2000);
  }
}

class LfsrMaximalPeriod : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrMaximalPeriod, PrimitivePolynomialGivesFullPeriod) {
  const unsigned degree = GetParam();
  Lfsr lfsr(LfsrConfig{degree, 0}, 1);
  const std::uint64_t period = (1ull << degree) - 1;
  const std::uint64_t start = lfsr.state();
  std::uint64_t steps = 0;
  do {
    lfsr.step();
    ++steps;
    ASSERT_NE(lfsr.state(), 0u);
    ASSERT_LE(steps, period);
  } while (lfsr.state() != start);
  EXPECT_EQ(steps, period);
}

INSTANTIATE_TEST_SUITE_P(Degrees, LfsrMaximalPeriod,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16));

TEST(Lfsr, LargerDegreesStayNonzeroAndAperiodicShortTerm) {
  for (unsigned d : {17u, 20u, 24u, 31u, 32u}) {
    Lfsr lfsr(LfsrConfig{d, 0}, 0xBEEF);
    const std::uint64_t start = lfsr.state();
    for (int i = 0; i < 100000; ++i) {
      lfsr.step();
      ASSERT_NE(lfsr.state(), 0u);
      ASSERT_NE(lfsr.state(), start) << "short cycle at degree " << d;
    }
  }
}

TEST(Lfsr, ZeroSeedRejected) {
  EXPECT_THROW(Lfsr(LfsrConfig{16, 0}, 0), std::invalid_argument);
  // Seed with bits only above the degree reduces to zero.
  EXPECT_THROW(Lfsr(LfsrConfig{8, 0}, 0xF00), std::invalid_argument);
}

TEST(Lfsr, SeedMaskedToDegree) {
  Lfsr lfsr(LfsrConfig{8, 0}, 0x1FF);
  EXPECT_EQ(lfsr.state(), 0xFFu);
}

TEST(Lfsr, StepOutputsTopStage) {
  Lfsr lfsr(LfsrConfig{8, 0}, 0b10110101);
  EXPECT_TRUE(lfsr.step());   // bit 7 was 1
  EXPECT_FALSE(lfsr.step());  // old bit 6 (0) has shifted into the top stage
}

TEST(Lfsr, StepBitsPacksLsbFirst) {
  Lfsr a(LfsrConfig{16, 0}, 0xACE1);
  Lfsr b(LfsrConfig{16, 0}, 0xACE1);
  std::uint64_t packed = a.stepBits(16);
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ((packed >> i) & 1, static_cast<std::uint64_t>(b.step()));
  }
  EXPECT_THROW(a.stepBits(65), std::invalid_argument);
}

TEST(Lfsr, LowBitsReadsStateWithoutStepping) {
  Lfsr lfsr(LfsrConfig{16, 0}, 0xACE1);
  const std::uint64_t before = lfsr.state();
  EXPECT_EQ(lfsr.lowBits(4), before & 0xF);
  EXPECT_EQ(lfsr.state(), before);
  EXPECT_THROW(lfsr.lowBits(0), std::invalid_argument);
  EXPECT_THROW(lfsr.lowBits(17), std::invalid_argument);
}

TEST(Lfsr, DeterministicSequence) {
  Lfsr a(LfsrConfig{16, 0}, 0x1234);
  Lfsr b(LfsrConfig{16, 0}, 0x1234);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.step(), b.step());
}

TEST(Lfsr, LabelDistributionRoughlyUniform) {
  // 2-bit labels over a full period: each label occurs ~2^14 times.
  Lfsr lfsr(LfsrConfig{16, 0}, 1);
  std::array<std::size_t, 4> histogram{};
  for (std::uint64_t i = 0; i < (1ull << 16) - 1; ++i) {
    ++histogram[lfsr.lowBits(2)];
    lfsr.step();
  }
  for (std::size_t count : histogram) {
    EXPECT_NEAR(static_cast<double>(count), 16384.0, 64.0);
  }
}

TEST(Lfsr, InvalidConfigRejected) {
  EXPECT_THROW(Lfsr(LfsrConfig{1, 0}, 1), std::invalid_argument);
  EXPECT_THROW(Lfsr(LfsrConfig{64, 0}, 1), std::invalid_argument);
  // Tap mask missing the top stage.
  EXPECT_THROW(Lfsr(LfsrConfig{8, 0x0F}, 1), std::invalid_argument);
  // Tap mask exceeding the degree.
  EXPECT_THROW(Lfsr(LfsrConfig{8, 0x1FF}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
