/// Tests for converters: comparator SNG (D/S) and the regeneration
/// baseline.

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bitstream/correlation.hpp"
#include "convert/regenerator.hpp"
#include "convert/sng.hpp"
#include "rng/counter_source.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"
#include "test_util.hpp"

namespace sc::convert {
namespace {

TEST(Sng, NaturalLengthIsSourcePeriod) {
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  EXPECT_EQ(sng.natural_length(), 256u);
}

class SngVdcExactness : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SngVdcExactness, VdcEncodesEveryLevelExactly) {
  // A full-period VDC drive makes the comparator SNG exact for all levels.
  const std::uint32_t level = GetParam();
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  const Bitstream s = sng.generate(level, 256);
  EXPECT_EQ(s.count_ones(), level);
}

INSTANTIATE_TEST_SUITE_P(Levels, SngVdcExactness,
                         ::testing::Values(0u, 1u, 2u, 17u, 64u, 127u, 128u,
                                           129u, 200u, 255u, 256u));

TEST(Sng, NullSourceAndOutOfRangeLevelThrowInEveryBuild) {
  // The null check must run before the initializer list reads the width.
  EXPECT_THROW(Sng(nullptr), std::invalid_argument);
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  EXPECT_NO_THROW(sng.generate(256, 16));
  EXPECT_THROW(sng.generate(257, 16), std::invalid_argument);
}

TEST(Sng, CounterSourceGivesRampStream) {
  Sng sng(std::make_unique<rng::CounterSource>(3));
  const Bitstream s = sng.generate(5, 8);
  EXPECT_EQ(s.to_string(), "11111000");
}

TEST(Sng, LfsrValueAccurateOverFullPeriod) {
  // Over its 255-cycle period the LFSR emits each nonzero value once, so
  // ones(level) = level - 1 for level >= 1 at n = 255 (r < level misses 0).
  Sng sng(std::make_unique<rng::Lfsr>(8, 1));
  const Bitstream s = sng.generate(128, 255);
  EXPECT_EQ(s.count_ones(), 127u);
}

TEST(Sng, HaltonValueCloseForAnyLevel) {
  Sng sng(std::make_unique<rng::Halton>(8, 3));
  for (std::uint32_t level : {32u, 100u, 180u, 256u}) {
    sng.reset();
    const Bitstream s = sng.generate(level, 256);
    EXPECT_NEAR(s.value(), level / 256.0, 4.0 / 256.0) << level;
  }
}

TEST(Sng, GenerateValueQuantizes) {
  Sng sng(std::make_unique<rng::VanDerCorput>(8));
  const Bitstream s = sng.generate_value(0.5, 256);
  EXPECT_EQ(s.count_ones(), 128u);
}

TEST(Sng, Width32SourceProducesNonZeroStreams) {
  // Regression: a 32-bit-wide source has period 2^32, which truncated to 0
  // in a uint32 natural length — every comparator test then failed and
  // generate_value() emitted all-zero streams.
  Sng sng(std::make_unique<rng::Lfsr>(32, 0xDEADBEEF));
  EXPECT_EQ(sng.natural_length(), std::uint64_t{1} << 32);
  const Bitstream ones = sng.generate_value(1.0, 128);
  EXPECT_EQ(ones.count_ones(), 128u);
  const Bitstream half = sng.generate_value(0.5, 1u << 14);
  EXPECT_NEAR(half.value(), 0.5, 0.02);
}

TEST(Sng, SameSourceTwoStreamsPositivelyCorrelated) {
  // Two levels encoded from one shared RNG trace: SCC = +1 (paper §II-B).
  rng::VanDerCorput vdc(8);
  Bitstream x, y;
  for (int i = 0; i < 256; ++i) {
    const std::uint32_t r = vdc.next();
    x.push_back(r < 100);
    y.push_back(r < 200);
  }
  EXPECT_DOUBLE_EQ(scc(x, y), 1.0);
}

TEST(Sng, StepMatchesGenerate) {
  Sng a(std::make_unique<rng::Lfsr>(8, 9));
  Sng b(std::make_unique<rng::Lfsr>(8, 9));
  const Bitstream whole = a.generate(77, 64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(b.step(77), whole.get(i)) << i;
  }
}

// --- regeneration ----------------------------------------------------------------

TEST(Regenerator, PreservesValueWithVdc) {
  const Bitstream input = test::lfsr_stream(100, 1);
  rng::VanDerCorput vdc(8);
  const Bitstream out = regenerate(input, vdc);
  EXPECT_EQ(out.count_ones(), input.count_ones());
  EXPECT_EQ(out.size(), input.size());
}

TEST(Regenerator, ResetsCorrelationBetweenStreams) {
  // Two maximally correlated inputs regenerated with *different* sources
  // become nearly uncorrelated.
  const Bitstream x = test::lfsr_stream(100, 1);
  const Bitstream y = test::lfsr_stream(200, 1);
  ASSERT_GT(scc(x, y), 0.9);
  rng::VanDerCorput vdc(8);
  rng::Halton halton(8, 3);
  const Bitstream xr = regenerate(x, vdc);
  const Bitstream yr = regenerate(y, halton);
  EXPECT_LT(std::abs(scc(xr, yr)), 0.2);
}

TEST(Regenerator, BusCorrelatedSharedRngGivesSccPlusOne) {
  // The paper's regeneration mode: one RNG re-encodes the whole bus, so
  // every pair is maximally positively correlated.
  const std::vector<Bitstream> inputs = {
      test::vdc_stream(60), test::halton3_stream(150), test::lfsr_stream(220)};
  rng::Lfsr shared(8, 41);
  const auto outputs = regenerate_bus_correlated(inputs, shared);
  ASSERT_EQ(outputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(outputs[i].value(), inputs[i].value(), 2.0 / 256.0);
  }
  EXPECT_DOUBLE_EQ(scc(outputs[0], outputs[1]), 1.0);
  EXPECT_DOUBLE_EQ(scc(outputs[0], outputs[2]), 1.0);
  EXPECT_DOUBLE_EQ(scc(outputs[1], outputs[2]), 1.0);
}

TEST(Regenerator, BusCorrelatedMatchesPerCycleComparatorsAndWordForm) {
  // Odd length (partial last word), an all-zero and an all-ones stream
  // (full scale: at width 32 the level 2^32 exceeds the 32-bit compare).
  for (const unsigned width : {8u, 32u}) {
    const std::size_t n = 333;
    std::vector<Bitstream> inputs = {test::lfsr_stream(90, 2, n),
                                     Bitstream(n, false), Bitstream(n, true)};
    rng::Lfsr shared(width, 77);
    std::unique_ptr<rng::RandomSource> reference = shared.clone();
    std::vector<std::uint32_t> trace(n);
    for (std::uint32_t& v : trace) v = reference->next();

    const auto outputs = regenerate_bus_correlated(inputs, *shared.clone());
    ASSERT_EQ(outputs.size(), inputs.size());
    // Word form in place, streams 7 words apart (stride > 6 used words).
    const std::size_t stride = 7;
    std::vector<std::uint64_t> words(inputs.size() * stride);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      std::copy(inputs[k].words().begin(), inputs[k].words().end(),
                words.begin() + static_cast<std::ptrdiff_t>(k * stride));
    }
    regenerate_bus_correlated(words.data(), stride, inputs.size(), n, shared);
    EXPECT_EQ(shared.state(), static_cast<rng::Lfsr&>(*reference).state())
        << "word form must draw exactly n values";

    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const std::uint64_t level =
          (inputs[k].count_ones() * shared.range() + n / 2) / n;
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = trace[i] < level;
        ASSERT_EQ(outputs[k].get(i), bit) << "width " << width << " stream "
                                          << k << " bit " << i;
        ASSERT_EQ(((words[k * stride + i / 64] >> (i % 64)) & 1u) != 0, bit);
      }
      EXPECT_EQ(words[k * stride + 6], 0u) << "stride padding untouched";
    }
  }
}

TEST(Regenerator, BusCorrelatedRejectsMismatchedLengths) {
  rng::Lfsr shared(8, 41);
  EXPECT_THROW(
      (void)regenerate_bus_correlated({Bitstream(64), Bitstream(65)}, shared),
      std::invalid_argument);
}

TEST(Regenerator, BusUncorrelatedPerStreamSources) {
  const std::vector<Bitstream> inputs = {test::lfsr_stream(128, 3),
                                         test::lfsr_stream(128, 3)};
  ASSERT_DOUBLE_EQ(scc(inputs[0], inputs[1]), 1.0);
  rng::VanDerCorput vdc(8);
  rng::Halton halton(8, 3);
  const std::vector<rng::RandomSource*> sources = {&vdc, &halton};
  const auto outputs = regenerate_bus_uncorrelated(inputs, sources);
  EXPECT_LT(std::abs(scc(outputs[0], outputs[1])), 0.2);
}

TEST(Regenerator, NonPowerOfTwoLengthRescalesLevel) {
  // 100 ones out of 200 bits -> level 128 of 256 -> value 0.5 preserved.
  Bitstream input(200);
  for (std::size_t i = 0; i < 100; ++i) input.set(i, true);
  rng::VanDerCorput vdc(8);
  const Bitstream out = regenerate(input, vdc);
  EXPECT_NEAR(out.value(), 0.5, 3.0 / 200.0);
}

}  // namespace
}  // namespace sc::convert
