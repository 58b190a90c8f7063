/// Integration tests for the §IV SC image pipeline: bit-identity to a
/// bit-serial oracle of the tile engine, accuracy ordering, hardware cost
/// ordering, and the paper's headline Table IV relationships.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"
#include "convert/regenerator.hpp"
#include "core/synchronizer.hpp"
#include "engine/batch.hpp"
#include "engine/session.hpp"
#include "hw/cost.hpp"
#include "hw/designs.hpp"
#include "img/image.hpp"
#include "img/kernels.hpp"
#include "img/sc_pipeline.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {
namespace {

PipelineConfig small_config() {
  PipelineConfig config;
  config.stream_length = 256;
  config.tile = 10;
  return config;
}

const Image& test_scene() {
  static const Image scene = Image::synthetic_scene(20, 20, 11);
  return scene;
}

TEST(Pipeline, OutputDimensionsMatchInput) {
  const auto result =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_EQ(result.output.width(), 20u);
  EXPECT_EQ(result.output.height(), 20u);
  EXPECT_EQ(result.reference.width(), 20u);
}

TEST(Pipeline, TileCountComputed) {
  const auto result =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_EQ(result.cost.tiles, 4u);  // 20x20 image, 10x10 tiles
}

TEST(Pipeline, NonMultipleImageSizeIsHandled) {
  const Image odd = Image::synthetic_scene(23, 17, 3);
  const auto result =
      run_pipeline(odd, Variant::kSynchronizer, small_config());
  EXPECT_EQ(result.output.width(), 23u);
  EXPECT_EQ(result.output.height(), 17u);
  EXPECT_EQ(result.cost.tiles, 6u);  // 3 x 2 tiles
  EXPECT_LT(result.error, 0.2);
}

TEST(Pipeline, AccuracyOrderingMatchesTableIV) {
  // Paper Table IV: no-manipulation 0.076 >> regeneration 0.019 ~
  // synchronizer 0.020.
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());

  EXPECT_GT(none.error, 1.5 * regen.error);
  EXPECT_GT(none.error, 1.5 * sync.error);
  // Regeneration and synchronizer are the same accuracy class.
  EXPECT_NEAR(regen.error, sync.error, 0.02);
}

TEST(Pipeline, ErrorMagnitudesInPaperRange) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_GT(none.error, 0.02);
  EXPECT_LT(none.error, 0.25);
  EXPECT_LT(sync.error, 0.06);
}

TEST(Pipeline, AreaOrderingMatchesTableIV) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_LT(none.cost.report.area_um2, sync.cost.report.area_um2);
  EXPECT_LT(none.cost.report.area_um2, regen.cost.report.area_um2);
  // Both manipulating designs stay within ~2x of the base accelerator.
  EXPECT_LT(regen.cost.report.area_um2, 2.5 * none.cost.report.area_um2);
  EXPECT_LT(sync.cost.report.area_um2, 2.0 * none.cost.report.area_um2);
}

TEST(Pipeline, EnergyOrderingMatchesTableIV) {
  // Paper: regeneration 1971 > synchronizer 1505 > none 1383 nJ/frame.
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_GT(regen.cost.energy_nj_frame, sync.cost.energy_nj_frame);
  EXPECT_GT(sync.cost.energy_nj_frame, none.cost.energy_nj_frame);
}

TEST(Pipeline, SynchronizerSavesTotalEnergyVersusRegeneration) {
  // Paper: 24% lower total energy.  Accept anything meaningfully > 10%.
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const double saving =
      1.0 - sync.cost.energy_nj_frame / regen.cost.energy_nj_frame;
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.60);
}

TEST(Pipeline, ManipulationOverheadRatioNearPaperThreeX) {
  // Paper §IV-B: synchronizer-based manipulation is 3.0x more energy
  // efficient than regeneration-based manipulation.
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const double ratio =
      regen.cost.overhead_energy_nj / sync.cost.overhead_energy_nj;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(Pipeline, SynchronizerUsesTwiceTheManipulatorUnits) {
  // Paper: "2x more synchronizers than the number of S/D and D/S
  // converters used by regeneration" (200 vs 121 units per tile here).
  const auto regen =
      run_pipeline(test_scene(), Variant::kRegeneration, small_config());
  const auto sync =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_EQ(sync.cost.manipulator_units, 200u);
  EXPECT_EQ(regen.cost.manipulator_units, 121u);
  EXPECT_GT(static_cast<double>(sync.cost.manipulator_units) /
                regen.cost.manipulator_units,
            1.5);
}

TEST(Pipeline, NoManipulationHasZeroOverhead) {
  const auto none =
      run_pipeline(test_scene(), Variant::kNoManipulation, small_config());
  EXPECT_DOUBLE_EQ(none.cost.overhead_energy_nj, 0.0);
  EXPECT_EQ(none.cost.manipulator_units, 0u);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto a =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  const auto b =
      run_pipeline(test_scene(), Variant::kSynchronizer, small_config());
  EXPECT_DOUBLE_EQ(mean_abs_error(a.output, b.output), 0.0);
}

TEST(Pipeline, LongerStreamsImproveAccuracy) {
  PipelineConfig short_cfg = small_config();
  short_cfg.stream_length = 64;
  PipelineConfig long_cfg = small_config();
  long_cfg.stream_length = 1024;
  const auto coarse =
      run_pipeline(test_scene(), Variant::kSynchronizer, short_cfg);
  const auto fine =
      run_pipeline(test_scene(), Variant::kSynchronizer, long_cfg);
  EXPECT_LT(fine.error, coarse.error + 0.01);
}

TEST(Pipeline, NetlistLabelsAreDescriptive) {
  EXPECT_EQ(to_string(Variant::kNoManipulation), "SC no-manipulation");
  EXPECT_EQ(to_string(Variant::kRegeneration), "SC regeneration");
  EXPECT_EQ(to_string(Variant::kSynchronizer), "SC synchronizer");
}

TEST(Pipeline, BaseNetlistMatchesStructure) {
  const hw::Netlist base = pipeline_base_netlist(small_config());
  // 100 output S/D counters at 8 bits each contribute 800 plain DFFs.
  EXPECT_GE(base.count(hw::Cell::kDff), 800u);
  // 169 input registers at 8 bits each are enable-flops.
  EXPECT_EQ(base.count(hw::Cell::kDffEn), 169u * 8u);
}

TEST(Pipeline, OverheadNetlistsMatchUnitCounts) {
  const PipelineConfig config = small_config();
  const hw::Netlist sync_overhead =
      pipeline_overhead_netlist(Variant::kSynchronizer, config);
  // 200 synchronizers with state_bits(2D+1) flops each.
  const unsigned bits_per_fsm = hw::state_bits(2 * config.sync_depth + 1);
  EXPECT_EQ(sync_overhead.count(hw::Cell::kDff), 200u * bits_per_fsm);
  const hw::Netlist regen_overhead =
      pipeline_overhead_netlist(Variant::kRegeneration, config);
  // 121 regenerators (16 flops each: counter + hold) + shared 8-bit LFSR.
  EXPECT_EQ(regen_overhead.count(hw::Cell::kDff), 121u * 16u + 8u);
}

// --- bit-serial oracle of the tile engine ----------------------------------

/// The tile engine's generators, drawn one cycle at a time with next().
struct SerialGenerators {
  std::vector<rng::Lfsr> banks;
  rng::Lfsr gb_select;
  rng::Lfsr ed_select;
  rng::Lfsr regen;

  explicit SerialGenerators(const PipelineConfig& config)
      : gb_select(config.sng_width, config.seed + 101),
        ed_select(config.sng_width, config.seed + 211),
        regen(config.sng_width, config.seed + 307) {
    for (unsigned b = 0; b < config.input_banks; ++b) {
      banks.emplace_back(config.sng_width, config.seed + 11 * (b + 1));
    }
  }
};

/// One tile, cycle by cycle: comparator SNGs on the shared bank, the blur's
/// 9-to-1 select, and per output pixel one core::Synchronizer (or none)
/// in front of each Roberts diagonal's XOR.  Shares no code with the
/// word-parallel engine's planes, transposes or lane shifts.
void serial_tile(const Image& input, Variant variant,
                 const PipelineConfig& config, std::size_t tx, std::size_t ty,
                 SerialGenerators& gen, Image& output) {
  const std::size_t n = config.stream_length;
  const std::size_t t = config.tile;
  const std::uint32_t natural = std::uint32_t{1} << config.sng_width;
  const std::size_t banks = gen.banks.size();
  std::vector<std::vector<std::uint32_t>> trace(banks,
                                                std::vector<std::uint32_t>(n));
  for (std::size_t b = 0; b < banks; ++b) {
    for (std::uint32_t& v : trace[b]) v = gen.banks[b].next();
  }
  std::vector<unsigned> pick(n);
  for (unsigned& k : pick) k = kGaussianSelect16[gen.gb_select.next() & 15u];
  const std::size_t gb_side = t + 1;
  std::vector<Bitstream> gb(gb_side * gb_side, Bitstream(n));
  for (std::size_t gy = 0; gy < gb_side; ++gy) {
    for (std::size_t gx = 0; gx < gb_side; ++gx) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t ix = gx + pick[i] % 3;  // halo coordinates
        const std::size_t iy = gy + pick[i] / 3;
        const double pixel =
            input.at_clamped(static_cast<std::ptrdiff_t>(tx * t + ix) - 1,
                             static_cast<std::ptrdiff_t>(ty * t + iy) - 1);
        gb[gy * gb_side + gx].set(
            i, trace[(ix + iy) % banks][i] < unipolar_level(pixel, natural));
      }
    }
  }
  if (variant == Variant::kRegeneration) {
    gb = convert::regenerate_bus_correlated(gb, gen.regen);
  }
  std::vector<bool> sel(n);
  for (std::size_t i = 0; i < n; ++i) {
    sel[i] = gen.ed_select.next() < natural / 2;
  }
  const auto at = [&](std::size_t x, std::size_t y) -> const Bitstream& {
    return gb[y * gb_side + x];
  };
  for (std::size_t y = 0; y < t; ++y) {
    for (std::size_t x = 0; x < t; ++x) {
      if (tx * t + x >= input.width() || ty * t + y >= input.height()) {
        continue;
      }
      core::Synchronizer ad({config.sync_depth, false, 0});
      core::Synchronizer bc({config.sync_depth, false, 0});
      std::size_t ones = 0;
      for (std::size_t i = 0; i < n; ++i) {
        core::BitPair g1{at(x, y)[i], at(x + 1, y + 1)[i]};
        core::BitPair g2{at(x + 1, y)[i], at(x, y + 1)[i]};
        if (variant == Variant::kSynchronizer) {
          g1 = ad.step(g1.x, g1.y);
          g2 = bc.step(g2.x, g2.y);
        }
        ones += sel[i] ? (g2.x != g2.y) : (g1.x != g1.y);
      }
      output.at(tx * t + x, ty * t + y) =
          static_cast<double>(ones) / static_cast<double>(n);
    }
  }
}

/// run_pipeline (tiled = false) or run_pipeline_tiled, bit-serially.
Image serial_pipeline(const Image& input, Variant variant,
                      const PipelineConfig& config, bool tiled) {
  Image output(input.width(), input.height());
  const std::size_t t = config.tile;
  const std::size_t tiles_x = (input.width() + t - 1) / t;
  const std::size_t tiles_y = (input.height() + t - 1) / t;
  SerialGenerators shared(config);
  for (std::size_t tile = 0; tile < tiles_x * tiles_y; ++tile) {
    PipelineConfig tile_config = config;
    if (tiled) tile_config.seed = engine::strided_seed32(config.seed, tile);
    SerialGenerators own(tile_config);
    serial_tile(input, variant, tile_config, tile % tiles_x, tile / tiles_x,
                tiled ? own : shared, output);
  }
  return output;
}

TEST(PipelineOracle, EveryVariantMatchesBitSerialAcrossWordCrossingShifts) {
  // With tile t the Roberts diagonals sit t + 1 and t + 2 lanes away in a
  // (t + 1)^2-lane plane: t = 62 and 63 put one shift exactly on a word
  // boundary, 64 and 70 cross a whole word plus a few bits.  Small tiles
  // keep the in-word shifts covered too.
  const Image scene = Image::synthetic_scene(75, 66, 17);
  engine::Session session({2});
  for (const std::size_t tile : {3u, 10u, 62u, 63u, 64u, 70u}) {
    for (const Variant variant : {Variant::kNoManipulation,
                                  Variant::kRegeneration,
                                  Variant::kSynchronizer}) {
      PipelineConfig config = small_config();
      config.tile = tile;
      config.stream_length = 100;
      config.sync_depth = 3;
      const Image serial = serial_pipeline(scene, variant, config, false);
      const Image tiled = serial_pipeline(scene, variant, config, true);
      EXPECT_EQ(run_pipeline(scene, variant, config).output.pixels(),
                serial.pixels())
          << to_string(variant) << " tile " << tile;
      EXPECT_EQ(run_pipeline_tiled(scene, variant, config, session)
                    .output.pixels(),
                tiled.pixels())
          << to_string(variant) << " tile " << tile << " (tiled)";
    }
  }
}

// Invalid configurations throw std::invalid_argument from both entry
// points — exceptions, not asserts, so these hold under NDEBUG too.
void expect_rejected(const std::function<void(PipelineConfig&)>& mutate,
                     const Image& input = test_scene()) {
  PipelineConfig config = small_config();
  mutate(config);
  engine::Session session({2});
  const Variant variant = Variant::kSynchronizer;
  EXPECT_THROW((void)run_pipeline(input, variant, config),
               std::invalid_argument);
  EXPECT_THROW((void)run_pipeline_tiled(input, variant, config, session),
               std::invalid_argument);
}

TEST(PipelineConfigValidation, ZeroInputBanksThrows) {
  expect_rejected([](PipelineConfig& c) { c.input_banks = 0; });
}

TEST(PipelineConfigValidation, ZeroTileThrows) {
  expect_rejected([](PipelineConfig& c) { c.tile = 0; });
}

TEST(PipelineConfigValidation, WidthTooNarrowForBlurSelectThrows) {
  // The blur's 16-slot select needs 4 RNG bits; width 3 would bias it.
  expect_rejected([](PipelineConfig& c) { c.sng_width = 3; });
  expect_rejected([](PipelineConfig& c) { c.sng_width = 0; });
}

TEST(PipelineConfigValidation, WidthThirtyTwoThrows) {
  expect_rejected([](PipelineConfig& c) { c.sng_width = 32; });
}

TEST(PipelineConfigValidation, ZeroStreamLengthThrows) {
  expect_rejected([](PipelineConfig& c) { c.stream_length = 0; });
}

TEST(PipelineConfigValidation, EmptyImageThrows) {
  expect_rejected([](PipelineConfig&) {}, Image());
}

TEST(PipelineConfigValidation, ZeroSyncDepthThrowsForSynchronizerVariant) {
  expect_rejected([](PipelineConfig& c) { c.sync_depth = 0; });
}

TEST(PipelineConfigValidation, WidthRangeEndpointsAreAccepted) {
  const Image small = Image::synthetic_scene(6, 5, 1);
  for (const unsigned width : {4u, 31u}) {
    PipelineConfig config = small_config();
    config.sng_width = width;
    config.stream_length = 64;
    const auto result = run_pipeline(small, Variant::kSynchronizer, config);
    EXPECT_LT(result.error, 0.5) << "width " << width;
  }
}

}  // namespace
}  // namespace sc::img
