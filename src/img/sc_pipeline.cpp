#include "img/sc_pipeline.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "bitstream/encoding.hpp"
#include "common/simd.hpp"
#include "convert/regenerator.hpp"
#include "engine/batch.hpp"
#include "engine/session.hpp"
#include "hw/designs.hpp"
#include "img/kernels.hpp"
#include "kernel/kernels.hpp"
#include "rng/lfsr.hpp"

namespace sc::img {
namespace {

using Word = Bitstream::Word;

/// Per-run stream generation state: free-running LFSRs shared across tiles,
/// exactly as a hardware tile engine would run them.
struct Generators {
  std::vector<rng::Lfsr> banks;
  rng::Lfsr gb_select;
  rng::Lfsr ed_select;
  rng::Lfsr regen;

  Generators(const PipelineConfig& config)
      : gb_select(config.sng_width, config.seed + 101),
        ed_select(config.sng_width, config.seed + 211),
        regen(config.sng_width, config.seed + 307) {
    for (unsigned b = 0; b < config.input_banks; ++b) {
      banks.emplace_back(config.sng_width, config.seed + 11 * (b + 1));
    }
  }
};

/// Rejects configurations the tile engine cannot simulate.  These are
/// exceptions, not asserts: in a Release build a zero bank count or tile
/// side divides by zero, and a width outside 4..31 either biases the
/// blur's 16-slot select decode or overflows the 2^w natural length.  The
/// synchronizer variant's depth must fit kernel::sync_xor_planes.
void validate(const Image& input, Variant variant,
              const PipelineConfig& config) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("img pipeline: ") + what);
  };
  if (input.empty()) reject("input image is empty");
  if (config.stream_length == 0) reject("stream_length must be >= 1");
  if (config.tile == 0) reject("tile must be >= 1");
  if (config.input_banks == 0) reject("input_banks must be >= 1");
  if (config.sng_width < 4 || config.sng_width > 31) {
    reject("sng_width must be in 4..31");
  }
  if (variant == Variant::kSynchronizer &&
      (config.sync_depth < 1 ||
       config.sync_depth > kernel::kMaxSyncXorDepth)) {
    reject("sync_depth must be in 1..2047");
  }
}

/// Simulates one output tile over packed words, writing its pixels into
/// `output`.  Streams are produced by `gen`, whose LFSRs advance exactly as
/// a hardware tile engine's would (every word-API draw leaves a register
/// where the same number of per-cycle steps would); the caller decides
/// whether generators free-run across tiles (serial engine) or are freshly
/// seeded per tile (tile-engine array).
void process_tile(const Image& input, Variant variant,
                  const PipelineConfig& config, std::size_t tx, std::size_t ty,
                  Generators& gen, Image& output) {
  const std::size_t n = config.stream_length;
  const std::size_t words = (n + 63) / 64;
  const std::size_t t = config.tile;
  const std::uint32_t natural = std::uint32_t{1} << config.sng_width;

  const std::ptrdiff_t c0 = static_cast<std::ptrdiff_t>(tx * t);
  const std::ptrdiff_t r0 = static_cast<std::ptrdiff_t>(ty * t);

  // --- input SN generation: (t+3)^2 streams from the shared bank ----
  // Every comparator on a bank sees the same per-cycle random value, so
  // each bank's trace is drawn once per tile and packed per pixel.
  const std::size_t banks = gen.banks.size();
  std::vector<std::uint32_t> bank_trace(banks * n);
  for (std::size_t b = 0; b < banks; ++b) {
    gen.banks[b].fill(bank_trace.data() + b * n, n);
  }
  const std::size_t in_side = t + 3;
  std::vector<Word> in_words(in_side * in_side * words);
  for (std::size_t iy = 0; iy < in_side; ++iy) {
    for (std::size_t ix = 0; ix < in_side; ++ix) {
      const double pixel =
          input.at_clamped(c0 - 1 + static_cast<std::ptrdiff_t>(ix),
                           r0 - 1 + static_cast<std::ptrdiff_t>(iy));
      simd::pack_compare_lt(bank_trace.data() + ((ix + iy) % banks) * n, n,
                            unipolar_level(pixel, natural),
                            in_words.data() + (iy * in_side + ix) * words);
    }
  }

  // --- Gaussian blur: shared select trace, 9-to-1 sampling ----------
  // The select trace is decoded once into nine masks (pick[k] marks the
  // cycles that sample window pixel k); each blur output is then nine
  // AND/OR word operations.
  std::vector<std::uint8_t> slots(n);
  gen.gb_select.fill_indices(slots.data(), n, 16);  // == next() & 15
  std::vector<Word> pick(9 * words);
  simd::decode_select16(slots.data(), n, kGaussianSelect16.data(), 9,
                        pick.data(), words);
  const std::size_t gb_side = t + 1;
  std::vector<Word> gb_words(gb_side * gb_side * words);
  for (std::size_t gy = 0; gy < gb_side; ++gy) {
    for (std::size_t gx = 0; gx < gb_side; ++gx) {
      // Window of GB output (gx,gy) covers input pixels
      // (gx .. gx+2, gy .. gy+2) in halo coordinates.
      Word* g = gb_words.data() + (gy * gb_side + gx) * words;
      for (std::size_t k = 0; k < 9; ++k) {
        const Word* in =
            in_words.data() + ((gy + k / 3) * in_side + gx + k % 3) * words;
        const Word* mask = pick.data() + k * words;
        for (std::size_t w = 0; w < words; ++w) g[w] |= mask[w] & in[w];
      }
    }
  }

  // --- variant: correlation manipulation between GB and ED ----------
  if (variant == Variant::kRegeneration) {
    convert::regenerate_bus_correlated(gb_words.data(), words,
                                       gb_side * gb_side, n, gen.regen);
  }

  // --- edge detection: bit-sliced synchronized XOR -------------------
  // The blur streams are transposed into cycle-major planes P (bit
  // gy * gb_side + gx of plane c = unit (gx, gy)'s cycle-c bit), so the
  // lane of unit (x, y) meets its diagonal partners at fixed lane offsets:
  // |a - d| pairs P with P >> (t + 2), |b - c| pairs P >> 1 with
  // P >> (t + 1).  Every pair runs through a fresh synchronizer and an
  // XOR (depth 0, a plain XOR, for the other variants), all lanes one
  // cycle per word operation, as the tile engine's units step together.
  std::vector<Word> ed_sel(words);
  gen.ed_select.fill_compare(ed_sel.data(), n, natural / 2);
  const std::size_t units = gb_side * gb_side;
  const std::size_t lanes = (units + 63) / 64;  // words per plane
  const std::size_t span = n * lanes;           // words of n planes
  // P in whole 64-cycle blocks, plus the words a shift reads past them.
  std::vector<Word> blur_planes(words * 64 * lanes + (t + 2) / 64 + 1);
  std::vector<Word> diagonals(3 * span);
  const Word* a = blur_planes.data();  // P
  Word* d = diagonals.data();          // P >> (t + 2), then |a - d|
  Word* b = d + span;                  // P >> 1
  Word* c = b + span;                  // P >> (t + 1), then |b - c|
  std::array<Word, 64> block{};
  for (std::size_t g = 0; g < lanes; ++g) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t j = 0; j < 64; ++j) {
        const std::size_t unit = g * 64 + j;
        block[j] = unit < units ? gb_words[unit * words + w] : Word{0};
      }
      kernel::transpose64(block.data());
      for (std::size_t k = 0; k < 64; ++k) {
        blur_planes[(w * 64 + k) * lanes + g] = block[k];
      }
    }
  }
  // P >> s (lane l takes lane l + s) over all n planes at once.  A word
  // read past the end of a plane comes from the next one; it only reaches
  // lanes with l + s >= 64 * lanes >= units, while an output lane has
  // l + s <= units - 1.
  const auto shift_lanes = [&](std::size_t s, Word* out) {
    const Word* p = a + s / 64;
    const unsigned r = s % 64;
    for (std::size_t i = 0; i < span; ++i) {
      // (v << 1) << (63 - r) is v << (64 - r), and 0 when r is 0.
      out[i] = (p[i] >> r) | ((p[i + 1] << 1) << (63 - r));
    }
  };
  shift_lanes(t + 2, d);
  shift_lanes(1, b);
  shift_lanes(t + 1, c);
  const unsigned depth =
      variant == Variant::kSynchronizer ? config.sync_depth : 0;
  kernel::sync_xor_planes(depth, a, d, d, lanes, n);
  kernel::sync_xor_planes(depth, b, c, c, lanes, n);

  // MUX scaled add (select picks |b - c|) into d, counted per lane by the
  // S/D converters.
  for (std::size_t k = 0; k < n; ++k) {
    const Word sel = Word{0} - ((ed_sel[k / 64] >> (k % 64)) & 1u);
    for (std::size_t i = k * lanes; i < (k + 1) * lanes; ++i) {
      d[i] = (sel & c[i]) | (~sel & d[i]);
    }
  }
  std::vector<std::uint64_t> ones(lanes * 64);
  kernel::count_lanes(d, lanes, n, ones.data());
  for (std::size_t y = 0; y < t; ++y) {
    for (std::size_t x = 0; x < t; ++x) {
      const std::size_t ox = tx * t + x;
      const std::size_t oy = ty * t + y;
      if (ox >= input.width() || oy >= input.height()) continue;
      output.at(ox, oy) = static_cast<double>(ones[y * gb_side + x]) /
                          static_cast<double>(n);
    }
  }
}

/// Hardware accounting shared by the serial and tiled paths (one tile
/// engine processing all tiles serially, the paper's operating model).
void account_cost(PipelineResult& result, Variant variant,
                  const PipelineConfig& config, std::size_t tiles) {
  const hw::Netlist base = pipeline_base_netlist(config);
  const hw::Netlist overhead = pipeline_overhead_netlist(variant, config);
  hw::Netlist full = base + overhead;
  full.set_label(to_string(variant));

  hw::CostConfig cost_config;
  cost_config.clock_hz = config.clock_hz;
  cost_config.cycles = tiles * config.stream_length;

  result.cost.netlist = full;
  result.cost.report = hw::evaluate(full, cost_config);
  result.cost.energy_nj_frame = result.cost.report.energy_nj();
  result.cost.tiles = tiles;

  const hw::CostReport overhead_report = hw::evaluate(overhead, cost_config);
  result.cost.overhead_power_uw = overhead_report.power_uw;
  result.cost.overhead_energy_nj = overhead_report.energy_nj();
  const std::size_t t = config.tile;
  switch (variant) {
    case Variant::kNoManipulation:
      result.cost.manipulator_units = 0;
      break;
    case Variant::kRegeneration:
      result.cost.manipulator_units = (t + 1) * (t + 1);
      break;
    case Variant::kSynchronizer:
      result.cost.manipulator_units = 2 * t * t;
      break;
  }
}

}  // namespace

std::string to_string(Variant variant) {
  switch (variant) {
    case Variant::kNoManipulation:
      return "SC no-manipulation";
    case Variant::kRegeneration:
      return "SC regeneration";
    case Variant::kSynchronizer:
      return "SC synchronizer";
  }
  return "?";
}

hw::Netlist pipeline_base_netlist(const PipelineConfig& config) {
  const std::uint64_t t = config.tile;
  const std::uint64_t in_pixels = (t + 3) * (t + 3);
  const std::uint64_t gb_units = (t + 1) * (t + 1);
  const std::uint64_t ed_units = t * t;
  const unsigned w = config.sng_width;

  hw::Netlist n("pipeline-base");
  // Input tile buffer: one w-bit register per input pixel (loaded once per
  // tile; clock-gated flops).
  n.add(hw::Cell::kDffEn, in_pixels * w);
  // Input SNG comparators (RNG bank shared).
  n += hw::comparator_netlist(w) * in_pixels;
  // Input RNG bank.
  n += hw::lfsr_netlist(w) * config.input_banks;
  // GB: 9-to-1 mux tree per unit plus one shared weight decoder and RNG.
  hw::Netlist gb("gb-mux");
  gb.add(hw::Cell::kMux2, 8);
  n += gb * gb_units;
  hw::Netlist decoder("weight-decoder");
  decoder.add(hw::Cell::kNand2, 8).add(hw::Cell::kInv, 4);
  n += decoder;
  n += hw::lfsr_netlist(w);  // GB select RNG
  // ED: two XORs + one MUX per output plus one shared select RNG.
  hw::Netlist ed("ed-kernel");
  ed.add(hw::Cell::kXor2, 2).add(hw::Cell::kMux2, 1);
  n += ed * ed_units;
  n += hw::lfsr_netlist(w);  // ED select RNG
  // Output S/D counters.
  n += hw::sd_converter_netlist(w) * ed_units;
  n.set_label("pipeline-base");
  return n;
}

hw::Netlist pipeline_overhead_netlist(Variant variant,
                                      const PipelineConfig& config) {
  const std::uint64_t t = config.tile;
  const std::uint64_t gb_units = (t + 1) * (t + 1);
  const std::uint64_t ed_units = t * t;

  switch (variant) {
    case Variant::kNoManipulation:
      return hw::Netlist("no-manipulation");
    case Variant::kRegeneration: {
      // One regenerator per GB output plus the shared D/S RNG.
      hw::Netlist n = hw::regenerator_netlist(config.sng_width) * gb_units;
      n += hw::lfsr_netlist(config.sng_width);
      n.set_label("regeneration-overhead");
      return n;
    }
    case Variant::kSynchronizer: {
      // Two synchronizers per ED output (one per XOR operand pair).
      hw::Netlist n =
          hw::synchronizer_netlist(config.sync_depth) * (2 * ed_units);
      n.set_label("synchronizer-overhead");
      return n;
    }
  }
  return hw::Netlist{};
}

PipelineResult run_pipeline(const Image& input, Variant variant,
                            const PipelineConfig& config) {
  validate(input, variant, config);
  const std::size_t t = config.tile;

  PipelineResult result;
  result.variant = variant;
  result.reference = reference_pipeline(input);
  result.output = Image(input.width(), input.height());

  // One tile engine with free-running LFSRs, processing tiles serially.
  Generators gen(config);

  const std::size_t tiles_x = (input.width() + t - 1) / t;
  const std::size_t tiles_y = (input.height() + t - 1) / t;

  for (std::size_t ty = 0; ty < tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < tiles_x; ++tx) {
      process_tile(input, variant, config, tx, ty, gen, result.output);
    }
  }

  result.error = mean_abs_error(result.output, result.reference);
  account_cost(result, variant, config, tiles_x * tiles_y);
  return result;
}

PipelineResult run_pipeline_tiled(const Image& input, Variant variant,
                                  const PipelineConfig& config,
                                  engine::Session& session) {
  validate(input, variant, config);
  const std::size_t t = config.tile;

  PipelineResult result;
  result.variant = variant;
  result.reference = reference_pipeline(input);
  result.output = Image(input.width(), input.height());

  const std::size_t tiles_x = (input.width() + t - 1) / t;
  const std::size_t tiles_y = (input.height() + t - 1) / t;
  const std::size_t tiles = tiles_x * tiles_y;

  // Each tile gets its own generators, seeded from the tile index: the
  // hardware analog is an array of identical tile engines with per-engine
  // seed registers.  Tiles touch disjoint output pixels, so the fan-out
  // needs no synchronization, and the output depends only on `config` —
  // not on the session's thread count or scheduling.
  session.for_each(tiles, [&](std::size_t tile_index) {
    PipelineConfig tile_config = config;
    // Strided so tile seeds stay distinct after the generators' LFSRs
    // mask them down to sng_width bits.
    tile_config.seed = engine::strided_seed32(config.seed, tile_index);
    Generators gen(tile_config);
    process_tile(input, variant, tile_config, tile_index % tiles_x,
                 tile_index / tiles_x, gen, result.output);
  });

  result.error = mean_abs_error(result.output, result.reference);
  account_cost(result, variant, config, tiles);
  return result;
}

graph::Program window_program(const std::array<double, 16>& pixels,
                              unsigned rng_groups) {
  if (rng_groups < 1) {
    // An assert vanishes under NDEBUG and `i % rng_groups` would divide
    // by zero (same class as the overlap() release-mode fix).
    throw std::invalid_argument("window_program: rng_groups must be >= 1");
  }
  graph::GraphBuilder b;
  std::array<graph::Value, 16> px;
  for (unsigned i = 0; i < 16; ++i) {
    px[i] = b.input("p" + std::to_string(i / 4) + std::to_string(i % 4),
                    pixels[i], i % rng_groups);
  }
  // Four overlapping 3x3 blur windows centered on the inner 2x2.
  std::array<graph::Value, 4> blurred;
  for (unsigned cy = 0; cy < 2; ++cy) {
    for (unsigned cx = 0; cx < 2; ++cx) {
      std::vector<graph::Value> window;
      window.reserve(9);
      for (unsigned dy = 0; dy < 3; ++dy) {
        for (unsigned dx = 0; dx < 3; ++dx) {
          window.push_back(px[(cy + dy) * 4 + (cx + dx)]);
        }
      }
      blurred[cy * 2 + cx] = b.op("gaussian-blur-3x3", window);
    }
  }
  b.output(b.op("roberts-cross", {blurred[0], blurred[1], blurred[2],
                                  blurred[3]}),
           "edge");
  return b.build();
}

double window_reference(const std::array<double, 16>& pixels) {
  // Deliberately independent of the registry's exact() lambdas (weights
  // and Roberts formula restated): this is the cross-check that keeps the
  // registered operator semantics honest, so do not fold it into them.
  static constexpr double kW[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  double g[4];
  for (unsigned cy = 0; cy < 2; ++cy) {
    for (unsigned cx = 0; cx < 2; ++cx) {
      double sum = 0.0;
      for (unsigned dy = 0; dy < 3; ++dy) {
        for (unsigned dx = 0; dx < 3; ++dx) {
          sum += kW[dy * 3 + dx] * pixels[(cy + dy) * 4 + (cx + dx)];
        }
      }
      g[cy * 2 + cx] = sum / 16.0;
    }
  }
  return 0.5 * (std::abs(g[0] - g[3]) + std::abs(g[1] - g[2]));
}

}  // namespace sc::img
