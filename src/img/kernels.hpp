/// \file kernels.hpp
/// Floating-point reference kernels for the §IV pipeline: 3x3 Gaussian blur
/// and the Roberts cross edge detector (paper refs [13]).
///
/// The SC accelerator (sc_pipeline.hpp) approximates exactly these
/// functions; the paper's image "Abs. Error" compares the SC output against
/// this float pipeline on the same input.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "img/image.hpp"

namespace sc::img {

/// The 3x3 binomial Gaussian kernel (1/16) {1 2 1; 2 4 2; 1 2 1} used by the
/// SC MUX-tree implementation; weights sum to 1 with 16 "slots".
inline constexpr std::array<int, 9> kGaussianWeights16 = {1, 2, 1,
                                                          2, 4, 2,
                                                          1, 2, 1};

/// The SC blur's weight decoder: 16-slot binomial expansion of
/// kGaussianWeights16, mapping a uniform 4-bit select value to the window
/// index (row-major) it picks — index k fills kGaussianWeights16[k] slots,
/// so a 9-to-1 MUX tree driven by it averages with the kernel's weights.
/// Shared by the tile engine (sc_pipeline.cpp) and the registry's
/// "gaussian-blur-3x3" operator.
inline constexpr std::array<std::uint8_t, 16> kGaussianSelect16 = [] {
  std::array<std::uint8_t, 16> table{};
  std::size_t slot = 0;
  for (std::size_t k = 0; k < kGaussianWeights16.size(); ++k) {
    for (int r = 0; r < kGaussianWeights16[k]; ++r) {
      table[slot++] = static_cast<std::uint8_t>(k);
    }
  }
  return table;
}();

/// 3x3 Gaussian blur with border-clamped sampling.
Image gaussian_blur3(const Image& input);

/// Roberts cross edge detector on a (blurred) image, matching the SC
/// dataflow: ED(i,j) = 0.5 * (|G(i,j) - G(i+1,j+1)| + |G(i+1,j) - G(i,j+1)|)
/// with border clamping.  The 0.5 factor is the SC MUX adder's scale.
Image roberts_cross(const Image& input);

/// Full float reference pipeline: roberts_cross(gaussian_blur3(input)).
Image reference_pipeline(const Image& input);

/// 3x3 median filter reference (for the sorting-network example).
Image median3x3(const Image& input);

}  // namespace sc::img
