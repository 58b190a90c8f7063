/// \file lfsr.hpp
/// Maximal-length Fibonacci linear-feedback shift register.
///
/// The paper notes LFSRs are the traditional compact SC random source but
/// that different seeds / rotations are needed to keep streams uncorrelated.
/// This implementation supports widths 3..32 with known maximal-period tap
/// sets (period 2^w - 1; the all-zero state is unreachable).  The emitted
/// value is the full register contents, optionally bit-rotated so that many
/// decorrelated outputs can be drawn from one register (the standard
/// amortization trick the paper describes).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rng/random_source.hpp"

namespace sc::rng {

/// Fibonacci LFSR over GF(2) with maximal-period taps.
///
/// Word API: a maximal-period register has exactly one nonzero state
/// orbit per width, and the output rotation only relabels what it emits.
/// So for widths up to 16 every instance of a (width, rotation) shares one
/// immutable, process-wide orbit: one period of emitted values plus a
/// state -> index table, built once on first use.  A seed is then just a
/// start offset into that orbit.  fill_compare / fill_compare_trace /
/// fill_indices look the cursor up from the register state in O(1), pack
/// straight from the orbit (fill_indices copies from a byte table of the
/// orbit reduced modulo its bound, shared the same way), and leave the
/// register at the state the same number of next() calls would have
/// reached, so word calls interleave freely with next(), reset() and
/// clone().  Wider registers (and any orbit whose period check fails) use
/// the generic block-fill defaults.
class Lfsr final : public RandomSource {
 public:
  /// \param width    register width in bits (3..32; anything else throws
  ///                 std::invalid_argument)
  /// \param seed     initial state; must be nonzero in the low `width` bits
  ///                 (0 is remapped to 1, the conventional safe default)
  /// \param rotation output rotation in bits (models tapping the register at
  ///                 a different bit offset to obtain a decorrelated copy)
  explicit Lfsr(unsigned width, std::uint32_t seed = 1, unsigned rotation = 0);

  std::uint32_t next() override;
  void fill(std::uint32_t* out, std::size_t n) override;
  void fill_compare(std::uint64_t* words, std::size_t nbits,
                    std::uint64_t level) override;
  void fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                          std::size_t nbits) override;
  void fill_indices(std::uint8_t* out, std::size_t n,
                    std::uint32_t bound) override;
  [[nodiscard]] unsigned width() const override { return width_; }
  void reset() override { state_ = seed_; }
  [[nodiscard]] std::unique_ptr<RandomSource> clone() const override;
  [[nodiscard]] std::string name() const override;

  /// Feedback tap mask (XOR of tapped bits feeds bit width-1).
  [[nodiscard]] std::uint32_t taps() const { return taps_; }
  /// Current register state (for tests).
  [[nodiscard]] std::uint32_t state() const { return state_; }

  /// Maximal-period tap mask for a given width; throws
  /// std::invalid_argument outside 3..32.
  static std::uint32_t maximal_taps(unsigned width);

 private:
  /// One period of one (width, rotation), shared by every instance.
  struct Orbit;
  /// The process-wide orbit of (width, rotation), built on first request;
  /// nullptr above width 16 or when the period check fails.
  static const Orbit* shared_orbit(unsigned width, unsigned rotation);
  /// The orbit's values reduced modulo `bound` as bytes, laid out like the
  /// orbit: fill_indices serves every shuffle address from one, built once
  /// per (orbit, bound) and shared the same way.
  static const std::uint8_t* shared_indices(const Orbit& orbit,
                                            std::uint32_t bound);

  /// Register state that emits `value` (inverse of the output rotation).
  [[nodiscard]] std::uint32_t unemit(std::uint32_t value) const {
    if (rotation_ == 0) return value;
    return ((value << rotation_) | (value >> (width_ - rotation_))) & mask_;
  }

  /// Walks `values` draws along the orbit in contiguous segments, calling
  /// emit(orbit position, count, offset) per segment, then moves the
  /// register past them.  Segments are at most `block` long; a block that
  /// fits the orbit's wrapped tail makes every offset a multiple of it.
  template <typename Emit>
  void replay(std::size_t values, std::size_t block, Emit&& emit);

  unsigned width_;
  unsigned rotation_;
  std::uint32_t taps_;
  std::uint32_t seed_;
  std::uint32_t state_;
  std::uint32_t mask_;
  const Orbit* orbit_;  ///< shared, immutable; nullptr above width 16
};

}  // namespace sc::rng
