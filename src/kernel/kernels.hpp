/// \file kernels.hpp
/// Word-level kernels for the correlation manipulating FSMs.
///
/// Every circuit in the paper is a per-cycle FSM, and the bit-serial
/// PairTransform/StreamTransform interfaces pay a virtual dispatch (plus
/// bit get/set) per cycle.  For long streams that dispatch, not memory
/// bandwidth, bounds throughput.  The kernels here advance packed words
/// directly, one datapath per FSM:
///
///  * Synchronizer / Desynchronizer: state spaces are depth-bounded
///    counters, so a (state, 4 input bit-pairs) -> (state', 4 output
///    bit-pairs) table (pair_table.hpp) advances a byte of each stream
///    with two lookups.  In flush mode the force condition can only fire
///    within the final `depth` announced cycles (|saved bits| <= depth),
///    so the kernel runs the table up to that window and hands the tail to
///    the bit-serial FSM — output stays bit-identical.
///  * Decorrelator / shuffle buffer (depth <= 63): address draws come
///    pre-reduced from the buffer's source (RandomSource::fill_indices)
///    and whole words advance through the SIMD slot-class shuffle
///    (simd::shuffle_words), the slot mask held in a register.
///  * TFM (precision <= 8): a nibble-jump table walks the input four
///    cycles per lookup into a post-update estimate trace, and the output
///    is regenerated a word at a time as (aux draw < estimate)
///    (RandomSource::fill_compare_trace).
///  * Synchronized XOR (sync_xor_planes): many fresh synchronizers, each
///    feeding an XOR gate, step together as a bit-sliced saturating
///    counter over cycle-major planes, 64 lanes per word operation — the
///    §IV image pipeline's Roberts-cross units (img/sc_pipeline.cpp).
///
/// The SIMD primitives each have an exact scalar twin, so these datapaths
/// run at every tier, SC_SIMD=off included.
///
/// A kernel is compiled *for the current state* of a live transform by
/// make_pair_kernel / make_stream_kernel: it reads the FSM state at
/// creation, advances it privately (drawing from the transform's own RNG
/// sources so sequence positions stay shared), and writes the final state
/// back on finish().  Between creation and finish() the wrapped transform
/// must not be stepped directly.  Transforms without a kernel (other
/// types, shuffle depth >= 64, TFM precision >= 9) return nullptr and
/// callers run the core step() oracle; results are bit-identical either
/// way (enforced by tests/kernel_test.cpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bitstream/bitstream.hpp"
#include "core/pair_transform.hpp"

namespace sc::kernel {

/// Largest save depth sync_xor_planes accepts.  Its saturating counter
/// holds s = credit + depth in bit_width(2 * depth) planes — the flops of
/// hw::synchronizer_netlist's state register — so the cap bounds the
/// counter at 12 planes.
inline constexpr unsigned kMaxSyncXorDepth = 2047;

/// Transposes a 64x64 bit matrix in place: bit j of word i trades places
/// with bit i of word j.  Converts between stream-major words (one word =
/// 64 cycles of one stream) and cycle-major planes (one word = one cycle
/// of 64 streams).
void transpose64(Bitstream::Word block[64]);

/// Bit-sliced synchronized XOR: every lane is a fresh depth-`depth`
/// synchronizer (core::Synchronizer, flush off, credit 0) whose output
/// pair feeds an XOR gate, and all lanes step together, one cycle per
/// plane.  `x`, `y` and `out` each hold `cycles` cycle-major planes of
/// `lane_words` words (plane c starts at word c * lane_words; lane l is
/// bit l % 64 of word l / 64).  `out` may alias `x` or `y`.
///
/// The XOR of a synchronizer's outputs is 1 exactly when the inputs differ
/// while the credit is saturated on the input's side (pass-through): equal
/// inputs give equal outputs, a pairing emits (1,1) and a save (0,0).  So
/// each lane is a saturating up/down counter over [-depth, depth] that
/// steps up on x & ~y and down on ~x & y, and `out` is its clip event.
/// Depth 0 is a plain XOR.  Throws std::invalid_argument for depth above
/// kMaxSyncXorDepth.
void sync_xor_planes(unsigned depth, const Bitstream::Word* x,
                     const Bitstream::Word* y, Bitstream::Word* out,
                     std::size_t lane_words, std::size_t cycles);

/// Per-lane population counts of `cycles` cycle-major planes of
/// `lane_words` words (the sync_xor_planes layout): counts[l] = number of
/// planes with lane l set, for every l < lane_words * 64.  A bit-sliced
/// carry-save adder tree folds 16 planes into the per-lane counters at a
/// time, so a count costs a fraction of a word operation per cycle.
void count_lanes(const Bitstream::Word* planes, std::size_t lane_words,
                 std::size_t cycles, std::uint64_t* counts);

/// Word-level driver of a two-stream FSM.
class PairKernel {
 public:
  virtual ~PairKernel() = default;

  /// Transforms the next `bits` cycles in place over packed words.
  /// Bits at positions >= `bits` in the final word are preserved.
  virtual void process(Bitstream::Word* x, Bitstream::Word* y,
                       std::size_t bits) = 0;

  /// Writes the kernel's state back into the wrapped transform so
  /// bit-serial execution can continue exactly where the kernel stopped.
  virtual void finish() = 0;
};

/// Word-level driver of a single-stream FSM.
class StreamKernel {
 public:
  virtual ~StreamKernel() = default;
  virtual void process(Bitstream::Word* x, std::size_t bits) = 0;
  virtual void finish() = 0;
};

/// Compiles a kernel for the transform's exact current state, or returns
/// nullptr when the concrete type/configuration has no word-level path.
/// Supported: core::Synchronizer, core::Desynchronizer (nibble table of
/// <= 4096 states), core::Decorrelator and core::DecorrelatorChainLink
/// (buffer depth <= 63), core::TfmPair (precision <= 8).
std::unique_ptr<PairKernel> make_pair_kernel(core::PairTransform& transform);

/// Single-stream version.  Supported: core::ShuffleBuffer (depth <= 63),
/// core::TrackingForecastMemory (precision <= 8).
std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform);

}  // namespace sc::kernel
