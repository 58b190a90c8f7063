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
#include <memory>

#include "bitstream/bitstream.hpp"
#include "core/pair_transform.hpp"

namespace sc::kernel {

class PairNibbleTable;

/// The process-wide (state, 4 input bit-pairs) transition table of a
/// depth-`depth` synchronizer (core::Synchronizer::transition, no flush),
/// built on first request; state index = credit + depth, so a fresh FSM
/// starts at index `depth`.  nullptr for depth 0 or above the table cap
/// (2047).  Callers running many fresh synchronizers fetch it once and
/// drive it with run_pair_table.
std::shared_ptr<const PairNibbleTable> synchronizer_table(unsigned depth);

/// Advances `bits` cycles of both packed streams in place through a
/// nibble table from state index `state`; returns the successor state.
/// Bits at positions >= `bits` in the final word are preserved.
unsigned run_pair_table(const PairNibbleTable& table, unsigned state,
                        Bitstream::Word* xw, Bitstream::Word* yw,
                        std::size_t bits);

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
