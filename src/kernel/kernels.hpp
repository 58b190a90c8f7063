/// \file kernels.hpp
/// Table-driven multi-bit kernels for the correlation manipulating FSMs.
///
/// Every circuit in the paper is a per-cycle FSM, and the bit-serial
/// PairTransform/StreamTransform interfaces pay a virtual dispatch (plus
/// bit get/set) per cycle.  For long streams that dispatch, not memory
/// bandwidth, bounds throughput.  The kernels here advance packed words
/// directly:
///
///  * Synchronizer / Desynchronizer: state spaces are depth-bounded
///    counters, so a (state, 4 input bit-pairs) -> (state', 4 output
///    bit-pairs) table (pair_table.hpp) advances a byte of each stream
///    with two lookups.  In flush mode the force condition can only fire
///    within the final `depth` announced cycles (|saved bits| <= depth),
///    so the kernel runs the table up to that window and hands the tail to
///    the bit-serial FSM — output stays bit-identical.
///  * Decorrelator: each shuffle buffer's occupancy is a <= depth-bit
///    mask; a (mask, address, in) -> (mask', out) table advances one cycle
///    per lookup with no virtual calls, the auxiliary RNG prefilled a
///    block at a time (RandomSource::fill) and reduced with an exact
///    divide-free modulo (fastmod.hpp).  Depths above the table cap use
///    the same blocked loop with direct mask updates.
///  * TFM pair: the fixed-point estimate is the whole state; a
///    (estimate, in) -> estimate' table plus a prefilled RNG block turns
///    each cycle into one lookup and one compare.
///
/// A kernel is compiled *for the current state* of a live transform by
/// make_pair_kernel / make_stream_kernel: it reads the FSM state at
/// creation, advances it privately (drawing from the transform's own RNG
/// sources so sequence positions stay shared), and writes the final state
/// back on finish().  Between creation and finish() the wrapped transform
/// must not be stepped directly.  Transforms without a kernel return
/// nullptr and callers fall back to the bit-serial path; results are
/// bit-identical either way (enforced by tests/kernel_test.cpp).

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
/// nullptr when the concrete type/configuration has no table-driven path.
/// Supported: core::Synchronizer, core::Desynchronizer, core::Decorrelator
/// and core::DecorrelatorChainLink (buffer depth <= 64), core::TfmPair
/// (precision <= 16).
std::unique_ptr<PairKernel> make_pair_kernel(core::PairTransform& transform);

/// Single-stream version.  Supported: core::ShuffleBuffer (depth <= 64),
/// core::TrackingForecastMemory (precision <= 16).
std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform);

}  // namespace sc::kernel
