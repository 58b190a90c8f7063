/// \file apply.hpp
/// Whole-stream helpers that route through the word-level kernels.
///
/// Drop-in replacements for the core::apply helpers: same signature, same
/// begin_stream-then-run semantics, bit-identical output.  When the
/// transform has a kernel (make_pair_kernel / make_stream_kernel) the
/// streams advance word-parallel; otherwise (shuffle depth >= 64, TFM
/// precision >= 9, types without a kernel) these run the bit-serial
/// core::apply oracle.

#pragma once

#include <memory>

#include "bitstream/bitstream.hpp"
#include "bitstream/synthesis.hpp"
#include "core/pair_transform.hpp"
#include "kernel/kernels.hpp"

namespace sc::kernel {

/// Runs a pair transform over two equal-length streams (see core::apply).
sc::StreamPair apply(core::PairTransform& transform, const Bitstream& x,
                     const Bitstream& y);

inline sc::StreamPair apply(core::PairTransform& transform,
                            const sc::StreamPair& in) {
  // Qualified: ADL would otherwise also find core::apply and tie.
  return sc::kernel::apply(transform, in.x, in.y);
}

/// Runs a single-stream transform over a stream (see core::apply).
Bitstream apply(core::StreamTransform& transform, const Bitstream& x);

/// Drives a PairTransform across consecutive chunks of one logical stream
/// pair without ever materializing it: begin() announces the total length
/// (exactly as the whole-stream helpers do) and, when the transform has a
/// word-level kernel, compiles it once for the current FSM state;
/// advance() transforms each chunk pair in place, state carrying across
/// calls; finish() writes the kernel's state back into the transform.
/// Output is bit-identical to a whole-stream apply over the concatenated
/// chunks.  Shared by engine::run_chunked_pair and the graph engine
/// backend.
class ChunkedPairApplier {
 public:
  explicit ChunkedPairApplier(core::PairTransform& transform)
      : transform_(&transform) {}

  void begin(std::size_t total_length);
  void advance(Bitstream& x, Bitstream& y);
  void finish();

 private:
  core::PairTransform* transform_;
  std::unique_ptr<PairKernel> kernel_;
};

}  // namespace sc::kernel
