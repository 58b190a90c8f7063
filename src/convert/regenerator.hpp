/// \file regenerator.hpp
/// Regeneration: the expensive baseline correlation "reset" the paper's
/// circuits replace (paper §II-B, Ting & Hayes ICCD 2016).
///
/// A regenerator converts a stream back to binary with an S/D counter and
/// re-encodes it with a D/S converter.  The re-encoded stream's correlation
/// with any other stream is then dictated purely by the D/S RNGs: sharing
/// one RNG across all regenerated streams yields SCC = +1 between them;
/// distinct low-discrepancy RNGs yield SCC near 0.
///
/// Regeneration needs the full stream before it can emit (the counter must
/// finish), so in hardware it also doubles latency; the cost model accounts
/// an S/D counter + D/S comparator + (amortized) RNG per regenerated stream.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "convert/sng.hpp"
#include "rng/random_source.hpp"

namespace sc::convert {

/// Regenerates one stream: S/D count, then D/S re-encode with `source`.
/// The output has the same length and (exactly) the same number of 1s as the
/// input iff the source is a full-period permutation source (VDC, counter);
/// otherwise the value matches in expectation.
Bitstream regenerate(const Bitstream& input, rng::RandomSource& source);

/// Regenerates a whole bus of streams from a single shared RNG, which is the
/// paper's "induce positive correlation between all SNs" configuration: all
/// outputs are pairwise SCC = +1.
std::vector<Bitstream> regenerate_bus_correlated(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source);

/// Word form of regenerate_bus_correlated, in place: `count` packed
/// `n`-bit streams, stream k at words + k * stride (stride >= (n + 63) / 64
/// words, bits past n clear), each replaced by its re-encoding against one
/// shared trace of `n` draws.  Bit-identical to the vector form.
void regenerate_bus_correlated(std::uint64_t* words, std::size_t stride,
                               std::size_t count, std::size_t n,
                               rng::RandomSource& shared_source);

/// Regenerates a bus with an independent clone-with-offset source per stream
/// (decorrelating regeneration).
std::vector<Bitstream> regenerate_bus_uncorrelated(
    const std::vector<Bitstream>& inputs,
    const std::vector<rng::RandomSource*>& sources);

}  // namespace sc::convert
