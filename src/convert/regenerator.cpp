#include "convert/regenerator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/simd.hpp"

namespace sc::convert {

namespace {

/// Re-encodes one packed n-bit stream in place against a shared trace of
/// draws from a source of the given range (S/D count, then D/S compare).
void regenerate_in_place(std::uint64_t* stream, std::size_t n,
                         const std::uint32_t* trace, std::uint64_t range) {
  const std::size_t used = (n + 63) / 64;
  std::uint64_t ones = 0;
  for (std::size_t w = 0; w < used; ++w) ones += popcount64(stream[w]);
  const std::uint64_t level = (ones * range + n / 2) / n;
  std::fill_n(stream, used, std::uint64_t{0});
  if (level >= range) {
    // Full scale: every draw is below it (and at width 32 the level no
    // longer fits the 32-bit compare).
    std::fill_n(stream, n / 64, ~std::uint64_t{0});
    if (n % 64 != 0) stream[n / 64] = (std::uint64_t{1} << (n % 64)) - 1;
  } else {
    simd::pack_compare_lt(trace, n, static_cast<std::uint32_t>(level), stream);
  }
}

/// One shared RNG drives every comparator, so the per-cycle random value
/// must be identical across streams: the trace is drawn once per bus.
std::vector<std::uint32_t> shared_trace(rng::RandomSource& source,
                                        std::size_t n) {
  std::vector<std::uint32_t> trace(n);
  source.fill(trace.data(), n);
  return trace;
}

}  // namespace

Bitstream regenerate(const Bitstream& input, rng::RandomSource& source) {
  const std::size_t n = input.size();
  // S/D: recover the binary level.  The comparator threshold convention is
  // (r < level) with r in [0, 2^w); when n == 2^w the level equals the ones
  // count directly.  For other lengths the level is rescaled to the source
  // range so the re-encoded value matches the input value.
  const std::uint64_t ones = input.count_ones();
  std::uint64_t level = 0;
  if (n != 0) {
    level = (ones * source.range() + n / 2) / n;  // round to nearest
  }
  Bitstream out(n);
  source.fill_compare(out.word_data(), n, level);
  return out;
}

std::vector<Bitstream> regenerate_bus_correlated(
    const std::vector<Bitstream>& inputs, rng::RandomSource& shared_source) {
  std::vector<Bitstream> out = inputs;
  if (out.empty()) return out;
  const std::size_t n = out.front().size();
  for (const Bitstream& input : inputs) {
    if (input.size() != n) {
      throw std::invalid_argument(
          "regenerate_bus_correlated: streams differ in length");
    }
  }
  if (n == 0) return out;
  const std::vector<std::uint32_t> trace = shared_trace(shared_source, n);
  for (Bitstream& stream : out) {
    regenerate_in_place(stream.word_data(), n, trace.data(),
                        shared_source.range());
  }
  return out;
}

void regenerate_bus_correlated(std::uint64_t* words, std::size_t stride,
                               std::size_t count, std::size_t n,
                               rng::RandomSource& shared_source) {
  if (count == 0 || n == 0) return;
  const std::vector<std::uint32_t> trace = shared_trace(shared_source, n);
  for (std::size_t k = 0; k < count; ++k) {
    regenerate_in_place(words + k * stride, n, trace.data(),
                        shared_source.range());
  }
}

std::vector<Bitstream> regenerate_bus_uncorrelated(
    const std::vector<Bitstream>& inputs,
    const std::vector<rng::RandomSource*>& sources) {
  assert(inputs.size() == sources.size());
  std::vector<Bitstream> out;
  out.reserve(inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    assert(sources[k] != nullptr);
    out.push_back(regenerate(inputs[k], *sources[k]));
  }
  return out;
}

}  // namespace sc::convert
