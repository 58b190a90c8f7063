#include "convert/sng.hpp"

#include <stdexcept>
#include <string>

#include "bitstream/encoding.hpp"

namespace sc::convert {
namespace {

/// Rejects a null source before the member initializers dereference it.
rng::RandomSourcePtr non_null(rng::RandomSourcePtr source) {
  if (source == nullptr) {
    throw std::invalid_argument("Sng: null random source");
  }
  return source;
}

}  // namespace

Sng::Sng(rng::RandomSourcePtr source)
    : source_(non_null(std::move(source))),
      // Width can be 32, so the period must be computed (and kept) in 64
      // bits: a uint32 natural length wraps to 0 and every comparator test
      // `next() < 0` fails, yielding all-zero streams.
      natural_length_(std::uint64_t{1} << source_->width()) {}

Bitstream Sng::generate(std::uint64_t level, std::size_t n) {
  if (level > natural_length_) {
    throw std::invalid_argument("Sng::generate: level " +
                                std::to_string(level) +
                                " exceeds the natural length " +
                                std::to_string(natural_length_));
  }
  Bitstream out(n);
  source_->fill_compare(out.word_data(), n, level);
  return out;
}

Bitstream Sng::generate_value(double p, std::size_t n) {
  return generate(unipolar_level64(p, natural_length_), n);
}

}  // namespace sc::convert
