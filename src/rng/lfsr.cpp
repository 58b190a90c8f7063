#include "rng/lfsr.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/simd.hpp"

namespace sc::rng {
namespace {

/// Maximal-period feedback taps for Fibonacci LFSRs of width 3..32
/// (XAPP052-style tap positions, stored as a mask with bit p-1 set for each
/// 1-indexed tap position p; feedback is the XOR of the tapped bits and is
/// shifted into the LSB).
constexpr std::array<std::uint32_t, 33> kTapTable = [] {
  std::array<std::uint32_t, 33> t{};
  auto mask = [](std::initializer_list<unsigned> taps) {
    std::uint32_t m = 0;
    for (unsigned p : taps) m |= 1u << (p - 1);
    return m;
  };
  t[3] = mask({3, 2});
  t[4] = mask({4, 3});
  t[5] = mask({5, 3});
  t[6] = mask({6, 5});
  t[7] = mask({7, 6});
  t[8] = mask({8, 6, 5, 4});
  t[9] = mask({9, 5});
  t[10] = mask({10, 7});
  t[11] = mask({11, 9});
  t[12] = mask({12, 6, 4, 1});
  t[13] = mask({13, 4, 3, 1});
  t[14] = mask({14, 5, 3, 1});
  t[15] = mask({15, 14});
  t[16] = mask({16, 15, 13, 4});
  t[17] = mask({17, 14});
  t[18] = mask({18, 11});
  t[19] = mask({19, 6, 2, 1});
  t[20] = mask({20, 17});
  t[21] = mask({21, 19});
  t[22] = mask({22, 21});
  t[23] = mask({23, 18});
  t[24] = mask({24, 23, 22, 17});
  t[25] = mask({25, 22});
  t[26] = mask({26, 6, 2, 1});
  t[27] = mask({27, 5, 2, 1});
  t[28] = mask({28, 25});
  t[29] = mask({29, 27});
  t[30] = mask({30, 6, 4, 1});
  t[31] = mask({31, 28});
  t[32] = mask({32, 22, 2, 1});
  return t;
}();

/// One Fibonacci step (the update inside next(), as a free function).
inline std::uint32_t fib_step(std::uint32_t state, std::uint32_t taps,
                              std::uint32_t mask) {
  const auto feedback =
      static_cast<std::uint32_t>(sc::popcount32(state & taps) & 1);
  return ((state << 1) | feedback) & mask;
}

/// Lanes advanced in parallel by fill(): the register update is linear
/// over GF(2), so "advance kLeapLanes steps" is a matrix A^kLeapLanes that
/// byte-sliced tables apply in 4 lookups + 3 XORs.  Eight lanes starting
/// at consecutive offsets then emit the exact next()-sequence without the
/// per-step feedback dependency chain, which is what makes block fills
/// several times faster than serial stepping.
constexpr unsigned kLeapLanes = 8;

struct LeapTable {
  std::uint32_t bytes[4][256];

  [[nodiscard]] std::uint32_t advance(std::uint32_t state) const {
    return bytes[0][state & 0xFFu] ^ bytes[1][(state >> 8) & 0xFFu] ^
           bytes[2][(state >> 16) & 0xFFu] ^ bytes[3][state >> 24];
  }
};

/// Jump-ahead tables per register width (taps and mask are functions of
/// the width, so the cache key is just the width).
const LeapTable& leap_table(unsigned width, std::uint32_t taps,
                            std::uint32_t mask) {
  static std::mutex mutex;
  static std::map<unsigned, std::unique_ptr<const LeapTable>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(width);
  if (it != cache.end()) return *it->second;

  auto table = std::make_unique<LeapTable>();
  std::uint32_t column[32] = {};
  for (unsigned bit = 0; bit < width; ++bit) {
    std::uint32_t s = std::uint32_t{1} << bit;
    for (unsigned k = 0; k < kLeapLanes; ++k) s = fib_step(s, taps, mask);
    column[bit] = s;
  }
  for (unsigned k = 0; k < 4; ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (unsigned j = 0; j < 8; ++j) {
        const unsigned bit = k * 8 + j;
        if (((b >> j) & 1u) != 0 && bit < width) v ^= column[bit];
      }
      table->bytes[k][b] = v;
    }
  }
  const LeapTable& ref = *table;
  cache.emplace(width, std::move(table));
  return ref;
}

/// Widest register served from a shared orbit: 2^16 - 1 states keep one
/// orbit (values + index) under 0.5 MiB and its index in uint16_t.
constexpr unsigned kMaxOrbitWidth = 16;

/// Orbit draws handed to one SIMD packing call.  The orbit stores this
/// many values past its period (wrapped), so a block starting anywhere on
/// the orbit is contiguous and packed output stays word-aligned.
constexpr std::size_t kOrbitBlock = 4096;

unsigned validated_width(unsigned width) {
  if (width < 3 || width > 32) {
    throw std::invalid_argument("Lfsr: width " + std::to_string(width) +
                                " outside 3..32");
  }
  return width;
}

/// Emitted value of a register state (output rotation applied).
inline std::uint32_t rotate_out(std::uint32_t state, unsigned rotation,
                                unsigned width, std::uint32_t mask) {
  if (rotation == 0) return state;
  return ((state >> rotation) | (state << (width - rotation))) & mask;
}

}  // namespace

std::uint32_t Lfsr::maximal_taps(unsigned width) {
  return kTapTable[validated_width(width)];
}

struct Lfsr::Orbit {
  std::size_t period = 0;
  /// Emitted values walking from state 1, then kOrbitBlock wrapped repeats.
  std::vector<std::uint32_t> values;
  /// index[state] = position of that state in `values` (state 0 unused).
  std::vector<std::uint16_t> index;
};

const Lfsr::Orbit* Lfsr::shared_orbit(unsigned width, unsigned rotation) {
  if (width > kMaxOrbitWidth) return nullptr;
  static std::mutex mutex;
  static std::map<std::pair<unsigned, unsigned>, std::unique_ptr<const Orbit>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto [it, inserted] = cache.try_emplace({width, rotation});
  if (!inserted) return it->second.get();

  const std::uint32_t taps = kTapTable[width];
  const std::uint32_t mask = (1u << width) - 1u;
  auto orbit = std::make_unique<Orbit>();
  orbit->period = mask;
  orbit->values.reserve(orbit->period + kOrbitBlock);
  orbit->index.assign(std::size_t{mask} + 1, 0);
  std::uint32_t state = 1;
  for (std::size_t i = 0; i < orbit->period; ++i) {
    if (i != 0 && state == 1) return nullptr;  // closed early: short cycle
    orbit->index[state] = static_cast<std::uint16_t>(i);
    orbit->values.push_back(rotate_out(state, rotation, width, mask));
    state = fib_step(state, taps, mask);
  }
  // Back at the start after exactly 2^w - 1 distinct states, or the taps
  // are not maximal and the word API keeps the block-fill defaults.
  if (state != 1) return nullptr;
  for (std::size_t i = 0; i < kOrbitBlock; ++i) {
    orbit->values.push_back(orbit->values[i % orbit->period]);
  }
  it->second = std::move(orbit);
  return it->second.get();
}

Lfsr::Lfsr(unsigned width, std::uint32_t seed, unsigned rotation)
    : width_(validated_width(width)),
      rotation_(rotation % width),
      taps_(kTapTable[width]),
      mask_(width == 32 ? ~0u : (1u << width) - 1u),
      orbit_(shared_orbit(width, rotation_)) {
  seed &= mask_;
  if (seed == 0) seed = 1;  // the all-zero state is a fixed point
  seed_ = seed;
  state_ = seed;
}

const std::uint8_t* Lfsr::shared_indices(const Orbit& orbit,
                                         std::uint32_t bound) {
  static std::mutex mutex;
  static std::map<std::pair<const Orbit*, std::uint32_t>,
                  std::vector<std::uint8_t>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto [it, inserted] = cache.try_emplace({&orbit, bound});
  if (inserted) {
    it->second.resize(orbit.values.size());
    simd::mod_bytes(orbit.values.data(), orbit.values.size(), bound,
                    orbit.period + 1, it->second.data());
  }
  return it->second.data();
}

template <typename Emit>
void Lfsr::replay(std::size_t values, std::size_t block, Emit&& emit) {
  const Orbit& orbit = *orbit_;
  std::size_t pos = orbit.index[state_];
  for (std::size_t done = 0; done < values;) {
    const std::size_t take =
        std::min({values - done, block, orbit.values.size() - pos});
    emit(pos, take, done);
    pos = (pos + take) % orbit.period;
    done += take;
  }
  state_ = unemit(orbit.values[pos]);
}

void Lfsr::fill_compare(std::uint64_t* words, std::size_t nbits,
                        std::uint64_t level) {
  if (orbit_ == nullptr || level >= range()) {
    RandomSource::fill_compare(words, nbits, level);
    return;
  }
  const auto level32 = static_cast<std::uint32_t>(level);
  const std::uint32_t* vals = orbit_->values.data();
  replay(nbits, kOrbitBlock,
         [&](std::size_t pos, std::size_t n, std::size_t i) {
           simd::pack_compare_lt(vals + pos, n, level32, words + i / 64);
         });
}

void Lfsr::fill_compare_trace(std::uint64_t* words, const std::uint16_t* thresh,
                              std::size_t nbits) {
  if (orbit_ == nullptr) {
    RandomSource::fill_compare_trace(words, thresh, nbits);
    return;
  }
  const std::uint32_t* vals = orbit_->values.data();
  replay(nbits, kOrbitBlock,
         [&](std::size_t pos, std::size_t n, std::size_t i) {
           simd::pack_compare_trace(vals + pos, thresh + i, n, words + i / 64);
         });
}

void Lfsr::fill_indices(std::uint8_t* out, std::size_t n, std::uint32_t bound) {
  if (orbit_ == nullptr) {
    RandomSource::fill_indices(out, n, bound);
    return;
  }
  const std::uint8_t* indices = shared_indices(*orbit_, bound);
  replay(n, n, [&](std::size_t pos, std::size_t take, std::size_t i) {
    std::memcpy(out + i, indices + pos, take);
  });
}

std::uint32_t Lfsr::next() {
  const std::uint32_t out = state_;
  state_ = fib_step(state_, taps_, mask_);
  return rotate_out(out, rotation_, width_, mask_);
}

void Lfsr::fill(std::uint32_t* out, std::size_t n) {
  std::uint32_t state = state_;
  const std::uint32_t taps = taps_;
  const std::uint32_t mask = mask_;
  const unsigned rot = rotation_;
  const unsigned inv = width_ - rot;
  const auto emit = [rot, inv, mask](std::uint32_t s) {
    return rot == 0 ? s : (((s >> rot) | (s << inv)) & mask);
  };

  std::size_t i = 0;
  if (n >= 4 * kLeapLanes) {
    // Jump-ahead path: lane j holds the register kLeapLanes*r + j steps
    // ahead of state_, so each round emits kLeapLanes in-order values and
    // advances every lane independently (no cross-lane dependency chain).
    const LeapTable& leap = leap_table(width_, taps, mask);
    std::uint32_t lane[kLeapLanes];
    lane[0] = state;
    for (unsigned j = 1; j < kLeapLanes; ++j) {
      lane[j] = fib_step(lane[j - 1], taps, mask);
    }
    for (; i + kLeapLanes <= n; i += kLeapLanes) {
      for (unsigned j = 0; j < kLeapLanes; ++j) out[i + j] = emit(lane[j]);
      for (unsigned j = 0; j < kLeapLanes; ++j) {
        lane[j] = leap.advance(lane[j]);
      }
    }
    state = lane[0];  // register after i = (n / kLeapLanes) * kLeapLanes steps
  }
  // Serial path: short fills and the sub-lane tail.
  for (; i < n; ++i) {
    out[i] = emit(state);
    state = fib_step(state, taps, mask);
  }
  state_ = state;
}

std::unique_ptr<RandomSource> Lfsr::clone() const {
  return std::make_unique<Lfsr>(*this);
}

std::string Lfsr::name() const {
  std::ostringstream os;
  os << "lfsr" << width_ << "(seed=0x" << std::hex << seed_;
  if (rotation_ != 0) os << std::dec << ",rot=" << rotation_;
  os << ")";
  return os.str();
}

}  // namespace sc::rng
