#include "kernel/kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/simd.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "kernel/pair_table.hpp"

namespace sc::kernel {
namespace {

using Word = Bitstream::Word;

/// Largest pair-FSM state count we table (nibble table is states * 1 KiB,
/// so the cap bounds a cached table at 4 MiB).
constexpr unsigned kMaxPairStates = 4096;

/// RNG values prefetched per block for the RNG-coupled kernels.  A
/// multiple of 64 so block starts stay word-aligned, which is what lets
/// the word-parallel paths hand whole words to the SIMD shim.
constexpr std::size_t kRngBlock = 4096;

/// Largest shuffle depth the word datapath serves: the slot-class PEXT/PDEP
/// decomposition in the SIMD shim handles depths 1..63 (depth 64 would
/// need 65 slot classes and 64-bit shifts by 64).  Deeper buffers have no
/// kernel and run the bit-serial step().
constexpr std::size_t kMaxShuffleDepth = 63;

/// Largest TFM precision the word datapath serves: the aux source width
/// equals the precision (tfm.hpp contract), so estimates fit the 16-bit
/// trace entries and the nibble-jump table stays at 33 KiB.  Higher
/// precisions have no kernel and run the bit-serial step().
constexpr unsigned kMaxTfmPrecision = 8;

// ------------------------------------------------------------ table caches

/// Shared memoization shape of the table caches below: one lock-guarded
/// map per table family, built on first request for a key.
template <typename Key, typename Value, typename BuildFn>
std::shared_ptr<const Value> cached(
    std::mutex& mutex, std::map<Key, std::shared_ptr<const Value>>& cache,
    const Key& key, BuildFn&& build) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  std::shared_ptr<const Value> value = build();
  cache.emplace(key, value);
  return value;
}

/// The (state, 4 input bit-pairs) transition table of a depth-`depth`
/// synchronizer (core::Synchronizer::transition, no flush), built on first
/// request; state index = credit + depth.  nullptr for depth 0 or above
/// the table cap (2047).
std::shared_ptr<const PairNibbleTable> synchronizer_table(unsigned depth) {
  // State count computed in 64 bits: a wrapped count would pass the cap
  // check and build an undersized table (out-of-bounds lookups later).
  const std::uint64_t states = 2 * std::uint64_t{depth} + 1;
  if (depth < 1 || states > kMaxPairStates) return nullptr;
  static std::mutex mutex;
  static std::map<unsigned, std::shared_ptr<const PairNibbleTable>> cache;
  return cached(mutex, cache, depth, [&] {
    // State index = credit + depth.
    return std::make_shared<const PairNibbleTable>(PairNibbleTable::build(
        static_cast<unsigned>(states), [depth](unsigned s, bool x, bool y) {
          const core::Synchronizer::Transition t =
              core::Synchronizer::transition(
                  depth, static_cast<int>(s) - static_cast<int>(depth), x, y);
          return PairStep{
              static_cast<unsigned>(t.credit + static_cast<int>(depth)),
              t.out_x, t.out_y};
        }));
  });
}

std::shared_ptr<const PairNibbleTable> desynchronizer_table(unsigned depth) {
  // State index = ((saved_x * (depth + 1) + saved_y) << 1) | save_from_x.
  // Combinations with saved_x + saved_y > depth are encodable but
  // unreachable; the pure transition is total over them regardless.
  const std::uint64_t side = std::uint64_t{depth} + 1;
  const std::uint64_t states = 2 * side * side;  // 64-bit: no wrap past cap
  if (depth < 1 || states > kMaxPairStates) return nullptr;
  static std::mutex mutex;
  static std::map<unsigned, std::shared_ptr<const PairNibbleTable>> cache;
  return cached(mutex, cache, depth, [&] {
    const auto side32 = static_cast<unsigned>(side);
    return std::make_shared<const PairNibbleTable>(PairNibbleTable::build(
        static_cast<unsigned>(states),
        [depth, side32](unsigned s, bool x, bool y) {
          const unsigned pair = s >> 1;
          const core::Desynchronizer::Transition t =
              core::Desynchronizer::transition(depth, pair / side32,
                                               pair % side32, (s & 1u) != 0,
                                               x, y);
          return PairStep{((t.saved_x * side32 + t.saved_y) << 1) |
                              (t.save_from_x ? 1u : 0u),
                          t.out_x, t.out_y};
        }));
  });
}

/// Nibble-jump table of the TFM word path: entry (est, nibble) packs the
/// four successive post-update estimates reached by consuming the
/// nibble's bits (LSB first) as four little-endian uint16 lanes — the
/// exact regeneration-trace layout — so one lookup advances four cycles
/// and the top lane (entry >> 48) is the successor estimate.  Built by
/// composing core::TrackingForecastMemory::next_estimate, so it inherits
/// its exact semantics.  Size (2^p + 1) * 16 * 8 bytes (33 KiB at the
/// precision-8 cap); nullptr above the cap.
std::shared_ptr<const std::vector<std::uint64_t>> tfm_jump_table(
    unsigned precision, unsigned shift) {
  if (precision > kMaxTfmPrecision) return nullptr;
  static std::mutex mutex;
  static std::map<std::pair<unsigned, unsigned>,
                  std::shared_ptr<const std::vector<std::uint64_t>>>
      cache;
  return cached(mutex, cache, std::make_pair(precision, shift), [&] {
    const std::int32_t scale = std::int32_t{1} << precision;
    auto table = std::make_shared<std::vector<std::uint64_t>>(
        (static_cast<std::size_t>(scale) + 1) << 4);
    for (std::int32_t est = 0; est <= scale; ++est) {
      for (unsigned nib = 0; nib < 16; ++nib) {
        std::uint64_t entry = 0;
        std::int32_t e = est;
        for (unsigned g = 0; g < 4; ++g) {
          e = core::TrackingForecastMemory::next_estimate(
              e, ((nib >> g) & 1u) != 0, shift, scale);
          entry |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(e))
                   << (16 * g);
        }
        (*table)[(static_cast<std::size_t>(est) << 4) | nib] = entry;
      }
    }
    return std::shared_ptr<const std::vector<std::uint64_t>>(std::move(table));
  });
}

// ----------------------------------------------------- nibble-table driver

/// Advances `bits` cycles of both packed streams in place through a
/// nibble table from state index `state`; returns the successor state.
/// Bits at positions >= `bits` in the final word are preserved.
unsigned run_pair_table(const PairNibbleTable& table, unsigned state,
                        Word* xw, Word* yw, std::size_t bits) {
  std::size_t w = 0;
  for (; (w + 1) * 64 <= bits; ++w) {
    const Word xin = xw[w];
    const Word yin = yw[w];
    Word xout = 0;
    Word yout = 0;
    for (unsigned k = 0; k < 64; k += 4) {
      const auto xn = static_cast<unsigned>((xin >> k) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> k) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << k;
      yout |= static_cast<Word>((e >> 4) & 0xF) << k;
      state = e >> 8;
    }
    xw[w] = xout;
    yw[w] = yout;
  }
  const auto rem = static_cast<unsigned>(bits - w * 64);
  if (rem != 0) {
    const Word xin = xw[w];
    const Word yin = yw[w];
    Word xout = 0;
    Word yout = 0;
    unsigned b = 0;
    for (; b + 4 <= rem; b += 4) {
      const auto xn = static_cast<unsigned>((xin >> b) & 0xF);
      const auto yn = static_cast<unsigned>((yin >> b) & 0xF);
      const PairNibbleTable::Entry e = table.lookup4(state, xn, yn);
      xout |= static_cast<Word>(e & 0xF) << b;
      yout |= static_cast<Word>((e >> 4) & 0xF) << b;
      state = e >> 8;
    }
    for (; b < rem; ++b) {
      const PairNibbleTable::Entry e = table.lookup1(
          state, ((xin >> b) & 1u) != 0, ((yin >> b) & 1u) != 0);
      xout |= static_cast<Word>(e & 1u) << b;
      yout |= static_cast<Word>((e >> 4) & 1u) << b;
      state = e >> 8;
    }
    const Word keep = ~Word{0} << rem;
    xw[w] = (xin & keep) | xout;
    yw[w] = (yin & keep) | yout;
  }
  return state;
}

// -------------------------------------------- synchronizer / desynchronizer

/// Shared driver for the two table-driven flush-capable pair FSMs: table
/// path while the flush force condition cannot fire, bit-serial handoff
/// (to the real FSM) for the final `capacity` announced cycles and beyond.
class FlushingPairKernel : public PairKernel {
 public:
  void process(Word* xw, Word* yw, std::size_t bits) override {
    std::size_t done = 0;
    if (!serial_tail_) {
      std::size_t safe = bits;
      if (flush_ && length_known_) {
        // |saved bits| <= capacity, so the force condition is unreachable
        // while more than `capacity` announced cycles remain.
        safe = remaining_ > capacity_
                   ? std::min(bits, remaining_ - capacity_)
                   : 0;
      }
      if (safe != 0) {
        state_ = run_pair_table(*table_, state_, xw, yw, safe);
        remaining_ -= std::min(safe, remaining_);
        done = safe;
      }
      if (done < bits) {
        sync_state_to_fsm();
        serial_tail_ = true;
      }
    }
    for (; done < bits; ++done) {
      Word& xword = xw[done / 64];
      Word& yword = yw[done / 64];
      const auto b = static_cast<unsigned>(done % 64);
      const core::BitPair out =
          serial_step(((xword >> b) & 1u) != 0, ((yword >> b) & 1u) != 0);
      const Word m = Word{1} << b;
      xword = (xword & ~m) | (out.x ? m : Word{0});
      yword = (yword & ~m) | (out.y ? m : Word{0});
    }
  }

  void finish() override {
    if (!serial_tail_) sync_state_to_fsm();
  }

 protected:
  std::shared_ptr<const PairNibbleTable> table_;
  unsigned state_ = 0;
  unsigned capacity_ = 0;  // maximum saved bits == width of the flush window
  bool flush_ = false;
  std::size_t remaining_ = 0;
  bool length_known_ = false;
  bool serial_tail_ = false;

  /// Writes (state_, remaining_, length_known_) into the wrapped FSM.
  virtual void sync_state_to_fsm() = 0;
  /// Steps the wrapped FSM directly (used after the handoff).
  virtual core::BitPair serial_step(bool x, bool y) = 0;
};

class SynchronizerKernel final : public FlushingPairKernel {
 public:
  SynchronizerKernel(core::Synchronizer& fsm,
                     std::shared_ptr<const PairNibbleTable> table)
      : fsm_(fsm) {
    table_ = std::move(table);
    capacity_ = fsm.config().depth;
    flush_ = fsm.config().flush;
    const core::Synchronizer::State st = fsm.state();
    state_ = static_cast<unsigned>(st.credit + static_cast<int>(capacity_));
    remaining_ = st.remaining;
    length_known_ = st.length_known;
  }

 private:
  void sync_state_to_fsm() override {
    fsm_.set_state({static_cast<int>(state_) - static_cast<int>(capacity_),
                    remaining_, length_known_});
  }
  core::BitPair serial_step(bool x, bool y) override {
    return fsm_.step(x, y);
  }

  core::Synchronizer& fsm_;
};

class DesynchronizerKernel final : public FlushingPairKernel {
 public:
  DesynchronizerKernel(core::Desynchronizer& fsm,
                       std::shared_ptr<const PairNibbleTable> table)
      : fsm_(fsm) {
    table_ = std::move(table);
    capacity_ = fsm.config().depth;
    flush_ = fsm.config().flush;
    const core::Desynchronizer::State st = fsm.state();
    const unsigned side = capacity_ + 1;
    state_ = ((st.saved_x * side + st.saved_y) << 1) |
             (st.save_from_x ? 1u : 0u);
    remaining_ = st.remaining;
    length_known_ = st.length_known;
  }

 private:
  void sync_state_to_fsm() override {
    const unsigned side = capacity_ + 1;
    const unsigned pair = state_ >> 1;
    fsm_.set_state({pair / side, pair % side, (state_ & 1u) != 0, remaining_,
                    length_known_});
  }
  core::BitPair serial_step(bool x, bool y) override {
    return fsm_.step(x, y);
  }

  core::Desynchronizer& fsm_;
};

// ------------------------------------------------------------- decorrelator

/// One shuffle buffer driven a word at a time.  Address draws come
/// pre-reduced to [0, depth] from the buffer's own source (fill_indices,
/// a block at a time) and whole words advance through the SIMD slot-class
/// shuffle, with the slot mask threaded through in a register.
class ShuffleHalf {
 public:
  explicit ShuffleHalf(core::ShuffleBuffer& buffer)
      : buffer_(buffer),
        depth_(static_cast<unsigned>(buffer.depth())),
        mask_(buffer.slots_mask()) {}

  void process(Word* w, std::size_t bits) {
    std::uint8_t idx[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      buffer_.source().fill_indices(idx, n, depth_ + 1);
      simd::shuffle_words(w + pos / 64, idx, n, depth_, &mask_);
      pos += n;
    }
  }

  void finish() { buffer_.set_slots_mask(mask_); }

 private:
  core::ShuffleBuffer& buffer_;
  unsigned depth_;
  std::uint64_t mask_;
};

/// The two buffers of a decorrelator are fully independent (separate
/// sources, separate slot masks), so running one after the other is
/// sequence-identical to the cycle-interleaved serial path.
class DecorrelatorKernel final : public PairKernel {
 public:
  explicit DecorrelatorKernel(core::Decorrelator& dec)
      : half_x_(dec.buffer_x()), half_y_(dec.buffer_y()) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    half_x_.process(xw, bits);
    half_y_.process(yw, bits);
  }

  void finish() override {
    half_x_.finish();
    half_y_.finish();
  }

 private:
  ShuffleHalf half_x_;
  ShuffleHalf half_y_;
};

class ShuffleStreamKernel final : public StreamKernel {
 public:
  explicit ShuffleStreamKernel(core::ShuffleBuffer& buffer) : half_(buffer) {}

  void process(Word* x, std::size_t bits) override { half_.process(x, bits); }
  void finish() override { half_.finish(); }

 private:
  ShuffleHalf half_;
};

// ---------------------------------------------------------------------- TFM

/// One TFM driven a word at a time: phase 1 walks the input a nibble-jump
/// at a time, recording the post-update estimate trace; phase 2
/// regenerates the output word-at-a-time as (aux draw < trace entry)
/// through the aux source's word API.  Both phases are exact compositions
/// of the per-cycle rule: update the estimate first, then compare.
class TfmHalf {
 public:
  TfmHalf(core::TrackingForecastMemory& tfm,
          std::shared_ptr<const std::vector<std::uint64_t>> jump)
      : tfm_(tfm), jump_(std::move(jump)), estimate_(tfm.estimate_fixed()) {}

  void process(Word* w, std::size_t bits) {
    const std::uint64_t* jump = jump_->data();
    const unsigned shift = tfm_.config().shift;
    const std::int32_t scale = tfm_.scale();
    std::uint16_t trace[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* base = w + pos / 64;
      std::int32_t est = estimate_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const auto nib =
            static_cast<unsigned>((base[i / 64] >> (i % 64)) & 0xF);
        const std::uint64_t e = jump[(static_cast<std::size_t>(est) << 4) |
                                     nib];
        std::memcpy(trace + i, &e, sizeof(e));
        est = static_cast<std::int32_t>(e >> 48);
      }
      for (; i < n; ++i) {
        est = core::TrackingForecastMemory::next_estimate(
            est, ((base[i / 64] >> (i % 64)) & 1u) != 0, shift, scale);
        trace[i] = static_cast<std::uint16_t>(est);
      }
      estimate_ = est;
      const std::size_t full = n / 64;
      for (std::size_t k = 0; k < full; ++k) base[k] = 0;
      if (n % 64 != 0) base[full] &= ~Word{0} << (n % 64);
      tfm_.aux_source().fill_compare_trace(base, trace, n);
      pos += n;
    }
  }

  void finish() { tfm_.set_estimate_fixed(estimate_); }

 private:
  core::TrackingForecastMemory& tfm_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t estimate_;
};

/// TfmHalf's datapath fused across the pair: one pass walks both inputs
/// through the nibble-jump table (the two estimate chains are independent,
/// so their jump loads overlap), then each stream regenerates through its
/// own aux source's word API.
class TfmPairKernel final : public PairKernel {
 public:
  TfmPairKernel(core::TfmPair& pair,
                std::shared_ptr<const std::vector<std::uint64_t>> jump)
      : tfm_x_(pair.tfm_x()),
        tfm_y_(pair.tfm_y()),
        jump_(std::move(jump)),
        est_x_(pair.tfm_x().estimate_fixed()),
        est_y_(pair.tfm_y().estimate_fixed()) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    const std::uint64_t* jump = jump_->data();
    const unsigned shift = tfm_x_.config().shift;
    const std::int32_t scale = tfm_x_.scale();
    std::uint16_t trace_x[kRngBlock];
    std::uint16_t trace_y[kRngBlock];
    std::size_t pos = 0;
    while (pos < bits) {
      const std::size_t n = std::min(kRngBlock, bits - pos);
      Word* xbase = xw + pos / 64;
      Word* ybase = yw + pos / 64;
      std::int32_t est_x = est_x_;
      std::int32_t est_y = est_y_;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const auto xnib =
            static_cast<unsigned>((xbase[i / 64] >> (i % 64)) & 0xF);
        const auto ynib =
            static_cast<unsigned>((ybase[i / 64] >> (i % 64)) & 0xF);
        const std::uint64_t ex =
            jump[(static_cast<std::size_t>(est_x) << 4) | xnib];
        const std::uint64_t ey =
            jump[(static_cast<std::size_t>(est_y) << 4) | ynib];
        std::memcpy(trace_x + i, &ex, sizeof(ex));
        std::memcpy(trace_y + i, &ey, sizeof(ey));
        est_x = static_cast<std::int32_t>(ex >> 48);
        est_y = static_cast<std::int32_t>(ey >> 48);
      }
      for (; i < n; ++i) {
        est_x = core::TrackingForecastMemory::next_estimate(
            est_x, ((xbase[i / 64] >> (i % 64)) & 1u) != 0, shift, scale);
        est_y = core::TrackingForecastMemory::next_estimate(
            est_y, ((ybase[i / 64] >> (i % 64)) & 1u) != 0, shift, scale);
        trace_x[i] = static_cast<std::uint16_t>(est_x);
        trace_y[i] = static_cast<std::uint16_t>(est_y);
      }
      est_x_ = est_x;
      est_y_ = est_y;
      const std::size_t full = n / 64;
      for (std::size_t k = 0; k < full; ++k) xbase[k] = 0;
      for (std::size_t k = 0; k < full; ++k) ybase[k] = 0;
      if (n % 64 != 0) {
        xbase[full] &= ~Word{0} << (n % 64);
        ybase[full] &= ~Word{0} << (n % 64);
      }
      tfm_x_.aux_source().fill_compare_trace(xbase, trace_x, n);
      tfm_y_.aux_source().fill_compare_trace(ybase, trace_y, n);
      pos += n;
    }
  }

  void finish() override {
    tfm_x_.set_estimate_fixed(est_x_);
    tfm_y_.set_estimate_fixed(est_y_);
  }

 private:
  core::TrackingForecastMemory& tfm_x_;
  core::TrackingForecastMemory& tfm_y_;
  std::shared_ptr<const std::vector<std::uint64_t>> jump_;
  std::int32_t est_x_;
  std::int32_t est_y_;
};

class TfmStreamKernel final : public StreamKernel {
 public:
  TfmStreamKernel(core::TrackingForecastMemory& tfm,
                  std::shared_ptr<const std::vector<std::uint64_t>> jump)
      : half_(tfm, std::move(jump)) {}

  void process(Word* x, std::size_t bits) override { half_.process(x, bits); }
  void finish() override { half_.finish(); }

 private:
  TfmHalf half_;
};

/// Decorrelator chain link: y := shuffle(x), x untouched.  Copies x's
/// bits into y (preserving y's tail past `bits`), then runs the
/// single-stream shuffle kernel on y — bit-identical to the serial step
/// by the stream kernel's own equivalence.
class ChainLinkPairKernel final : public PairKernel {
 public:
  explicit ChainLinkPairKernel(std::unique_ptr<StreamKernel> shuffle)
      : shuffle_(std::move(shuffle)) {}

  void process(Word* xw, Word* yw, std::size_t bits) override {
    const std::size_t words = bits / 64;
    for (std::size_t w = 0; w < words; ++w) yw[w] = xw[w];
    const unsigned rem = bits % 64;
    if (rem != 0) {
      const Word mask = (Word{1} << rem) - 1;
      yw[words] = (xw[words] & mask) | (yw[words] & ~mask);
    }
    shuffle_->process(yw, bits);
  }

  void finish() override { shuffle_->finish(); }

 private:
  std::unique_ptr<StreamKernel> shuffle_;
};

// ---------------------------------------------------- synchronized XOR

/// One step of transpose64: swaps the off-diagonal J x J sub-blocks of
/// every 2J x 2J block; `Low` selects the low J bits of each 2J-bit group.
/// A compile-time J unrolls the loops, about twice as fast as a runtime
/// stage loop.
template <unsigned J, Word Low>
void transpose_stage(Word* block) {
  for (unsigned base = 0; base < 64; base += 2 * J) {
    for (unsigned k = base; k < base + J; ++k) {
      const Word t = ((block[k] >> J) ^ block[k + J]) & Low;
      block[k] ^= t << J;
      block[k + J] ^= t;
    }
  }
}

/// sync_xor_planes with the counter's plane count fixed at compile time,
/// so the state planes of a lane word stay in registers across cycles.
template <unsigned Planes>
void sync_xor_lanes(unsigned depth, const Word* x, const Word* y, Word* out,
                    std::size_t lane_words, std::size_t cycles) {
  // at_top ANDs every plane, inverted where 2 * depth has a 0 bit.
  std::array<Word, Planes> top_flip{};
  std::array<Word, Planes> fresh{};
  for (unsigned b = 0; b < Planes; ++b) {
    top_flip[b] = ((2 * depth) >> b & 1u) != 0 ? Word{0} : ~Word{0};
    fresh[b] = (depth >> b & 1u) != 0 ? ~Word{0} : Word{0};
  }
  for (std::size_t g = 0; g < lane_words; ++g) {
    std::array<Word, Planes> s = fresh;  // s = depth: zero credit
    for (std::size_t c = 0, i = g; c < cycles; ++c, i += lane_words) {
      const Word xi = x[i];
      const Word yi = y[i];
      const Word down = ~xi & yi;
      Word at_top = ~Word{0};
      Word at_bottom = ~Word{0};
      for (unsigned b = 0; b < Planes; ++b) {
        at_top &= s[b] ^ top_flip[b];
        at_bottom &= ~s[b];
      }
      const Word clip = (xi & ~yi & at_top) | (down & at_bottom);
      // Ripple +1 (x & ~y) or -1 (~x & y) through the unclipped lanes: an
      // increment carries past a 1 bit, a decrement borrows past a 0 bit.
      Word carry = (xi ^ yi) & ~clip;
      for (unsigned b = 0; b < Planes; ++b) {
        const Word old = s[b];
        s[b] = old ^ carry;
        carry &= old ^ down;
      }
      out[i] = clip;
    }
  }
}

using SyncXorFn = void (*)(unsigned, const Word*, const Word*, Word*,
                           std::size_t, std::size_t);

template <unsigned... Planes>
constexpr std::array<SyncXorFn, sizeof...(Planes)> sync_xor_table(
    std::integer_sequence<unsigned, Planes...>) {
  return {&sync_xor_lanes<Planes>...};
}

constexpr auto kSyncXorByPlanes = sync_xor_table(
    std::make_integer_sequence<unsigned,
                               bit_width64(2 * kMaxSyncXorDepth) + 1>{});

}  // namespace

void transpose64(Word block[64]) {
  transpose_stage<32, 0x00000000FFFFFFFFull>(block);
  transpose_stage<16, 0x0000FFFF0000FFFFull>(block);
  transpose_stage<8, 0x00FF00FF00FF00FFull>(block);
  transpose_stage<4, 0x0F0F0F0F0F0F0F0Full>(block);
  transpose_stage<2, 0x3333333333333333ull>(block);
  transpose_stage<1, 0x5555555555555555ull>(block);
}

void sync_xor_planes(unsigned depth, const Word* x, const Word* y, Word* out,
                     std::size_t lane_words, std::size_t cycles) {
  if (depth > kMaxSyncXorDepth) {
    throw std::invalid_argument("sync_xor_planes: depth must be <= 2047");
  }
  // s = credit + depth spans [0, 2 * depth].
  kSyncXorByPlanes[bit_width64(2 * std::uint64_t{depth})](
      depth, x, y, out, lane_words, cycles);
}

void count_lanes(const Word* planes, std::size_t lane_words,
                 std::size_t cycles, std::uint64_t* counts) {
  // Carry-save add: low + b + c == 2 * (returned carries) + low'.
  const auto csa = [](Word& low, Word b, Word c) {
    const Word u = low ^ b;
    const Word high = (low & b) | (u & c);
    low = u ^ c;
    return high;
  };
  for (std::size_t g = 0; g < lane_words; ++g) {
    // sum[b] = bit b of every lane's count.  sum[0..3] are the tree's
    // ones/twos/fours/eights; the sixteens ripple into sum[4..].
    std::array<Word, 64> sum{};
    const auto add16 = [&](const Word* p, std::size_t stride) {
      const auto pair = [&](std::size_t i) {
        return csa(sum[0], p[i * stride], p[(i + 1) * stride]);
      };
      const auto quad = [&](std::size_t i) {
        const Word lo = pair(i);
        const Word hi = pair(i + 2);
        return csa(sum[1], lo, hi);
      };
      const auto oct = [&](std::size_t i) {
        const Word lo = quad(i);
        const Word hi = quad(i + 4);
        return csa(sum[2], lo, hi);
      };
      const Word lo = oct(0);
      const Word hi = oct(8);
      Word carry = csa(sum[3], lo, hi);
      for (unsigned b = 4; carry != 0; ++b) {
        const Word next = sum[b] & carry;
        sum[b] ^= carry;
        carry = next;
      }
    };
    std::size_t c = 0;
    for (; c + 16 <= cycles; c += 16) {
      add16(planes + c * lane_words + g, lane_words);
    }
    if (c < cycles) {
      std::array<Word, 16> tail{};
      for (std::size_t i = 0; c + i < cycles; ++i) {
        tail[i] = planes[(c + i) * lane_words + g];
      }
      add16(tail.data(), 1);
    }
    transpose64(sum.data());  // now sum[j] = lane j's count
    std::copy(sum.begin(), sum.end(), counts + g * 64);
  }
}

// ------------------------------------------------------------------ factory

std::unique_ptr<PairKernel> make_pair_kernel(core::PairTransform& transform) {
  if (auto* sync = dynamic_cast<core::Synchronizer*>(&transform)) {
    auto table = synchronizer_table(sync->config().depth);
    if (!table) return nullptr;
    return std::make_unique<SynchronizerKernel>(*sync, std::move(table));
  }
  if (auto* desync = dynamic_cast<core::Desynchronizer*>(&transform)) {
    auto table = desynchronizer_table(desync->config().depth);
    if (!table) return nullptr;
    return std::make_unique<DesynchronizerKernel>(*desync, std::move(table));
  }
  if (auto* dec = dynamic_cast<core::Decorrelator*>(&transform)) {
    if (dec->depth() < 1 || dec->depth() > kMaxShuffleDepth) return nullptr;
    return std::make_unique<DecorrelatorKernel>(*dec);
  }
  if (auto* link = dynamic_cast<core::DecorrelatorChainLink*>(&transform)) {
    auto shuffle = make_stream_kernel(link->buffer());
    if (!shuffle) return nullptr;
    return std::make_unique<ChainLinkPairKernel>(std::move(shuffle));
  }
  if (auto* tfm = dynamic_cast<core::TfmPair*>(&transform)) {
    const auto& config = tfm->tfm_x().config();
    auto jump = tfm_jump_table(config.precision, config.shift);
    if (!jump) return nullptr;
    return std::make_unique<TfmPairKernel>(*tfm, std::move(jump));
  }
  return nullptr;
}

std::unique_ptr<StreamKernel> make_stream_kernel(
    core::StreamTransform& transform) {
  if (auto* buffer = dynamic_cast<core::ShuffleBuffer*>(&transform)) {
    if (buffer->depth() < 1 || buffer->depth() > kMaxShuffleDepth) {
      return nullptr;
    }
    return std::make_unique<ShuffleStreamKernel>(*buffer);
  }
  if (auto* tfm = dynamic_cast<core::TrackingForecastMemory*>(&transform)) {
    auto jump = tfm_jump_table(tfm->config().precision, tfm->config().shift);
    if (!jump) return nullptr;
    return std::make_unique<TfmStreamKernel>(*tfm, std::move(jump));
  }
  return nullptr;
}

}  // namespace sc::kernel
