#include "graph/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arith/add.hpp"
#include "arith/divide.hpp"
#include "bitstream/encoding.hpp"
#include "common/simd.hpp"
#include "func/bernstein.hpp"
#include "func/fsm_function.hpp"
#include "hw/designs.hpp"
#include "img/kernels.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {

std::string to_string(CorrelationEffect effect) {
  switch (effect) {
    case CorrelationEffect::kDestroying:
      return "destroying";
    case CorrelationEffect::kPreserving:
      return "preserving";
    case CorrelationEffect::kInverting:
      return "inverting";
  }
  return "?";
}

std::string to_string(Requirement requirement) {
  switch (requirement) {
    case Requirement::kUncorrelated:
      return "uncorrelated";
    case Requirement::kPositive:
      return "positive";
    case Requirement::kNegative:
      return "negative";
    case Requirement::kAgnostic:
      return "agnostic";
  }
  return "?";
}

rng::RandomSourcePtr OpContext::make_rng(unsigned slot) const {
  return std::make_unique<rng::Lfsr>(
      width, seeds::derive_seed32(base_seed, node, seeds::Role::kOpPrivate,
                                  slot));
}

void OpEvaluator::process(sc::span<const Bitstream* const> ins,
                          Bitstream& out) {
  bool bits[kMaxArity];
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < ins.size(); ++k) bits[k] = ins[k]->get(i);
    if (step(bits)) out.set(i, true);
  }
}

namespace {

// ------------------------------------------------------------ evaluators

/// Clears the bits past size() in `out`'s last word (the Bitstream
/// invariant) after a word loop that may have set them.
void mask_tail(Bitstream& out) {
  const unsigned rem = out.size() % 64;
  if (rem != 0 && out.word_count() > 0) {
    out.word_data()[out.word_count() - 1] &= (Bitstream::Word{1} << rem) - 1;
  }
}

/// Stateless two-input gates, with the word-parallel Bitstream operators
/// as the kernel path (bit-identical: both are the same boolean function).
class GateEvaluator final : public OpEvaluator {
 public:
  enum class Gate { kAnd, kOr, kXor, kXnor };
  explicit GateEvaluator(Gate gate) : gate_(gate) {}

  bool step(const bool* in) override {
    switch (gate_) {
      case Gate::kAnd:
        return in[0] && in[1];
      case Gate::kOr:
        return in[0] || in[1];
      case Gate::kXor:
        return in[0] != in[1];
      case Gate::kXnor:
        return in[0] == in[1];
    }
    return false;
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    // Word loop into the caller's preallocated buffer: the engine backend
    // calls this once per chunk, so no per-call allocation.
    const std::vector<Bitstream::Word>& x = ins[0]->words();
    const std::vector<Bitstream::Word>& y = ins[1]->words();
    Bitstream::Word* w = out.word_data();
    switch (gate_) {
      case Gate::kAnd:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] & y[i];
        break;
      case Gate::kOr:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] | y[i];
        break;
      case Gate::kXor:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] ^ y[i];
        break;
      case Gate::kXnor:
        for (std::size_t i = 0; i < x.size(); ++i) w[i] = ~(x[i] ^ y[i]);
        mask_tail(out);  // XNOR of clear tails is 1s; restore the invariant
        break;
    }
  }

 private:
  Gate gate_;
};

/// Bipolar negation (NOT), arity 1.
class NotEvaluator final : public OpEvaluator {
 public:
  bool step(const bool* in) override { return !in[0]; }
  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const std::vector<Bitstream::Word>& x = ins[0]->words();
    Bitstream::Word* w = out.word_data();
    for (std::size_t i = 0; i < x.size(); ++i) w[i] = ~x[i];
    mask_tail(out);
  }
};

/// Packs one chunk of comparator bits (draw < level) from `source` into
/// `scratch`, one bit per output cycle — the same draws step() makes.
/// Bits past the chunk stay clear, so gating with them keeps tails clean.
const Bitstream::Word* select_words(rng::RandomSource& source,
                                    std::uint64_t level, const Bitstream& out,
                                    std::vector<Bitstream::Word>& scratch) {
  scratch.assign(out.word_count(), 0);
  source.fill_compare(scratch.data(), out.size(), level);
  return scratch.data();
}

/// MUX scaled add/subtract: out = sel ? Y : X with a private half-weight
/// select stream (optionally inverting the Y leg for bipolar subtract).
class MuxEvaluator final : public OpEvaluator {
 public:
  MuxEvaluator(const OpContext& ctx, bool invert_y)
      : source_(ctx.make_rng(0)), half_(ctx.natural() / 2),
        invert_y_(invert_y) {}

  bool step(const bool* in) override {
    const bool sel = source_->next() < half_;
    const bool y = invert_y_ ? !in[1] : in[1];
    return sel ? y : in[0];
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Bitstream::Word* s = select_words(*source_, half_, out, select_);
    const Bitstream::Word* x = ins[0]->words().data();
    const Bitstream::Word* y = ins[1]->words().data();
    const Bitstream::Word flip = invert_y_ ? ~Bitstream::Word{0} : 0;
    Bitstream::Word* w = out.word_data();
    for (std::size_t i = 0; i < out.word_count(); ++i) {
      w[i] = (s[i] & (y[i] ^ flip)) | (~s[i] & x[i]);
    }
  }

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t half_;
  bool invert_y_;
  std::vector<Bitstream::Word> select_;
};

/// CORDIV divider (paper Fig. 2e): z = y ? x : z_prev.  The word path
/// forward-fills the quotient bits sampled under y = 1 across each word;
/// cycles before the word's first y = 1 replay the held bit.
class CordivEvaluator final : public OpEvaluator {
 public:
  bool step(const bool* in) override { return cell_.step(in[0], in[1]); }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Bitstream::Word* x = ins[0]->words().data();
    const Bitstream::Word* y = ins[1]->words().data();
    Bitstream::Word* w = out.word_data();
    Bitstream::Word held = cell_.held() ? ~Bitstream::Word{0} : 0;
    for (std::size_t i = 0; i < out.word_count(); ++i) {
      // After the shift by s, bit b of `sampled` marks a y = 1 within the
      // last 2s cycles up to b, and bit b of `z` is the x of the latest.
      Bitstream::Word sampled = y[i];
      Bitstream::Word z = x[i] & sampled;
      for (unsigned s = 1; s < 64; s <<= 1) {
        z |= (z << s) & ~sampled;
        sampled |= sampled << s;
      }
      z |= ~sampled & held;
      w[i] = z;
      // Past the chunk y is clear, so bit 63 is the last cycle's output.
      held = Bitstream::Word{0} - (z >> 63);
    }
    cell_.set_held(held != 0);
    mask_tail(out);
  }

 private:
  arith::Cordiv cell_;
};

/// Deterministic CA toggle adder (paper ref [9] class): x where x == y,
/// else the T flip-flop, which flips at every disagreeing cycle.  The word
/// path is a prefix XOR of x ^ y with the toggle carried in.
class ToggleAddEvaluator final : public OpEvaluator {
 public:
  bool step(const bool* in) override { return cell_.step(in[0], in[1]); }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Bitstream::Word* x = ins[0]->words().data();
    const Bitstream::Word* y = ins[1]->words().data();
    Bitstream::Word* w = out.word_data();
    Bitstream::Word toggle = cell_.toggle() ? ~Bitstream::Word{0} : 0;
    for (std::size_t i = 0; i < out.word_count(); ++i) {
      const Bitstream::Word differ = x[i] ^ y[i];
      Bitstream::Word flips = differ;  // bit b: parity of differ[0..b]
      for (unsigned s = 1; s < 64; s <<= 1) flips ^= flips << s;
      const Bitstream::Word state = flips ^ toggle;
      w[i] = (x[i] & ~differ) | (differ & state);
      // Past the chunk x == y == 0, so bit 63 is the final toggle.
      toggle = Bitstream::Word{0} - (state >> 63);
    }
    cell_.set_toggle(toggle != 0);
  }

 private:
  arith::ToggleAdder cell_;
};

/// (state x input byte) -> (output byte, next state) table of a Brown–Card
/// function unit: entry (state << 8) | byte packs the eight output bits
/// (LSB = first cycle) in bits 0..7 and the state after the byte above.
using FsmByteTable = std::vector<std::uint32_t>;

/// Largest state count a function unit registers with (its byte table is
/// states KiB, so the cap bounds one at 4 MiB).
constexpr unsigned kMaxFsmStates = 4096;

/// Tables `unit` (stanh or sexp) by running its own step() over every byte
/// from every state, so the table inherits the reference semantics.
template <typename Unit>
std::shared_ptr<const FsmByteTable> build_fsm_byte_table(Unit unit) {
  const unsigned states = unit.counter().states();
  if (states > kMaxFsmStates) {
    throw std::invalid_argument("FSM function unit: " +
                                std::to_string(states) + " states exceed " +
                                std::to_string(kMaxFsmStates));
  }
  auto table = std::make_shared<FsmByteTable>(std::size_t{states} << 8);
  for (unsigned s = 0; s < states; ++s) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      unit.counter().set_state(s);
      std::uint32_t bits = 0;
      for (unsigned b = 0; b < 8; ++b) {
        bits |= (unit.step(((byte >> b) & 1u) != 0) ? 1u : 0u) << b;
      }
      (*table)[(std::size_t{s} << 8) | byte] =
          bits | (unit.counter().state() << 8);
    }
  }
  return table;
}

/// Brown–Card saturating-counter FSM functions (stanh / sexp).  The word
/// path advances a byte per lookup in the unit's shared byte table; the
/// last chunk's sub-byte tail runs step().  Either way the state lives in
/// the unit's counter.
template <typename Unit>
class FsmFunctionEvaluator final : public OpEvaluator {
 public:
  FsmFunctionEvaluator(Unit unit, std::shared_ptr<const FsmByteTable> table)
      : unit_(std::move(unit)), table_(std::move(table)) {}

  bool step(const bool* in) override { return unit_.step(in[0]); }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Bitstream::Word* x = ins[0]->words().data();
    Bitstream::Word* w = out.word_data();
    std::fill_n(w, out.word_count(), Bitstream::Word{0});
    const std::uint32_t* table = table_->data();
    const std::size_t n = out.size();
    std::uint32_t state = unit_.counter().state();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const std::uint32_t entry =
          table[(state << 8) | ((x[i >> 6] >> (i & 63)) & 0xFFu)];
      w[i >> 6] |= Bitstream::Word{entry & 0xFFu} << (i & 63);
      state = entry >> 8;
    }
    unit_.counter().set_state(state);
    for (; i < n; ++i) {
      if (unit_.step(((x[i >> 6] >> (i & 63)) & 1u) != 0)) {
        w[i >> 6] |= Bitstream::Word{1} << (i & 63);
      }
    }
  }

 private:
  Unit unit_;
  std::shared_ptr<const FsmByteTable> table_;
};

/// ReSC/Bernstein unit: per cycle, the popcount of the n operand bits (the
/// copies of x) selects one of n+1 coefficient streams, each generated by
/// a private comparator SNG.  All coefficient SNGs advance every cycle,
/// exactly like the free-running hardware streams they model.
class BernsteinEvaluator final : public OpEvaluator {
 public:
  BernsteinEvaluator(const OpContext& ctx,
                     const std::vector<double>& coefficients) {
    sources_.reserve(coefficients.size());
    levels_.reserve(coefficients.size());
    for (std::size_t i = 0; i < coefficients.size(); ++i) {
      sources_.push_back(ctx.make_rng(static_cast<unsigned>(i)));
      levels_.push_back(unipolar_level64(coefficients[i], ctx.natural()));
    }
  }

  bool step(const bool* in) override {
    std::size_t count = 0;
    const std::size_t copies = sources_.size() - 1;
    for (std::size_t k = 0; k < copies; ++k) count += in[k] ? 1 : 0;
    bool out = false;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const bool bit = sources_[i]->next() < levels_[i];
      if (i == count) out = bit;
    }
    return out;
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const std::size_t words = out.word_count();
    const std::size_t copies = sources_.size() - 1;
    coefficient_bits_.assign(sources_.size() * words, 0);
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      sources_[i]->fill_compare(coefficient_bits_.data() + i * words,
                                out.size(), levels_[i]);
    }
    // The per-cycle popcount of the copies, bit-sliced: plane b holds bit
    // b of every cycle's count (copies < kMaxArity, so 4 planes suffice).
    const auto planes = static_cast<unsigned>(std::bit_width(copies));
    Bitstream::Word* w = out.word_data();
    for (std::size_t j = 0; j < words; ++j) {
      Bitstream::Word count[4] = {};
      for (std::size_t k = 0; k < copies; ++k) {
        Bitstream::Word carry = ins[k]->words()[j];
        for (unsigned b = 0; b < planes; ++b) {
          const Bitstream::Word next_carry = count[b] & carry;
          count[b] ^= carry;
          carry = next_carry;
        }
      }
      // Cycles whose count equals i take coefficient stream i.
      Bitstream::Word acc = 0;
      for (std::size_t i = 0; i <= copies; ++i) {
        Bitstream::Word match = ~Bitstream::Word{0};
        for (unsigned b = 0; b < planes; ++b) {
          match &= ((i >> b) & 1u) != 0 ? count[b] : ~count[b];
        }
        acc |= match & coefficient_bits_[i * words + j];
      }
      w[j] = acc;
    }
  }

 private:
  std::vector<rng::RandomSourcePtr> sources_;
  std::vector<std::uint64_t> levels_;
  std::vector<Bitstream::Word> coefficient_bits_;  ///< stream i at i * words
};

/// 3x3 Gaussian-blur MUX tree (§IV pipeline stage): a private select RNG
/// picks one window pixel per cycle with binomial weights {1,2,1;2,4,2;
/// 1,2,1}/16.  Operands are the window in row-major order.
class GaussianBlurEvaluator final : public OpEvaluator {
 public:
  explicit GaussianBlurEvaluator(const OpContext& ctx)
      : source_(ctx.make_rng(0)) {}

  bool step(const bool* in) override {
    // Low 4 select bits address the 16-slot weight expansion.
    const std::uint32_t r = source_->next() & 15u;
    return in[img::kGaussianSelect16[r]];
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const std::size_t n = out.size();
    const std::size_t words = out.word_count();
    slots_.resize(n);
    source_->fill_indices(slots_.data(), n, 16);  // == next() & 15
    // pick_[k * words + j] marks the cycles of word j that select window
    // pixel k.
    pick_.resize(9 * words);
    simd::decode_select16(slots_.data(), n, img::kGaussianSelect16.data(), 9,
                          pick_.data(), words);
    Bitstream::Word* w = out.word_data();
    for (std::size_t j = 0; j < words; ++j) {
      Bitstream::Word acc = 0;
      for (std::size_t k = 0; k < 9; ++k) {
        acc |= pick_[k * words + j] & ins[k]->words()[j];
      }
      w[j] = acc;
    }
  }

 private:
  rng::RandomSourcePtr source_;
  std::vector<std::uint8_t> slots_;
  std::vector<Bitstream::Word> pick_;
};

/// Roberts-cross edge magnitude (§IV pipeline stage): XOR the two window
/// diagonals, scale-add the gradients with a private MUX select.  Operands
/// are the 2x2 window [p00, p01, p10, p11]; the XORs need SCC = +1 between
/// each diagonal pair — the mismatch that motivates the paper.
class RobertsCrossEvaluator final : public OpEvaluator {
 public:
  explicit RobertsCrossEvaluator(const OpContext& ctx)
      : source_(ctx.make_rng(0)), half_(ctx.natural() / 2) {}

  bool step(const bool* in) override {
    const bool g1 = in[0] != in[3];
    const bool g2 = in[1] != in[2];
    return (source_->next() < half_) ? g2 : g1;
  }

  void process(sc::span<const Bitstream* const> ins,
               Bitstream& out) override {
    const Bitstream::Word* s = select_words(*source_, half_, out, select_);
    Bitstream::Word* w = out.word_data();
    for (std::size_t i = 0; i < out.word_count(); ++i) {
      const Bitstream::Word g1 = ins[0]->words()[i] ^ ins[3]->words()[i];
      const Bitstream::Word g2 = ins[1]->words()[i] ^ ins[2]->words()[i];
      w[i] = (s[i] & g2) | (~s[i] & g1);
    }
  }

 private:
  rng::RandomSourcePtr source_;
  std::uint64_t half_;
  std::vector<Bitstream::Word> select_;
};

// ------------------------------------------------------------- exact fns

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

// --------------------------------------------------------------- builtins

template <typename Fn>
OperatorDef binary_op(std::string name, Requirement requirement, Fn exact,
                      GateEvaluator::Gate gate,
                      std::function<hw::Netlist(unsigned)> netlist,
                      ErrorTransfer error_transfer) {
  OperatorDef def;
  def.name = std::move(name);
  def.arity = 2;
  def.requirement = requirement;
  def.exact = [exact](sc::span<const double> v) { return exact(v[0], v[1]); };
  def.make_evaluator = [gate](const OpContext&) {
    return std::make_unique<GateEvaluator>(gate);
  };
  def.error_transfer = std::move(error_transfer);
  // AND/OR are monotone: thresholds in, threshold out (min/max of the
  // comparison levels), so the analyzer may propagate same-trace claims
  // through them.  XOR/XNOR are not monotone — destroying.
  def.correlation_effect = (gate == GateEvaluator::Gate::kAnd ||
                            gate == GateEvaluator::Gate::kOr)
                               ? CorrelationEffect::kPreserving
                               : CorrelationEffect::kDestroying;
  def.netlist = std::move(netlist);
  return def;
}

void register_builtins(OperatorRegistry& reg) {
  using Gate = GateEvaluator::Gate;

  // --- the Fig. 2 set -----------------------------------------------------
  reg.add(binary_op(
      "multiply", Requirement::kUncorrelated,
      [](double a, double b) { return a * b; }, Gate::kAnd,
      [](unsigned) { return hw::and_gate_netlist(); },
      error_transfers::nary_and()));

  {
    OperatorDef def;
    def.name = "scaled-add";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) { return 0.5 * (v[0] + v[1]); };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<MuxEvaluator>(ctx, /*invert_y=*/false);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::mux_adder_netlist() + hw::lfsr_netlist(width);
    };
    def.error_transfer = error_transfers::mux_scaled_add(/*invert_y=*/false);
    reg.add(std::move(def));
  }

  reg.add(binary_op(
      "saturating-add", Requirement::kNegative,
      [](double a, double b) { return std::min(1.0, a + b); }, Gate::kOr,
      [](unsigned) { return hw::or_gate_netlist(); },
      error_transfers::or_saturating_add()));

  reg.add(binary_op(
      "subtract", Requirement::kPositive,
      [](double a, double b) { return std::abs(a - b); }, Gate::kXor,
      [](unsigned) { return hw::xor_gate_netlist(); },
      error_transfers::xor_subtract()));

  reg.add(binary_op(
      "max", Requirement::kPositive,
      [](double a, double b) { return std::max(a, b); }, Gate::kOr,
      [](unsigned) { return hw::or_gate_netlist(); },
      error_transfers::or_max()));

  reg.add(binary_op(
      "min", Requirement::kPositive,
      [](double a, double b) { return std::min(a, b); }, Gate::kAnd,
      [](unsigned) { return hw::and_gate_netlist(); },
      error_transfers::and_min()));

  {
    // CORDIV divide (Fig. 2e): quotient for positively correlated operands
    // with pX <= pY; with pY = 0 the DFF never samples and emits 0s.
    OperatorDef def;
    def.name = "divide";
    def.arity = 2;
    def.requirement = Requirement::kPositive;
    def.exact = [](sc::span<const double> v) {
      return v[1] > 0.0 ? std::min(1.0, v[0] / v[1]) : 0.0;
    };
    def.make_evaluator = [](const OpContext&) {
      return std::make_unique<CordivEvaluator>();
    };
    def.netlist = [](unsigned) { return hw::cordiv_netlist(); };
    def.error_transfer = error_transfers::cordiv_divide();
    reg.add(std::move(def));
  }

  // --- correlation-agnostic and bipolar arithmetic ------------------------
  {
    OperatorDef def;
    def.name = "toggle-add";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) { return 0.5 * (v[0] + v[1]); };
    def.make_evaluator = [](const OpContext&) {
      return std::make_unique<ToggleAddEvaluator>();
    };
    def.netlist = [](unsigned) { return hw::toggle_adder_netlist(); };
    def.error_transfer = error_transfers::toggle_add();
    reg.add(std::move(def));
  }

  reg.add(binary_op(
      "multiply-bipolar", Requirement::kUncorrelated,
      [](double a, double b) {
        return clamp01(0.5 * ((2 * a - 1) * (2 * b - 1) + 1));
      },
      Gate::kXnor, [](unsigned) { return hw::xnor_gate_netlist(); },
      error_transfers::xnor_multiply_bipolar()));

  {
    OperatorDef def;
    def.name = "negate-bipolar";
    def.arity = 1;
    def.correlation_effect = CorrelationEffect::kInverting;
    def.exact = [](sc::span<const double> v) { return 1.0 - v[0]; };
    def.make_evaluator = [](const OpContext&) {
      return std::make_unique<NotEvaluator>();
    };
    def.netlist = [](unsigned) {
      return hw::Netlist("negate-bipolar").add(hw::Cell::kInv);
    };
    def.error_transfer = error_transfers::not_negate();
    reg.add(std::move(def));
  }

  {
    OperatorDef def;
    def.name = "scaled-sub-bipolar";
    def.arity = 2;
    def.requirement = Requirement::kAgnostic;
    // vZ = 0.5 (vX - vY)  <=>  pZ = (pX - pY + 1) / 2.
    def.exact = [](sc::span<const double> v) {
      return clamp01(0.5 * (v[0] - v[1] + 1.0));
    };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<MuxEvaluator>(ctx, /*invert_y=*/true);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::mux_adder_netlist() + hw::lfsr_netlist(width) +
             hw::Netlist().add(hw::Cell::kInv);
    };
    def.error_transfer = error_transfers::mux_scaled_add(/*invert_y=*/true);
    reg.add(std::move(def));
  }

  // --- FSM function units (Brown & Card; outside the Fig. 2 set) ----------
  register_stanh(reg, "stanh-8", /*states=*/8);
  register_sexp(reg, "sexp-8-1", /*states=*/8, /*g=*/1);

  // --- Bernstein/ReSC polynomial unit (Qian & Riedel) ---------------------
  register_bernstein(reg, "bernstein-x2-3",
                     [](double t) { return t * t; }, /*degree=*/3);

  // --- §IV image-pipeline stages as composite operators -------------------
  {
    OperatorDef def;
    def.name = "gaussian-blur-3x3";
    def.arity = 9;
    def.requirement = Requirement::kAgnostic;
    def.exact = [](sc::span<const double> v) {
      double sum = 0.0;
      for (std::size_t i = 0; i < 9; ++i) {
        sum += img::kGaussianWeights16[i] * v[i];
      }
      return sum / 16.0;
    };
    def.make_evaluator = [](const OpContext& ctx) {
      if (ctx.width < 4) {
        throw std::invalid_argument(
            "gaussian-blur-3x3 needs width >= 4 (16-slot select decode)");
      }
      return std::make_unique<GaussianBlurEvaluator>(ctx);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) { return hw::mux_tree_netlist(9, width); };
    def.error_transfer = error_transfers::weighted_mux(
        {1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0});
    reg.add(std::move(def));
  }

  {
    OperatorDef def;
    def.name = "roberts-cross";
    def.arity = 4;
    def.requirement = Requirement::kAgnostic;
    def.pair_requirement = [](unsigned i, unsigned j) {
      const bool diagonal = (i == 0 && j == 3) || (i == 1 && j == 2);
      return diagonal ? Requirement::kPositive : Requirement::kAgnostic;
    };
    def.exact = [](sc::span<const double> v) {
      return 0.5 * (std::abs(v[0] - v[3]) + std::abs(v[1] - v[2]));
    };
    def.make_evaluator = [](const OpContext& ctx) {
      return std::make_unique<RobertsCrossEvaluator>(ctx);
    };
    def.rng_slots = 1;
    def.netlist = [](unsigned width) {
      return hw::roberts_cross_netlist() + hw::lfsr_netlist(width);
    };
    def.error_transfer = error_transfers::roberts_cross();
    reg.add(std::move(def));
  }
}

}  // namespace

OpId OperatorRegistry::add(OperatorDef def) {
  if (def.name.empty()) {
    throw std::invalid_argument("OperatorRegistry::add: empty name");
  }
  if (def.arity < 1 || def.arity > kMaxArity) {
    throw std::invalid_argument("OperatorRegistry::add: arity of '" +
                                def.name + "' outside [1, " +
                                std::to_string(kMaxArity) + "]");
  }
  if (!def.exact || !def.make_evaluator) {
    throw std::invalid_argument("OperatorRegistry::add: '" + def.name +
                                "' needs exact and make_evaluator");
  }
  if (find(def.name) != nullptr) {
    throw std::invalid_argument("OperatorRegistry::add: duplicate operator '" +
                                def.name + "'");
  }
  defs_.push_back(std::move(def));
  return static_cast<OpId>(defs_.size() - 1);
}

const OperatorDef* OperatorRegistry::find(const std::string& name) const {
  for (const OperatorDef& def : defs_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

OpId OperatorRegistry::id_of(const std::string& name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return static_cast<OpId>(i);
  }
  throw std::invalid_argument("OperatorRegistry: unknown operator '" + name +
                              "'");
}

std::vector<std::string> OperatorRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const OperatorDef& def : defs_) out.push_back(def.name);
  return out;
}

OperatorRegistry OperatorRegistry::with_builtins() {
  OperatorRegistry reg;
  register_builtins(reg);
  return reg;
}

OperatorRegistry& registry() {
  static OperatorRegistry instance = OperatorRegistry::with_builtins();
  return instance;
}

OpId register_bernstein(OperatorRegistry& target, std::string name,
                        const std::function<double(double)>& f,
                        std::size_t degree) {
  if (degree < 1 || degree + 1 > kMaxArity) {
    throw std::invalid_argument("register_bernstein: degree outside range");
  }
  const std::vector<double> coefficients =
      func::bernstein_coefficients(f, degree);
  OperatorDef def;
  def.name = std::move(name);
  def.arity = static_cast<unsigned>(degree);
  // The architecture requires n mutually uncorrelated copies of x — the
  // canonical consumer of the paper's decorrelator (func/bernstein.hpp).
  def.requirement = Requirement::kUncorrelated;
  def.exact = [coefficients](sc::span<const double> v) {
    return func::resc_expected(
        sc::span<const double>(coefficients.data(), coefficients.size()), v);
  };
  def.make_evaluator = [coefficients](const OpContext& ctx) {
    return std::make_unique<BernsteinEvaluator>(ctx, coefficients);
  };
  def.rng_slots = static_cast<unsigned>(degree + 1);
  def.netlist = [degree](unsigned width) {
    return hw::resc_netlist(degree, width);
  };
  def.error_transfer =
      error_transfers::bernstein(static_cast<unsigned>(degree));
  return target.add(std::move(def));
}

namespace {

/// The fields stanh and sexp units share; the caller adds exact,
/// make_evaluator and error_transfer.
OperatorDef fsm_function_def(std::string name, unsigned states) {
  OperatorDef def;
  def.name = std::move(name);
  def.arity = 1;
  def.netlist = [states](unsigned) { return hw::fsm_unit_netlist(states); };
  return def;
}

}  // namespace

OpId register_stanh(OperatorRegistry& target, std::string name,
                    unsigned states) {
  // Built once here (which validates the state count); every evaluator of
  // the operator shares it.
  std::shared_ptr<const FsmByteTable> table =
      build_fsm_byte_table(func::Stanh(states));
  OperatorDef def = fsm_function_def(std::move(name), states);
  def.exact = [states](sc::span<const double> v) {
    return clamp01(0.5 * (func::stanh_value(2 * v[0] - 1, states) + 1));
  };
  def.make_evaluator = [states, table](const OpContext&) {
    return std::make_unique<FsmFunctionEvaluator<func::Stanh>>(
        func::Stanh(states), table);
  };
  // d/dp of 0.5 (tanh((states/2)(2p - 1)) + 1) peaks at states / 2.
  def.error_transfer = error_transfers::fsm_lipschitz(states / 2.0, states);
  return target.add(std::move(def));
}

OpId register_sexp(OperatorRegistry& target, std::string name,
                   unsigned states, unsigned g) {
  std::shared_ptr<const FsmByteTable> table =
      build_fsm_byte_table(func::Sexp(states, g));
  OperatorDef def = fsm_function_def(std::move(name), states);
  def.exact = [states, g](sc::span<const double> v) {
    return clamp01(func::sexp_value(2 * v[0] - 1, states, g));
  };
  def.make_evaluator = [states, g, table](const OpContext&) {
    return std::make_unique<FsmFunctionEvaluator<func::Sexp>>(
        func::Sexp(states, g), table);
  };
  // d/dp of exp(-2g (2p - 1)) peaks at 4g.
  def.error_transfer = error_transfers::fsm_lipschitz(4.0 * g, states);
  return target.add(std::move(def));
}

}  // namespace sc::graph
