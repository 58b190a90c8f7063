#include "graph/error_transfer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace sc::graph::error_transfers {

namespace {

// Calibration constants of the builtin transfers.  Tightness is measured
// by analysis_accuracy_property_test (ratio measured/bound logged over
// seed-logged random programs x 2 backends); soundness does not hinge on
// them — the error model caps every bound at the trivial envelope — but
// the multi-objective optimizer gate is only as selective as they are
// tight.  The chain calibration test pins the decorrelator-chain numbers
// against the measured fanout-16 regression (err 0.020 -> 0.052 at
// N = 4096).

/// Estimator variance floor: even a near-constant output wanders a
/// little against operand-alignment pseudo-noise.
constexpr double kVarFloor = 0.01;
/// Autocorrelation scale of FSM function outputs, in units of `states`.
constexpr double kFsmTauPerState = 2.0;
/// FSM asymptotic-curve model error on a well-behaved (SNG) input: an
/// 8-state saturating counter sits up to ~0.10 off the closed-form tanh
/// curve in the steep region (measured across the soundness campaign),
/// so the bound carries the full discrepancy...
constexpr double kFsmModelError = 0.15;
/// ...and the surcharge when the input stream is itself autocorrelated
/// (an FSM fed by an FSM — the Bernoulli-input assumption behind the
/// asymptotic curve degrades).
constexpr double kFsmAutocorrSurcharge = 0.12;
/// FSM warm-up transient: the saturating counter needs O(states) cycles
/// to forget its reset state.
constexpr double kFsmWarmupPerState = 4.0;
/// Toggle-adder settle error in cycles (deterministic carry state).
constexpr double kToggleSettleCycles = 2.0;
/// Bernstein popcount distortion at fully correlated copies, as a
/// fraction of the trivial envelope.
constexpr double kBernsteinCorrShare = 0.5;
/// MUX select / data phase coupling: the half-weight select stream comes
/// from the same LFSR family as the data streams, so over a period its
/// choice can co-vary with the data by a few percent of the operand gap.
constexpr double kMuxSelectCoupling = 0.05;

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

double trivial(double exact) { return std::max(exact, 1.0 - exact); }

/// tau * max(q(1-q), floor) / N — the generic output-sampling variance
/// of an N-bit mean estimate with autocorrelation scale tau.
double sample_var(double q, double tau, std::size_t n) {
  return tau * std::max(q * (1.0 - q), kVarFloor) /
         static_cast<double>(std::max<std::size_t>(n, 1));
}

double residual_of(const ErrorTransferInput& in, unsigned i, unsigned j) {
  return in.residual ? std::clamp(in.residual(i, j), 0.0, 1.0) : 1.0;
}

double max_tau(const ErrorTransferInput& in) {
  double tau = 2.0;
  for (const ErrorAbs& a : in.operands) tau = std::max(tau, a.tau);
  return tau;
}

}  // namespace

ErrorTransfer nary_and() {
  return [](const ErrorTransferInput& in) {
    const std::size_t n = in.operands.size();
    double p = in.exact_operands[0];
    double bias = in.operands[0].bias;
    double var = in.operands[0].var;
    double lo = in.operands[0].lo;
    double hi = in.operands[0].hi;
    double corr = 0.0;
    for (std::size_t k = 1; k < n; ++k) {
      const double pk = in.exact_operands[k];
      const ErrorAbs& ok = in.operands[k];
      // Strongest residual correlation against any earlier operand
      // dominates this accumulation step (the partial product carries
      // at most that operand's alignment).
      double r = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        r = std::max(r, residual_of(in, static_cast<unsigned>(j),
                                    static_cast<unsigned>(k)));
      }
      const double w_pos = std::min(p, pk) - p * pk;
      const double w_neg = p * pk - std::max(0.0, p + pk - 1.0);
      corr += r * std::max(w_pos, w_neg);
      bias = bias * pk + ok.bias * p + bias * ok.bias;
      var = var * pk * pk + ok.var * p * p + var * ok.var;
      lo = std::max(0.0, lo + ok.lo - 1.0);  // Frechet lower envelope
      hi = std::min(hi, ok.hi);
      p *= pk;
    }
    ErrorAbs out;
    out.lo = lo;
    out.hi = hi;
    out.corr = corr;
    out.bias = bias + corr;
    out.tau = max_tau(in);
    out.var = var + sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer and_min() {
  return [](const ErrorTransferInput& in) {
    const double a = in.exact_operands[0];
    const double b = in.exact_operands[1];
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    const double frechet_lo = std::max(0.0, a + b - 1.0);
    ErrorAbs out;
    out.lo = std::max(0.0, oa.lo + ob.lo - 1.0);
    out.hi = std::min(oa.hi, ob.hi);
    out.corr = residual_of(in, 0, 1) * (std::min(a, b) - frechet_lo);
    out.bias = oa.bias + ob.bias + out.corr;
    out.tau = max_tau(in);
    out.var = std::max(oa.var, ob.var) +
              sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer or_max() {
  return [](const ErrorTransferInput& in) {
    const double a = in.exact_operands[0];
    const double b = in.exact_operands[1];
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    ErrorAbs out;
    out.lo = std::max(oa.lo, ob.lo);
    out.hi = std::min(1.0, oa.hi + ob.hi);
    out.corr =
        residual_of(in, 0, 1) * (std::min(1.0, a + b) - std::max(a, b));
    out.bias = oa.bias + ob.bias + out.corr;
    out.tau = max_tau(in);
    out.var = std::max(oa.var, ob.var) +
              sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer or_saturating_add() {
  return [](const ErrorTransferInput& in) {
    const double a = in.exact_operands[0];
    const double b = in.exact_operands[1];
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    ErrorAbs out;
    // Clipping interval: the OR can never undershoot either operand nor
    // overshoot the clipped sum.
    out.lo = std::max(oa.lo, ob.lo);
    out.hi = std::min(1.0, oa.hi + ob.hi);
    // SCC = -1 realizes min(1, a+b); the worst drift away is all the
    // way down to max(a, b) at SCC = +1.
    out.corr =
        residual_of(in, 0, 1) * (std::min(1.0, a + b) - std::max(a, b));
    out.bias = oa.bias + ob.bias + out.corr;
    out.tau = max_tau(in);
    out.var = std::max(oa.var, ob.var) +
              sample_var(in.exact, out.tau, in.stream_length);
    // Saturation: the exact sum already rides the clip boundary, so the
    // operator is destroying magnitude information.
    out.saturated = a + b > 1.0 - 0.125;
    return out;
  };
}

ErrorTransfer xor_subtract() {
  return [](const ErrorTransferInput& in) {
    const double a = in.exact_operands[0];
    const double b = in.exact_operands[1];
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    ErrorAbs out;
    out.lo = std::max({0.0, oa.lo - ob.hi, ob.lo - oa.hi});
    out.hi = std::min({1.0, oa.hi + ob.hi, 2.0 - oa.lo - ob.lo});
    // E[XOR] spans |a-b| (SCC = +1) up to min(a+b, 2-a-b) (SCC = -1).
    out.corr = residual_of(in, 0, 1) *
               (std::min(a + b, 2.0 - a - b) - std::abs(a - b));
    out.bias = oa.bias + ob.bias + out.corr;
    out.tau = max_tau(in);
    out.var = oa.var + ob.var +
              sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer mux_scaled_add(bool invert_y) {
  return [invert_y](const ErrorTransferInput& in) {
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs ob_raw = in.operands[1];
    ErrorAbs ob = ob_raw;
    double b = in.exact_operands[1];
    if (invert_y) {
      ob.lo = 1.0 - ob_raw.hi;
      ob.hi = 1.0 - ob_raw.lo;
      b = 1.0 - b;
    }
    const double a = in.exact_operands[0];
    const double n = static_cast<double>(std::max<std::size_t>(
        in.stream_length, 1));
    const double period =
        static_cast<double>((std::uint64_t{1} << in.width) - 1);
    // The half-weight select level sits 1/(2(2^w - 1)) off 0.5, and a
    // non-integral number of select periods adds (N mod P)/(2N).
    const double select_bias =
        0.5 / period +
        0.5 * std::fmod(n, period) / n * (n >= period ? 1.0 : 0.0);
    ErrorAbs out;
    out.lo = clamp01(0.5 * (oa.lo + ob.lo) - select_bias);
    out.hi = clamp01(0.5 * (oa.hi + ob.hi) + select_bias);
    out.bias = 0.5 * (oa.bias + ob.bias) +
               (select_bias + kMuxSelectCoupling) * std::abs(a - b);
    out.tau = max_tau(in);
    // Select sampling: per-cycle Bernoulli(1/2) choice between streams
    // that differ by |a - b|.
    const double gap = std::abs(a - b) + oa.bias + ob.bias;
    out.var = 0.25 * (oa.var + ob.var) +
              out.tau * std::max(0.25 * gap * gap, kVarFloor) / n;
    return out;
  };
}

ErrorTransfer xnor_multiply_bipolar() {
  return [](const ErrorTransferInput& in) {
    const double a = in.exact_operands[0];
    const double b = in.exact_operands[1];
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    // E[XNOR] = 1 - a - b + 2 E[AND]; the AND term carries the
    // correlation sensitivity.
    const double w_pos = std::min(a, b) - a * b;
    const double w_neg = a * b - std::max(0.0, a + b - 1.0);
    ErrorAbs out;
    out.lo = clamp01(1.0 - oa.hi - ob.hi +
                     2.0 * std::max(0.0, oa.lo + ob.lo - 1.0));
    out.hi = clamp01(1.0 - oa.lo - ob.lo + 2.0 * std::min(oa.hi, ob.hi));
    out.corr = 2.0 * residual_of(in, 0, 1) * std::max(w_pos, w_neg);
    out.bias = oa.bias * std::abs(2.0 * b - 1.0) +
               ob.bias * std::abs(2.0 * a - 1.0) + 2.0 * oa.bias * ob.bias +
               out.corr;
    out.tau = max_tau(in);
    out.var = oa.var + ob.var +
              sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer toggle_add() {
  return [](const ErrorTransferInput& in) {
    const ErrorAbs& oa = in.operands[0];
    const ErrorAbs& ob = in.operands[1];
    const double settle =
        kToggleSettleCycles /
        static_cast<double>(std::max<std::size_t>(in.stream_length, 1));
    ErrorAbs out;
    out.lo = clamp01(0.5 * (oa.lo + ob.lo) - settle);
    out.hi = clamp01(0.5 * (oa.hi + ob.hi) + settle);
    out.bias = 0.5 * (oa.bias + ob.bias) + settle;
    out.tau = max_tau(in);
    // Each operand is sampled on alternate cycles only (N/2 samples), so
    // its mean-estimate variance doubles before the 1/4 output scaling.
    out.var = 0.5 * (oa.var + ob.var);
    return out;
  };
}

ErrorTransfer cordiv_divide() {
  return [](const ErrorTransferInput& in) {
    ErrorAbs out;
    out.lo = 0.0;
    out.hi = 1.0;
    out.bias = trivial(in.exact);
    out.tau = std::max(max_tau(in), 8.0);  // DFF feedback holds state
    out.var = 0.0;
    return out;
  };
}

ErrorTransfer not_negate() {
  return [](const ErrorTransferInput& in) {
    const ErrorAbs& oa = in.operands[0];
    ErrorAbs out;
    out.lo = 1.0 - oa.hi;
    out.hi = 1.0 - oa.lo;
    out.bias = oa.bias;
    out.var = oa.var;
    out.tau = oa.tau;
    return out;
  };
}

ErrorTransfer fsm_lipschitz(double lipschitz, unsigned states) {
  return [lipschitz, states](const ErrorTransferInput& in) {
    const ErrorAbs& oa = in.operands[0];
    const double n = static_cast<double>(std::max<std::size_t>(
        in.stream_length, 1));
    const double warmup = kFsmWarmupPerState * states / n;
    // The asymptotic FSM curve assumes a Bernoulli input; an input that
    // itself holds state (another FSM upstream) breaks that assumption
    // harder than an SNG stream does.
    const double model = kFsmModelError +
                         (oa.tau > 2.0 ? kFsmAutocorrSurcharge : 0.0);
    ErrorAbs out;
    out.lo = 0.0;
    out.hi = 1.0;
    out.bias = std::min(1.0, lipschitz * oa.bias) + warmup + model;
    out.tau = std::max(max_tau(in), kFsmTauPerState * states);
    out.var = std::min(1.0, lipschitz * lipschitz) * oa.var +
              sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer bernstein(unsigned degree) {
  return [degree](const ErrorTransferInput& in) {
    const double period =
        static_cast<double>((std::uint64_t{1} << in.width) - 1);
    double bias = 0.0;
    double var = 0.0;
    double r = 0.0;
    for (std::size_t k = 0; k < in.operands.size(); ++k) {
      bias += in.operands[k].bias;
      var += in.operands[k].var;
      for (std::size_t j = 0; j < k; ++j) {
        r = std::max(r, residual_of(in, static_cast<unsigned>(j),
                                    static_cast<unsigned>(k)));
      }
    }
    ErrorAbs out;
    out.lo = 0.0;
    out.hi = 1.0;
    // Correlated copies skew the popcount off its binomial law — at
    // full correlation it collapses to {0, degree}.
    out.corr = r * kBernsteinCorrShare * trivial(in.exact);
    // degree+1 private coefficient SNGs quantize like any input.
    out.bias = bias + out.corr + (degree + 1) * 1.5 / period;
    out.tau = max_tau(in);
    out.var = var + (degree + 1) *
                        sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

ErrorTransfer weighted_mux(std::vector<double> weights) {
  return [weights = std::move(weights)](const ErrorTransferInput& in) {
    double total = 0.0;
    for (const double w : weights) total += w;
    const double n = static_cast<double>(std::max<std::size_t>(
        in.stream_length, 1));
    const double period =
        static_cast<double>((std::uint64_t{1} << in.width) - 1);
    // The select decode is uniform over 2^k patterns but the LFSR period
    // is 2^w - 1: each pattern's frequency sits up to 1/P off its weight,
    // plus the partial-period remainder.
    const double select_bias =
        static_cast<double>(weights.size()) / period +
        0.5 * std::fmod(n, period) / n * (n >= period ? 1.0 : 0.0);
    ErrorAbs out;
    out.lo = 1.0;
    out.hi = 0.0;
    out.bias = select_bias;
    out.var = 0.0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
      const double share = weights[k] / total;
      out.lo = std::min(out.lo, in.operands[k].lo);
      out.hi = std::max(out.hi, in.operands[k].hi);
      out.bias += share * in.operands[k].bias;
      out.var += share * share * in.operands[k].var;
    }
    out.tau = max_tau(in);
    out.var += out.tau * 0.25 / n;  // select sampling across the window
    return out;
  };
}

ErrorTransfer roberts_cross() {
  return [](const ErrorTransferInput& in) {
    const double n = static_cast<double>(std::max<std::size_t>(
        in.stream_length, 1));
    const double period =
        static_cast<double>((std::uint64_t{1} << in.width) - 1);
    const double select_bias =
        0.5 / period + 0.5 * std::fmod(n, period) / n * (n >= period ? 1. : 0.);
    const auto gradient = [&](unsigned i, unsigned j) {
      const double a = in.exact_operands[i];
      const double b = in.exact_operands[j];
      // XOR gradient at residual r off SCC = +1 (see xor_subtract).
      return residual_of(in, i, j) *
             (std::min(a + b, 2.0 - a - b) - std::abs(a - b));
    };
    double bias = select_bias;
    double var = 0.0;
    for (const unsigned k : {0u, 1u, 2u, 3u}) {
      bias += 0.5 * in.operands[k].bias;
      var += 0.25 * in.operands[k].var;
    }
    ErrorAbs out;
    out.lo = 0.0;
    out.hi = 1.0;
    out.corr = 0.5 * (gradient(0, 3) + gradient(1, 2));
    out.bias = bias + out.corr;
    out.tau = max_tau(in);
    out.var = var + sample_var(in.exact, out.tau, in.stream_length);
    return out;
  };
}

}  // namespace sc::graph::error_transfers
