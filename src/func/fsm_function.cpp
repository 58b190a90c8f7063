#include "func/fsm_function.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sc::func {

SaturatingCounter::SaturatingCounter(unsigned states)
    : states_(states), state_(states / 2) {
  if (states < 2 || states % 2 != 0) {
    throw std::invalid_argument(
        "SaturatingCounter: state count must be even and >= 2, got " +
        std::to_string(states));
  }
}

unsigned SaturatingCounter::step(bool up) {
  if (up) {
    if (state_ + 1 < states_) ++state_;
  } else {
    if (state_ > 0) --state_;
  }
  return state_;
}

void SaturatingCounter::set_state(unsigned state) {
  if (state >= states_) {
    throw std::invalid_argument("SaturatingCounter::set_state: state " +
                                std::to_string(state) + " outside [0, " +
                                std::to_string(states_) + ")");
  }
  state_ = state;
}

void SaturatingCounter::reset() { state_ = states_ / 2; }

Sexp::Sexp(unsigned states, unsigned g) : counter_(states), g_(g) {
  if (g < 1 || g >= states) {
    throw std::invalid_argument("Sexp: g must be in [1, states), got " +
                                std::to_string(g));
  }
}

Bitstream stanh(const Bitstream& x, unsigned states) {
  Stanh unit(states);
  Bitstream out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i)));
  }
  return out;
}

double stanh_value(double v, unsigned states) {
  return std::tanh(static_cast<double>(states) / 2.0 * v);
}

double sexp_value(double v, unsigned states, unsigned g) {
  (void)states;  // the state count shapes the approximation, not the target
  if (v <= 0.0) return 1.0;
  return std::clamp(std::exp(-2.0 * static_cast<double>(g) * v), 0.0, 1.0);
}

Bitstream sexp(const Bitstream& x, unsigned states, unsigned g) {
  Sexp unit(states, g);
  Bitstream out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.push_back(unit.step(x.get(i)));
  }
  return out;
}

}  // namespace sc::func
